"""Test-only references for the family output, the game and the sweep, and the tests' draws.

The package builds every output in the Pauli frame, rotating the
correlation matrix in SO(3).  The functions here build the same states
the other way and share no code with it: the z-frame state of Buzek &
Hillery (PRA 54, 1844, 1996) written out entry by entry, or
`template_z` for either parameter type, conjugated by U (x) U with U
the minimal-geodesic SU(2) element taking zhat to m.  Those SU(2)
functions use numpy and this module's Pauli matrices only, and so do
the references built on them: `averaged_clone_output`, the state Bob
holds once Alice measures along an axis; `helstrom_projector`, Bob's
best measurement (Helstrom 1976) from `eigh` of two such states'
difference; and `bloch_rotation_matrix`, the SO(3) matrix
R_jk = Tr(sigma_j U sigma_k U^dag)/2 of a qubit unitary.
`sweep_output` builds the `clone-bound sweep` bytes one grid point at a
time, as one string.  `rotations_z_to` is the package's SO(3) Rodrigues
body as numpy array operations over a whole stack, the oracle its
per-row Python float body must match bit for bit.
`no_signaling_residual_svd` takes the no-signaling distance from the
SU(2) outputs and a singular value decomposition, not a 4x4 spectrum.
`row_walk_grid` is `bounds.max_eta_grid` judged on every cell, a row at
a time, from this module's own matrix-layout levels, which `src/` does
not share: `layout_row_levels` and `layout_central_levels` read the
spectrum off the z-frame matrix (two diagonal entries and a 2x2 block,
its magnitude by complex `abs`), where the grid takes `family`'s
closed-form pairs (`hypot`).
"""

import math

import numpy as np

from clonebound.bounds import BoundResult
from clonebound.family import ClonerParams, positivity_eigenvalues
from clonebound.pauli import STATE_TOL, _require_one_qubit_state, is_positive
from clonebound.serialize import csv_lines, dump_json

IDENTITY = np.eye(2, dtype=complex)
SIGMA = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


def random_axis(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def random_params(rng):
    eta, t, t_xy = rng.uniform(-1.0, 1.0, size=3)
    return ClonerParams(eta=eta, t=t, t_xy=t_xy)


def density_to_bloch(rho) -> np.ndarray:
    """Bloch vector m_j = Tr(rho sigma_j) of a valid one-qubit state."""
    arr, _ = _require_one_qubit_state(rho)
    return np.array([np.trace(arr @ s).real for s in SIGMA])


def su2_rotation(axis, angle: float) -> np.ndarray:
    """SU(2) element cos(angle/2) I - i sin(angle/2) (n . sigma), n = axis / |axis|.

    Conjugation by the result rotates Bloch vectors by `angle` about
    `axis` in the right-handed sense.
    """
    vec = np.asarray(axis, dtype=float)
    vec = vec / float(np.linalg.norm(vec))
    ns = vec[0] * SIGMA[0] + vec[1] * SIGMA[1] + vec[2] * SIGMA[2]
    return np.cos(angle / 2.0) * IDENTITY - 1.0j * np.sin(angle / 2.0) * ns


def output_state_z(params) -> np.ndarray:
    """Constrained family output for m = z, written out entry by entry.

    Basis order |00>, |01>, |10>, |11>:

        (1/4) * [[1+2*eta+t, 0,            0,            0         ],
                 [0,         1-t,          2t+2i*t_xy,   0         ],
                 [0,         2t-2i*t_xy,   1-t,          0         ],
                 [0,         0,            0,            1-2*eta+t ]]
    """
    eta, t, t_xy = params.eta, params.t, params.t_xy
    out = np.zeros((4, 4), dtype=complex)
    out[0, 0] = 1.0 + 2.0 * eta + t
    out[1, 1] = 1.0 - t
    out[2, 2] = 1.0 - t
    out[3, 3] = 1.0 - 2.0 * eta + t
    out[1, 2] = 2.0 * t + 2.0j * t_xy
    out[2, 1] = 2.0 * t - 2.0j * t_xy
    return out / 4.0


def rotation_taking_z_to(m) -> np.ndarray:
    """The fixed SU(2) element mapping zhat to the unit vector m.

    Minimal geodesic: U = c I - i s (n . sigma), n along zhat x m, with
    the half-angle cosine and sine taken from whichever of 1 +- m_z does
    not cancel: c = sqrt((1 + m_z)/2), s = |m_xy|/(2c) for m_z >= 0,
    else s = sqrt((1 - m_z)/2), c = |m_xy|/(2s).  Two special cases:
    m = zhat gives the identity, m = -zhat rotates by pi about xhat.
    """
    mx, my, mz = np.asarray(m, dtype=float)
    rho = math.hypot(mx, my)
    if rho < 1e-9:
        if mz > 0.0:
            return IDENTITY.copy()
        return su2_rotation((1.0, 0.0, 0.0), np.pi)
    if mz >= 0.0:
        c = math.sqrt((1.0 + mz) / 2.0)
        s = rho / (2.0 * c)
    else:
        s = math.sqrt((1.0 - mz) / 2.0)
        c = rho / (2.0 * s)
    # s (n . sigma) with n = (-m_y, m_x, 0) / |m_xy|
    return c * IDENTITY - 1.0j * (s / rho) * (-my * SIGMA[0] + mx * SIGMA[1])


def rotate_output(rho_z, m) -> np.ndarray:
    """Conjugate a z-frame output by U (x) U, with U = rotation_taking_z_to(m)."""
    u = rotation_taking_z_to(m)
    w = np.kron(u, u)
    return w @ np.asarray(rho_z, dtype=complex) @ w.conj().T


def bloch_rotation_matrix(u) -> np.ndarray:
    """R_jk = Tr(sigma_j U sigma_k U^dag)/2, so that U (m . sigma) U^dag = (R m) . sigma."""
    u = np.asarray(u, dtype=complex)
    return np.array([[np.trace(sj @ u @ sk @ u.conj().T).real for sk in SIGMA]
                     for sj in SIGMA]) / 2.0


#: sigma_j (x) sigma_k for j, k in x, y, z
_SIGMA_PAIRS = np.array([[np.kron(sj, sk) for sk in SIGMA] for sj in SIGMA])


def template_z(params) -> np.ndarray:
    """The z-frame output (1/4)(I + eta (Z(x)I + I(x)Z) + sum_jk t_jk sigma_j(x)sigma_k)."""
    z_pair = np.kron(SIGMA[2], IDENTITY) + np.kron(IDENTITY, SIGMA[2])
    return (np.eye(4) + params.eta * z_pair
            + np.einsum("jk,jkab->ab", params.as_matrix(), _SIGMA_PAIRS)) / 4.0


def averaged_clone_output(params, axis) -> np.ndarray:
    """Mean of the SU(2) outputs at +axis and -axis: Bob's pair after Alice measures along axis."""
    rho_z, vec = template_z(params), np.asarray(axis, dtype=float)
    return (rotate_output(rho_z, vec) + rotate_output(rho_z, -vec)) / 2.0


def helstrom_projector(params, axis_a, axis_b) -> np.ndarray:
    """Projector onto the eigenspace of averaged(a) - averaged(b) above STATE_TOL, or 0."""
    diff = averaged_clone_output(params, axis_a) - averaged_clone_output(params, axis_b)
    eigvals, eigvecs = np.linalg.eigh(diff)
    plus = eigvecs[:, eigvals > STATE_TOL]
    return plus @ plus.conj().T


def no_signaling_residual_svd(params, axis_a, axis_b) -> float:
    """`family.no_signaling_residual` from the SU(2) outputs and the singular values of D.

    Delta = rho(+a) + rho(-a) - rho(+b) - rho(-b), each output the z-frame
    template (1/4)(I + eta (Z (x) I + I (x) Z) + sum_jk t_jk sigma_j (x) sigma_k)
    conjugated by U (x) U, and D_jk = Tr(Delta sigma_j (x) sigma_k).  Local
    rotations bring D to diag(s1, s2, +-s3) with s1 >= s2 >= s3 >= 0, and the
    absolute eigenvalues of sum_j d_j sigma_j (x) sigma_j sum to
    2 max(s1 + s2 + s3, 2 s1) for either sign, so the trace distance
    (1/2) sum |eig(Delta)| is max(s1 + s2 + s3, 2 s1) / 4.
    """
    rho_z = template_z(params)
    a, b = np.asarray(axis_a, dtype=float), np.asarray(axis_b, dtype=float)
    delta = (rotate_output(rho_z, a) + rotate_output(rho_z, -a)
             - rotate_output(rho_z, b) - rotate_output(rho_z, -b))
    d = np.einsum("ab,jkba->jk", delta, _SIGMA_PAIRS).real
    s = np.linalg.svd(d, compute_uv=False)
    return max(s.sum(), 2.0 * s[0]) / 4.0


_EYE = np.eye(3)
_HALF_TURN_X = np.diag([1.0, -1.0, -1.0])


def rotations_z_to(axes):
    """`family._rotations_z_to` as array operations: (..., 3) -> (..., 3, 3)."""
    x, y, z = axes[..., 0], axes[..., 1], axes[..., 2]
    unit = axes / np.sqrt(x * x + y * y + z * z)[..., None]
    x, y, z = unit[..., 0], unit[..., 1], unit[..., 2]
    rho2 = x * x + y * y
    pole = rho2 < STATE_TOL * STATE_TOL
    f = (1.0 - z) / np.where(pole, 1.0, rho2)
    fx = f * x
    rot = np.empty(axes.shape[:-1] + (3, 3))
    rot[..., 0, 0] = 1.0 - fx * x
    rot[..., 0, 1] = rot[..., 1, 0] = -fx * y
    rot[..., 1, 1] = 1.0 - f * y * y
    rot[..., :, 2] = unit
    rot[..., 2, :2] = -unit[..., :2]
    at_pole = np.where(z[..., None, None] > 0.0, _EYE, _HALF_TURN_X)
    return np.where(pole[..., None, None], at_pole, rot)


SWEEP_HEADER = ("eta", "t", "t_xy", "lam1", "lam2", "lam3", "lam4", "feasible", "fidelity")


def sweep_output(resolution, fmt):
    """`clone-bound sweep --resolution R --format fmt` stdout, point by point.

    One ClonerParams and one positivity_eigenvalues call per grid point,
    then `csv_lines` or one `dump_json` of the whole payload.  Both render
    floats through `serialize.format_floats`, as the sweep does, so this
    reference cannot catch a formatting slip; the sha256 digests of the
    default sweep in `test_cli.py` pin the bytes independently of it.
    """
    axis = np.linspace(-1.0, 1.0, resolution)
    rows = []
    for eta in axis:
        for t in axis:
            for t_xy in axis:
                lams = positivity_eigenvalues(ClonerParams(eta, t, t_xy))
                rows.append((float(eta), float(t), float(t_xy),
                             lams.lam1, lams.lam2, lams.lam3, lams.lam4,
                             is_positive(lams.min()), (1.0 + float(eta)) / 2.0))
    if fmt == "json":
        return dump_json({"command": "sweep", "resolution": resolution,
                          "header": list(SWEEP_HEADER), "rows": [list(r) for r in rows]})
    return "\n".join(csv_lines(SWEEP_HEADER, rows)) + "\n"


def layout_row_levels(eta, t):
    """The output levels fixed by the row: the outer pair d0, d3 and the block diagonal.

    With `layout_central_levels`, the eigenvalues read off the z-frame
    matrix layout (two diagonal entries plus a 2x2 Hermitian block), not
    off the closed form, so the grid references stay an independent
    check on it.
    """
    return (1.0 + 2.0 * eta + t) / 4.0, (1.0 - 2.0 * eta + t) / 4.0, (1.0 - t) / 4.0


def layout_central_levels(block_diag, entry):
    """The block's levels block_diag +- |entry|/4; entry = 2t + 2i t_xy."""
    half_gap = np.abs(entry) * 0.25  # exact, so equal to / 4.0
    return block_diag + half_gap, block_diag - half_gap


def row_walk_grid(resolution):
    """`max_eta_grid` on every cell: a row at a time down from t = +1, O(resolution) memory.

    Each row judges all four levels of every t_xy and the walk stops at
    the first row with a survivor, picking the smallest |t_xy|, negative
    side first.  Unlike the library it assumes nothing about which cells
    decide a row, and it takes the levels from the matrix layout.
    """
    axis = np.linspace(-1.0, 1.0, resolution)
    entry = np.empty(resolution, dtype=complex)
    entry.imag = 2.0 * axis
    for t in axis[::-1]:
        d0, d3, block_diag = layout_row_levels((1.0 + t) / 2.0, t)
        entry.real = 2.0 * t
        upper, lower = layout_central_levels(block_diag, entry)
        ok = is_positive(d0) & is_positive(d3) & is_positive(upper) & is_positive(lower)
        if ok.any():
            t_xy = axis[ok]
            eta = float((1.0 + t) / 2.0)
            return BoundResult(eta_max=eta, t_star=float(t),
                               t_xy_star=float(t_xy[np.lexsort((t_xy, np.abs(t_xy)))[0]]),
                               fidelity_max=(1.0 + eta) / 2.0, method="grid")
    raise RuntimeError("no feasible grid point")
