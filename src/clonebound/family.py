"""The covariant cloner output family and its constraint diagnostics.

A universal symmetric 1 -> 2 cloner sends the pure input direction m to
a two-qubit output of the form

    rho_out(m) = (1/4)(I + eta (m.sigma (x) I + I (x) m.sigma)
                       + sum_jk t_jk sigma_j (x) sigma_k).

`GeneralClonerParams` carries the full 3x3 t-matrix of that expansion.
Demanding covariance under rotations about m forces, in the frame where
m = z, the structure t_xx = t_yy, t_xy = -t_yx and vanishing x-z / y-z
cross terms; demanding that opposite-axis mixtures be indistinguishable
further forces t_zz = t_xx = t_yy.  `ClonerParams` is that constrained
family, parameterized by (eta, t, t_xy).

The output for a direction m is built in the Pauli frame: with R the
minimal-geodesic SO(3) rotation taking zhat to m (`bloch_rotation_z_to`),
both marginals point along eta*m and the correlation matrix is R t R^T,
i.e. it co-rotates with the input direction, which is what universality
means operationally.  Every output is therefore a U (x) U conjugate of
the z-frame template and shares its spectrum.  For constrained points
that spectrum has one closed form: two level pairs, `_outer_levels`
over (eta, t) and `_central_levels` over (t, t_xy), which
`positivity_eigenvalues` sorts.

The no-signaling difference rho(+a) + rho(-a) - rho(+b) - rho(-b) comes
from the correlation sum alone: the identity and the eta terms cancel
exactly, leaving D, the co-rotated R t R^T at +-a minus those at +-b: real
3x3, and real symmetric as a 4x4 in the magic basis (Hill & Wootters 1997).

Axes come one, shape (3,), or stacked, shape (N, 3), with one result
per row.  One rule in Python floats, `require_unit_axis`, decides every
row, alone or in a stack: |hypot(row) - 1| <= STATE_TOL.  Public
functions validate axes once; the private builders they call trust
them.  A call's few rotations are built in Python floats, free of
numpy's per-call cost.

`check_point` is the one place the four checks and their tolerance
become a verdict; `clone-bound verify` prints its report.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InvalidBlochError
from .pauli import BASIS, STATE_TOL, _printed_length, is_positive

#: sigma_j (x) I + I (x) sigma_j: the Bloch operators of both clones at once
_BLOCH_PAIR = BASIS[1:, 0] + BASIS[0, 1:]
_CORR_BASIS = BASIS[1:, 1:].reshape(9, 16)
_MAGIC = np.array([[1, 1j, 0, 0], [0, 0, 1j, 1], [0, 0, 1j, -1], [1, -1j, 0, 0]])
#: sigma_j (x) sigma_k in the magic basis, columns _MAGIC / sqrt(2): real, entries 0 and +-1
_MAGIC_CORR = (_MAGIC.conj().T @ BASIS[1:, 1:] @ _MAGIC).real.reshape(9, 16) / 2.0

#: `_rotations_z_to` row-major at m = -zhat (a half turn about xhat) and at m = zhat
_POLE_ROWS = ((1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0, -1.0), tuple(np.eye(3).ravel().tolist()))
_DIAGONAL = 1.0 / math.sqrt(3.0)

#: axis pairs probing the opposite-mixture identity: with the fourth, the
#: residual vanishes on all of them only for family points (rank 7 of 9)
CANONICAL_AXIS_PAIRS = (
    ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0)),
    ((0.0, 0.0, 1.0), (0.0, 1.0, 0.0)),
    ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)),
    ((0.0, 0.0, 1.0), (_DIAGONAL, _DIAGONAL, _DIAGONAL)),
)


def _check_magnitude(name, value):
    """A finite float with |value| <= 1, exactly: a given number has no round-off."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if abs(value) > 1.0:
        raise ValueError(f"|{name}| must be <= 1, got {value!r}")
    return value


@dataclass(frozen=True)
class ClonerParams:
    """Constrained family point (eta, t, t_xy).

    t is the common diagonal correlation t_xx = t_yy = t_zz; t_xy is
    the antisymmetric off-diagonal pair (t_xy = -t_yx).
    """

    eta: float
    t: float
    t_xy: float = 0.0

    def __post_init__(self):
        for name in ("eta", "t", "t_xy"):
            object.__setattr__(self, name, _check_magnitude(name, getattr(self, name)))
        mat = self.t * np.eye(3)
        mat[0, 1] = self.t_xy
        mat[1, 0] = -self.t_xy
        mat.flags.writeable = False
        object.__setattr__(self, "_matrix", mat)  # not a field: eq, repr and asdict skip it

    def as_matrix(self) -> np.ndarray:
        """The 3x3 correlation matrix in the z frame (read-only), built once."""
        return self._matrix

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class GeneralClonerParams:
    """Unconstrained family point: eta plus the full 3x3 correlation matrix."""

    eta: float
    t: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "eta", _check_magnitude("eta", self.eta))
        mat = np.array(self.t, dtype=float)
        if mat.shape != (3, 3):
            raise ValueError(f"t must be a 3x3 matrix, got shape {mat.shape}")
        entries = mat.ravel().tolist()
        if not all(map(math.isfinite, entries)):
            raise ValueError("t contains non-finite entries")
        if max(map(abs, entries)) > 1.0:
            raise ValueError("all |t_jk| must be <= 1")
        mat.flags.writeable = False
        object.__setattr__(self, "t", mat)

    def as_matrix(self) -> np.ndarray:
        """The 3x3 correlation matrix in the z frame (read-only)."""
        return self.t

    def to_json_dict(self) -> dict:
        return {"eta": self.eta, "t_matrix": self.t.tolist()}


@dataclass(frozen=True)
class PositivityEigenvalues:
    """The four closed-form output eigenvalues of a family point, descending."""

    lam1: float
    lam2: float
    lam3: float
    lam4: float

    def as_array(self) -> np.ndarray:
        return np.array([self.lam1, self.lam2, self.lam3, self.lam4])

    def min(self) -> float:
        return self.lam4


def require_unit_axis(m, what="direction"):
    """Unit 3-vectors (3,) or (N, 3), one rule for every row: |hypot(row) - 1| <= STATE_TOL."""
    try:
        vec = np.asarray(m, dtype=float)
    except (TypeError, ValueError) as exc:  # ragged stacks, non-numbers
        raise InvalidBlochError(f"{what} must be a 3-vector or an (N, 3) stack") from exc
    if vec.shape == (3,):
        rows = (vec.tolist(),)
    elif vec.ndim == 2 and vec.shape[1] == 3:
        rows = vec.tolist()
    else:
        raise InvalidBlochError(f"{what} must be a 3-vector or an (N, 3) stack, got {vec.shape}")
    for row in rows:
        if not abs(math.hypot(*row) - 1.0) <= STATE_TOL:  # nan fails too
            # the first bad row: `index` matches the row object itself, nan or not
            name = what if vec.ndim == 1 else f"{what}[{rows.index(row)}]"
            if not all(map(math.isfinite, row)):
                raise InvalidBlochError(f"{name} must be a finite 3-vector, got {row}")
            raise InvalidBlochError(f"{name} must be unit length, |m| = {_printed_length(row)}")
    return vec


def _require_one_axis(m, what="direction"):
    """`require_unit_axis` for arguments that take one direction, not a stack."""
    vec = require_unit_axis(m, what)
    if vec.ndim != 1:
        raise InvalidBlochError(f"{what} must be one 3-vector, got shape {vec.shape}")
    return vec


def bloch_rotation_z_to(m) -> np.ndarray:
    """The SO(3) rotation taking zhat to the unit vector m (minimal geodesic).

    Rodrigues' formula about zhat x m, written in the entries of m:

        R = [[1 - f m_x^2,  -f m_x m_y,   m_x],
             [-f m_x m_y,   1 - f m_y^2,  m_y],
             [-m_x,         -m_y,         m_z]],   f = (1 - m_z)/(m_x^2 + m_y^2).

    f equals 1/(1 + m_z) for unit m but stays accurate next to -zhat,
    where 1 + m_z cancels.  As in the SU(2) reference, `tests/reference.py`,
    m = zhat gives the identity and m = -zhat a half turn about xhat.
    m of shape (3,) gives one (3, 3) matrix, a stack (N, 3) gives (N, 3, 3).
    """
    return _rotations_z_to(require_unit_axis(m))


def _rotations_z_to(axes):
    """`bloch_rotation_z_to` for validated axes: (..., 3) -> (..., 3, 3); N row lists -> (N, 3, 3).

    Row by row in Python floats, in the expressions and order of the
    vectorized body in `tests/reference.py`: each step is one correctly
    rounded IEEE operation, so both agree bit for bit.  A few axes cost
    ~1.5 us each, under numpy's ~30 us floor; 1000 take ~1.2 ms, not ~0.1.
    """
    rows, lead = (axes, (len(axes),)) if isinstance(axes, list) else (
        axes.reshape(-1, 3).tolist(), axes.shape[:-1])
    flat = []
    for x, y, z in rows:
        norm = math.sqrt(x * x + y * y + z * z)
        x, y, z = x / norm, y / norm, z / norm
        rho2 = x * x + y * y
        if rho2 < STATE_TOL * STATE_TOL:
            flat.extend(_POLE_ROWS[z > 0.0])
            continue
        f = (1.0 - z) / rho2
        fx, fy = f * x, f * y
        flat.extend((1.0 - fx * x, -fx * y, x, -fx * y, 1.0 - fy * y, y, -x, -y, z))
    return np.array(flat).reshape(lead + (3, 3))


def output_state(params, m) -> np.ndarray:
    """Family output for direction m with the co-rotating correlation matrix.

    (1/4)(I + eta (m.sigma (x) I + I (x) m.sigma)
          + sum_jk (R t R^T)_jk sigma_j (x) sigma_k),  R = bloch_rotation_z_to(m).

    m of shape (3,) gives one (4, 4) state, a stack (N, 3) gives
    (N, 4, 4).  The marginals use R zhat, the normalized m.  The Bloch
    part is added to the identity before the correlation part, the
    order of the z-frame closed form in `tests/reference.py`, so that at
    m = zhat the result matches it bit for bit.
    """
    axes = require_unit_axis(m)
    # one axis is a stack of one, so every row takes the same matmul path
    rot = _rotations_z_to(axes.reshape(-1, 3))
    return _assemble(params, rot).reshape(axes.shape[:-1] + (4, 4))


def _assemble(params, rot):
    """Outputs (N, 4, 4) for rotations (N, 3, 3) taking zhat to each axis.

    Each real or imaginary part of an entry of either expansion has at
    most two nonzero terms (the basis entries are 0, +-1, +-i), so the
    matmuls sum them exactly, in whatever order BLAS takes.
    """
    bloch = (rot[:, :, 2] @ _BLOCH_PAIR.reshape(3, 16)).reshape(-1, 4, 4)
    corr = (rot @ params.as_matrix() @ rot.transpose(0, 2, 1)).reshape(-1, 9)
    return (BASIS[0, 0] + params.eta * bloch + (corr @ _CORR_BASIS).reshape(-1, 4, 4)) / 4.0


def template_state_z(params) -> np.ndarray:
    """The z-frame template of either parameter type: `output_state` at zhat, bit for bit."""
    corr = params.as_matrix().reshape(9) @ _CORR_BASIS
    return (BASIS[0, 0] + params.eta * _BLOCH_PAIR[2] + corr.reshape(4, 4)) / 4.0


def min_output_eigenvalue(params) -> float:
    """Lowest eigenvalue shared by every output of a family point.

    All outputs are U (x) U conjugates of the z template, so its
    spectrum decides positivity for every direction; constrained points
    use the closed form.
    """
    if isinstance(params, ClonerParams):
        return positivity_eigenvalues(params).min()
    return float(np.linalg.eigvalsh(template_state_z(params))[0])


def axial_covariance_residual(rho, m) -> float:
    """Frobenius norm of [G, rho], G = m.sigma (x) I + I (x) m.sigma.

    Every rotation about m acts on the pair as E (x) E = exp(i alpha G),
    so rho commutes with all of them if and only if it commutes with
    the generator G: zero (within round-off) exactly for states
    invariant under rotations about m, as every family member is about
    its own axis.
    """
    gen = (_require_one_axis(m) @ _BLOCH_PAIR.reshape(3, 16)).reshape(4, 4)
    arr = np.asarray(rho, dtype=complex)
    return float(np.linalg.norm(gen @ arr - arr @ gen))


def covariance_constraint_residual(t) -> float:
    """How far a 3x3 correlation matrix, or either parameter type's, is from the z-frame form.

    Returns the max of |t_xx - t_yy|, |t_xy + t_yx|, |t_xz|, |t_zx|,
    |t_yz|, |t_zy|; zero exactly on matrices of the allowed structure.
    """
    mat = np.asarray(t.as_matrix() if hasattr(t, "as_matrix") else t, dtype=float)
    if mat.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {mat.shape}")
    (xx, xy, xz), (yx, yy, yz), (zx, zy, _) = mat.tolist()
    return max(abs(xx - yy), abs(xy + yx), abs(xz), abs(zx), abs(yz), abs(zy))


def no_signaling_residual(params, axis_a, axis_b):
    """Distinguishability of the two opposite-outcome output sums.

    Returns the trace distance between rho_out(+a) + rho_out(-a) and
    rho_out(+b) + rho_out(-b).  Their difference comes from the
    correlation sum alone (`_opposite_difference`): the identity and the
    eta terms cancel exactly.  For diagonal correlation matrices and
    axes (zhat, xhat) this equals |t_zz - t_xx|; it vanishes for every
    constrained family point and every axis pair.  Axes of shape (3,)
    give a float; stacks (N, 3) give one value per pair, shape (N,).
    """
    a = require_unit_axis(axis_a, "axis_a")
    b = require_unit_axis(axis_b, "axis_b")
    if a.shape != b.shape:
        raise InvalidBlochError(f"axis_a and axis_b differ in shape: {a.shape} vs {b.shape}")
    distance = _signal_distance(_opposite_difference(params, a, b)[0])
    return float(distance) if a.ndim == 1 else distance


def _opposite_difference(params, a, b):
    """D, with rho(+a) + rho(-a) - rho(+b) - rho(-b) = `_correlation_part(D)`, and the rotations
    to +a, -a, +b, -b, stacked first: axes (3,) give D (3, 3), axes (N, 3) give (N, 3, 3)."""
    if a.ndim == 1:  # the four rotation rows straight from Python floats
        a, b = a.tolist(), b.tolist()
        rot = _rotations_z_to([a, [-v for v in a], b, [-v for v in b]])
    else:
        rot = _rotations_z_to(np.array([a, -a, b, -b]))
    corr = rot @ params.as_matrix() @ rot.swapaxes(-1, -2)
    return corr[0] + corr[1] - (corr[2] + corr[3]), rot


def _correlation_part(corr):
    """(1/4) sum_jk corr_jk sigma_j (x) sigma_k: complex (..., 4, 4) from real (..., 3, 3)."""
    lead = corr.shape[:-2]
    return (corr.reshape(lead + (9,)) @ _CORR_BASIS).reshape(lead + (4, 4)) / 4.0


def _signal_distance(diff):
    """The opposite sums' trace distance from D (..., 3, 3), by one real magic-basis spectrum."""
    lead = diff.shape[:-2]
    sym = (diff.reshape(lead + (9,)) @ _MAGIC_CORR).reshape(lead + (4, 4))  # 4x the difference
    return np.abs(np.linalg.eigvalsh(sym)).sum(axis=-1) / 8.0


def _outer_levels(eta, t):
    """The outer eigenvalue pair (1 +- 2 eta + t)/4, which t_xy does not move."""
    return (1.0 + 2.0 * eta + t) / 4.0, (1.0 - 2.0 * eta + t) / 4.0


def _central_levels(t, t_xy):
    """The central 2x2 block's pair (1 - t +- 2 sqrt(t^2 + t_xy^2))/4, which eta does not move."""
    pair = 2.0 * np.hypot(t, t_xy)
    return (1.0 - t + pair) / 4.0, (1.0 - t - pair) / 4.0


def positivity_eigenvalues(params: ClonerParams) -> PositivityEigenvalues:
    """The closed-form output eigenvalues of a constrained family point, descending.

    The z-frame matrix block-diagonalizes into the outer pair over
    (eta, t) and the central pair over (t, t_xy); the spectrum is their
    descending sort, so each value is bit for bit a value of one helper.
    """
    levels = (*_outer_levels(params.eta, params.t), *_central_levels(params.t, params.t_xy))
    return PositivityEigenvalues(*sorted(map(float, levels), reverse=True))


def check_point(params) -> dict:
    """The constraint suite on a point of either type: the report `clone-bound verify` prints.

    Covariance structure, axial invariance about z, the opposite-mixture
    identity on `CANONICAL_AXIS_PAIRS` and positivity of the shared
    spectrum.  STATE_TOL is the one round-off allowance: a residual
    passes below it and the lowest eigenvalue at or above -STATE_TOL
    (`is_positive`), so boundary points pass when given as fractions.
    """
    axes_a, axes_b = np.swapaxes(CANONICAL_AXIS_PAIRS, 0, 1)
    report = {
        "covariance_residual": covariance_constraint_residual(params.as_matrix()),
        "axial_residual": axial_covariance_residual(template_state_z(params), (0.0, 0.0, 1.0)),
        "no_signaling_residual": float(no_signaling_residual(params, axes_a, axes_b).max()),
        "min_eigenvalue": min_output_eigenvalue(params),
        "residual_threshold": STATE_TOL,
        "eigenvalue_floor": -STATE_TOL,
    }
    checks = {f"{name}_ok": report[f"{name}_residual"] < STATE_TOL
              for name in ("covariance", "axial", "no_signaling")}
    checks["positivity_ok"] = is_positive(report["min_eigenvalue"])
    return {**report, **checks, "pass": all(checks.values())}


def clone_fidelity(params) -> float:
    """Fidelity (1 + eta)/2 of each clone against a pure input."""
    return (1.0 + params.eta) / 2.0
