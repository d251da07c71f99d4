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
the z-frame template and shares its spectrum.  `output_state_z`,
`rotation_taking_z_to` and `rotate_output` build the same states by
writing the z-frame matrix out and conjugating it in SU(2); they are
kept as the independent reference the tests compare against.

Axes come one, shape (3,), or stacked, shape (N, 3), with one result
per row.  Public functions validate them once; the private builders
they call trust them, and nothing re-validates a state built here.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InvalidBlochError
from .pauli import (
    ALGEBRA_TOL,
    BASIS,
    IDENTITY,
    SIGMA,
    STATE_TOL,
    _half_trace_norm,
    su2_rotation,
    tensor,
)

#: sigma_j (x) I + I (x) sigma_j: the Bloch operators of both clones at once
_BLOCH_PAIR = BASIS[1:, 0] + BASIS[0, 1:]

_Z = np.array([0.0, 0.0, 1.0])
_EYE = np.eye(3)
_HALF_TURN_X = np.diag([1.0, -1.0, -1.0])
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
    value = float(value)
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if abs(value) > 1.0 + ALGEBRA_TOL:
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
        object.__setattr__(self, "eta", _check_magnitude("eta", self.eta))
        object.__setattr__(self, "t", _check_magnitude("t", self.t))
        object.__setattr__(self, "t_xy", _check_magnitude("t_xy", self.t_xy))

    def as_matrix(self) -> np.ndarray:
        """The 3x3 correlation matrix in the z frame."""
        mat = self.t * np.eye(3)
        mat[0, 1] = self.t_xy
        mat[1, 0] = -self.t_xy
        return mat

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
        if not np.all(np.isfinite(mat)):
            raise ValueError("t contains non-finite entries")
        if np.max(np.abs(mat)) > 1.0 + ALGEBRA_TOL:
            raise ValueError("all |t_jk| must be <= 1")
        mat.flags.writeable = False
        object.__setattr__(self, "t", mat)

    def as_matrix(self) -> np.ndarray:
        """The 3x3 correlation matrix in the z frame (read-only)."""
        return self.t

    def to_json_dict(self) -> dict:
        return {"eta": self.eta, "t": [[float(v) for v in row] for row in self.t]}


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


def _require_unit_axis(m, what="direction"):
    """Unit 3-vectors, shape (3,) or (N, 3); errors name `what` and the bad row."""
    try:
        vec = np.asarray(m, dtype=float)
    except (TypeError, ValueError) as exc:  # ragged stacks, non-numbers
        raise InvalidBlochError(f"{what} must be a 3-vector or an (N, 3) stack") from exc
    if vec.ndim not in (1, 2) or vec.shape[-1] != 3:
        raise InvalidBlochError(f"{what} must be a 3-vector or an (N, 3) stack, got {vec.shape}")
    norms = np.linalg.norm(vec, axis=-1).reshape(-1)
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= STATE_TOL))
    if bad.size:
        row = vec.reshape(-1, 3)[bad[0]]
        name = what if vec.ndim == 1 else f"{what}[{bad[0]}]"
        if not np.all(np.isfinite(row)):
            raise InvalidBlochError(f"{name} must be a finite 3-vector, got {row!r}")
        raise InvalidBlochError(f"{name} must be unit length, |m| = {norms[bad[0]]}")
    return vec


def _require_one_axis(m, what="direction"):
    """`_require_unit_axis` for arguments that take one direction, not a stack."""
    vec = _require_unit_axis(m, what)
    if vec.ndim != 1:
        raise InvalidBlochError(f"{what} must be one 3-vector, got shape {vec.shape}")
    return vec


def output_state_z(params: ClonerParams) -> np.ndarray:
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
    mx, my, mz = _require_one_axis(m)
    rho = math.hypot(mx, my)
    if rho < STATE_TOL:
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
    arr = np.asarray(rho_z, dtype=complex)
    u = rotation_taking_z_to(m)
    w = tensor(u, u)
    return w @ arr @ w.conj().T


def bloch_rotation_z_to(m) -> np.ndarray:
    """The SO(3) rotation taking zhat to the unit vector m (minimal geodesic).

    Rodrigues' formula about zhat x m, written in the entries of m:

        R = [[1 - f m_x^2,  -f m_x m_y,   m_x],
             [-f m_x m_y,   1 - f m_y^2,  m_y],
             [-m_x,         -m_y,         m_z]],   f = (1 - m_z)/(m_x^2 + m_y^2).

    f equals 1/(1 + m_z) for unit m but stays accurate next to -zhat,
    where 1 + m_z cancels.  Same convention as `rotation_taking_z_to`:
    m = zhat gives the identity, m = -zhat a half turn about xhat.
    m of shape (3,) gives one (3, 3) matrix, a stack (N, 3) gives (N, 3, 3).
    """
    return _rotations_z_to(_require_unit_axis(m))


def _rotations_z_to(axes):
    """`bloch_rotation_z_to` for validated axes, shape (..., 3) -> (..., 3, 3)."""
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


def output_state(params, m) -> np.ndarray:
    """Family output for direction m with the co-rotating correlation matrix.

    (1/4)(I + eta (m.sigma (x) I + I (x) m.sigma)
          + sum_jk (R t R^T)_jk sigma_j (x) sigma_k),  R = bloch_rotation_z_to(m).

    m of shape (3,) gives one (4, 4) state, a stack (N, 3) gives
    (N, 4, 4).  The marginals use R zhat, the normalized m.  The Bloch
    part is added to the identity before the correlation part, the
    order the z-frame closed form uses, so that at m = zhat the result
    matches `output_state_z` bit for bit.
    """
    return _output_states(params, _require_unit_axis(m))


def _output_states(params, axes):
    """`output_state` for validated axes, shape (..., 3) -> (..., 4, 4).

    Each real or imaginary part of an entry of either expansion has at
    most two nonzero terms (the basis entries are 0, +-1, +-i), so the
    matmuls sum them exactly, in whatever order BLAS takes.
    """
    shape = axes.shape[:-1] + (4, 4)
    # one axis is a stack of one, so every row takes the same matmul path
    rot = _rotations_z_to(axes.reshape(-1, 3))
    bloch = (rot[:, :, 2] @ _BLOCH_PAIR.reshape(3, 16)).reshape(shape)
    corr = rot @ params.as_matrix() @ rot.transpose(0, 2, 1)
    corr_part = (corr.reshape(-1, 9) @ BASIS[1:, 1:].reshape(9, 16)).reshape(shape)
    return (BASIS[0, 0] + params.eta * bloch + corr_part) / 4.0


def template_state_z(params) -> np.ndarray:
    """The z-frame template state of either parameter type."""
    return _output_states(params, _Z)


def min_output_eigenvalue(params) -> float:
    """Lowest eigenvalue shared by every output of a family point.

    All outputs are U (x) U conjugates of the z template, so its
    spectrum decides positivity for every direction; constrained points
    use the closed form.
    """
    if isinstance(params, ClonerParams):
        return positivity_eigenvalues(params).min()
    return float(np.linalg.eigvalsh(template_state_z(params))[0])


def is_positive(lowest):
    """The one positivity verdict on a lowest eigenvalue, elementwise.

    Zero is the physics threshold and STATE_TOL the only round-off
    allowance.  The optimum's spectrum (2/3, 1/3, 0, 0) sits exactly on
    the boundary, so points meant to lie on it are given exactly.
    """
    return lowest >= -STATE_TOL


def axial_covariance_residual(rho, m) -> float:
    """Frobenius norm of [G, rho], G = m.sigma (x) I + I (x) m.sigma.

    Every rotation about m acts on the pair as E (x) E = exp(i alpha G),
    so rho commutes with all of them if and only if it commutes with
    the generator G: zero (within round-off) exactly for states
    invariant under rotations about m, as every family member is about
    its own axis.
    """
    gen = np.einsum("j,jab->ab", _require_one_axis(m), _BLOCH_PAIR)
    arr = np.asarray(rho, dtype=complex)
    return float(np.linalg.norm(gen @ arr - arr @ gen))


def covariance_constraint_residual(t) -> float:
    """How far a 3x3 correlation matrix is from the covariant z-frame form.

    Returns the max of |t_xx - t_yy|, |t_xy + t_yx|, |t_xz|, |t_zx|,
    |t_yz|, |t_zy|; zero exactly on matrices of the allowed structure.
    """
    mat = np.asarray(t.t if isinstance(t, GeneralClonerParams) else t, dtype=float)
    if mat.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {mat.shape}")
    return float(
        max(
            abs(mat[0, 0] - mat[1, 1]),
            abs(mat[0, 1] + mat[1, 0]),
            abs(mat[0, 2]),
            abs(mat[2, 0]),
            abs(mat[1, 2]),
            abs(mat[2, 1]),
        )
    )


def no_signaling_residual(params, axis_a, axis_b):
    """Distinguishability of the two opposite-outcome output sums.

    Builds rho_out(+a) + rho_out(-a) and rho_out(+b) + rho_out(-b)
    (each output by `output_state`) and returns the trace distance
    between the two sums.  For diagonal correlation matrices and axes
    (zhat, xhat) this equals |t_zz - t_xx|; it vanishes for every
    constrained family point and every axis pair.  Axes of shape (3,)
    give a float; stacks (N, 3) give one value per pair, shape (N,).
    """
    a = _require_unit_axis(axis_a, "axis_a")
    b = _require_unit_axis(axis_b, "axis_b")
    if a.shape != b.shape:
        raise InvalidBlochError(f"axis_a and axis_b differ in shape: {a.shape} vs {b.shape}")
    distance = _half_trace_norm(_opposite_outputs(params, a, b)[1])
    return float(distance) if a.ndim == 1 else distance


def _opposite_outputs(params, a, b):
    """Outputs at +a, -a, +b, -b (stacked first) and (rho(+a) + rho(-a)) - (rho(+b) + rho(-b))."""
    outputs = _output_states(params, np.stack([a, -a, b, -b]))
    return outputs, outputs[0] + outputs[1] - (outputs[2] + outputs[3])


def positivity_eigenvalues(params: ClonerParams) -> PositivityEigenvalues:
    """Closed-form eigenvalues of the constrained output, descending.

    The z-frame matrix block-diagonalizes: the outer levels are
    (1 +- 2 eta + t)/4 and the central 2x2 block contributes
    (1 - t +- 2 sqrt(t^2 + t_xy^2))/4.
    """
    eta, t, t_xy = params.eta, params.t, params.t_xy
    pair = 2.0 * np.hypot(t, t_xy)
    values = sorted(
        (
            (1.0 + 2.0 * eta + t) / 4.0,
            (1.0 - 2.0 * eta + t) / 4.0,
            (1.0 - t + pair) / 4.0,
            (1.0 - t - pair) / 4.0,
        ),
        reverse=True,
    )
    return PositivityEigenvalues(*values)


def clone_fidelity(params) -> float:
    """Fidelity (1 + eta)/2 of each clone against a pure input."""
    return (1.0 + params.eta) / 2.0
