"""Dense Pauli algebra for one and two qubits.

Conventions used everywhere in this package:

* computational basis |0>, |1> with sigma_z |0> = +|0>;
* a Bloch vector m is a real 3-vector and the matching density matrix is
  rho = (1/2)(I + m . sigma);
* two-qubit matrices use the Kronecker ordering where the FIRST tensor
  factor is the leftmost qubit, so the basis order is
  |00>, |01>, |10>, |11>;
* a two-qubit Hermitian matrix expands as

      rho = c00 * I(x)I + sum_j a_j sigma_j(x)I
            + sum_k b_k I(x)sigma_k + sum_jk t_jk sigma_j(x)sigma_k

  with every coefficient carrying the explicit 1/4 (c00 = 1/4 for
  unit-trace input).  The lab-frame correlation matrix Tr(rho sigma_j
  (x) sigma_k) is therefore 4*t, exposed as a property.

`BASIS[j, k]` holds sigma_j (x) sigma_k (index 0 the identity); building
a matrix from its coefficient table and reading the table back are each
one `einsum` against it.  Spectra come from LAPACK through
`np.linalg.eigvalsh`, which stays accurate at any scale.

Public functions validate their inputs once, at entry.  The private
`_half_trace_norm` takes stacks (..., n, n) and validates nothing: the
package calls it on differences of states it built itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidBlochError,
    InvalidStateError,
    NotHermitianError,
    RequiresPureInputError,
)

#: round-off: state validation, verify residuals, positivity (>= -STATE_TOL)
STATE_TOL = 1e-9
#: exact identities: |eta|, |t_jk| <= 1, round-trips, unitarity
ALGEBRA_TOL = 1e-12

IDENTITY = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

#: the three traceless Paulis in (x, y, z) order
SIGMA = (SIGMA_X, SIGMA_Y, SIGMA_Z)

_PAULI_BY_INDEX = (IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z)

#: BASIS[j, k] = sigma_j (x) sigma_k for j, k in 0..3, index 0 the identity
BASIS = np.array([[np.kron(pj, pk) for pk in _PAULI_BY_INDEX] for pj in _PAULI_BY_INDEX])
BASIS.flags.writeable = False


def _as_complex_square(m, dim, what):
    arr = np.asarray(m, dtype=complex)
    if arr.shape != (dim, dim):
        raise InvalidStateError(f"{what} must be {dim}x{dim}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidStateError(f"{what} contains non-finite entries")
    return arr


def _hermiticity_residual(arr):
    return float(np.max(np.abs(arr - arr.conj().T)))


def _require_hermitian(m, dim, what):
    arr = _as_complex_square(m, dim, what)
    res = _hermiticity_residual(arr)
    if res > STATE_TOL:
        raise NotHermitianError(f"{what} is not Hermitian (residual {res:.3e})")
    return arr


def _eig2_hermitian(arr):
    """Eigenvalues of a 2x2 Hermitian matrix, closed form, descending."""
    half_trace = (arr[0, 0].real + arr[1, 1].real) / 2.0
    det = (arr[0, 0].real * arr[1, 1].real) - (arr[0, 1] * arr[1, 0]).real
    gap = np.sqrt(max(half_trace * half_trace - det, 0.0))
    return half_trace + gap, half_trace - gap


def _require_one_qubit_state(rho, what="density matrix"):
    arr = _as_complex_square(rho, 2, what)
    if _hermiticity_residual(arr) > STATE_TOL:
        raise InvalidStateError(f"{what} is not Hermitian")
    tr = arr[0, 0].real + arr[1, 1].real
    if abs(tr - 1.0) > STATE_TOL:
        raise InvalidStateError(f"{what} has trace {tr!r}, expected 1")
    lo = _eig2_hermitian(arr)[1]
    if lo < -STATE_TOL:
        raise InvalidStateError(f"{what} has negative eigenvalue {lo:.3e}")
    return arr


def bloch_to_density(m) -> np.ndarray:
    """Density matrix (1/2)(I + m . sigma) for a Bloch vector m, |m| <= 1."""
    vec = np.asarray(m, dtype=float)
    if vec.shape != (3,):
        raise InvalidBlochError(f"Bloch vector must have 3 components, got {vec.shape}")
    if not np.all(np.isfinite(vec)):
        raise InvalidBlochError("Bloch vector contains non-finite components")
    norm = float(np.linalg.norm(vec))
    if norm > 1.0 + STATE_TOL:
        raise InvalidBlochError(f"Bloch vector norm {norm} exceeds 1")
    return (IDENTITY + vec[0] * SIGMA_X + vec[1] * SIGMA_Y + vec[2] * SIGMA_Z) / 2.0


def density_to_bloch(rho) -> np.ndarray:
    """Bloch vector m_j = Tr(rho sigma_j) of a valid one-qubit state."""
    arr = _require_one_qubit_state(rho)
    return np.array([np.trace(arr @ s).real for s in SIGMA])


def tensor(a, b) -> np.ndarray:
    """Kronecker product; the first argument becomes the first (leftmost) qubit."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


@dataclass(frozen=True, eq=False)
class PauliCoefficients:
    """Expansion coefficients of a two-qubit Hermitian matrix.

    All coefficients carry the explicit 1/4 prefactor, i.e.
    c00 = Tr(rho)/4 and t[j, k] = Tr(rho sigma_j (x) sigma_k)/4.
    """

    c00: float
    a: np.ndarray  # 3-vector, sigma_j (x) I
    b: np.ndarray  # 3-vector, I (x) sigma_k
    t: np.ndarray  # 3x3 matrix, sigma_j (x) sigma_k

    @property
    def bloch_first(self) -> np.ndarray:
        """Bloch vector of the reduced state on the first qubit (= 4a)."""
        return 4.0 * self.a

    @property
    def bloch_second(self) -> np.ndarray:
        """Bloch vector of the reduced state on the second qubit (= 4b)."""
        return 4.0 * self.b

    @property
    def correlation(self) -> np.ndarray:
        """Lab-frame correlation matrix Tr(rho sigma_j (x) sigma_k) (= 4t)."""
        return 4.0 * self.t


def pauli_decompose(rho) -> PauliCoefficients:
    """Expand a Hermitian 4x4 matrix in the two-qubit Pauli basis.

    The imaginary parts of the raw traces vanish for Hermitian input;
    they are checked and discarded.
    """
    arr = _require_hermitian(rho, 4, "two-qubit matrix")
    # diagonal of rho @ BASIS[j, k], summed over a the same way np.trace
    # sums it, so the coefficients do not depend on einsum's summation order
    table = np.einsum("ab,jkba->jka", arr, BASIS).sum(axis=-1).real / 4.0
    return PauliCoefficients(
        c00=float(table[0, 0]),
        a=table[1:, 0].copy(),
        b=table[0, 1:].copy(),
        t=table[1:, 1:].copy(),
    )


def pauli_reconstruct(coeffs: PauliCoefficients) -> np.ndarray:
    """Rebuild the 4x4 matrix from its Pauli coefficients (inverse of decompose)."""
    table = np.empty((4, 4))
    table[0, 0] = coeffs.c00
    table[1:, 0] = coeffs.a
    table[0, 1:] = coeffs.b
    table[1:, 1:] = coeffs.t
    return np.einsum("jk,jkab->ab", table, BASIS)


def partial_trace(rho, keep: int) -> np.ndarray:
    """Trace out one qubit of a two-qubit matrix.

    Args:
        rho: 4x4 Hermitian matrix.
        keep: 1 to keep the first qubit, 2 to keep the second.
    """
    arr = _require_hermitian(rho, 4, "two-qubit matrix")
    blocks = arr.reshape(2, 2, 2, 2)
    if keep == 1:
        return np.einsum("abcb->ac", blocks)
    if keep == 2:
        return np.einsum("abac->bc", blocks)
    raise ValueError(f"keep must be 1 or 2, got {keep!r}")


def hermitian_eigenvalues4(m) -> np.ndarray:
    """Eigenvalues of a 4x4 Hermitian matrix, descending."""
    arr = _require_hermitian(m, 4, "matrix")
    return np.linalg.eigvalsh((arr + arr.conj().T) / 2.0)[::-1]


def overlap_fidelity(rho_in, clone) -> float:
    """Overlap Tr(rho_in clone) between a pure input and a clone.

    Raises RequiresPureInputError unless rho_in is pure (|m| = 1 within
    tolerance); the clone may be mixed.
    """
    arr_in = _require_one_qubit_state(rho_in, "input state")
    arr_clone = _require_one_qubit_state(clone, "clone state")
    m = np.array([np.trace(arr_in @ s).real for s in SIGMA])
    if abs(float(np.linalg.norm(m)) - 1.0) > STATE_TOL:
        raise RequiresPureInputError(
            f"input state is mixed (|m| = {np.linalg.norm(m)})"
        )
    return float(np.trace(arr_in @ arr_clone).real)


def trace_distance(rho, sigma) -> float:
    """Half the absolute-eigenvalue sum of rho - sigma.

    Both arguments must be Hermitian 4x4 matrices of equal trace.  For
    unit-trace states the result lies in [0, 1]; the function also
    accepts matched non-normalized pairs (e.g. two sums of states),
    where the bound scales with the common trace.
    """
    a = _require_hermitian(rho, 4, "first matrix")
    b = _require_hermitian(sigma, 4, "second matrix")
    if abs(np.trace(a).real - np.trace(b).real) > STATE_TOL:
        raise InvalidStateError("trace distance requires matrices of equal trace")
    diff = a - b
    return float(_half_trace_norm((diff + diff.conj().T) / 2.0))


def _half_trace_norm(diff):
    """Half the absolute-eigenvalue sum of Hermitian (..., n, n), eigenvalues summed descending."""
    return np.abs(np.linalg.eigvalsh(diff)[..., ::-1]).sum(axis=-1) / 2.0


def su2_rotation(axis, angle: float) -> np.ndarray:
    """SU(2) element cos(angle/2) I - i sin(angle/2) (axis . sigma).

    Conjugation by the result rotates Bloch vectors by `angle` about
    `axis` in the right-handed sense.
    """
    vec = np.asarray(axis, dtype=float)
    if vec.shape != (3,) or not np.all(np.isfinite(vec)):
        raise InvalidBlochError(f"rotation axis must be a finite 3-vector, got {axis!r}")
    norm = float(np.linalg.norm(vec))
    if norm < STATE_TOL:
        raise InvalidBlochError("rotation axis must be non-zero")
    vec = vec / norm
    ns = vec[0] * SIGMA_X + vec[1] * SIGMA_Y + vec[2] * SIGMA_Z
    return np.cos(angle / 2.0) * IDENTITY - 1.0j * np.sin(angle / 2.0) * ns


def bloch_rotation_matrix(u) -> np.ndarray:
    """The SO(3) matrix R_jk = Tr(sigma_j U sigma_k U^dag)/2 of a qubit unitary.

    R satisfies U (m . sigma) U^dag = (R m) . sigma.
    """
    arr = _as_complex_square(u, 2, "unitary")
    rot = np.empty((3, 3))
    for j in range(3):
        for k in range(3):
            rot[j, k] = np.trace(SIGMA[j] @ arr @ SIGMA[k] @ arr.conj().T).real / 2.0
    return rot


def random_rotation(seed: int):
    """Haar-random SU(2) element and its Bloch rotation, from a seed.

    Four standard normal deviates are normalized into a unit quaternion
    (w, x, y, z) and mapped to U = w I + i(x sigma_x + y sigma_y +
    z sigma_z).  Deterministic: the same seed always returns the same
    pair (U, R).
    """
    rng = np.random.default_rng(seed)
    quat = rng.standard_normal(4)
    while np.linalg.norm(quat) < 1e-6:
        quat = rng.standard_normal(4)
    w, x, y, z = quat / np.linalg.norm(quat)
    u = np.array(
        [[w + 1.0j * z, 1.0j * x + y], [1.0j * x - y, w - 1.0j * z]], dtype=complex
    )
    return u, bloch_rotation_matrix(u)
