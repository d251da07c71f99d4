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
one `einsum` against it.  4x4 spectra come from LAPACK's `eigvalsh`; a
qubit's are (tr +- |m|)/2, so `is_positive`, the one verdict on states
(STATE_TOL is the only round-off allowance), judges it by |m|.

Public functions validate their inputs once, at entry: the shape, then
one `tolist()` judged in Python floats.  The upper triangle's max
|A_jk - conj(A_kj)|, each by `math.hypot` (inf past ~1.8e308), passes
only if every entry is finite; numpy names a non-finite one.  A qubit's
trace and |m| come from the same entries.  Returned arrays are numpy's.
The private `_half_trace_norm` validates nothing: `trace_distance` calls
it on the difference of two checked matrices.  The SU(2) rotation, its
SO(3) matrix and the Bloch readout, which only the tests use, live in
`tests/reference.py`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidBlochError,
    InvalidStateError,
    NotHermitianError,
    RequiresPureInputError,
)

#: the one round-off allowance: state validation, verify residuals, positivity
STATE_TOL = 1e-9

IDENTITY = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

_PAULI_BY_INDEX = (IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z)

#: BASIS[j, k] = sigma_j (x) sigma_k for j, k in 0..3, index 0 the identity
BASIS = np.array([[np.kron(pj, pk) for pk in _PAULI_BY_INDEX] for pj in _PAULI_BY_INDEX])
BASIS.flags.writeable = False


#: row-major flat indices (n j + k, n k + j) of the upper triangle j <= k of n x n matrices
_UPPER = {n: [(n * j + k, n * k + j) for j in range(n) for k in range(j, n)] for n in (2, 4)}


def _require_hermitian(m, dim, what):
    arr = np.asarray(m, dtype=complex)
    if arr.shape != (dim, dim):
        raise InvalidStateError(f"{what} must be {dim}x{dim}, got shape {arr.shape}")
    flat = arr.ravel().tolist()
    res = 0.0
    for jk, kj in _UPPER[dim]:
        d = flat[jk] - flat[kj].conjugate()
        r = math.hypot(d.real, d.imag)  # abs(d) raises OverflowError past ~1.8e308
        if r > res or r != r:  # a nan sticks
            res = r
    # a non-finite entry makes its pair's r inf or nan, so a passing res means all are finite
    if not res <= STATE_TOL:
        if not np.isfinite(arr).all():
            raise InvalidStateError(f"{what} contains non-finite entries")
        raise NotHermitianError(f"{what} is not Hermitian (residual {res:.3e})")
    return arr, flat


def is_positive(lowest):
    """The one positivity verdict on a lowest eigenvalue, elementwise: >= -STATE_TOL.

    The optimum's spectrum (2/3, 1/3, 0, 0) sits exactly on the boundary,
    so points meant to lie on it are given exactly.
    """
    return lowest >= -STATE_TOL


def _printed_length(row):
    """The |m| a refusal prints: the `hypot` value that decided it, or inf where |m|^2 overflows."""
    return math.inf if math.isinf(sum(x * x for x in row)) else math.hypot(*row)


def _require_one_qubit_state(rho, what="density matrix"):
    """The state and its Bloch length |m|, m = (2 Re rho_10, 2 Im rho_10, rho_00 - rho_11)."""
    arr, (r00, _, r10, r11) = _require_hermitian(rho, 2, what)
    tr = r00.real + r11.real
    if abs(tr - 1.0) > STATE_TOL:
        raise InvalidStateError(f"{what} has trace {tr!r}, expected 1")
    length = math.hypot(2 * r10.real, 2 * r10.imag, r00.real - r11.real)
    lo = (tr - length) / 2.0
    if not is_positive(lo):
        raise InvalidStateError(f"{what} has negative eigenvalue {lo:.3e}")
    return arr, length


def bloch_to_density(m) -> np.ndarray:
    """Density matrix (1/2)(I + m . sigma); `is_positive` judges (1 - |m|)/2: |m| <= 1 + 2e-9."""
    vec = np.asarray(m, dtype=float)
    if vec.shape != (3,):
        raise InvalidBlochError(f"Bloch vector must have 3 components, got {vec.shape}")
    x, y, z = row = vec.tolist()
    if not all(map(math.isfinite, row)):
        raise InvalidBlochError("Bloch vector contains non-finite components")
    norm = math.hypot(x, y, z)
    if not is_positive((1.0 - norm) / 2.0):
        raise InvalidBlochError(f"Bloch vector norm {_printed_length(row)} exceeds 1")
    return (IDENTITY + x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z) / 2.0


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
    arr, _ = _require_hermitian(rho, 4, "two-qubit matrix")
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
    arr, _ = _require_hermitian(rho, 4, "two-qubit matrix")
    blocks = arr.reshape(2, 2, 2, 2)
    if keep == 1:
        return np.einsum("abcb->ac", blocks)
    if keep == 2:
        return np.einsum("abac->bc", blocks)
    raise ValueError(f"keep must be 1 or 2, got {keep!r}")


def hermitian_eigenvalues4(m) -> np.ndarray:
    """Eigenvalues of a 4x4 Hermitian matrix, descending."""
    arr, _ = _require_hermitian(m, 4, "matrix")
    return np.linalg.eigvalsh((arr + arr.conj().T) / 2.0)[::-1]


def overlap_fidelity(rho_in, clone) -> float:
    """Overlap Tr(rho_in clone) between a pure input and a clone.

    Raises RequiresPureInputError unless rho_in is pure (|m| = 1 within
    tolerance); the clone may be mixed.
    """
    arr_in, length = _require_one_qubit_state(rho_in, "input state")
    arr_clone, _ = _require_one_qubit_state(clone, "clone state")
    if abs(length - 1.0) > STATE_TOL:
        raise RequiresPureInputError(f"input state is mixed (|m| = {length})")
    return float(np.trace(arr_in @ arr_clone).real)


def trace_distance(rho, sigma) -> float:
    """Half the absolute-eigenvalue sum of rho - sigma.

    Both arguments must be Hermitian 4x4 matrices of equal trace.  For
    unit-trace states the result lies in [0, 1]; the function also
    accepts matched non-normalized pairs (e.g. two sums of states),
    where the bound scales with the common trace.
    """
    a, flat_a = _require_hermitian(rho, 4, "first matrix")
    b, flat_b = _require_hermitian(sigma, 4, "second matrix")
    if abs(sum(z.real for z in flat_a[::5]) - sum(z.real for z in flat_b[::5])) > STATE_TOL:
        raise InvalidStateError("trace distance requires matrices of equal trace")
    diff = a - b
    return float(_half_trace_norm((diff + diff.conj().T) / 2.0))


def _half_trace_norm(diff):
    """Half the absolute-eigenvalue sum of Hermitian (..., n, n), eigenvalues summed descending."""
    return np.abs(np.linalg.eigvalsh(diff)[..., ::-1]).sum(axis=-1) / 2.0


def random_rotation(seed: int):
    """Haar-random SU(2) element and its Bloch rotation, from a seed.

    Four standard normal deviates are normalized into a unit quaternion
    (w, x, y, z) and mapped to U = w I + i(x sigma_x + y sigma_y +
    z sigma_z); R, quadratic in it, satisfies U (m . sigma) U^dag =
    (R m) . sigma within round-off.  Deterministic: the same seed always
    returns the same pair.
    """
    rng = np.random.default_rng(seed)
    quat = rng.standard_normal(4).tolist()
    while math.hypot(*quat) < 1e-6:
        quat = rng.standard_normal(4).tolist()
    norm = math.hypot(*quat)
    w, x, y, z = (q / norm for q in quat)
    u = np.array([[w + 1.0j * z, 1.0j * x + y], [1.0j * x - y, w - 1.0j * z]])
    return u, np.array([[1 - 2 * (y * y + z * z), 2 * (x * y + w * z), 2 * (x * z - w * y)],
                        [2 * (x * y - w * z), 1 - 2 * (x * x + z * z), 2 * (y * z + w * x)],
                        [2 * (x * z + w * y), 2 * (y * z - w * x), 1 - 2 * (x * x + y * y)]])
