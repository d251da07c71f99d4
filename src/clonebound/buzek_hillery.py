"""The universal symmetric 1 -> 2 cloner as an explicit isometry.

The machine maps one input qubit to clone1 (x) clone2 (x) ancilla via
the 8x2 isometry V fixed by the symmetric-subspace construction.  Its
basis expansion, in the product basis |c1 c2 a> (index 4*c1 + 2*c2 + a),
is

    V|0> = sqrt(2/3) |000> + sqrt(1/6) (|011> + |101>)
    V|1> = sqrt(2/3) |111> + sqrt(1/6) (|010> + |100>)

The two clone slots are populated symmetrically and the ancilla carries
the anti-clone, transforming in the conjugate representation: for every
SU(2) element U,

    (U (x) U (x) conj(U)) V = V U

holds exactly, which is what makes the machine act identically on all
input directions.  Tracing out the ancilla of V rho V^dag shrinks the
input Bloch vector by 2/3 in each clone, i.e. the machine sits at the
constrained family point (eta, t, t_xy) = (2/3, 1/3, 0).
"""

from __future__ import annotations

import numpy as np

from .errors import NotInFamilyError
from .family import ClonerParams, template_state_z
from .pauli import STATE_TOL, _require_one_qubit_state, bloch_to_density, pauli_decompose

_SQ23 = np.sqrt(2.0 / 3.0)
_SQ16 = np.sqrt(1.0 / 6.0)

_V = np.zeros((8, 2), dtype=complex)
_V[0, 0] = _SQ23  # |000>
_V[3, 0] = _SQ16  # |011>
_V[5, 0] = _SQ16  # |101>
_V[7, 1] = _SQ23  # |111>
_V[2, 1] = _SQ16  # |010>
_V[4, 1] = _SQ16  # |100>
_V.flags.writeable = False


def bh_isometry() -> np.ndarray:
    """The 8x2 cloning isometry V (fresh copy); V^dag V = identity."""
    return _V.copy()


def bh_clone(rho_in) -> np.ndarray:
    """Joint state of the two clones, Tr_ancilla(V rho_in V^dag).

    Accepts any valid one-qubit density matrix (mixed inputs are fine;
    the channel is linear).  The result is a genuine positive
    unit-trace two-qubit state.
    """
    arr, _ = _require_one_qubit_state(rho_in, "cloner input")
    big = _V @ arr @ _V.conj().T
    return np.einsum("abcdec->abde", big.reshape(2, 2, 2, 2, 2, 2)).reshape(4, 4)


def bh_family_point() -> ClonerParams:
    """Extract (eta, t, t_xy) from the clone pair produced for input |0>.

    Reads (eta, t, t_xy) = 4 (a_z, t_zz, t_xy) off the Pauli coefficients
    of bh_clone(|0>), then checks the whole state against that point's
    z-frame template: a max-abs residual over all 16 entries above
    STATE_TOL (it is 2.8e-17) raises NotInFamilyError.
    """
    state = bh_clone(bloch_to_density((0.0, 0.0, 1.0)))
    coeffs = pauli_decompose(state)
    point = ClonerParams(4.0 * coeffs.a[2], 4.0 * coeffs.t[2, 2], 4.0 * coeffs.t[0, 1])
    off_family = float(np.max(np.abs(state - template_state_z(point))))
    if off_family > STATE_TOL:
        raise NotInFamilyError(f"clone pair leaves the constrained family by {off_family:.3e}")
    return point
