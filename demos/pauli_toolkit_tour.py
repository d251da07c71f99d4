"""Quick tour of the two-qubit Pauli toolkit.

Decomposes a couple of familiar states into Pauli coefficients, round
trips them, and shows that a two-sided rotation leaves their spectra
alone.
"""

import sys

import numpy as np

from clonebound.pauli import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    bloch_to_density,
    hermitian_eigenvalues4,
    partial_trace,
    pauli_decompose,
    pauli_reconstruct,
    random_rotation,
    tensor,
)


def show(name, rho):
    coeffs = pauli_decompose(rho)
    print(f"{name}:")
    print(f"  bloch(first)  = {np.round(coeffs.bloch_first, 12)}")
    print(f"  bloch(second) = {np.round(coeffs.bloch_second, 12)}")
    print(f"  correlation   =")
    for row in coeffs.correlation:
        print(f"    {np.round(row, 12)}")
    back = pauli_reconstruct(coeffs)
    print(f"  round-trip error = {np.max(np.abs(back - rho)):.2e}")
    print(f"  eigenvalues      = {np.round(hermitian_eigenvalues4(rho), 12)}")
    print()


def main():
    psi = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)
    singlet = np.outer(psi, psi.conj())
    show("singlet", singlet)

    up = bloch_to_density((0, 0, 1))
    plus = bloch_to_density((1, 0, 0))
    show("|up><up| x |+><+|", tensor(up, plus))

    # partial traces recover the factors of a product state
    prod = tensor(up, plus)
    print("partial traces of the product state:")
    print(np.round(partial_trace(prod, 1), 12))
    print(np.round(partial_trace(prod, 2), 12))
    print()

    # a random conjugation leaves the spectrum alone
    u, _ = random_rotation(7)
    uu = tensor(u, u)
    rotated = uu @ singlet @ uu.conj().T
    print("singlet spectrum after a random two-sided rotation:")
    print(np.round(hermitian_eigenvalues4(rotated), 12))
    print("(the singlet is rotationally invariant, so the state itself is too:",
          f"{np.max(np.abs(rotated - singlet)):.2e})")

    # sanity: su(2) commutation through the tensor helpers
    comm = SIGMA_X @ SIGMA_Y - SIGMA_Y @ SIGMA_X
    print("\n[sx, sy] - 2i sz =", np.max(np.abs(comm - 2j * SIGMA_Z)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
