"""What the symmetry and no-signaling constraints leave of a 3x3 correlation matrix.

Starts from an unconstrained correlation matrix, measures how badly it
violates each requirement, then walks it into the allowed set and shows
the structure that survives: an isotropic diagonal plus one antisymmetric
off-diagonal pair.
"""

import sys

import numpy as np

from clonebound.family import (
    ClonerParams,
    GeneralClonerParams,
    axial_covariance_residual,
    check_point,
    output_state,
)
from clonebound.pauli import pauli_decompose


def report(tag, params):
    checks = check_point(params)
    print(f"{tag}:")
    print(f"  structure residual    = {checks['covariance_residual']:.3e}")
    print(f"  opposite-mixture gap  = {checks['no_signaling_residual']:.3e}")


def main():
    rng = np.random.default_rng(5)

    raw = rng.uniform(-0.4, 0.4, size=(3, 3))
    print("unconstrained correlation matrix:")
    print(np.round(raw, 6))
    report("  raw", GeneralClonerParams(eta=0.3, t=raw))

    # step 1: symmetrize into the axial structure (equal xx/yy, one
    # antisymmetric pair, zero everywhere else it must vanish)
    s = 0.5 * (raw[0, 0] + raw[1, 1])
    t_xy = 0.5 * (raw[0, 1] - raw[1, 0])
    axial = np.array([[s, t_xy, 0.0], [-t_xy, s, 0.0], [0.0, 0.0, raw[2, 2]]])
    print("\nafter imposing the rotational structure:")
    print(np.round(axial, 6))
    report("  axial", GeneralClonerParams(eta=0.3, t=axial))
    print(f"  (structure passes, but the anisotropic diagonal still "
          f"signals: |t_zz - t_xx| = {abs(axial[2, 2] - s):.6f})")

    # step 2: the opposite-mixture identity forces the diagonal isotropic
    family = ClonerParams(eta=0.3, t=s, t_xy=t_xy)
    print("\nafter forcing t_zz = t_xx = t_yy:")
    print(np.round(family.as_matrix(), 6))
    report("  family", family)

    # what is left is exactly (eta, t, t_xy); positivity decides which
    # values are allowed
    print("\npositivity across a few eta at t = 1/3, t_xy = 0:")
    for eta in (0.0, 1 / 3, 2 / 3, 0.7):
        checks = check_point(ClonerParams(eta, 1 / 3, 0.0))
        flag = "ok " if checks["positivity_ok"] else "BAD"
        print(f"  eta = {eta:.4f}  min eig = {checks['min_eigenvalue']:+.6f}  {flag}")

    # the axial commutator sees the same symmetry operationally
    state = output_state(family, (0, 0, 1))
    print("\naxial commutator residual at the z axis:",
          f"{axial_covariance_residual(state, (0, 0, 1)):.3e}")
    coeffs = pauli_decompose(state)
    print("correlation block recovered from the state:")
    print(np.round(coeffs.correlation, 12))
    return 0


if __name__ == "__main__":
    sys.exit(main())
