"""The axis-guessing game: why a too-good cloner would be a radio.

Alice measures her half of a singlet along one of two axes, remotely
preparing Bob's qubit in a +/- mixture with the same average either way.
Bob clones his half and tries to guess the axis from the clone pair.
Family members leave him at chance; an anisotropic correlation matrix
hands him a measurable advantage, shown here analytically and by
seeded simulation.
"""

import sys

import numpy as np

from clonebound.family import ClonerParams, GeneralClonerParams
from clonebound.signaling import (
    monte_carlo_signal,
    remote_mixture,
    signaling_advantage,
    singlet,
)
from clonebound.pauli import partial_trace

Z = (0.0, 0.0, 1.0)
X = (1.0, 0.0, 0.0)


def main():
    s = singlet()
    print("Bob's marginal of the singlet (axis-independent):")
    print(np.round(partial_trace(s, 2), 12).real)
    for axis in (Z, X):
        ens = remote_mixture(axis)
        print(f"  average of the remotely prepared mixture along {axis}:")
        print(f"  {np.round(ens.average_density(), 12).real.tolist()}")

    print("\n-- a lawful cloner --")
    lawful = ClonerParams(eta=2 / 3, t=1 / 3, t_xy=0.0)
    rep = signaling_advantage(lawful, Z, X)
    print(f"trace distance between Alice's two choices: {rep.trace_distance:.3e}")
    print(f"best guess rate: {rep.helstrom_probability:.12f} (chance is 0.5)")

    print("\n-- an unlawful correlation matrix, t = diag(0, 0, 1/3) --")
    unlawful = GeneralClonerParams(eta=0.0, t=np.diag([0.0, 0.0, 1 / 3]))
    rep = signaling_advantage(unlawful, Z, X)
    print(f"trace distance: {rep.trace_distance:.12f}")
    print(f"best guess rate: {rep.helstrom_probability:.12f}")

    print("\nfinite statistics, the game's counts drawn by the Born rule (seed 11):")
    print(f"{'shots':>9} {'estimate':>10} {'|est - 7/12|':>12} {'3 sigma':>9}")
    for shots in (100, 1000, 10_000, 100_000):
        mc = monte_carlo_signal(unlawful, Z, X, shots=shots, seed=11)
        sigma3 = 3.0 / (2.0 * np.sqrt(shots))
        print(f"{shots:>9} {mc.mc_estimate:>10.5f} "
              f"{abs(mc.mc_estimate - rep.helstrom_probability):>12.5f} {sigma3:>9.5f}")

    # pushing eta past the positivity wall gets flagged instead of sampled
    print("\n-- past the positivity wall --")
    broken = ClonerParams(eta=0.8, t=1 / 3, t_xy=0.0)
    rep = monte_carlo_signal(broken, Z, X, shots=1000, seed=11)
    print(f"eta = 0.8, t = 1/3: physical = {rep.physical}, "
          f"mc_estimate = {rep.mc_estimate}")
    print("(no completed channel produces these outputs, so the game is moot)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
