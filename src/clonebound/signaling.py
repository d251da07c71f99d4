"""The remote-preparation experiment: can cloning reveal a distant axis choice?

Setup: two parties share a singlet.  Alice measures her half along an
axis of her choosing, which remotely prepares Bob's half in the mixture
{(1/2, +axis), (1/2, -axis)} whose average is I/2 for every axis.  Bob
feeds his half through a (possibly hypothetical) cloner and asks
whether the resulting pair statistics depend on Alice's axis.

For any constrained family member they do not: the two opposite-outcome
sums coincide for all axis pairs.  For parameters outside the family
the sums differ and the module quantifies by how much:

* `signaling_advantage` reports the trace distance D between the two
  sums together with the induced best single-shot guessing rate,
  1/2 + D/4 (Helstrom's rate for Bob's averaged states, whose trace
  distance is D/2; D <= 2 keeps it at most 1);
* `monte_carlo_signal` plays the finite-statistics game with a seeded
  generator: each round Alice draws her axis uniformly from {a, b} and
  her outcome sign fairly, and Bob measures his clone pair with the
  Helstrom measurement {Pi, 1 - Pi} by the Born rule, guessing a on
  outcome Pi; the game's counts are drawn, not its rounds.  The
  estimate is an independent check on `helstrom_probability` and its
  standard error is at most 1/(2 sqrt(shots)).

The hypothetical cloner is applied per preparation (each ensemble
component mapped through the family state for its direction).  That is
deliberate: parameter choices violating positivity admit no completed
physical channel, and the per-preparation map is exactly the device the
no-signaling argument interrogates.  Parameters whose lowest output
eigenvalue is below -1e-9 (`pauli.is_positive`, the verdict verify and
`bounds.feasible` give) are flagged as non-physical and the Monte Carlo
branch is skipped.

Those two functions validate their single axes once and take one
rotation stack for +a, -a, +b and -b; the trace distance and the Monte
Carlo's Helstrom measurement come from the real correlation-sum
difference D, and its four outputs are assembled from the same rotations.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .bounds import feasible
from .family import (_assemble, _correlation_part, _opposite_difference, _require_one_axis,
                     _signal_distance)
from .pauli import STATE_TOL, bloch_to_density

#: the largest shot count numpy's samplers take (the int64 limit)
MAX_SHOTS = 2**63 - 1


@dataclass(frozen=True)
class RemoteEnsemble:
    """Ensemble remotely prepared on Bob's side by Alice's axis choice."""

    axis: np.ndarray
    components: tuple  # ((probability, direction), ...)

    def average_density(self) -> np.ndarray:
        out = np.zeros((2, 2), dtype=complex)
        for prob, direction in self.components:
            out = out + prob * bloch_to_density(direction)
        return out


@dataclass(frozen=True)
class SignalReport:
    """Analytic and (optionally) Monte-Carlo figures; field order is `signal`'s CSV columns."""

    axis_a: np.ndarray
    axis_b: np.ndarray
    trace_distance: float
    helstrom_probability: float
    mc_estimate: Optional[float] = None
    mc_shots: int = 0
    seed: Optional[int] = None
    physical: bool = True


def singlet() -> np.ndarray:
    """The two-qubit singlet density matrix |psi><psi|, psi = (|01> - |10>)/sqrt(2)."""
    psi = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)
    return np.outer(psi, psi.conj())


def remote_mixture(axis) -> RemoteEnsemble:
    """The ensemble {(1/2, +axis), (1/2, -axis)} Alice's measurement prepares."""
    vec = _require_one_axis(axis, "measurement axis")
    return RemoteEnsemble(
        axis=vec, components=((0.5, vec.copy()), (0.5, -vec))
    )


def _report(params, a, b, difference) -> SignalReport:
    dist = float(_signal_distance(difference))
    return SignalReport(a, b, dist, 0.5 + dist / 4.0, physical=feasible(params))


def _integer(name, value):
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _helstrom(difference) -> np.ndarray:
    # the averaged outputs differ by half the opposite-sum difference; an
    # eigenvalue within round-off of 0 is 0, whatever its sign
    eigvals, eigvecs = np.linalg.eigh(difference / 2.0)
    plus = eigvecs[:, eigvals > STATE_TOL]
    return plus @ plus.conj().T


def signaling_advantage(params, axis_a, axis_b) -> SignalReport:
    """Analytic distinguishability of Alice's two axis choices.

    `trace_distance` is computed between the two opposite-outcome sums
    (so for diagonal correlation matrices and axes (zhat, xhat) it
    equals |t_zz - t_xx|); the guessing rate is 1/2 + D/4.
    `physical` is `bounds.feasible`: `is_positive` on the outputs' shared spectrum.
    """
    a = _require_one_axis(axis_a, "axis_a")
    b = _require_one_axis(axis_b, "axis_b")
    return _report(params, a, b, _opposite_difference(params, a, b)[0])


def monte_carlo_signal(params, axis_a, axis_b, shots: int, seed: int) -> SignalReport:
    """Finite-statistics version of the axis-guessing experiment.

    Per round, Alice's axis is drawn uniformly from {a, b} and her
    outcome sign fairly, which fixes the output Bob holds; his Helstrom
    measurement then gives outcome Pi with probability Tr(Pi rho), and
    he guesses a on Pi and b otherwise.  Rounds are independent, so one
    multinomial splits the shots over the four preparations and one
    binomial per preparation counts the right guesses: the round-by-round
    law, in a time and memory that do not depend on `shots`.  numpy's
    default generator (PCG64) is seeded once; identical (seed, shots)
    reproduce the estimate bit for bit.

    `shots` and `seed` are integers (`operator.index`); a float is
    refused, not truncated, and so is a negative `seed`.  Non-physical
    parameters (`is_positive` false) return the analytic report with
    `physical` False and no Monte-Carlo fields.
    """
    shots, seed = _integer("shots", shots), _integer("seed", seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if not 1 <= shots <= MAX_SHOTS:
        raise ValueError(f"shots must be in [1, {MAX_SHOTS}], got {shots}")
    a = _require_one_axis(axis_a, "axis_a")
    b = _require_one_axis(axis_b, "axis_b")
    difference, rotations = _opposite_difference(params, a, b)
    report = _report(params, a, b, difference)
    if not report.physical:
        return replace(report, seed=seed)
    # probability of outcome Pi for each preparation 2 * axis + sign,
    # axis 0 = a and sign 0 = +; Bob is right on Pi for a, otherwise for b
    outputs = _assemble(params, rotations)
    outcome_pi = np.clip(
        np.trace(_helstrom(_correlation_part(difference)) @ outputs, axis1=-2, axis2=-1).real,
        0.0, 1.0)
    rng = np.random.default_rng(seed)
    prepared = rng.multinomial(shots, [0.25] * 4)
    correct = rng.binomial(prepared, np.concatenate([outcome_pi[:2], 1.0 - outcome_pi[2:]]))
    return replace(report, mc_estimate=int(correct.sum()) / shots, mc_shots=shots, seed=seed)
