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
  generator: each round draws Alice's axis uniformly from {a, b} and
  her outcome sign fairly, then measures Bob's clone pair with the
  Helstrom measurement {Pi, 1 - Pi} by the Born rule and guesses a on
  outcome Pi.  The estimate is an independent check on
  `helstrom_probability` and its standard error is at most
  1/(2 sqrt(shots)).

The hypothetical cloner is applied per preparation (each ensemble
component mapped through the family state for its direction).  That is
deliberate: parameter choices violating positivity admit no completed
physical channel, and the per-preparation map is exactly the device the
no-signaling argument interrogates.  Parameters whose lowest output
eigenvalue is below -1e-9 (`family.is_positive`, the verdict verify and
`bounds.feasible` give) are flagged as non-physical and the Monte Carlo
branch is skipped.

Each public function validates its single axes once and builds the
outputs for +a, -a, +b and -b once; the trace distance, the Helstrom
projector and the Monte Carlo outcome probabilities all come from them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .family import (
    _opposite_outputs,
    _output_states,
    _require_one_axis,
    is_positive,
    min_output_eigenvalue,
)
from .pauli import _half_trace_norm, bloch_to_density

#: Monte Carlo rounds drawn at a time, so memory stays fixed for any shot count
MC_CHUNK = 1 << 16


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
    """Analytic and (optionally) Monte-Carlo distinguishability figures."""

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


def averaged_clone_output(params, axis) -> np.ndarray:
    """Average cloner output over the two opposite preparations, (1/2) sum_+-.

    Unit trace; the eta terms cancel between +axis and -axis, leaving
    only the (rotated) correlation part.
    """
    vec = _require_one_axis(axis, "measurement axis")
    plus, minus = _output_states(params, np.stack([vec, -vec]))
    return (plus + minus) / 2.0


def _report(params, a, b, difference) -> SignalReport:
    dist = float(_half_trace_norm(difference))
    physical = bool(is_positive(min_output_eigenvalue(params)))
    return SignalReport(a, b, dist, 0.5 + dist / 4.0, physical=physical)


def _helstrom(difference) -> np.ndarray:
    # the averaged outputs differ by half the opposite-sum difference
    eigvals, eigvecs = np.linalg.eigh(difference / 2.0)
    plus = eigvecs[:, eigvals > 0.0]
    return plus @ plus.conj().T


def signaling_advantage(params, axis_a, axis_b) -> SignalReport:
    """Analytic distinguishability of Alice's two axis choices.

    `trace_distance` is computed between the two opposite-outcome sums
    (so for diagonal correlation matrices and axes (zhat, xhat) it
    equals |t_zz - t_xx|); the guessing rate is 1/2 + D/4.
    `physical` is `is_positive` on the outputs' shared spectrum.
    """
    a = _require_one_axis(axis_a, "axis_a")
    b = _require_one_axis(axis_b, "axis_b")
    return _report(params, a, b, _opposite_outputs(params, a, b)[1])


def monte_carlo_signal(params, axis_a, axis_b, shots: int, seed: int) -> SignalReport:
    """Finite-statistics version of the axis-guessing experiment.

    Rounds are simulated with numpy's default generator (PCG64) seeded
    once; identical (seed, shots) reproduce the transcript bit for bit.
    Per round: Alice's axis is drawn uniformly from {a, b} and her
    outcome sign fairly, which fixes the output Bob holds; his Helstrom
    measurement then gives outcome Pi with probability Tr(Pi rho), and
    he guesses a on Pi and b otherwise.  Rounds are drawn MC_CHUNK at a
    time.

    Non-physical parameters (`is_positive` false) return the analytic
    report with `physical` False and no Monte-Carlo fields.
    """
    shots = int(shots)
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    a = _require_one_axis(axis_a, "axis_a")
    b = _require_one_axis(axis_b, "axis_b")
    outputs, difference = _opposite_outputs(params, a, b)
    report = _report(params, a, b, difference)
    if not report.physical:
        return replace(report, seed=int(seed))
    # probability of outcome Pi for each preparation 2 * axis + sign,
    # axis 0 = a and sign 0 = +
    outcome_pi = np.clip(
        np.trace(_helstrom(difference) @ outputs, axis1=-2, axis2=-1).real, 0.0, 1.0
    )
    rng = np.random.default_rng(int(seed))
    correct = 0
    for start in range(0, shots, MC_CHUNK):
        n = min(MC_CHUNK, shots - start)
        prepared = rng.integers(0, 4, size=n, dtype=np.uint8)
        saw_pi = rng.random(n) < outcome_pi[prepared]
        correct += int(np.count_nonzero(saw_pi == (prepared < 2)))
    return replace(report, mc_estimate=correct / shots, mc_shots=shots, seed=int(seed))


def helstrom_projector(params, axis_a, axis_b) -> np.ndarray:
    """Projector onto the positive eigenspace of the averaged-output difference.

    This is the measurement an optimal single-shot discriminator
    applies to the clone pair; exposed for demos and tests.
    """
    a = _require_one_axis(axis_a, "axis_a")
    b = _require_one_axis(axis_b, "axis_b")
    return _helstrom(_opposite_outputs(params, a, b)[1])
