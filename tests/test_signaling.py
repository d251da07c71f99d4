import tracemalloc

import numpy as np
import pytest

from clonebound import family
from clonebound.errors import InvalidBlochError
from clonebound.family import ClonerParams, GeneralClonerParams
from clonebound.pauli import SIGMA_X, SIGMA_Z, density_to_bloch, partial_trace, tensor
from clonebound.signaling import (
    averaged_clone_output,
    helstrom_projector,
    monte_carlo_signal,
    remote_mixture,
    signaling_advantage,
    singlet,
)

Z = (0, 0, 1)
X = (1, 0, 0)

# eta = 0 with an anisotropic diagonal: passes the axial structure check
# but the two opposite-outcome sums differ by |t_zz - t_xx| = 1/3
VIOLATOR = GeneralClonerParams(eta=0.0, t=np.diag([0.0, 0.0, 1 / 3]))


def random_axis(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def random_params(rng):
    eta, t, t_xy = rng.uniform(-1.0, 1.0, size=3)
    return ClonerParams(eta=eta, t=t, t_xy=t_xy)


def projector_rate(params, axis_a, axis_b):
    """Success rate 1/2 + (1/2) Tr(Pi (rho_a - rho_b)) of the Helstrom measurement."""
    diff = averaged_clone_output(params, axis_a) - averaged_clone_output(params, axis_b)
    return 0.5 + 0.5 * np.trace(helstrom_projector(params, axis_a, axis_b) @ diff).real


#: the violator's rate: 1/2 + (1/2)(1/6), the positive mass of the averaged difference
VIOLATOR_RATE = projector_rate(VIOLATOR, Z, X)


class TestSinglet:
    def test_pure_unit_trace(self):
        s = singlet()
        assert np.trace(s).real == pytest.approx(1.0)
        np.testing.assert_allclose(s @ s, s, atol=1e-15)

    def test_marginals_maximally_mixed(self):
        s = singlet()
        np.testing.assert_allclose(partial_trace(s, 1), np.eye(2) / 2, atol=1e-15)
        np.testing.assert_allclose(partial_trace(s, 2), np.eye(2) / 2, atol=1e-15)

    def test_perfectly_anticorrelated(self):
        s = singlet()
        for a, b in ((SIGMA_X, SIGMA_X), (SIGMA_Z, SIGMA_Z)):
            assert np.trace(s @ tensor(a, b)).real == pytest.approx(-1.0)


class TestRemoteMixture:
    def test_components(self):
        ens = remote_mixture(Z)
        (p1, d1), (p2, d2) = ens.components
        assert p1 == p2 == 0.5
        np.testing.assert_array_equal(d1, [0, 0, 1])
        np.testing.assert_array_equal(d2, [0, 0, -1])

    def test_average_is_maximally_mixed_for_any_axis(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            ens = remote_mixture(random_axis(rng))
            np.testing.assert_allclose(
                ens.average_density(), np.eye(2) / 2, atol=1e-15
            )

    def test_rejects_non_unit_axis(self):
        with pytest.raises(InvalidBlochError):
            remote_mixture((0, 0, 0.5))


class TestAveragedOutput:
    def test_family_output_is_axis_independent(self):
        p = ClonerParams(eta=2 / 3, t=1 / 3, t_xy=0.0)
        ref = averaged_clone_output(p, Z)
        rng = np.random.default_rng(4)
        for _ in range(20):
            np.testing.assert_allclose(
                averaged_clone_output(p, random_axis(rng)), ref, atol=1e-12
            )

    def test_violator_output_follows_axis(self):
        at_z = averaged_clone_output(VIOLATOR, Z)
        at_x = averaged_clone_output(VIOLATOR, X)
        np.testing.assert_allclose(
            at_z, (np.eye(4) + tensor(SIGMA_Z, SIGMA_Z) / 3) / 4, atol=1e-15
        )
        np.testing.assert_allclose(
            at_x, (np.eye(4) + tensor(SIGMA_X, SIGMA_X) / 3) / 4, atol=1e-15
        )

    def test_eta_cancels_in_the_average(self):
        p = ClonerParams(eta=0.9, t=0.0, t_xy=0.0)
        state = averaged_clone_output(p, Z)
        np.testing.assert_allclose(
            density_to_bloch(partial_trace(state, 1)), [0, 0, 0], atol=1e-15
        )
        assert np.trace(state).real == pytest.approx(1.0)


class TestSignalingAdvantage:
    def test_family_members_never_signal(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            rep = signaling_advantage(
                random_params(rng), random_axis(rng), random_axis(rng)
            )
            assert rep.trace_distance < 1e-12
            assert rep.helstrom_probability == pytest.approx(0.5, abs=1e-12)

    def test_diagonal_violator_value(self):
        rep = signaling_advantage(VIOLATOR, Z, X)
        assert rep.trace_distance == pytest.approx(1 / 3, abs=1e-12)
        assert VIOLATOR_RATE == pytest.approx(7 / 12, abs=1e-12)
        assert rep.helstrom_probability == pytest.approx(VIOLATOR_RATE, abs=1e-12)
        assert rep.physical is True

    def test_diagonal_differences_in_general(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            d = rng.uniform(-0.8, 0.8, size=3)
            p = GeneralClonerParams(eta=0.0, t=np.diag(d))
            rep = signaling_advantage(p, Z, X)
            assert rep.trace_distance == pytest.approx(abs(d[2] - d[0]), abs=1e-10)

    def test_equal_axes_give_zero(self):
        rep = signaling_advantage(VIOLATOR, Z, Z)
        assert rep.trace_distance < 1e-15
        assert rep.helstrom_probability == 0.5

    def test_guessing_rate_is_capped(self):
        # D = 2 is the largest gap, where 1/2 + D/4 reaches certainty
        p = GeneralClonerParams(eta=0.0, t=np.diag([1.0, 1.0, -1.0]))
        rep = signaling_advantage(p, Z, X)
        assert rep.trace_distance == pytest.approx(2.0, abs=1e-12)
        assert rep.helstrom_probability == 1.0

    def test_non_physical_flag(self):
        rep = signaling_advantage(ClonerParams(0.8, 1 / 3, 0.0), Z, X)
        assert rep.physical is False

    @pytest.mark.parametrize("call", [
        signaling_advantage,
        helstrom_projector,
        lambda params, a, b: monte_carlo_signal(params, a, b, shots=10, seed=1),
    ], ids=["signaling_advantage", "helstrom_projector", "monte_carlo_signal"])
    def test_takes_one_axis_per_argument(self, call):
        with pytest.raises(InvalidBlochError, match="axis_b"):
            call(VIOLATOR, Z, np.array([X, Z], dtype=float))


class TestMonteCarlo:
    def test_deterministic_for_fixed_seed(self):
        a = monte_carlo_signal(VIOLATOR, Z, X, shots=5000, seed=42)
        b = monte_carlo_signal(VIOLATOR, Z, X, shots=5000, seed=42)
        assert a.mc_estimate == b.mc_estimate
        c = monte_carlo_signal(VIOLATOR, Z, X, shots=5000, seed=43)
        assert a.mc_estimate != c.mc_estimate

    def test_single_shot_is_binary(self):
        rep = monte_carlo_signal(VIOLATOR, Z, X, shots=1, seed=0)
        assert rep.mc_estimate in (0.0, 1.0)
        assert rep.mc_shots == 1

    def test_family_member_guesses_at_chance(self):
        p = ClonerParams(eta=2 / 3, t=1 / 3, t_xy=0.0)
        rep = monte_carlo_signal(p, Z, X, shots=100_000, seed=7)
        sigma = 1.0 / (2.0 * np.sqrt(rep.mc_shots))
        assert abs(rep.mc_estimate - 0.5) < 3 * sigma

    def test_violator_converges_to_analytic_rate(self):
        rep = monte_carlo_signal(VIOLATOR, Z, X, shots=100_000, seed=7)
        sigma = 1.0 / (2.0 * np.sqrt(rep.mc_shots))
        assert abs(rep.mc_estimate - VIOLATOR_RATE) < 3 * sigma

    def test_estimator_is_unbiased(self):
        shots = 10_000
        estimates = [
            monte_carlo_signal(VIOLATOR, Z, X, shots=shots, seed=s).mc_estimate
            for s in range(50)
        ]
        p = VIOLATOR_RATE
        sigma_mean = np.sqrt(p * (1 - p) / shots / len(estimates))
        assert abs(np.mean(estimates) - p) < 4 * sigma_mean

    @pytest.mark.parametrize("case", range(4))
    def test_estimate_matches_projector_rate(self, case):
        # the game is played by the Born rule, so the estimate checks the
        # Helstrom rate independently of the reported trace distance
        rng = np.random.default_rng(100 + case)
        params = [
            VIOLATOR,
            GeneralClonerParams(eta=0.2, t=np.diag([0.1, -0.2, 0.3])),
            GeneralClonerParams(eta=-0.3, t=rng.uniform(-0.2, 0.2, size=(3, 3))),
            GeneralClonerParams(eta=0.1, t=np.diag([0.3, 0.3, -0.3])),
        ][case]
        a, b = (Z, X) if case < 2 else (random_axis(rng), random_axis(rng))
        shots = 200_000
        rep = monte_carlo_signal(params, a, b, shots=shots, seed=case)
        assert rep.physical is True
        p = projector_rate(params, a, b)
        assert p > 0.5 + 1e-3
        sigma = np.sqrt(p * (1 - p) / shots)
        assert abs(rep.mc_estimate - p) < 4 * sigma

    def test_memory_does_not_grow_with_shots(self):
        # rounds are drawn in fixed chunks: a million shots must not hold
        # a million-entry array (8 MB per float64 array)
        monte_carlo_signal(VIOLATOR, Z, X, shots=1000, seed=3)
        tracemalloc.start()
        try:
            monte_carlo_signal(VIOLATOR, Z, X, shots=1_000_000, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_non_physical_skips_sampling(self):
        rep = monte_carlo_signal(ClonerParams(0.8, 1 / 3, 0.0), Z, X, shots=100, seed=1)
        assert rep.physical is False
        assert rep.mc_estimate is None
        assert rep.mc_shots == 0
        assert rep.seed == 1
        assert rep.trace_distance < 1e-12

    def test_four_outputs_are_built_once(self, monkeypatch):
        built = []
        build = family._output_states

        def recording(params, axes):
            built.append(np.shape(axes))
            return build(params, axes)

        monkeypatch.setattr(family, "_output_states", recording)
        monte_carlo_signal(VIOLATOR, Z, X, shots=100, seed=1)
        # +a, -a, +b, -b in one stack, and the z template for `physical`
        assert sorted(built) == [(3,), (4, 3)]

    def test_shot_count_validation(self):
        with pytest.raises(ValueError):
            monte_carlo_signal(VIOLATOR, Z, X, shots=0, seed=1)


class TestHelstromProjector:
    def test_projector_properties(self):
        p = helstrom_projector(VIOLATOR, Z, X)
        np.testing.assert_allclose(p, p.conj().T, atol=1e-15)
        np.testing.assert_allclose(p @ p, p, atol=1e-14)

    def test_captures_positive_part(self):
        p = helstrom_projector(VIOLATOR, Z, X)
        diff = averaged_clone_output(VIOLATOR, Z) - averaged_clone_output(VIOLATOR, X)
        # positive eigenvalue mass of the averaged difference is 1/6
        assert np.trace(p @ diff).real == pytest.approx(1 / 6, abs=1e-12)

    def test_vanishes_when_axes_agree(self):
        p = helstrom_projector(VIOLATOR, Z, Z)
        np.testing.assert_allclose(p, np.zeros((4, 4)), atol=1e-15)
