import tracemalloc

import numpy as np
import pytest

from clonebound import family, signaling
from clonebound.errors import InvalidBlochError
from clonebound.family import ClonerParams, GeneralClonerParams
from clonebound.pauli import SIGMA_X, SIGMA_Z, partial_trace, tensor
from clonebound.signaling import monte_carlo_signal, remote_mixture, signaling_advantage, singlet
from reference import (
    averaged_clone_output,
    density_to_bloch,
    helstrom_projector,
    random_axis,
    random_params,
)

Z = (0, 0, 1)
X = (1, 0, 0)

# eta = 0 with an anisotropic diagonal: passes the axial structure check
# but the two opposite-outcome sums differ by |t_zz - t_xx| = 1/3
VIOLATOR = GeneralClonerParams(eta=0.0, t=np.diag([0.0, 0.0, 1 / 3]))


def projector_rate(params, axis_a, axis_b):
    """The reference's success rate 1/2 + (1/2) Tr(Pi (rho_a - rho_b)) of Helstrom's measurement."""
    diff = averaged_clone_output(params, axis_a) - averaged_clone_output(params, axis_b)
    return 0.5 + 0.5 * np.trace(helstrom_projector(params, axis_a, axis_b) @ diff).real


#: the violator's rate: 1/2 + (1/2)(1/6), the positive mass of the averaged difference
VIOLATOR_RATE = projector_rate(VIOLATOR, Z, X)


def averaged_output(params, axis):
    """The package's mean output over +axis and -axis, from one stacked `output_state` call."""
    plus, minus = family.output_state(params, np.stack([axis, np.negative(axis)]))
    return (plus + minus) / 2.0


def package_projector(params, axis_a, axis_b):
    """`monte_carlo_signal`'s Helstrom projector Pi, from the opposite-sum difference D."""
    a, b = np.asarray(axis_a, dtype=float), np.asarray(axis_b, dtype=float)
    difference = family._opposite_difference(params, a, b)[0]
    return signaling._helstrom(family._correlation_part(difference))


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
        ref = averaged_output(p, Z)
        rng = np.random.default_rng(4)
        for _ in range(20):
            np.testing.assert_allclose(
                averaged_output(p, random_axis(rng)), ref, atol=1e-12
            )

    def test_is_the_mean_of_both_outputs(self):
        # |m| - 1 is 1e-9 by hypot, just past it by numpy's norm: both signs are one verdict
        axis = [-0.19682335191759404, -0.8230750429647886, 0.5327363736299918]
        plus = family.output_state(VIOLATOR, axis)
        minus = family.output_state(VIOLATOR, -np.array(axis))
        np.testing.assert_array_equal(averaged_output(VIOLATOR, axis), (plus + minus) / 2.0)
        # the package builds the outputs on the normalized axis
        unit = np.array(axis) / np.linalg.norm(axis)
        np.testing.assert_allclose(averaged_output(VIOLATOR, axis),
                                   averaged_clone_output(VIOLATOR, unit), rtol=0.0, atol=1e-15)

    def test_violator_output_follows_axis(self):
        at_z = averaged_output(VIOLATOR, Z)
        at_x = averaged_output(VIOLATOR, X)
        np.testing.assert_allclose(
            at_z, (np.eye(4) + tensor(SIGMA_Z, SIGMA_Z) / 3) / 4, atol=1e-15
        )
        np.testing.assert_allclose(
            at_x, (np.eye(4) + tensor(SIGMA_X, SIGMA_X) / 3) / 4, atol=1e-15
        )

    def test_eta_cancels_in_the_average(self):
        p = ClonerParams(eta=0.9, t=0.0, t_xy=0.0)
        state = averaged_output(p, Z)
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

    def test_diagonal_violator_is_exact(self):
        # the difference is the correlation sum alone: D = float(1/3), rate float(7/12)
        rep = signaling_advantage(VIOLATOR, Z, X)
        assert rep.trace_distance == 1 / 3
        assert rep.helstrom_probability == 7 / 12

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
        lambda params, a, b: monte_carlo_signal(params, a, b, shots=10, seed=1),
    ], ids=["signaling_advantage", "monte_carlo_signal"])
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

    def test_silent_estimate_depends_on_shots_and_seed_alone(self):
        # Pi = 0 at a family point: Bob always guesses b, whatever the axes
        rng = np.random.default_rng(19)
        reports = [monte_carlo_signal(random_params(rng), random_axis(rng), random_axis(rng),
                                      shots=1000, seed=5) for _ in range(100)]
        estimates = [rep.mc_estimate for rep in reports if rep.physical]
        assert len(estimates) >= 10
        assert len(set(estimates)) == 1

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
        # the spread is binomial too: (n - 1) s^2 / sigma^2 is chi-squared
        # with n - 1 degrees of freedom, so s^2 / sigma^2 has sd sqrt(2 / (n - 1))
        dof = len(estimates) - 1
        ratio = np.var(estimates, ddof=1) / (p * (1 - p) / shots)
        assert abs(ratio - 1.0) < 4 * np.sqrt(2.0 / dof)

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
        # the sampler draws the game's counts, four preparation counts and
        # four right-guess counts, never one entry per round: memory and time
        # are the same for a million shots as for 10^12
        monte_carlo_signal(VIOLATOR, Z, X, shots=1000, seed=3)
        for shots in (1_000_000, 10**12):
            tracemalloc.start()
            try:
                monte_carlo_signal(VIOLATOR, Z, X, shots=shots, seed=3)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * 2**20, shots

    def test_non_physical_skips_sampling(self):
        rep = monte_carlo_signal(ClonerParams(0.8, 1 / 3, 0.0), Z, X, shots=100, seed=1)
        assert rep.physical is False
        assert rep.mc_estimate is None
        assert rep.mc_shots == 0
        assert rep.seed == 1
        assert rep.trace_distance < 1e-12

    def test_four_outputs_are_built_once(self, monkeypatch):
        rotated = []
        rotate = family._rotations_z_to

        def recording(axes):
            rotated.append(np.shape(axes))
            return rotate(axes)

        monkeypatch.setattr(family, "_rotations_z_to", recording)
        monte_carlo_signal(VIOLATOR, Z, X, shots=100, seed=1)
        # +a, -a, +b, -b in one stack, for the difference and the four
        # outputs alike; the z template for `physical` rotates nothing
        assert rotated == [(4, 3)]

    def test_shot_count_validation(self):
        with pytest.raises(ValueError):
            monte_carlo_signal(VIOLATOR, Z, X, shots=0, seed=1)
        # numpy's samplers take int64 counts
        monte_carlo_signal(VIOLATOR, Z, X, shots=2**63 - 1, seed=1)
        with pytest.raises(ValueError):
            monte_carlo_signal(VIOLATOR, Z, X, shots=2**63, seed=1)

    @pytest.mark.parametrize("name, value", [
        ("shots", 2.7), ("shots", 100.0), ("shots", np.float64(100.0)),
        ("seed", 3.9), ("seed", 3.0), ("seed", "3"),
    ], ids=["shots-2.7", "shots-100.0", "shots-float64", "seed-3.9", "seed-3.0", "seed-str"])
    def test_refuses_non_integers(self, name, value):
        # a float was truncated: shots=2.7 played 2 rounds, seed=3.9 ran seed 3
        args = {"shots": 100, "seed": 3, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            monte_carlo_signal(VIOLATOR, Z, X, **args)
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            monte_carlo_signal(ClonerParams(0.8, 1 / 3, 0.0), Z, X, **args)

    @pytest.mark.parametrize("seed", [-1, np.int64(-7)])
    def test_refuses_a_negative_seed(self, seed):
        # refused with seed named on both paths: before numpy's generator,
        # and before the non-physical early return, which would report it
        for params in (VIOLATOR, ClonerParams(0.8, 1 / 3, 0.0)):
            with pytest.raises(ValueError, match="^seed must be non-negative, got -"):
                monte_carlo_signal(params, Z, X, shots=100, seed=seed)

    def test_numpy_integers_pass(self):
        rep = monte_carlo_signal(VIOLATOR, Z, X, shots=np.int64(100), seed=np.int64(3))
        same = monte_carlo_signal(VIOLATOR, Z, X, shots=100, seed=3)
        assert (rep.mc_estimate, rep.mc_shots, rep.seed) == (same.mc_estimate, 100, 3)
        assert type(rep.mc_shots) is int and type(rep.seed) is int


class TestHelstromProjector:
    def test_projector_properties(self):
        p = package_projector(VIOLATOR, Z, X)
        np.testing.assert_allclose(p, p.conj().T, atol=1e-15)
        np.testing.assert_allclose(p @ p, p, atol=1e-14)
        np.testing.assert_allclose(p, helstrom_projector(VIOLATOR, Z, X), atol=1e-14)

    def test_captures_positive_part(self):
        p = package_projector(VIOLATOR, Z, X)
        diff = averaged_clone_output(VIOLATOR, Z) - averaged_clone_output(VIOLATOR, X)
        # positive eigenvalue mass of the averaged difference is 1/6
        assert np.trace(p @ diff).real == pytest.approx(1 / 6, abs=1e-12)

    def test_vanishes_when_axes_agree(self):
        p = package_projector(VIOLATOR, Z, Z)
        np.testing.assert_allclose(p, np.zeros((4, 4)), atol=1e-15)

    def test_family_points_get_no_projector(self):
        # the difference is 0 up to round-off, here within 2e-17; kept by
        # their sign, such eigenvalues gave Pi of rank 2 and 3 on these axes
        point = ClonerParams(0.5, 0.2, 0.1)
        cases = [(point, (0.6, 0.0, 0.8), (0.0, 1.0, 0.0)),
                 (point, (0.48, 0.6, 0.64), (0.0, 0.6, 0.8))]
        rng = np.random.default_rng(17)
        cases += [(random_params(rng), random_axis(rng), random_axis(rng)) for _ in range(200)]
        for params, a, b in cases:
            np.testing.assert_array_equal(package_projector(params, a, b), np.zeros((4, 4)))

    def test_round_off_noise_leaves_the_projector(self):
        rng = np.random.default_rng(18)
        diff = family._correlation_part(
            family._opposite_difference(VIOLATOR, np.array(Z, float), np.array(X, float))[0])
        p = signaling._helstrom(diff)
        for _ in range(50):
            noise = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            noisy = signaling._helstrom(diff + 1e-16 * (noise + noise.conj().T))
            assert np.linalg.matrix_rank(noisy) == np.linalg.matrix_rank(p) == 1
            np.testing.assert_allclose(noisy, p, atol=1e-14)


class TestOneRotationStack:
    """Each public function that rotates takes one `_rotations_z_to` stack.

    `monte_carlo_signal` is `TestMonteCarlo.test_four_outputs_are_built_once`.
    """

    @pytest.mark.parametrize("call, shape", [
        (lambda: family.output_state(VIOLATOR, X), (1, 3)),
        (lambda: family.no_signaling_residual(VIOLATOR, Z, X), (4, 3)),
        (lambda: signaling_advantage(VIOLATOR, Z, X), (4, 3)),
    ], ids=["output_state", "no_signaling_residual", "signaling_advantage"])
    def test_one_call_per_public_function(self, monkeypatch, call, shape):
        rotated = []
        rotate = family._rotations_z_to

        def recording(axes):
            rotated.append(np.shape(axes))
            return rotate(axes)

        monkeypatch.setattr(family, "_rotations_z_to", recording)
        call()
        assert rotated == [shape]
