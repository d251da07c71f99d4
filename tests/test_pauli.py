import warnings

import numpy as np
import pytest

from clonebound.buzek_hillery import bh_clone
from clonebound.errors import (
    InvalidBlochError,
    InvalidStateError,
    NotHermitianError,
    RequiresPureInputError,
)
from clonebound.pauli import (
    IDENTITY,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    bloch_to_density,
    hermitian_eigenvalues4,
    is_positive,
    overlap_fidelity,
    partial_trace,
    pauli_decompose,
    pauli_reconstruct,
    random_rotation,
    tensor,
    trace_distance,
)
from reference import bloch_rotation_matrix, density_to_bloch, su2_rotation

SINGLET = np.zeros((4, 4), dtype=complex)
SINGLET[1, 1] = SINGLET[2, 2] = 0.5
SINGLET[1, 2] = SINGLET[2, 1] = -0.5


def random_hermitian4(rng):
    raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    return (raw + raw.conj().T) / 2


def random_state2(rng):
    raw = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho = raw @ raw.conj().T
    return rho / np.trace(rho)


class TestPauliConstants:
    def test_involution_and_commutator(self):
        np.testing.assert_allclose(SIGMA_X @ SIGMA_X, IDENTITY, atol=1e-15)
        np.testing.assert_allclose(
            SIGMA_X @ SIGMA_Y - SIGMA_Y @ SIGMA_X, 2j * SIGMA_Z, atol=1e-15
        )


class TestBlochConversions:
    def test_spin_up(self):
        np.testing.assert_allclose(bloch_to_density((0, 0, 1)), np.diag([1.0, 0.0]))

    def test_maximally_mixed(self):
        np.testing.assert_allclose(bloch_to_density((0, 0, 0)), np.eye(2) / 2)

    def test_plus_x(self):
        np.testing.assert_allclose(
            bloch_to_density((1, 0, 0)), np.full((2, 2), 0.5), atol=1e-15
        )

    def test_round_trip_random_ball(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            m = rng.standard_normal(3)
            m *= rng.random() / np.linalg.norm(m)
            back = density_to_bloch(bloch_to_density(m))
            np.testing.assert_allclose(back, m, atol=1e-12)

    def test_known_shrunk_vector(self):
        rho = (np.eye(2) + (2 / 3) * SIGMA_Z) / 2
        np.testing.assert_allclose(density_to_bloch(rho), [0, 0, 2 / 3], atol=1e-15)

    def test_rejects_long_vector(self):
        with pytest.raises(InvalidBlochError):
            bloch_to_density((1.0, 0.0, 0.1))

    def test_rejects_bad_shape_and_nonfinite(self):
        with pytest.raises(InvalidBlochError):
            bloch_to_density((1.0, 0.0))
        with pytest.raises(InvalidBlochError):
            bloch_to_density((np.nan, 0.0, 0.0))

    def test_rejects_huge_vector_without_warning(self):
        # |m|^2 overflows; pytest turns a numpy RuntimeWarning into an error
        with pytest.raises(InvalidBlochError, match="inf"):
            bloch_to_density((1e200, 0.0, 0.0))

    def test_refusal_prints_the_length_that_decided(self):
        # hypot reads 1 + 2e-9 plus an ulp, numpy's norm reads 1.000000002
        m = (0.36486176808658227, 0.9240647561750199, -0.11393077101439338)
        with pytest.raises(InvalidBlochError, match=r"^Bloch vector norm (\S+) exceeds 1$") as err:
            bloch_to_density(m)
        printed = float(err.value.args[0].split()[3])
        assert not is_positive((1.0 - printed) / 2.0)


class TestTensor:
    def test_identity(self):
        np.testing.assert_array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_zz(self):
        np.testing.assert_array_equal(
            tensor(SIGMA_Z, SIGMA_Z), np.diag([1.0, -1.0, -1.0, 1.0])
        )

    def test_first_factor_is_first_qubit(self):
        # sigma_z on qubit 1 alone distinguishes |0x> from |1x>
        np.testing.assert_array_equal(
            tensor(SIGMA_Z, np.eye(2)), np.diag([1.0, 1.0, -1.0, -1.0])
        )

    def test_mixed_product_property(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a, b, c, d = (
                rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                for _ in range(4)
            )
            np.testing.assert_allclose(
                tensor(a, b) @ tensor(c, d), tensor(a @ c, b @ d), atol=1e-12
            )


class TestPauliDecomposition:
    def test_identity_component_only(self):
        coeffs = pauli_decompose(np.eye(4) / 4)
        assert coeffs.c00 == pytest.approx(0.25, abs=1e-15)
        np.testing.assert_allclose(coeffs.a, 0, atol=1e-15)
        np.testing.assert_allclose(coeffs.b, 0, atol=1e-15)
        np.testing.assert_allclose(coeffs.t, 0, atol=1e-15)

    def test_singlet_correlations(self):
        coeffs = pauli_decompose(SINGLET)
        np.testing.assert_allclose(coeffs.correlation, -np.eye(3), atol=1e-15)
        np.testing.assert_allclose(coeffs.bloch_first, 0, atol=1e-15)
        np.testing.assert_allclose(coeffs.bloch_second, 0, atol=1e-15)

    def test_round_trip_1000_random(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(1000):
            h = random_hermitian4(rng)
            back = pauli_reconstruct(pauli_decompose(h))
            worst = max(worst, np.max(np.abs(back - h)))
        assert worst < 1e-12

    def test_rejects_a_matrix_that_is_not_4x4(self):
        text = r"^two-qubit matrix must be 4x4, got shape \(3, 3\)$"
        with pytest.raises(InvalidStateError, match=text):
            pauli_decompose(np.eye(3))

    def test_rejects_non_hermitian(self):
        bad = np.eye(4, dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(NotHermitianError):
            pauli_decompose(bad)


class TestPartialTrace:
    def test_product_states(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            rho, sig = random_state2(rng), random_state2(rng)
            joint = tensor(rho, sig)
            np.testing.assert_allclose(partial_trace(joint, 1), rho, atol=1e-12)
            np.testing.assert_allclose(partial_trace(joint, 2), sig, atol=1e-12)

    def test_singlet_reduces_to_maximally_mixed(self):
        np.testing.assert_allclose(partial_trace(SINGLET, 1), np.eye(2) / 2, atol=1e-15)
        np.testing.assert_allclose(partial_trace(SINGLET, 2), np.eye(2) / 2, atol=1e-15)

    def test_trace_preserved(self):
        rng = np.random.default_rng(12)
        h = random_hermitian4(rng)
        assert np.trace(partial_trace(h, 1)) == pytest.approx(np.trace(h).real)

    def test_bad_keep_index(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(4) / 4, 3)


class TestEigensolver:
    def test_diagonal_is_exact(self):
        got = hermitian_eigenvalues4(np.diag([2 / 3, 1 / 3, 0.0, 0.0]))
        np.testing.assert_array_equal(got, [2 / 3, 1 / 3, 0.0, 0.0])
        got = hermitian_eigenvalues4(np.diag([0.1, 0.7, -0.3, 0.5]))
        np.testing.assert_array_equal(got, [0.7, 0.5, 0.1, -0.3])

    def test_known_spectrum_under_conjugation(self):
        # conjugating a known diagonal by a product unitary leaves the
        # spectrum {4, 3, 2, 1}; this is the independent fixture
        u = tensor(su2_rotation((0, 1, 0), 1.1), su2_rotation((1, 0, 0), -0.4))
        h = u @ np.diag([4.0, 3.0, 2.0, 1.0]).astype(complex) @ u.conj().T
        np.testing.assert_allclose(
            hermitian_eigenvalues4(h), [4.0, 3.0, 2.0, 1.0], atol=1e-12
        )

    def test_matches_lapack_on_random(self):
        rng = np.random.default_rng(21)
        worst = 0.0
        for _ in range(500):
            h = random_hermitian4(rng)
            mine = hermitian_eigenvalues4(h)
            ref = np.sort(np.linalg.eigvalsh(h))[::-1]
            worst = max(worst, np.max(np.abs(mine - ref)))
        assert worst < 1e-10

    def test_matches_characteristic_polynomial_roots(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            h = random_hermitian4(rng)
            # char poly coefficients via Newton's identities on power sums
            p = [np.trace(np.linalg.matrix_power(h, k)).real for k in range(1, 5)]
            e1 = p[0]
            e2 = (e1 * p[0] - p[1]) / 2
            e3 = (e2 * p[0] - e1 * p[1] + p[2]) / 3
            e4 = (e3 * p[0] - e2 * p[1] + e1 * p[2] - p[3]) / 4
            roots = np.sort(np.roots([1.0, -e1, e2, -e3, e4]).real)[::-1]
            np.testing.assert_allclose(hermitian_eigenvalues4(h), roots, atol=1e-8)

    @pytest.mark.parametrize("scale", [1e-20, 1e-14, 1.0, 1e150, 1e300])
    def test_accurate_at_any_scale(self, scale):
        h = scale * random_hermitian4(np.random.default_rng(24))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = hermitian_eigenvalues4(h)
        ref = np.linalg.eigvalsh(h)[::-1]
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_sum_equals_trace(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            h = random_hermitian4(rng)
            assert abs(np.sum(hermitian_eigenvalues4(h)) - np.trace(h).real) < 1e-10

    def test_rejects_non_hermitian(self):
        bad = np.eye(4, dtype=complex)
        bad[2, 0] = 1j
        with pytest.raises(NotHermitianError):
            hermitian_eigenvalues4(bad)


class TestOverlapFidelity:
    def test_perfect_clone(self):
        rho = bloch_to_density((0, 1, 0))
        assert overlap_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-15)

    def test_shrunk_clone(self):
        up = bloch_to_density((0, 0, 1))
        clone = (np.eye(2) + (2 / 3) * SIGMA_Z) / 2
        assert overlap_fidelity(up, clone) == pytest.approx(5 / 6, abs=1e-15)

    def test_maximally_mixed_clone(self):
        up = bloch_to_density((0, 0, 1))
        assert overlap_fidelity(up, np.eye(2) / 2) == pytest.approx(0.5, abs=1e-15)

    def test_rejects_mixed_input(self):
        with pytest.raises(RequiresPureInputError):
            overlap_fidelity(np.eye(2) / 2, bloch_to_density((0, 0, 1)))

    def test_purity_allowance_is_state_tol(self):
        up = bloch_to_density((0, 0, 1))
        near = bloch_to_density((0, 0, 1 - 0.5e-9))
        assert overlap_fidelity(near, up) == pytest.approx(1.0, abs=1e-9)
        with pytest.raises(RequiresPureInputError):
            overlap_fidelity(bloch_to_density((0, 0, 1 - 2e-9)), up)


class TestOneQubitRule:
    """Every one-qubit input is a state by one rule: (1 - |m|)/2 >= -1e-9."""

    @pytest.mark.parametrize("axis", [(1, 0, 0), (0, -1, 0), (0, 0, 1), (1, 1, 1)])
    def test_bloch_vector_and_matrix_agree(self, axis):
        unit = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
        up = bloch_to_density((0, 0, 1))
        verdicts = {}
        for length in (1 - 1e-9, 1 + 0.5e-9, 1 + 1.5e-9, 1 + 3e-9):
            m = length * unit
            # the same matrix, built by hand so that no check runs on m
            rho = (np.eye(2) + m[0] * SIGMA_X + m[1] * SIGMA_Y + m[2] * SIGMA_Z) / 2
            outcomes = []
            for accept in (lambda: bloch_to_density(m), lambda: bh_clone(rho),
                           lambda: overlap_fidelity(up, rho)):
                try:
                    accept()
                    outcomes.append(True)
                except (InvalidBlochError, InvalidStateError):
                    outcomes.append(False)
            verdicts[length] = outcomes
        assert verdicts == {1 - 1e-9: [True] * 3, 1 + 0.5e-9: [True] * 3,
                            1 + 1.5e-9: [True] * 3, 1 + 3e-9: [False] * 3}


class TestTraceDistance:
    def test_self_distance_zero(self):
        assert trace_distance(SINGLET, SINGLET) == 0.0

    def test_orthogonal_pure_states(self):
        up_up = tensor(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))
        dn_dn = tensor(np.diag([0.0, 1.0]), np.diag([0.0, 1.0]))
        assert trace_distance(up_up, dn_dn) == pytest.approx(1.0, abs=1e-15)

    def test_matched_sums_give_correlation_gap(self):
        # 2x the averaged states: difference (1/2)(t_zz - t_xx)(zz - xx)
        # has eigenvalues +-(t_zz - t_xx), so D = |t_zz - t_xx| = 1/3
        side_z = (np.eye(4) + (1 / 3) * tensor(SIGMA_Z, SIGMA_Z)) / 2
        side_x = (np.eye(4) + (1 / 3) * tensor(SIGMA_X, SIGMA_X)) / 2
        assert trace_distance(side_z, side_x) == pytest.approx(1 / 3, abs=1e-12)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            a = tensor(random_state2(rng), random_state2(rng))
            b = tensor(random_state2(rng), random_state2(rng))
            c = tensor(random_state2(rng), random_state2(rng))
            assert trace_distance(a, c) <= (
                trace_distance(a, b) + trace_distance(b, c) + 1e-10
            )

    def test_rejects_mismatched_traces(self):
        with pytest.raises(InvalidStateError):
            trace_distance(np.eye(4) / 4, np.eye(4) / 2)

    def test_rejects_non_hermitian(self):
        bad = np.eye(4, dtype=complex)
        bad[1, 3] = 0.5
        with pytest.raises(NotHermitianError):
            trace_distance(bad, np.eye(4))


class TestRotations:
    def test_su2_rotation_is_right_handed(self):
        r = bloch_rotation_matrix(su2_rotation((0, 0, 1), np.pi / 2))
        np.testing.assert_allclose(r @ [1, 0, 0], [0, 1, 0], atol=1e-15)

    def test_phase_convention_example(self):
        # exp(i pi sigma_z / 4) conjugates sigma_x to -sigma_y
        u = np.cos(np.pi / 4) * IDENTITY + 1j * np.sin(np.pi / 4) * SIGMA_Z
        np.testing.assert_allclose(u @ SIGMA_X @ u.conj().T, -SIGMA_Y, atol=1e-15)
        np.testing.assert_allclose(
            bloch_rotation_matrix(u) @ [1, 0, 0], [0, -1, 0], atol=1e-15
        )

    def test_identity_unitary_gives_identity_rotation(self):
        np.testing.assert_allclose(bloch_rotation_matrix(np.eye(2)), np.eye(3), atol=1e-15)

    def test_random_rotation_deterministic(self):
        u1, r1 = random_rotation(99)
        u2, r2 = random_rotation(99)
        np.testing.assert_array_equal(u1, u2)
        np.testing.assert_array_equal(r1, r2)
        u3, _ = random_rotation(100)
        assert not np.allclose(u1, u3)

    @pytest.mark.parametrize("seed", range(25))
    def test_random_rotation_structure(self, seed):
        u, r = random_rotation(seed)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)
        assert np.linalg.det(u) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(25))
    def test_rotation_realizes_conjugation(self, seed):
        u, r = random_rotation(seed)
        for k, sigma in enumerate((SIGMA_X, SIGMA_Y, SIGMA_Z)):
            conjugated = u @ sigma @ u.conj().T
            rebuilt = sum(r[j, k] * s for j, s in enumerate((SIGMA_X, SIGMA_Y, SIGMA_Z)))
            np.testing.assert_allclose(conjugated, rebuilt, atol=1e-12)

    def test_random_rotation_pins_its_quaternion_convention(self):
        # R is built from the quaternion, not from U: both must stay one rotation
        for seed in range(200):
            u, r = random_rotation(seed)
            np.testing.assert_allclose(r, bloch_rotation_matrix(u), rtol=0.0, atol=1e-15)
            again_u, again_r = random_rotation(seed)
            assert again_u.tobytes() == u.tobytes() and again_r.tobytes() == r.tobytes()

    def test_homomorphism(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            s1, s2 = rng.integers(0, 2**31, size=2)
            u1, r1 = random_rotation(int(s1))
            u2, r2 = random_rotation(int(s2))
            np.testing.assert_allclose(
                bloch_rotation_matrix(u1 @ u2), r1 @ r2, atol=1e-10
            )


class TestNonFiniteInput:
    """Non-finite entries are refused as such, before any Hermiticity verdict."""

    @staticmethod
    def spoil(rho, case):
        bad = np.array(rho, dtype=complex)
        if case == "nan_pair":
            bad[0, 1] = bad[1, 0] = np.nan
        elif case == "inf_diagonal":
            bad[1, 1] = np.inf
        else:
            bad[0, 1] = np.inf
        return bad

    CASES = ["nan_pair", "inf_diagonal", "inf_unpaired"]

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("call, what", [
        (lambda m: partial_trace(m, 1), "two-qubit matrix"),
        (hermitian_eigenvalues4, "matrix"),
    ], ids=["partial_trace", "hermitian_eigenvalues4"])
    def test_two_qubit(self, case, call, what):
        with pytest.raises(InvalidStateError, match=f"^{what} contains non-finite entries$") as err:
            call(self.spoil(SINGLET, case))
        assert err.type is InvalidStateError

    @pytest.mark.parametrize("case", CASES)
    def test_overlap_fidelity(self, case):
        pure, clone = bloch_to_density((0.0, 0.0, 1.0)), bloch_to_density((0.0, 0.0, 0.5))
        for args, what in (((self.spoil(pure, case), clone), "input state"),
                           ((pure, self.spoil(clone, case)), "clone state")):
            with pytest.raises(InvalidStateError,
                               match=f"^{what} contains non-finite entries$") as err:
                overlap_fidelity(*args)
            assert err.type is InvalidStateError

    #: finite entries whose antihermitian part overflows: A - A^dag reads inf
    HUGE_TWO_QUBIT = np.zeros((4, 4))
    HUGE_TWO_QUBIT[0, 1], HUGE_TWO_QUBIT[1, 0] = 1e308, -1e308
    HUGE_ONE_QUBIT = np.array([[1.0, 1e308], [-1e308, 0.0]])
    PURE = bloch_to_density((0.0, 0.0, 1.0))

    @pytest.mark.parametrize("call, what", [
        (lambda m: partial_trace(m, 1), "two-qubit matrix"),
        (hermitian_eigenvalues4, "matrix"),
        (pauli_decompose, "two-qubit matrix"),
        (lambda m: trace_distance(m, np.zeros((4, 4))), "first matrix"),
        (lambda m: trace_distance(np.zeros((4, 4)), m), "second matrix"),
    ], ids=["partial_trace", "hermitian_eigenvalues4", "pauli_decompose",
            "trace_distance_first", "trace_distance_second"])
    def test_huge_antihermitian_two_qubit(self, call, what):
        # refused as not Hermitian, with no overflow warning first
        with pytest.raises(NotHermitianError,
                           match=rf"^{what} is not Hermitian \(residual inf\)$") as err:
            call(self.HUGE_TWO_QUBIT)
        assert err.type is NotHermitianError

    @pytest.mark.parametrize("position, what", [(0, "input state"), (1, "clone state")])
    def test_huge_antihermitian_overlap_fidelity(self, position, what):
        args = [self.PURE, self.PURE]
        args[position] = self.HUGE_ONE_QUBIT
        with pytest.raises(NotHermitianError,
                           match=rf"^{what} is not Hermitian \(residual inf\)$") as err:
            overlap_fidelity(*args)
        assert err.type is NotHermitianError

    #: A_01 - conj(A_10) = (1.5 + 1.5i)e308 has finite parts, but its modulus overflows
    COMPLEX_OVERFLOW = 0.75e308 + 0.75e308j

    def test_overflowing_modulus_reads_inf(self):
        # abs() of such a complex raises OverflowError; the residual must read inf
        one = np.array([[0.0, self.COMPLEX_OVERFLOW], [-self.COMPLEX_OVERFLOW.conjugate(), 1.0]])
        with pytest.raises(NotHermitianError,
                           match=r"^input state is not Hermitian \(residual inf\)$") as err:
            overlap_fidelity(one, IDENTITY / 2)
        assert err.type is NotHermitianError
        two = np.zeros((4, 4), dtype=complex)
        two[0, 3], two[3, 0] = self.COMPLEX_OVERFLOW, -self.COMPLEX_OVERFLOW.conjugate()
        with pytest.raises(NotHermitianError,
                           match=r"^two-qubit matrix is not Hermitian \(residual inf\)$") as err:
            partial_trace(two, 1)
        assert err.type is NotHermitianError

    @pytest.mark.parametrize("entry", [1e200, 1e308, 1e200 + 1e200j])
    def test_huge_hermitian_pair_passes_the_check(self, entry):
        # the overflow guard must not refuse a finite Hermitian matrix
        m = np.zeros((4, 4), dtype=complex)
        m[0, 1], m[1, 0] = entry, np.conj(entry)
        reduced = partial_trace(m, 2)
        assert np.isfinite(reduced).all()
