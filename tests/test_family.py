import re
from dataclasses import replace

import numpy as np
import pytest

from clonebound.errors import InvalidBlochError
from clonebound.family import (
    CANONICAL_AXIS_PAIRS,
    ClonerParams,
    GeneralClonerParams,
    _MAGIC_CORR,
    _correlation_part,
    _opposite_difference,
    _rotations_z_to,
    axial_covariance_residual,
    bloch_rotation_z_to,
    clone_fidelity,
    covariance_constraint_residual,
    no_signaling_residual,
    output_state,
    positivity_eigenvalues,
    require_unit_axis,
    template_state_z,
)
from clonebound.pauli import (
    SIGMA,
    SIGMA_X,
    bloch_rotation_matrix,
    hermitian_eigenvalues4,
    partial_trace,
    pauli_decompose,
    tensor,
)
from reference import (
    density_to_bloch,
    no_signaling_residual_svd,
    output_state_z,
    random_axis,
    random_params,
    rotate_output,
    rotation_taking_z_to,
    rotations_z_to,
)

#: axes the rotation tests take besides the seeded random ones
EDGE_AXES = {
    "plus_z": np.array([0.0, 0.0, 1.0]),
    "minus_z": np.array([0.0, 0.0, -1.0]),
    # |m + z| ~ 5e-7: sin of the turn is tiny and 1 + m_z cancels
    "near_minus_z": np.array([3e-7, -4e-7, -1.0]) / np.linalg.norm([3e-7, -4e-7, -1.0]),
    # |m + z| ~ 5e-9, just above the cutoff where -z is special-cased
    "nearer_minus_z": np.array([3e-9, 4e-9, -1.0]) / np.linalg.norm([3e-9, 4e-9, -1.0]),
}


class TestParamTypes:
    def test_cloner_params_validation(self):
        with pytest.raises(ValueError):
            ClonerParams(eta=1.2, t=0.0)
        with pytest.raises(ValueError):
            ClonerParams(eta=0.0, t=-1.5)
        with pytest.raises(ValueError):
            ClonerParams(eta=0.0, t=0.0, t_xy=np.inf)
        # the domain bound is exact: a given number has no round-off
        for name in ("eta", "t", "t_xy"):
            with pytest.raises(ValueError, match=name):
                ClonerParams(**{"eta": 0.0, "t": 0.0, name: 1 + 1e-13})
        for edge in (1.0, -1.0):
            assert ClonerParams(eta=edge, t=edge, t_xy=edge).to_json_dict() == dict.fromkeys(
                ("eta", "t", "t_xy"), edge)

    def test_cloner_params_matrix(self):
        mat = ClonerParams(eta=0.5, t=0.25, t_xy=0.125).as_matrix()
        np.testing.assert_array_equal(
            mat, [[0.25, 0.125, 0.0], [-0.125, 0.25, 0.0], [0.0, 0.0, 0.25]]
        )

    @pytest.mark.parametrize("point", [(0.5, 0.25, 0.125), (0.1, -0.3, 0.0), (-1.0, -1.0, 1.0)])
    def test_cloner_params_matrix_is_built_once_read_only(self, point):
        p = ClonerParams(*point)
        mat = p.as_matrix()
        assert mat is p.as_matrix()
        with pytest.raises(ValueError):
            mat[0, 0] = 0.0
        # the construction the matrix has always had, signs of zeros included
        expected = p.t * np.eye(3)
        expected[0, 1] = p.t_xy
        expected[1, 0] = -p.t_xy
        assert mat.tobytes() == expected.tobytes()
        assert replace(p, t=0.5).as_matrix()[2, 2] == 0.5
        assert repr(p) == f"ClonerParams(eta={p.eta}, t={p.t}, t_xy={p.t_xy})"

    def test_cloner_params_matrix_keeps_signed_zeros(self):
        mat = ClonerParams(0.1, -0.3, 0.0).as_matrix()
        # t * I has -0.0 off the diagonal for t < 0; t_xy = 0 writes +0.0 and -0.0
        signs = [[True, False, True], [True, True, True], [True, True, True]]
        np.testing.assert_array_equal(np.signbit(mat), signs)

    def test_cloner_params_json_round_trip(self):
        p = ClonerParams(eta=2 / 3, t=1 / 3, t_xy=0.0)
        assert ClonerParams(**p.to_json_dict()) == p
        assert p.to_json_dict() == {"eta": 2 / 3, "t": 1 / 3, "t_xy": 0.0}

    def test_general_params_validation(self):
        with pytest.raises(ValueError):
            GeneralClonerParams(eta=0.0, t=np.zeros((2, 3)))
        with pytest.raises(ValueError):
            GeneralClonerParams(eta=0.0, t=1.5 * np.eye(3))
        with pytest.raises(ValueError):
            GeneralClonerParams(eta=0.0, t=(1 + 1e-13) * np.eye(3))
        with pytest.raises(ValueError):
            GeneralClonerParams(eta=1 + 1e-13, t=np.zeros((3, 3)))
        for edge in (1.0, -1.0):
            p = GeneralClonerParams(eta=edge, t=edge * np.ones((3, 3)))
            assert p.eta == edge
            np.testing.assert_array_equal(p.t, edge * np.ones((3, 3)))

    def test_general_params_json_round_trip(self):
        p = GeneralClonerParams(eta=0.1, t=np.diag([0.0, 0.0, 1 / 3]))
        d = p.to_json_dict()
        assert d["t_matrix"] == p.t.tolist()
        assert all(type(v) is float for row in d["t_matrix"] for v in row)
        q = GeneralClonerParams(d["eta"], d["t_matrix"])
        np.testing.assert_array_equal(p.t, q.t)
        assert p.eta == q.eta

    def test_general_params_refuse_non_finite_entries(self):
        with pytest.raises(ValueError, match="^t contains non-finite entries$"):
            GeneralClonerParams(0, [[np.nan, 0, 0], [0, 0, 0], [0, 0, 0]])

    def test_general_params_matrix_immutable(self):
        p = GeneralClonerParams(eta=0.0, t=np.zeros((3, 3)))
        with pytest.raises(ValueError):
            p.t[0, 0] = 1.0


class TestOutputStates:
    def test_z_matrix_entries(self):
        got = output_state_z(ClonerParams(eta=2 / 3, t=1 / 3, t_xy=0.0))
        expected = np.array(
            [
                [8 / 3, 0, 0, 0],
                [0, 2 / 3, 2 / 3, 0],
                [0, 2 / 3, 2 / 3, 0],
                [0, 0, 0, 0],
            ]
        ) / 4
        np.testing.assert_allclose(got, expected, atol=1e-15)

    def test_trivial_point_is_maximally_mixed(self):
        np.testing.assert_allclose(
            output_state_z(ClonerParams(0.0, 0.0, 0.0)), np.eye(4) / 4
        )

    def test_z_matrix_off_diagonal_phase(self):
        got = output_state_z(ClonerParams(eta=0.5, t=0.25, t_xy=0.125))
        assert got[1, 2] == pytest.approx((2 * 0.25 + 2j * 0.125) / 4)
        assert got[2, 1] == pytest.approx((2 * 0.25 - 2j * 0.125) / 4)
        assert np.trace(got) == pytest.approx(1.0, abs=1e-15)

    def test_z_matrix_agrees_with_pauli_expansion(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            p = random_params(rng)
            coeffs = pauli_decompose(output_state_z(p))
            np.testing.assert_allclose(coeffs.correlation, p.as_matrix(), atol=1e-12)
            np.testing.assert_allclose(coeffs.bloch_first, [0, 0, p.eta], atol=1e-12)
            np.testing.assert_allclose(coeffs.bloch_second, [0, 0, p.eta], atol=1e-12)

    def test_equal_partial_traces_with_shrunk_bloch(self):
        rng = np.random.default_rng(18)
        for _ in range(200):
            p = random_params(rng)
            state = output_state_z(p)
            r1 = partial_trace(state, 1)
            r2 = partial_trace(state, 2)
            np.testing.assert_allclose(r1, r2, atol=1e-12)
            np.testing.assert_allclose(
                density_to_bloch(r1), [0.0, 0.0, p.eta], atol=1e-12
            )

    def test_general_rejects_non_unit_direction(self):
        p = GeneralClonerParams(eta=0.0, t=np.zeros((3, 3)))
        with pytest.raises(InvalidBlochError):
            output_state(p, (0, 0, 0.5))
        with pytest.raises(InvalidBlochError):
            output_state(p, (0.0, 0.0, 0.0))

    def test_general_partial_traces_along_m(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            t = rng.uniform(-0.3, 0.3, size=(3, 3))
            p = GeneralClonerParams(eta=rng.uniform(-1, 1), t=t)
            m = random_axis(rng)
            state = output_state(p, m)
            for keep in (1, 2):
                np.testing.assert_allclose(
                    density_to_bloch(partial_trace(state, keep)), p.eta * m, atol=1e-12
                )


class TestRotation:
    def test_z_to_z_is_identity(self):
        np.testing.assert_allclose(rotation_taking_z_to((0, 0, 1)), np.eye(2))
        np.testing.assert_array_equal(bloch_rotation_z_to((0, 0, 1)), np.eye(3))

    def test_z_to_minus_z_is_pi_about_x(self):
        u = rotation_taking_z_to((0, 0, -1))
        np.testing.assert_allclose(u, -1j * SIGMA_X, atol=1e-15)
        np.testing.assert_array_equal(
            bloch_rotation_z_to((0, 0, -1)), np.diag([1.0, -1.0, -1.0])
        )

    @pytest.mark.parametrize("seed", [*range(20), *EDGE_AXES])
    def test_maps_z_to_target(self, seed):
        if seed in EDGE_AXES:
            m = EDGE_AXES[seed]
        else:
            m = random_axis(np.random.default_rng(seed))
        rot = bloch_rotation_z_to(m)
        np.testing.assert_allclose(rot.T @ rot, np.eye(3), atol=1e-14)
        assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_allclose(rot @ [0, 0, 1], m, atol=1e-15)
        r = bloch_rotation_matrix(rotation_taking_z_to(m))
        np.testing.assert_allclose(r @ [0, 0, 1], m, atol=1e-12)
        np.testing.assert_allclose(rot, r, atol=1e-12)

    @staticmethod
    def assert_same_bits(actual, expected):
        np.testing.assert_array_equal(actual, expected)
        np.testing.assert_array_equal(np.signbit(actual), np.signbit(expected))

    def test_matches_the_vectorized_body_bit_for_bit(self):
        rng = np.random.default_rng(80)
        unit = rng.standard_normal((10_000, 3))
        unit /= np.linalg.norm(unit, axis=1)[:, None]
        # 1e-12 to 1e-3 from +z and from -z, both sides of the pole cutoff
        gap = 10.0 ** rng.uniform(-12.0, -3.0, 4000)
        phase = rng.uniform(0.0, 2.0 * np.pi, 4000)
        near = np.stack([gap * np.cos(phase), gap * np.sin(phase), np.sqrt(1.0 - gap**2)], 1)
        cases = {
            "random": unit,
            "near_plus_z": near,
            "near_minus_z": near * [1.0, 1.0, -1.0],
            "poles_and_equator": np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0],
                                           [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]]),
            # |m| = 1 +- 5e-10 passes validation, and the body normalizes
            "off_unit": unit[:2000] * (1.0 + rng.choice([-5e-10, 5e-10], 2000))[:, None],
        }
        for axes in cases.values():
            self.assert_same_bits(bloch_rotation_z_to(axes), rotations_z_to(axes))
            for m in axes[:50]:
                self.assert_same_bits(bloch_rotation_z_to(m), rotations_z_to(m))

    @pytest.mark.parametrize("shape", [(3,), (5, 3), (4, 5, 3), (0, 3), (4, 0, 3)])
    def test_shape_contract(self, shape):
        axes = np.random.default_rng(81).standard_normal(shape)
        axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
        rot = _rotations_z_to(axes)
        assert rot.shape == shape[:-1] + (3, 3)
        assert rot.dtype == np.float64
        self.assert_same_bits(rot, rotations_z_to(axes))

    def test_rotate_output_preserves_spectrum(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            p = random_params(rng)
            state = output_state_z(p)
            rotated = rotate_output(state, random_axis(rng))
            np.testing.assert_allclose(
                hermitian_eigenvalues4(rotated),
                hermitian_eigenvalues4(state),
                atol=1e-12,
            )

    def test_rotated_traces_follow_m(self):
        rng = np.random.default_rng(26)
        for _ in range(100):
            p = random_params(rng)
            m = random_axis(rng)
            rotated = rotate_output(output_state_z(p), m)
            np.testing.assert_allclose(
                density_to_bloch(partial_trace(rotated, 1)), p.eta * m, atol=1e-12
            )
            np.testing.assert_allclose(
                density_to_bloch(partial_trace(rotated, 2)), p.eta * m, atol=1e-12
            )

    def test_rotation_consistent_with_pauli_frame_output(self):
        rng = np.random.default_rng(27)
        for _ in range(200):
            p = random_params(rng)
            m = random_axis(rng)
            via_rotation = rotate_output(output_state_z(p), m)
            np.testing.assert_allclose(via_rotation, output_state(p, m), atol=1e-12)


class TestAxialCovariance:
    def test_family_states_commute_about_their_axis(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            p = random_params(rng)
            assert axial_covariance_residual(output_state_z(p), (0, 0, 1)) < 1e-12
        for _ in range(20):
            p = random_params(rng)
            m = random_axis(rng)
            assert axial_covariance_residual(output_state(p, m), m) < 1e-12

    def test_product_basis_state_is_axial(self):
        up_dn = np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex)
        assert axial_covariance_residual(up_dn, (0, 0, 1)) < 1e-12

    def test_transverse_product_state_is_not_axial(self):
        plus = np.full((2, 2), 0.5, dtype=complex)
        assert axial_covariance_residual(tensor(plus, plus), (0, 0, 1)) > 0.1

    def test_off_family_correlation_caught(self):
        p = GeneralClonerParams(eta=0.0, t=np.diag([0.3, 0.1, 0.0]))
        state = template_state_z(p)
        assert axial_covariance_residual(state, (0, 0, 1)) > 0.01

    def test_generator_commutator_by_hand(self):
        # G = sz (x) I + I (x) sz = diag(2, 0, 0, -2) and every entry of
        # |++><++| is 1/4, so [G, rho]_ab = (g_a - g_b)/4 and
        # ||[G, rho]||_F^2 = (8 * 2^2 + 2 * 4^2)/16 = 4
        plus = np.full((2, 2), 0.5, dtype=complex)
        assert axial_covariance_residual(tensor(plus, plus), (0, 0, 1)) == 2.0


class TestConstraintResiduals:
    def test_refuses_a_matrix_that_is_not_3x3(self):
        with pytest.raises(ValueError, match=r"^expected a 3x3 matrix, got shape \(2, 2\)$"):
            covariance_constraint_residual(np.eye(2))

    def test_allowed_structures_pass(self):
        assert covariance_constraint_residual(np.eye(3) / 3) == 0.0
        allowed = np.array([[0.1, 0.2, 0.0], [-0.2, 0.1, 0.0], [0.0, 0.0, 0.7]])
        assert covariance_constraint_residual(allowed) == 0.0

    def test_each_violation_detected(self):
        base = np.zeros((3, 3))
        cases = [
            ((0, 0), 1 / 3, 1 / 3),  # t_xx != t_yy
            ((0, 1), 0.2, 0.2),      # t_xy without -t_yx
            ((0, 2), 0.15, 0.15),
            ((2, 0), 0.15, 0.15),
            ((1, 2), 0.15, 0.15),
            ((2, 1), 0.15, 0.15),
        ]
        for (j, k), value, expected in cases:
            t = base.copy()
            t[j, k] = value
            assert covariance_constraint_residual(t) == pytest.approx(expected)

    def test_accepts_general_params(self):
        p = GeneralClonerParams(eta=0.0, t=np.diag([0.0, 0.0, 1 / 3]))
        # axially symmetric about z, so the structural check passes; the
        # anisotropic diagonal is only caught by the signaling residual
        assert covariance_constraint_residual(p) == 0.0
        assert no_signaling_residual(p, (0, 0, 1), (1, 0, 0)) > 0.1
        assert covariance_constraint_residual(ClonerParams(0.1, 0.2, 0.3)) == 0.0


class TestNoSignalingResidual:
    def test_family_members_silent_on_canonical_pairs(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            p = random_params(rng)
            for a, b in CANONICAL_AXIS_PAIRS:
                assert no_signaling_residual(p, a, b) < 1e-12

    def test_family_members_silent_on_random_pairs(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            p = random_params(rng)
            a, b = random_axis(rng), random_axis(rng)
            assert no_signaling_residual(p, a, b) < 1e-12

    def test_anisotropic_diagonal_gives_gap(self):
        p = GeneralClonerParams(eta=0.0, t=np.diag([0.0, 0.0, 1 / 3]))
        got = no_signaling_residual(p, (0, 0, 1), (1, 0, 0))
        assert got == pytest.approx(1 / 3, abs=1e-12)

    def test_anisotropic_diagonal_gap_is_exact(self):
        # only t_zz E_zz and t_xx E_xx survive the correlation sum, exactly
        p = GeneralClonerParams(eta=0.0, t=np.diag([0.0, 0.0, 1 / 3]))
        assert no_signaling_residual(p, (0.0, 0.0, 1.0), (1.0, 0.0, 0.0)) == 1 / 3

    def test_difference_is_the_four_outputs_combined(self):
        rng = np.random.default_rng(44)
        edges = list(EDGE_AXES.values())
        axes_a = np.array([*(random_axis(rng) for _ in range(20)), *edges, *edges])
        axes_b = np.array([*(random_axis(rng) for _ in range(20)), *edges, *edges[::-1]])
        for _ in range(20):
            p = GeneralClonerParams(eta=rng.uniform(-1, 1), t=rng.uniform(-1, 1, (3, 3)))
            combined = (output_state(p, axes_a) + output_state(p, -axes_a)
                        - output_state(p, axes_b) - output_state(p, -axes_b))
            stacked = _correlation_part(_opposite_difference(p, axes_a, axes_b)[0])
            np.testing.assert_allclose(stacked, combined, rtol=0.0, atol=1e-15)
            for a, b, want in zip(axes_a, axes_b, combined):
                single = _correlation_part(_opposite_difference(p, a, b)[0])
                np.testing.assert_allclose(single, want, rtol=0.0, atol=1e-15)
                assert np.trace(single) == 0.0
            assert np.all(np.trace(stacked, axis1=-2, axis2=-1) == 0.0)

    def test_gap_matches_diagonal_difference(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            d = rng.uniform(-0.8, 0.8, size=3)
            p = GeneralClonerParams(eta=rng.uniform(-0.5, 0.5), t=np.diag(d))
            got = no_signaling_residual(p, (0, 0, 1), (1, 0, 0))
            assert got == pytest.approx(abs(d[2] - d[0]), abs=1e-10)

    def test_same_axis_always_silent(self):
        p = GeneralClonerParams(eta=0.3, t=np.diag([0.1, -0.2, 0.5]))
        assert no_signaling_residual(p, (0, 0, 1), (0, 0, 1)) < 1e-15

    def test_symmetric_xy_correlation_signals_on_the_fourth_pair(self):
        # t_xy = t_yx is off the family yet silent on the first three pairs
        p = GeneralClonerParams(eta=0.0, t=[[0.2, 0.1, 0.0], [0.1, 0.2, 0.0], [0.0, 0.0, 0.2]])
        axes_a, axes_b = np.swapaxes(CANONICAL_AXIS_PAIRS, 0, 1)
        np.testing.assert_allclose(
            no_signaling_residual(p, axes_a, axes_b), [0.0, 0.0, 0.0, 0.1], atol=1e-12
        )

    def test_canonical_pairs_leave_exactly_the_family(self):
        # the opposite-sum difference is linear in t: one column per E_jk,
        # stacked over the pairs; its kernel must be span{I, J_z}
        axes_a, axes_b = np.swapaxes(CANONICAL_AXIS_PAIRS, 0, 1)
        columns = []
        for j, k in np.ndindex(3, 3):
            unit = np.zeros((3, 3))
            unit[j, k] = 1.0
            p = GeneralClonerParams(eta=0.0, t=unit)
            diff = (output_state(p, axes_a) + output_state(p, -axes_a)
                    - output_state(p, axes_b) - output_state(p, -axes_b))
            columns.append(np.stack([diff.real, diff.imag], axis=-1).reshape(len(diff), -1))
        # (pair, entry, E_jk)
        linear_map = np.stack(columns, axis=-1)
        assert np.linalg.matrix_rank(linear_map[:3].reshape(-1, 9), tol=1e-9) == 6
        _, singular, vt = np.linalg.svd(linear_map.reshape(-1, 9))
        assert singular[6] > 0.1 and singular[7] < 1e-12
        j_z = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        family = np.array([np.eye(3).ravel() / np.sqrt(3.0), j_z.ravel() / np.sqrt(2.0)])
        kernel = vt[7:]
        np.testing.assert_allclose(family @ kernel.T @ kernel, family, atol=1e-12)

    def test_eta_never_contributes(self):
        # opposite preparations cancel the eta terms, so even eta = 1
        # stays silent inside the family
        p = ClonerParams(eta=1.0, t=0.0, t_xy=0.0)
        assert no_signaling_residual(p, (0, 0, 1), (1, 0, 0)) < 1e-12

    def test_matches_the_singular_value_oracle(self):
        # the SU(2) outputs and an SVD of D against the magic-basis spectrum
        rng = np.random.default_rng(45)
        poles = [(EDGE_AXES["plus_z"], EDGE_AXES["minus_z"]),
                 (EDGE_AXES["minus_z"], EDGE_AXES["plus_z"]),
                 (EDGE_AXES["plus_z"], EDGE_AXES["nearer_minus_z"])]
        pairs = [(random_axis(rng), random_axis(rng)) for _ in range(2000)] + poles * 5
        for a, b in pairs:
            p = GeneralClonerParams(eta=rng.uniform(-1, 1), t=rng.uniform(-1, 1, (3, 3)))
            assert no_signaling_residual(p, a, b) == pytest.approx(
                no_signaling_residual_svd(p, a, b), rel=0.0, abs=1e-12)

    def test_magic_table_is_a_real_form_of_the_pauli_pairs(self):
        # Hill & Wootters' basis |00> + |11>, i(|00> - |11>), i(|01> + |10>), |01> - |10>
        magic = np.array([[1, 1j, 0, 0], [0, 0, 1j, 1], [0, 0, 1j, -1], [1, -1j, 0, 0]])
        magic = magic / np.sqrt(2.0)
        np.testing.assert_allclose(magic.conj().T @ magic, np.eye(4), atol=1e-15)
        for (j, k), row in zip(np.ndindex(3, 3), _MAGIC_CORR):
            table = row.reshape(4, 4)
            assert set(table.ravel().tolist()) <= {-1.0, 0.0, 1.0}
            np.testing.assert_array_equal(table, table.T)
            np.testing.assert_allclose(magic @ table @ magic.conj().T, np.kron(SIGMA[j], SIGMA[k]),
                                       rtol=0.0, atol=1e-15)


class TestStackedAxes:
    """An (N, 3) stack of axes gives the rows of N per-axis calls."""

    @staticmethod
    def axes(seed):
        rng = np.random.default_rng(seed)
        return np.array([*(random_axis(rng) for _ in range(20)), *EDGE_AXES.values()])

    def test_rows_are_the_per_axis_calls_bit_for_bit(self):
        axes = self.axes(70)
        rots = bloch_rotation_z_to(axes)
        assert rots.shape == (len(axes), 3, 3)
        for m, rot in zip(axes, rots):
            np.testing.assert_array_equal(rot, bloch_rotation_z_to(m))
        t = np.random.default_rng(71).uniform(-1.0, 1.0, size=(3, 3))
        for p in (ClonerParams(0.3, -0.2, 0.4), GeneralClonerParams(eta=-0.5, t=t)):
            states = output_state(p, axes)
            assert states.shape == (len(axes), 4, 4)
            for m, state in zip(axes, states):
                np.testing.assert_array_equal(state, output_state(p, m))

    def test_stacked_residual_matches_per_pair_calls(self):
        rng = np.random.default_rng(72)
        axes_a, axes_b = self.axes(73), self.axes(74)[::-1]
        for _ in range(20):
            p = GeneralClonerParams(eta=rng.uniform(-1, 1), t=rng.uniform(-1, 1, (3, 3)))
            stacked = no_signaling_residual(p, axes_a, axes_b)
            assert stacked.shape == (len(axes_a),)
            per_pair = [no_signaling_residual(p, a, b) for a, b in zip(axes_a, axes_b)]
            assert all(isinstance(v, float) for v in per_pair)
            np.testing.assert_allclose(stacked, per_pair, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("bad_row", [(0.0, 0.0, 0.5), (np.nan, 0.0, 0.0), (1.0, 0.0)],
                             ids=["non_unit", "nan", "wrong_width"])
    @pytest.mark.parametrize("side", ["axis_a", "axis_b"])
    def test_bad_row_names_its_argument(self, side, bad_row):
        p = ClonerParams(0.2, 0.1, 0.0)
        good = [list(m) for m in EDGE_AXES.values()]
        stacks = {"axis_a": good, "axis_b": good}
        stacks[side] = good[:2] + [list(bad_row)] + good[3:]
        with pytest.raises(InvalidBlochError, match=re.escape(side)):
            no_signaling_residual(p, stacks["axis_a"], stacks["axis_b"])

    def test_pair_stacks_must_match_in_shape(self):
        axes = self.axes(75)
        with pytest.raises(InvalidBlochError, match="axis_a and axis_b"):
            no_signaling_residual(ClonerParams(0.2, 0.1, 0.0), axes, axes[:-1])


class TestPositivity:
    def test_optimal_point_spectrum(self):
        lams = positivity_eigenvalues(ClonerParams(2 / 3, 1 / 3, 0.0))
        np.testing.assert_allclose(
            lams.as_array(), [2 / 3, 1 / 3, 0.0, 0.0], atol=1e-12
        )

    def test_trivial_point_spectrum(self):
        lams = positivity_eigenvalues(ClonerParams(0.0, 0.0, 0.0))
        np.testing.assert_array_equal(lams.as_array(), [0.25, 0.25, 0.25, 0.25])

    def test_overshooting_eta_goes_negative(self):
        lams = positivity_eigenvalues(ClonerParams(0.7, 1 / 3, 0.0))
        assert lams.min() == pytest.approx(-1 / 60, abs=1e-12)

    def test_perfect_cloning_point_is_flagged(self):
        # eta = 1 with a fully isotropic t = 1 looks like perfect cloning
        # but one eigenvalue lands at -1/2
        lams = positivity_eigenvalues(ClonerParams(1.0, 1.0, 0.0))
        np.testing.assert_allclose(lams.as_array(), [1.0, 0.5, 0.0, -0.5], atol=1e-15)

    def test_descending_unit_sum(self):
        rng = np.random.default_rng(51)
        for _ in range(200):
            lams = positivity_eigenvalues(random_params(rng)).as_array()
            assert np.all(np.diff(lams) <= 0)
            assert np.sum(lams) == pytest.approx(1.0, abs=1e-12)

    def test_matches_numerical_eigensolver_on_grid(self):
        grid = np.linspace(-1.0, 1.0, 9)
        for eta in grid:
            for t in grid:
                for t_xy in grid:
                    p = ClonerParams(eta, t, t_xy)
                    np.testing.assert_allclose(
                        positivity_eigenvalues(p).as_array(),
                        hermitian_eigenvalues4(output_state_z(p)),
                        atol=1e-10,
                    )


class TestCloneFidelity:
    @pytest.mark.parametrize(
        "eta,expected", [(2 / 3, 5 / 6), (0.0, 0.5), (1.0, 1.0)]
    )
    def test_values(self, eta, expected):
        assert clone_fidelity(ClonerParams(eta, 0.0, 0.0)) == pytest.approx(expected)

    def test_works_for_general_params(self):
        p = GeneralClonerParams(eta=0.5, t=np.zeros((3, 3)))
        assert clone_fidelity(p) == 0.75


class TestTemplateState:
    def test_template_dispatch(self):
        p = ClonerParams(0.2, 0.1, 0.0)
        np.testing.assert_array_equal(template_state_z(p), output_state_z(p))
        g = GeneralClonerParams(eta=0.2, t=p.as_matrix())
        np.testing.assert_allclose(template_state_z(g), output_state_z(p), atol=1e-15)

    def test_output_state_matches_rotated_template(self):
        rng = np.random.default_rng(61)
        p = GeneralClonerParams(eta=0.1, t=np.diag([0.0, 0.0, 1 / 3]))
        for _ in range(20):
            m = random_axis(rng)
            np.testing.assert_allclose(
                output_state(p, m),
                rotate_output(template_state_z(p), m),
                atol=1e-15,
            )


class TestUnitAxisValidation:
    """One axis and the same axis as row 1 of a stack: one verdict, one text."""

    UNIT = np.array([0.0, 0.6, 0.8])

    @staticmethod
    def check(vec):
        return [require_unit_axis(vec), require_unit_axis([[0.0, 0.0, 1.0], vec])]

    @pytest.mark.parametrize("scale", [1 - 0.5e-9, 1 + 0.5e-9])
    def test_within_state_tol_is_accepted(self, scale):
        single, stack = self.check(scale * self.UNIT)
        np.testing.assert_array_equal(single, scale * self.UNIT)
        np.testing.assert_array_equal(stack[1], scale * self.UNIT)

    @pytest.mark.parametrize("scale", [1 - 2e-9, 1 + 2e-9])
    def test_beyond_state_tol_is_refused(self, scale):
        for vec in (scale * self.UNIT, [[0.0, 0.0, 1.0], scale * self.UNIT]):
            with pytest.raises(InvalidBlochError, match=r"^direction(\[1\])? must be unit length"):
                require_unit_axis(vec)

    @pytest.mark.parametrize("bad, text", [
        ((np.nan, 0.0, 0.0), "must be a finite 3-vector, got [nan, 0.0, 0.0]"),
        ((np.inf, 0.0, 0.0), "must be a finite 3-vector, got [inf, 0.0, 0.0]"),
        ((1e200, 0.0, 0.0), "must be unit length, |m| = inf"),
    ], ids=["nan", "inf", "huge"])
    def test_bad_components_keep_their_text(self, bad, text):
        with pytest.raises(InvalidBlochError, match=f"^direction {re.escape(text)}$"):
            require_unit_axis(bad)
        with pytest.raises(InvalidBlochError, match=f"^direction\\[1\\] {re.escape(text)}$"):
            require_unit_axis([[0.0, 0.0, 1.0], bad])

    #: |m| - 1 is 9.9999986e-10 by `math.hypot` and 1.00000008e-09 by numpy's norm
    HYPOT_UNIT = [[-0.19682335191759404, -0.8230750429647886, 0.5327363736299918],
                  [0.27691729726968684, 0.8121966511580718, -0.5134719197000603]]

    @pytest.mark.parametrize("vec", HYPOT_UNIT, ids=["edge0", "edge1"])
    def test_edge_axis_is_accepted_in_every_form(self, vec):
        single, stack = self.check(vec)
        np.testing.assert_array_equal(stack[1], single)
        p, z = ClonerParams(0.2, 0.1, 0.05), [0.0, 0.0, 1.0]
        alone = no_signaling_residual(p, vec, z)
        stacked = no_signaling_residual(p, [z, vec], [z, z])
        assert alone < 1e-15 and stacked[1] < 1e-15
        np.testing.assert_array_equal(output_state(p, [z, vec])[1], output_state(p, vec))

    def test_one_rule_refuses_alone_and_stacked(self):
        # hypot puts |m| - 1 at 1.00000008e-09, numpy's norm at 9.9999986e-10
        vec = [0.3635365680448477, 0.8642994876218058, 0.3476025911739697]
        for form in (vec, [[0.0, 0.0, 1.0], vec]):
            with pytest.raises(InvalidBlochError, match=r"^direction(\[1\])? must be unit length"):
                require_unit_axis(form)

    @pytest.mark.parametrize("shape", [(2,), (2, 2, 3)])
    def test_refuses_a_shape_that_is_not_one_or_a_stack(self, shape):
        text = f"direction must be a 3-vector or an (N, 3) stack, got {shape}"
        with pytest.raises(InvalidBlochError, match=f"^{re.escape(text)}$"):
            require_unit_axis(np.zeros(shape))
