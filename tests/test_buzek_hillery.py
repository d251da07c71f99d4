"""Tests for the symmetric qubit cloner built from its three-qubit isometry."""

import numpy as np
import pytest

from clonebound import buzek_hillery
from clonebound.buzek_hillery import bh_clone, bh_family_point, bh_isometry
from clonebound.errors import InvalidStateError, NotInFamilyError
from clonebound.family import clone_fidelity, no_signaling_residual, template_state_z
from clonebound.pauli import (
    SIGMA_X,
    bloch_to_density,
    hermitian_eigenvalues4,
    overlap_fidelity,
    partial_trace,
    random_rotation,
    tensor,
)
from reference import random_axis, rotate_output

UP = bloch_to_density((0, 0, 1))
DOWN = bloch_to_density((0, 0, -1))
PLUS = bloch_to_density((1, 0, 0))

SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


class TestIsometry:
    def test_is_isometry(self):
        v = bh_isometry()
        np.testing.assert_allclose(v.conj().T @ v, np.eye(2), atol=1e-15)

    def test_columns_are_unit_vectors(self):
        v = bh_isometry()
        np.testing.assert_allclose(np.linalg.norm(v, axis=0), [1.0, 1.0])

    def test_returns_a_copy(self):
        v = bh_isometry()
        v[0, 0] = 0.0
        assert bh_isometry()[0, 0] != 0.0

    @pytest.mark.parametrize("seed", range(100))
    def test_covariance_with_conjugate_ancilla(self, seed):
        # the defining symmetry: rotating all three output qubits (ancilla
        # by the conjugate representation) equals rotating the input
        v = bh_isometry()
        u, _ = random_rotation(seed)
        lhs = np.kron(np.kron(u, u), u.conj()) @ v
        rhs = v @ u
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_anticlone_of_up_state(self):
        v = bh_isometry()
        full = v @ UP @ v.conj().T
        anc = np.einsum(
            "abcabd->cd", full.reshape(2, 2, 2, 2, 2, 2)
        )
        np.testing.assert_allclose(anc, np.diag([2 / 3, 1 / 3]), atol=1e-15)


class TestCloneMap:
    def test_clone_of_up_matches_closed_form(self):
        expected = np.array(
            [
                [2 / 3, 0, 0, 0],
                [0, 1 / 6, 1 / 6, 0],
                [0, 1 / 6, 1 / 6, 0],
                [0, 0, 0, 0],
            ],
            dtype=complex,
        )
        np.testing.assert_allclose(bh_clone(UP), expected, atol=1e-15)

    def test_swap_symmetric(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            state = bh_clone(bloch_to_density(0.9 * random_axis(rng)))
            np.testing.assert_allclose(SWAP @ state @ SWAP, state, atol=1e-14)

    def test_linear_in_the_input(self):
        mixed = bh_clone(np.eye(2, dtype=complex) / 2)
        averaged = (bh_clone(UP) + bh_clone(DOWN)) / 2
        np.testing.assert_allclose(mixed, averaged, atol=1e-14)

    def test_transverse_input_equals_rotated_output(self):
        np.testing.assert_allclose(
            bh_clone(PLUS), rotate_output(bh_clone(UP), (1, 0, 0)), atol=1e-12
        )

    @pytest.mark.parametrize("seed", range(50))
    def test_both_clones_reach_five_sixths(self, seed):
        m = random_axis(np.random.default_rng(seed))
        rho_in = bloch_to_density(m)
        state = bh_clone(rho_in)
        for keep in (1, 2):
            clone = partial_trace(state, keep)
            assert overlap_fidelity(rho_in, clone) == pytest.approx(5 / 6, abs=1e-12)

    def test_partial_traces_agree(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            state = bh_clone(bloch_to_density(random_axis(rng)))
            np.testing.assert_allclose(
                partial_trace(state, 1), partial_trace(state, 2), atol=1e-14
            )

    def test_output_is_positive(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            r = rng.uniform(0.0, 1.0)
            state = bh_clone(bloch_to_density(r * random_axis(rng)))
            assert hermitian_eigenvalues4(state).min() > -1e-12

    @pytest.mark.parametrize("seed", range(100))
    def test_covariant_under_input_rotation(self, seed):
        rng = np.random.default_rng(seed)
        u, _ = random_rotation(seed + 1000)
        rho = bloch_to_density(rng.uniform(0, 1) * random_axis(rng))
        lhs = bh_clone(u @ rho @ u.conj().T)
        uu = tensor(u, u)
        rhs = uu @ bh_clone(rho) @ uu.conj().T
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_rejects_invalid_input(self):
        with pytest.raises(InvalidStateError):
            bh_clone(np.eye(2, dtype=complex))  # trace 2
        with pytest.raises(InvalidStateError):
            bh_clone(np.array([[1.5, 0], [0, -0.5]], dtype=complex))
        with pytest.raises(InvalidStateError):
            bh_clone(np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex))


class TestFamilyPoint:
    def test_lands_on_known_parameters(self):
        p = bh_family_point()
        assert p.eta == pytest.approx(2 / 3, abs=1e-12)
        assert p.t == pytest.approx(1 / 3, abs=1e-12)
        assert p.t_xy == pytest.approx(0.0, abs=1e-12)

    def test_fidelity_at_family_point(self):
        assert clone_fidelity(bh_family_point()) == pytest.approx(5 / 6, abs=1e-12)

    def test_is_the_extracted_point_exactly(self):
        p = bh_family_point()
        assert (p.eta, p.t, p.t_xy) == (0.6666666666666666, 0.33333333333333337, 0.0)
        assert np.max(np.abs(bh_clone(UP) - template_state_z(p))) < 1e-16

    def test_off_family_clone_pair_is_refused(self, monkeypatch):
        tilted = bh_clone(UP) + 0.01 * tensor(SIGMA_X, np.eye(2))  # a_x != 0
        monkeypatch.setattr(buzek_hillery, "bh_clone", lambda rho: tilted)
        # the residual is the largest entry of the state's difference from the template
        text = "^clone pair leaves the constrained family by 1.000e-02$"
        with pytest.raises(NotInFamilyError, match=text):
            bh_family_point()

    def test_family_point_is_silent(self):
        p = bh_family_point()
        assert no_signaling_residual(p, (0, 0, 1), (1, 0, 0)) < 1e-12
