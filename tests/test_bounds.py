import tracemalloc

import numpy as np
import pytest

from clonebound.bounds import (
    BoundResult,
    _matrix_entry_eigenvalues,
    feasible,
    max_eta_closed_form,
    max_eta_grid,
)
from clonebound.errors import InvalidResolutionError
from clonebound.family import ClonerParams, is_positive


def full_plane_grid(resolution):
    """Reference: the argmax over the whole (t, t_xy) plane, same tie-break."""
    axis = np.linspace(-1.0, 1.0, resolution)
    t, t_xy = np.meshgrid(axis, axis, indexing="ij")
    eta = (1.0 + t) / 2.0
    ok = np.ones_like(t, dtype=bool)
    for lam in _matrix_entry_eigenvalues(eta, t, t_xy):
        ok &= is_positive(lam)
    best_eta = float(np.max(eta[ok]))
    hit_t, hit_xy = np.where(ok & (eta == best_eta))
    txy_vals = axis[hit_xy]
    pick = np.lexsort((txy_vals, np.abs(txy_vals), axis[hit_t]))[0]
    return BoundResult(
        eta_max=best_eta,
        t_star=float(axis[hit_t[pick]]),
        t_xy_star=float(axis[hit_xy[pick]]),
        fidelity_max=(1.0 + best_eta) / 2.0,
        method="grid",
    )


class TestClosedForm:
    def test_optimum(self):
        res = max_eta_closed_form()
        assert abs(res.eta_max - 2 / 3) < 1e-15
        assert abs(res.t_star - 1 / 3) < 1e-15
        assert res.t_xy_star == 0.0
        assert res.method == "closed_form"

    def test_fidelity_is_exact_function_of_eta(self):
        res = max_eta_closed_form()
        assert res.fidelity_max == (1.0 + res.eta_max) / 2.0
        assert abs(res.fidelity_max - 5 / 6) < 1e-15

    def test_optimum_is_feasible_and_rigid(self):
        res = max_eta_closed_form()
        assert feasible(ClonerParams(res.eta_max, res.t_star, res.t_xy_star))
        # any eta increase at the same t breaks positivity
        assert not feasible(ClonerParams(res.eta_max + 1e-3, res.t_star, 0.0))

    def test_json_dict(self):
        d = max_eta_closed_form().to_json_dict()
        assert d["method"] == "closed_form"
        assert set(d) == {"eta_max", "t_star", "t_xy_star", "fidelity_max", "method"}


class TestFeasible:
    def test_known_points(self):
        assert feasible(ClonerParams(0.0, 0.0, 0.0))
        assert feasible(ClonerParams(2 / 3, 1 / 3, 0.0))
        assert not feasible(ClonerParams(2 / 3 + 1e-3, 1 / 3, 0.0))
        assert not feasible(ClonerParams(1.0, 0.0, 0.0))

    def test_t_xy_costs_positivity(self):
        # at the optimum the block eigenvalue is already zero, so an
        # antisymmetric component pushes it negative (the cost is second
        # order in t_xy, hence the not-too-small probe value)
        assert not feasible(ClonerParams(2 / 3, 1 / 3, 1e-3))


class TestGrid:
    def test_resolution_validation(self):
        with pytest.raises(InvalidResolutionError):
            max_eta_grid(resolution=2)
        with pytest.raises(InvalidResolutionError):
            max_eta_grid(resolution=0)

    def test_coarsest_grid_by_hand(self):
        # resolution 3 samples t and t_xy in {-1, 0, 1}; the best feasible
        # point is t = 0, t_xy = 0 with eta = (1 + t) / 2 = 1/2
        res = max_eta_grid(resolution=3)
        assert res.eta_max == 0.5
        assert res.t_star == 0.0
        assert res.t_xy_star == 0.0
        assert res.fidelity_max == 0.75
        assert res.method == "grid"

    def test_resolution_seven_contains_optimum(self):
        # t = 1/3 is on the 7-point grid, so the exact optimum is found
        res = max_eta_grid(resolution=7)
        assert res.eta_max == pytest.approx(2 / 3, abs=1e-12)
        assert res.t_star == pytest.approx(1 / 3, abs=1e-12)
        assert res.t_xy_star == 0.0

    @pytest.mark.parametrize("resolution", [3, 5, 9, 21, 101, 501])
    def test_convergence_rate(self, resolution):
        res = max_eta_grid(resolution=resolution)
        step = 2.0 / (resolution - 1)
        assert abs(res.eta_max - 2 / 3) <= step

    def test_refinement_is_monotone(self):
        # doubling resolution preserves old grid points, so eta never drops
        prev = max_eta_grid(resolution=5)
        for resolution in (9, 17, 33, 65):
            cur = max_eta_grid(resolution=resolution)
            assert cur.eta_max >= prev.eta_max - 1e-15
            prev = cur

    def test_never_beats_closed_form(self):
        exact = max_eta_closed_form().eta_max
        for resolution in (3, 7, 11, 51, 201):
            assert max_eta_grid(resolution=resolution).eta_max <= exact + 1e-12

    def test_grid_point_is_feasible(self):
        res = max_eta_grid(resolution=41)
        assert feasible(ClonerParams(res.eta_max, res.t_star, res.t_xy_star))

    @pytest.mark.parametrize("resolution", [7, 13, 41])
    def test_antisymmetric_part_stays_small(self, resolution):
        # t_xy only hurts positivity, so the reported optimum should keep
        # it within one grid step of zero
        res = max_eta_grid(resolution=resolution)
        assert abs(res.t_xy_star) <= 2.0 / (resolution - 1) + 1e-15

    def test_fidelity_consistent_with_eta(self):
        res = max_eta_grid(resolution=11)
        assert res.fidelity_max == (1.0 + res.eta_max) / 2.0

    def test_row_scan_matches_full_plane(self):
        # repr tells -0.0 from 0.0 and prints every float exactly
        for resolution in [*range(3, 121), 201, 400, 401]:
            assert repr(max_eta_grid(resolution)) == repr(full_plane_grid(resolution))

    def test_memory_is_one_row(self):
        # the whole 1001 x 1001 plane would need ~69 MiB
        tracemalloc.start()
        try:
            max_eta_grid(1001)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
