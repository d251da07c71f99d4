import collections
import re
import tracemalloc

import numpy as np
import pytest

from clonebound import bounds
from clonebound.bounds import (
    BoundResult,
    _central_levels,
    _row_levels,
    feasible,
    max_eta_closed_form,
    max_eta_grid,
)
from clonebound.errors import InvalidResolutionError
from clonebound.family import ClonerParams
from clonebound.pauli import is_positive


def grid_peak_bytes(resolution):
    """tracemalloc's peak over one max_eta_grid(resolution) call."""
    tracemalloc.start()
    try:
        max_eta_grid(resolution)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def full_plane_grid(resolution):
    """Reference: the argmax over the whole (t, t_xy) plane, same tie-break."""
    axis = np.linspace(-1.0, 1.0, resolution)
    t, t_xy = np.meshgrid(axis, axis, indexing="ij")
    eta = (1.0 + t) / 2.0
    d0, d3, block_diag = _row_levels(eta, t)
    entry = 2.0 * t + 2.0j * t_xy
    central = _central_levels(block_diag, entry, np.empty(t.shape), np.empty(t.shape))
    ok = np.ones_like(t, dtype=bool)
    for lam in (d0, d3, *central):
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
        # above MAX_RESOLUTION: refused before the axis is allocated
        with pytest.raises(InvalidResolutionError):
            max_eta_grid(10 ** 9)

    @pytest.mark.parametrize("value", [7.9, 2001.0, "7", float("nan"), 1e300])
    def test_refuses_non_integers(self, value):
        # refused before any rounding: 7.9 would scan a 7-point grid, and
        # 1e300 would print its 301-digit integer
        with pytest.raises(InvalidResolutionError, match=re.escape(repr(value))) as err:
            max_eta_grid(value)
        assert len(str(err.value)) < 80

    def test_numpy_integers_pass(self):
        assert repr(max_eta_grid(np.int64(7))) == repr(max_eta_grid(7))

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
        # repr tells -0.0 from 0.0 and prints every float exactly; at 127-129
        # the 2**14-cell block passes the whole plane and the row cap binds
        for resolution in [*range(3, 121), 127, 128, 129, 201, 400, 401]:
            assert repr(max_eta_grid(resolution)) == repr(full_plane_grid(resolution))

    @pytest.mark.parametrize("rows", [1, 2, 3, 7])
    def test_blocks_of_rows_match_full_plane(self, monkeypatch, rows):
        # the optimum row falls at every offset within a block of `rows`
        for resolution in [*range(3, 61), 201]:
            monkeypatch.setattr(bounds, "_GRID_CELLS", rows * resolution)
            assert repr(max_eta_grid(resolution)) == repr(full_plane_grid(resolution))

    @pytest.mark.parametrize("rows", [1, 3, 7])
    def test_every_block_sees_the_one_line_entry(self, monkeypatch, rows):
        # the reused buffer holds 2t + 2i t_xy bit for bit in every block
        # scanned, so its t_xy half survives the blocks before; the blocks
        # follow each other down the t axis
        seen = []

        def spy(block_diag, entry, upper, lower):
            seen.append(entry.copy())
            return _central_levels(block_diag, entry, upper, lower)

        resolution = 41
        monkeypatch.setattr(bounds, "_central_levels", spy)
        monkeypatch.setattr(bounds, "_GRID_CELLS", rows * resolution)
        max_eta_grid(resolution)
        axis = np.linspace(-1.0, 1.0, resolution)
        descending = axis[::-1, None]
        assert len(seen) > 1
        lo = 0
        for entry in seen:
            t = descending[lo:lo + len(entry)]
            assert entry.tobytes() == (2.0 * t + 2.0j * axis).tobytes()
            lo += len(entry)

    @pytest.mark.parametrize("rows", [1, 3, 7])
    def test_row_levels_once_per_call(self, monkeypatch, rows):
        # the per-row part covers the whole axis in one call, however
        # many blocks the scan goes through
        calls = collections.Counter()

        def counted(part):
            def spy(*args):
                calls[part.__name__] += 1
                return part(*args)
            return spy

        monkeypatch.setattr(bounds, "_row_levels", counted(_row_levels))
        monkeypatch.setattr(bounds, "_central_levels", counted(_central_levels))
        for n, resolution in enumerate((41, 101), start=1):
            monkeypatch.setattr(bounds, "_GRID_CELLS", rows * resolution)
            max_eta_grid(resolution)
            assert calls["_row_levels"] == n
        assert calls["_central_levels"] > 2

    def test_memory_is_one_row(self):
        # the whole 1001 x 1001 plane would need ~69 MiB
        assert grid_peak_bytes(1001) < 2 ** 20

    def test_memory_at_the_cli_default(self):
        # the default --resolution, whose peak the README gives
        assert grid_peak_bytes(2001) < 2 ** 20

    def test_block_never_outgrows_the_plane(self):
        # a block of 2**14 cells at R = 3 would be 5461 rows, ~260 KiB
        # of complex entry, for a plane of 9 cells
        assert grid_peak_bytes(3) < 16 * 2 ** 10
