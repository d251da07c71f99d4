import collections
import re
import tracemalloc

import numpy as np
import pytest

from clonebound import bounds, landscape
from clonebound.bounds import BoundResult, feasible, max_eta_closed_form, max_eta_grid
from clonebound.errors import InvalidResolutionError
from clonebound.family import ClonerParams, _central_levels, _outer_levels
from clonebound.pauli import is_positive
from clonebound.serialize import Table
from reference import layout_central_levels, layout_row_levels, row_walk_grid


def grid_peak_bytes(resolution):
    """tracemalloc's peak over one max_eta_grid(resolution) call."""
    tracemalloc.start()
    try:
        max_eta_grid(resolution)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


#: every R whose whole (t, t_xy) plane the tests judge against the scan
PLANE_RESOLUTIONS = [*range(3, 121), 127, 128, 129, 201, 400, 401]


def layout_verdict(eta, t, t_xy):
    """Every cell's verdict on its four matrix-layout levels, broadcast over the inputs."""
    d0, d3, block_diag = layout_row_levels(eta, t)
    ok = is_positive(d0) & is_positive(d3)
    for lam in layout_central_levels(block_diag, 2.0 * t + 2.0j * t_xy):
        ok = ok & is_positive(lam)
    return ok


def family_verdict(eta, t, t_xy):
    """Every cell's verdict on `family`'s four closed-form levels, the ones the grid judges."""
    ok = np.logical_and(*map(is_positive, _outer_levels(eta, t)))
    for lam in _central_levels(t, t_xy):
        ok = ok & is_positive(lam)
    return ok


def full_plane(resolution, verdict=layout_verdict):
    """The axis, the eta ceiling and every cell's verdict, t along rows."""
    axis = np.linspace(-1.0, 1.0, resolution)
    t, t_xy = np.meshgrid(axis, axis, indexing="ij")
    eta = (1.0 + t) / 2.0
    return axis, eta, verdict(eta, t, t_xy)


def assert_deciding_columns_decide_each_row(verdict):
    """A row has a survivor iff a column of smallest |t_xy| survives, and then every such column does."""
    for resolution in PLANE_RESOLUTIONS:
        axis, _, ok = full_plane(resolution, verdict)
        size = np.abs(axis)
        deciding = ok[:, size == size.min()]
        assert 1 <= deciding.shape[1] <= 2
        assert (ok.any(axis=1) == deciding.any(axis=1)).all()
        assert deciding[ok.any(axis=1)].all()


def full_plane_grid(resolution):
    """Reference: the argmax over the whole (t, t_xy) plane, same tie-break."""
    axis, eta, ok = full_plane(resolution)
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
        # repr tells -0.0 from 0.0 and prints every float exactly
        for resolution in PLANE_RESOLUTIONS:
            assert repr(max_eta_grid(resolution)) == repr(full_plane_grid(resolution))

    def test_deciding_columns_decide_each_row(self):
        # the layout verdict, which the references judge on: it needs
        # complex abs to be monotone in |imag|
        assert_deciding_columns_decide_each_row(layout_verdict)

    def test_deciding_columns_decide_each_row_on_family_levels(self):
        # the fact the scan rests on, cell by cell, on the levels it judges:
        # it needs np.hypot to be monotone in |t_xy| at a fixed t
        assert_deciding_columns_decide_each_row(family_verdict)

    def test_row_walk_matches_full_plane(self):
        # the every-cell row walk that pins the large R below is itself exact
        for resolution in [*range(3, 61), 201]:
            assert repr(row_walk_grid(resolution)) == repr(full_plane_grid(resolution))

    @pytest.mark.parametrize("resolution", [2001, 2500, 4001, 10007])
    def test_matches_every_cell_row_walk(self, resolution):
        assert repr(max_eta_grid(resolution)) == repr(row_walk_grid(resolution))

    @pytest.mark.parametrize("resolution", [*range(3, 34), 64])
    def test_sweep_flags_match_the_layout_verdict(self, resolution):
        # two routes to one verdict on every (eta, t, t_xy) cell: the sweep's
        # flag from `family`'s levels and the tests' own from the matrix layout
        table = Table("csv", landscape.SWEEP_HEADER, {"command": "sweep"})
        lines = "".join(table.chunks(landscape.sweep_blocks(table, resolution))).splitlines()
        flags = np.array([line.split(",")[7] for line in lines[1:]]) == "1"
        assert flags.any() and not flags.all()
        axis = np.linspace(-1.0, 1.0, resolution)
        ok = layout_verdict(axis[:, None, None], axis[:, None], axis)
        assert flags.tolist() == ok.ravel().tolist()

    @pytest.mark.parametrize("calls", [1, 3, 7])
    def test_row_levels_once_per_call(self, monkeypatch, calls):
        # each of `calls` calls in a row works out the outer levels over the
        # whole t axis once and the deciding columns' central levels once
        counts = collections.Counter()

        def counted(part):
            def spy(*args):
                counts[part.__name__] += 1
                return part(*args)
            return spy

        monkeypatch.setattr(bounds, "_outer_levels", counted(_outer_levels))
        monkeypatch.setattr(bounds, "_central_levels", counted(_central_levels))
        for n in range(1, calls + 1):
            max_eta_grid(41 if n % 2 else 100)
            assert counts["_outer_levels"] == counts["_central_levels"] == n

    def test_memory_is_one_row(self):
        # the whole 1001 x 1001 plane would need ~69 MiB
        assert grid_peak_bytes(1001) < 2 ** 20

    def test_memory_at_the_cli_default(self):
        # the default --resolution, whose peak the README gives
        assert grid_peak_bytes(2001) < 2 ** 20

    def test_memory_at_the_largest_resolution(self):
        # the whole axis and a few columns of it, ~3.8 MiB
        assert grid_peak_bytes(bounds.MAX_RESOLUTION) < 6 * 2 ** 20

    def test_block_never_outgrows_the_plane(self):
        # the scan holds a few columns of R; a fixed block of 2**14 complex
        # cells would be ~260 KiB at R = 3, for a plane of 9 cells
        assert grid_peak_bytes(3) < 16 * 2 ** 10
