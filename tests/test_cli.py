"""End-to-end tests of the `clone-bound` command line interface.

Everything goes through `cli.main(argv)` with captured stdout, the same
path the console script takes, so exit codes and byte-level output are
exercised exactly as a shell user would see them.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from clonebound import cli, landscape, serialize
from clonebound.bounds import MAX_RESOLUTION, feasible, max_eta_closed_form
from clonebound.family import ClonerParams, GeneralClonerParams, check_point
from clonebound.pauli import STATE_TOL, is_positive
from clonebound.serialize import Table, dump_json, format_floats
from reference import averaged_clone_output, helstrom_projector, sweep_output

REPO_ROOT = Path(__file__).resolve().parents[1]

#: 10^400 / 3, a fraction whose value overflows a float
HUGE_FRACTION = "1" + "0" * 400 + "/3"


def run(capsys, argv):
    status = cli.main(argv)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def usage_error(capsys, argv):
    """The one stderr line of an argv that `cli.main` refuses with status 2 and no stdout."""
    status, out, err = run(capsys, argv)
    assert (status, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ")
    return lines[0]


class TestVerify:
    def test_optimum_passes(self, capsys):
        status, out, _ = run(capsys, ["verify", "--eta", "2/3", "--t", "1/3"])
        assert status == 0
        report = json.loads(out)
        assert report["pass"] is True
        assert report["eta"] == pytest.approx(2 / 3)
        assert report["covariance_residual"] == 0.0
        assert report["axial_residual"] < 1e-9
        assert report["no_signaling_residual"] < 1e-9
        assert report["min_eigenvalue"] > -1e-12

    def test_overshooting_eta_fails(self, capsys):
        status, out, _ = run(capsys, ["verify", "--eta", "0.7", "--t", "1/3"])
        assert status == 1
        report = json.loads(out)
        assert report["pass"] is False
        assert report["positivity_ok"] is False
        assert report["covariance_ok"] is True

    def test_anisotropic_diagonal_fails_no_signaling(self, capsys):
        status, out, _ = run(capsys, ["verify", "--t_diag", "0,0,1/3"])
        assert status == 1
        report = json.loads(out)
        assert report["no_signaling_ok"] is False
        assert report["no_signaling_residual"] == pytest.approx(1 / 3, abs=1e-9)
        assert "t_matrix" in report

    def test_t_diag_conflicts_with_t(self, capsys):
        usage_error(capsys, ["verify", "--t_diag", "0,0,1", "--t", "0.1"])

    def test_fraction_strings_accepted(self, capsys):
        # negative fractions need the --flag=value spelling, else argparse
        # reads the leading dash as an option
        status, out, _ = run(
            capsys, ["verify", "--eta=-1/3", "--t", "1/6", "--t_xy", "0"]
        )
        assert status in (0, 1)
        report = json.loads(out)
        assert report["eta"] == pytest.approx(-1 / 3)
        assert report["t"] == pytest.approx(1 / 6)

    def test_malformed_number_is_usage_error(self, capsys):
        usage_error(capsys, ["verify", "--eta", "two-thirds"])


class TestOptimize:
    def test_both_methods_agree(self, capsys):
        status, out, _ = run(capsys, ["optimize", "--resolution", "41"])
        assert status == 0
        report = json.loads(out)
        assert report["closed_form"]["eta_max"] == pytest.approx(2 / 3, abs=1e-15)
        assert report["closed_form"]["fidelity_max"] == pytest.approx(5 / 6, abs=1e-15)
        assert report["grid"]["method"] == "grid"
        assert report["resolution"] == 41
        assert 0.0 <= report["discrepancy"] <= 2.0 / 40

    def test_closed_form_only(self, capsys):
        status, out, _ = run(capsys, ["optimize", "--method", "closed_form"])
        assert status == 0
        report = json.loads(out)
        assert report["grid"] is None
        assert report["discrepancy"] is None

    def test_grid_only(self, capsys):
        status, out, _ = run(
            capsys, ["optimize", "--method", "grid", "--resolution", "7"]
        )
        assert status == 0
        report = json.loads(out)
        assert report["closed_form"] is None
        assert report["grid"]["eta_max"] == pytest.approx(2 / 3, abs=1e-12)

    def test_undersized_resolution_is_usage_error(self, capsys):
        usage_error(capsys, ["optimize", "--resolution", "2"])

    def test_largest_resolution(self, capsys):
        status, out, _ = run(capsys, ["optimize", "--method", "grid",
                                      "--resolution", str(MAX_RESOLUTION)])
        assert status == 0
        eta_max = json.loads(out)["grid"]["eta_max"]
        assert eta_max <= max_eta_closed_form().eta_max
        assert abs(eta_max - 2 / 3) <= 2.0 / (MAX_RESOLUTION - 1)


class TestClone:
    def test_default_input(self, capsys):
        status, out, _ = run(capsys, ["clone"])
        assert status == 0
        report = json.loads(out)
        assert report["input"] == [0.0, 0.0, 1.0]
        assert report["fidelity_clone1"] == pytest.approx(5 / 6, abs=1e-12)
        assert report["fidelity_clone2"] == pytest.approx(5 / 6, abs=1e-12)
        assert report["trace"] == pytest.approx(1.0, abs=1e-12)
        assert report["output_matrix"][0][0] == [pytest.approx(2 / 3), 0.0]
        assert report["output_matrix"][1][2] == [pytest.approx(1 / 6), 0.0]

    def test_pauli_fields(self, capsys):
        _, out, _ = run(capsys, ["clone", "--input", "0,0,1"])
        report = json.loads(out)
        assert report["c00"] == pytest.approx(0.25)
        np.testing.assert_allclose(report["a"], [0, 0, 1 / 6], atol=1e-12)
        np.testing.assert_allclose(report["b"], [0, 0, 1 / 6], atol=1e-12)
        t = np.array(report["t_matrix"])
        np.testing.assert_allclose(t, np.diag([1 / 12, 1 / 12, 1 / 12]), atol=1e-12)

    def test_transverse_input(self, capsys):
        status, out, _ = run(capsys, ["clone", "--input", "1,0,0"])
        assert status == 0
        report = json.loads(out)
        assert report["fidelity_clone1"] == pytest.approx(5 / 6, abs=1e-12)

    def test_non_unit_input_is_usage_error(self, capsys):
        assert "unit length" in usage_error(capsys, ["clone", "--input", "0,0,0.5"])


class TestSignal:
    def test_family_point_json(self, capsys):
        status, out, _ = run(
            capsys,
            ["signal", "--eta", "2/3", "--t", "1/3", "--shots", "2000"],
        )
        assert status == 0
        report = json.loads(out)
        assert report["trace_distance"] < 1e-12
        assert report["helstrom_probability"] == pytest.approx(0.5, abs=1e-12)
        assert report["physical"] is True
        assert report["mc_shots"] == 2000
        assert report["seed"] == 12345
        assert abs(report["mc_estimate"] - 0.5) < 3 / (2 * np.sqrt(2000))

    def test_violator_converges(self, capsys):
        status, out, _ = run(
            capsys, ["signal", "--t_diag", "0,0,1/3", "--shots", "100000"]
        )
        assert status == 0
        report = json.loads(out)
        assert report["trace_distance"] == pytest.approx(1 / 3, abs=1e-12)
        # the Helstrom measurement's rate on --t_diag 0,0,1/3, which is 7/12
        violator = GeneralClonerParams(eta=0.0, t=np.diag([0.0, 0.0, 1 / 3]))
        z, x = (0, 0, 1), (1, 0, 0)
        diff = averaged_clone_output(violator, z) - averaged_clone_output(violator, x)
        rate = 0.5 + 0.5 * np.trace(helstrom_projector(violator, z, x) @ diff).real
        assert rate == pytest.approx(7 / 12, abs=1e-12)
        assert report["helstrom_probability"] == pytest.approx(rate, abs=1e-12)
        assert abs(report["mc_estimate"] - rate) < 3 / (2 * np.sqrt(100000))

    def test_non_physical_point_reports_without_sampling(self, capsys):
        status, out, _ = run(
            capsys, ["signal", "--eta", "0.8", "--t", "1/3", "--shots", "500"]
        )
        assert status == 0
        report = json.loads(out)
        assert report["physical"] is False
        assert report["mc_estimate"] is None
        assert report["mc_shots"] == 0

    def test_csv_format(self, capsys):
        status, out, _ = run(
            capsys,
            ["signal", "--t_diag", "0,0,1/3", "--shots", "100", "--format", "csv"],
        )
        assert status == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("axis_a_x,axis_a_y,axis_a_z,axis_b_x")
        cells = lines[1].split(",")
        assert len(cells) == len(lines[0].split(","))
        assert float(cells[6]) == pytest.approx(1 / 3, abs=1e-9)
        assert cells[11] == "1"  # physical, booleans render as 1/0

    def test_custom_axes(self, capsys):
        status, out, _ = run(
            capsys,
            ["signal", "--t_diag", "0,0,1/3", "--shots", "10",
             "--axis-a", "0,0,1", "--axis-b", "0,1,0"],
        )
        assert status == 0
        report = json.loads(out)
        assert report["axis_b"] == [0.0, 1.0, 0.0]
        assert report["trace_distance"] == pytest.approx(1 / 3, abs=1e-12)

    def test_non_unit_axis_is_usage_error(self, capsys):
        assert "unit length" in usage_error(capsys, ["signal", "--axis-a", "0,0,2"])

    def test_zero_shots_is_usage_error(self, capsys):
        usage_error(capsys, ["signal", "--shots", "0"])


class TestSweep:
    def test_row_count_and_header(self, capsys):
        status, out, _ = run(capsys, ["sweep", "--resolution", "5"])
        assert status == 0
        lines = out.splitlines()
        assert lines[0] == "eta,t,t_xy,lam1,lam2,lam3,lam4,feasible,fidelity"
        assert len(lines) == 1 + 5 ** 3

    def test_optimum_row_present_at_default_resolution(self, capsys):
        status, out, _ = run(capsys, ["sweep"])  # resolution 13 puts 2/3 on-grid
        assert status == 0
        lines = out.splitlines()
        assert len(lines) == 1 + 13 ** 3
        hits = []
        for line in lines[1:]:
            cells = line.split(",")
            eta, t, t_xy = (float(c) for c in cells[:3])
            if abs(eta - 2 / 3) < 1e-6 and abs(t - 1 / 3) < 1e-6 and t_xy == 0.0:
                hits.append(cells)
        assert len(hits) == 1
        assert hits[0][7] == "1"  # feasible
        assert float(hits[0][8]) == pytest.approx(5 / 6, abs=1e-8)

    def test_json_variant(self, capsys):
        status, out, _ = run(capsys, ["sweep", "--resolution", "3", "--format", "json"])
        assert status == 0
        report = json.loads(out)
        assert report["resolution"] == 3
        assert report["header"][0] == "eta"
        assert len(report["rows"]) == 27
        assert all(len(row) == 9 for row in report["rows"])

    def test_undersized_resolution_is_usage_error(self, capsys):
        usage_error(capsys, ["sweep", "--resolution", "2"])

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("resolution", [3, 4, 5, 7, 9])
    def test_matches_point_by_point_reference(self, capsys, resolution, fmt):
        status, out, _ = run(capsys, ["sweep", "--resolution", str(resolution), "--format", fmt])
        assert status == 0
        assert out == sweep_output(resolution, fmt)

    @pytest.mark.parametrize("fmt, size, digest", [
        ("csv", 179436, "9d66a7b7834ce42446760f38662898be8ac0e8f6ffd2751849905fb6d4144c09"),
        ("json", 318049, "282c3a8e49a50563bc6353ab23779855d7c5d885653a13d22a19b043b301740c"),
    ], ids=["csv", "json"])
    def test_default_output_is_pinned(self, capsys, fmt, size, digest):
        # the bytes of the point-by-point sweep before it was written by
        # columns; `sweep_output` shares the float formatter, these do not
        status, out, _ = run(capsys, ["sweep", "--format", fmt])
        assert status == 0
        data = out.encode("utf-8")
        assert len(data) == size
        assert hashlib.sha256(data).hexdigest() == digest

    @pytest.mark.parametrize("fmt, size, digest", [
        ("csv", 2454556, "336967569b54257830fcdee3e2fccd8c724e29c64d9fd6f2794762278474b3a7"),
        ("json", 3505717, "3048b8078ba74ff4f6c8f6e523b31f6101e1bd34e1851e51c996ee6cc2e828dc"),
    ], ids=["csv", "json"])
    def test_split_block_output_is_pinned(self, capsys, fmt, size, digest):
        # an eta block of 33 * 33 = 1089 rows is more than one 1024-row piece
        status, out, _ = run(capsys, ["sweep", "--resolution", "33", "--format", fmt])
        assert status == 0
        data = out.encode("utf-8")
        assert len(data) == size
        assert hashlib.sha256(data).hexdigest() == digest

    @pytest.mark.parametrize("fmt, size, digest", [
        ("csv", 3219825, "5282dcc30f647e0e04ab69dc6d02430a02051aa7114c4ac4898f0e9ea92733a5"),
        ("json", 5728677, "72773094ce355fe80a82c83a785d5492cd7d9a9c9ea584d3c9f01260024aa575"),
    ], ids=["csv", "json"])
    def test_one_piece_block_output_is_pinned(self, capsys, fmt, size, digest):
        # the largest eta block that is one 1024-row piece, 32 * 32 rows:
        # 31 of its 32 blocks reuse the central eigenvalue text of the first
        status, out, _ = run(capsys, ["sweep", "--resolution", "32", "--format", fmt])
        assert status == 0
        data = out.encode("utf-8")
        assert len(data) == size
        assert hashlib.sha256(data).hexdigest() == digest

    @pytest.mark.parametrize("fmt, size, digest", [
        ("csv", 1332299, "a2c26f2b2297d34d299218b073533ea6756bc503f965de431e9d165ccc1545a3"),
        ("json", 2341518, "9768195e36d5c03aea0d4feeb0bb6a2d63d4bd279c906fc956f34f31318d00c9"),
    ], ids=["csv", "json"])
    def test_one_batch_output_is_pinned(self, capsys, fmt, size, digest):
        # the landscape workload's largest sweep: all 25 eta blocks of
        # 25 * 25 rows are one batch, written in 16 pieces
        status, out, _ = run(capsys, ["sweep", "--resolution", "25", "--format", fmt])
        assert status == 0
        data = out.encode("utf-8")
        assert len(data) == size
        assert hashlib.sha256(data).hexdigest() == digest

    @staticmethod
    def values_formatted(tmp_path, monkeypatch, resolution, fmt):
        formatted = []

        def counting(values, digits):
            cells = format_floats(values, digits)
            formatted.append(len(cells))
            return cells

        monkeypatch.setattr(serialize, "format_floats", counting)
        argv = ["sweep", "--resolution", str(resolution), "--format", fmt,
                "--out", str(tmp_path / "sweep")]
        assert cli.main(argv) == 0
        return sum(formatted)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_formats_each_level_once(self, tmp_path, monkeypatch, fmt):
        # the four eigenvalue columns hold ~4 R^2 distinct values among
        # their 4 R^3 cells: the outer pair per (eta, t), the central pair
        # per (t, t_xy); formatting every cell would be ~55k values here
        resolution = 24
        assert self.values_formatted(tmp_path, monkeypatch, resolution, fmt) <= 5 * resolution ** 2

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("resolution", [33, 48])
    def test_formats_each_level_once_past_one_piece(self, tmp_path, monkeypatch, resolution, fmt):
        # an eta block outgrows a 1024-row piece past R = 32, but up to
        # R = 128 the plane's central levels are still formatted once per
        # sweep and the outer pair once per batch of whole eta blocks
        assert self.values_formatted(tmp_path, monkeypatch, resolution, fmt) <= 3 * resolution ** 2

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_memory_is_one_row(self, tmp_path, monkeypatch, fmt):
        # batches of at most 16 * 12 cells: R = 6 holds five eta blocks and
        # R = 12 one, both written in pieces of 12 rows
        monkeypatch.setattr(landscape, "_PIECE_ROWS", 12)

        def peak(resolution):
            argv = ["sweep", "--resolution", str(resolution), "--format", fmt,
                    "--out", str(tmp_path / "sweep")]
            tracemalloc.start()
            try:
                assert cli.main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # each size runs once unmeasured, so first-call allocations
        # (imports, caches, a new piece shape) stay out of the ratio
        peak(6)
        peak(12)
        # doubling R gives 8x the points, and output held whole ~6-7x the
        # peak; R = 41 against 21 reads the same at ~40x the traced time
        assert peak(12) <= 1.5 * peak(6)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_pieces_join_into_the_same_bytes(self, capsys, monkeypatch, fmt):
        # a batch holds at most 16 * piece_rows cells.  At R = 5: 2 makes
        # batches of one eta block, 4 batches of 2, 2 and 1, 10 and 25 one
        # batch of all 5, cut into pieces that straddle or match the eta
        # blocks; 1 outgrows the plane and cuts each t row into single
        # cells.  At R = 6: 4 makes batches of one eta block, 7 of 3 and 3,
        # 9 of 4 and 2; 2 cuts each t row into 2, 2, 2.  At R = 7: 3 cuts
        # each t row into 3, 3, 1
        for resolution, piece_rows in ((5, 1), (5, 2), (5, 4), (5, 10), (5, 25),
                                       (6, 2), (6, 4), (6, 7), (6, 9), (7, 3)):
            monkeypatch.setattr(landscape, "_PIECE_ROWS", piece_rows)
            argv = ["sweep", "--resolution", str(resolution), "--format", fmt]
            status, out, _ = run(capsys, argv)
            assert status == 0
            assert out == sweep_output(resolution, fmt), piece_rows

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rectangles_of_whole_rows_join_into_the_same_bytes(self, capsys, monkeypatch, fmt):
        # at 66 rows a piece, the 33 * 33 plane outgrows a 1056-cell batch,
        # so each eta block is cut into rectangles of two whole t rows and
        # a last one of one; the default layout is pinned above
        argv = ["sweep", "--resolution", "33", "--format", fmt]
        _, whole, _ = run(capsys, argv)
        monkeypatch.setattr(landscape, "_PIECE_ROWS", 66)
        _, rectangles, _ = run(capsys, argv)
        assert rectangles == whole

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_memory_is_flat_in_resolution(self, fmt):
        # one (eta, t) block at R = 20001 is 20001 rows of text; a piece is
        # at most `_PIECE_ROWS` of them, beside the 20001 axis cells
        def chunks(resolution):
            table = Table(fmt, landscape.SWEEP_HEADER, {"command": "sweep"})
            return table.chunks(landscape.sweep_blocks(table, resolution))

        tracemalloc.start()
        try:
            for _ in zip(range(8), chunks(20001)):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        # the landscape's largest sweep is one batch of 25**3 rows, 16 pieces
        assert sum(1 for _ in chunks(25)) == 16 + 2

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_memory_does_not_grow_with_resolution(self, fmt):
        # at the largest resolution the first 8 chunks hold one piece of
        # text and the 0.8 MB float axis; no per-sweep text grows with R
        table = Table(fmt, landscape.SWEEP_HEADER, {"command": "sweep"})
        tracemalloc.start()
        try:
            for _ in zip(range(8), table.chunks(landscape.sweep_blocks(table, MAX_RESOLUTION))):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_memory_at_the_batch_cap(self, fmt):
        # R = 128 is the largest plane a batch holds (2**14 cells): its pair
        # and central words stay for the whole sweep, beside a batch's pool
        # and index; 40 chunks cross from the first batch to the third
        table = Table(fmt, landscape.SWEEP_HEADER, {"command": "sweep"})
        tracemalloc.start()
        try:
            for _ in zip(range(40), table.chunks(landscape.sweep_blocks(table, 128))):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestOutputPlumbing:
    def test_out_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        status, out, _ = run(capsys, ["verify", "--out", str(target)])
        assert status == 0
        assert out == ""
        report = json.loads(target.read_text(encoding="utf-8"))
        assert report["command"] == "verify"

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing_dir" / "report.json"
        assert "cannot write" in usage_error(capsys, ["verify", "--out", str(target)])

    def test_unknown_flag_exits_two(self, capsys):
        # argparse's own errors return from main like every other usage error
        assert "--no-such-flag" in usage_error(capsys, ["verify", "--no-such-flag"])

    @pytest.mark.parametrize("argv, flag", [
        (["verify", "--format", "csv"], None),
        (["verify", "--no-such-flag"], None),
        (["optimize", "--method", "simplex"], "--method"),
        (["optimize", "--resolution", "many"], "--resolution"),
        ([], None),
    ], ids=["format", "unknown-flag", "bad-method", "non-integer", "no-subcommand"])
    def test_argparse_errors_are_one_line(self, capsys, argv, flag):
        line = usage_error(capsys, argv)
        if flag is not None:
            assert line.startswith(f"error: argument {flag}: ")

    def test_help_shows_defaults(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["signal", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "12345" in out
        assert "100000" in out

    @pytest.mark.parametrize("argv", [
        ["clone", "--input", "nan,0,0"],
        ["signal", "--axis-a", "nan,0,0"],
        ["signal", "--axis-b", "0,nan,1"],
        ["clone", "--input", "1e400,0,0"],
        ["signal", "--seed", "-1"],
        ["optimize", "--resolution", "1000000000"],
        ["sweep", "--resolution", "1000000000"],
        ["signal", "--shots", "9223372036854775808"],
        # past the float range: no traceback, and no numpy warning line
        ["verify", "--eta", HUGE_FRACTION],
        ["clone", "--input", f"{HUGE_FRACTION},0,0"],
        ["verify", "--t_diag", f"0,-{HUGE_FRACTION},0"],
        ["clone", "--input", "1e200,0,0"],
        ["signal", "--axis-a", "1e200,1e200,0"],
        # decimals that are not finite are refused at their own flag
        ["verify", "--eta", "1e400"],
        ["verify", "--eta", "nan"],
        ["signal", "--t", "inf"],
        ["verify", "--t_diag", "1e400,0,0"],
        # range checks are the flag's parser too, the family's |value| <= 1 included
        ["sweep", "--resolution", "2"],
        ["signal", "--shots", "0"],
        ["verify", "--eta", "2"],
        ["signal", "--t", "3/2"],
        ["verify", "--t_xy", "-1.0000000000001"],
        ["verify", "--t_diag", "0,-1,1.5"],
    ])
    def test_nan_axis_fails_at_its_flag(self, capsys, argv):
        line = usage_error(capsys, argv)
        assert line.startswith(f"error: argument {argv[1]}: ")
        assert "array(" not in line

    def test_unit_length_refusal_prints_the_deciding_length(self, capsys):
        # |m| - 1 is 1.00000008e-9 by hypot, the rule's measure; numpy's norm reads 0.99999986e-9
        axis = "0.3635365680448477,0.8642994876218058,0.3476025911739697"
        line = usage_error(capsys, ["signal", "--axis-a", axis])
        prefix = "error: argument --axis-a: direction must be unit length, |m| = "
        assert line.startswith(prefix)
        assert float(line[len(prefix):]) - 1.0 > STATE_TOL

    def test_short_vector_is_refused_at_its_flag(self, capsys):
        assert usage_error(capsys, ["verify", "--t_diag", "1,2"]) == (
            "error: argument --t_diag: must be three comma-separated components, got '1,2'")

    @pytest.mark.parametrize("argv", [
        ["verify", "--eta", "2"],
        ["sweep", "--resolution", "2"],
    ])
    def test_usage_error_creates_no_file(self, capsys, tmp_path, argv):
        target = tmp_path / "report"
        status, _, err = run(capsys, [*argv, "--out", str(target)])
        assert status == 2
        assert err.startswith("error: ")
        assert not target.exists()

    def test_closed_stdout_pipe_is_quiet(self):
        # `clone-bound sweep --resolution 30 | head -c 20`: the reader leaves
        # while rows are still being written
        with subprocess.Popen(
            [sys.executable, "-m", "clonebound", "sweep", "--resolution", "30"],
            env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        ) as proc:
            head = proc.stdout.read(20)
            proc.stdout.close()
            err = proc.stderr.read()
        assert (head, err, proc.returncode) == (b"eta,t,t_xy,lam1,lam2", b"", 0)

    @pytest.mark.parametrize("command", ["verify", "optimize", "clone"])
    def test_format_flag_only_where_it_acts(self, capsys, command):
        # only signal and sweep have a CSV form; the others reject --format
        assert "--format" in usage_error(capsys, [command, "--format", "csv"])

    def test_reference_config_matches_defaults(self):
        # every flag's default as declared, before its `type=` parser reads
        # it ("0,0,1" stays text), so a new flag is in the config at once
        subparsers = next(action for action in cli.build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        config = {
            command: {action.dest: action.default for action in sub._actions
                      if action.default is not argparse.SUPPRESS}
            for command, sub in subparsers.choices.items()
        }
        committed = (REPO_ROOT / "reference-config.json").read_text(encoding="utf-8")
        assert committed == dump_json(config)

    @pytest.mark.parametrize("command", sorted(
        json.loads((REPO_ROOT / "reference-config.json").read_text(encoding="utf-8"))))
    def test_every_flag_has_its_default_in_defaults(self, command):
        # each reference-config entry, spelled out as flags, parses to the
        # same namespace as no flags at all: no flag is missing from the
        # config and no config value means other than its flag's default
        def parsed(argv):
            # axis flags parse to arrays, compared here by their exact entries
            return {dest: value.tolist() if isinstance(value, np.ndarray) else value
                    for dest, value in vars(parser.parse_args([command, *argv])).items()}

        config = json.loads((REPO_ROOT / "reference-config.json").read_text(encoding="utf-8"))
        parser = cli.build_parser()
        bare = parsed([])
        assert set(bare) - {"handler", "subcommand"} == set(config[command])
        subparsers = next(action for action in parser._actions
                          if isinstance(action, argparse._SubParsersAction))
        flags = {action.dest: action.option_strings[0]
                 for action in subparsers.choices[command]._actions}
        argv = [f"{flags[dest]}={value}" for dest, value in config[command].items()
                if value is not None]
        assert parsed(argv) == bare


#: points on and next to the positivity boundary: flags, the lowest
#: output eigenvalue, and the one verdict every entry point must give
BOUNDARY_POINTS = {
    "inside_1e-7": (["--eta", "0.6666664", "--t", "0.3333332"], 1e-7, True),
    "on_boundary": (["--eta", "2/3", "--t", "1/3"], 0.0, True),
    "round_off_-1e-10": (["--eta", "0.6666666668666666", "--t", "1/3"], -1e-10, True),
    "truncated_decimals": (["--eta", "0.6666667", "--t", "0.3333333"], -2.5e-8, False),
    "overshoot_-1e-7": (["--eta=0.6666668666666667", "--t=1/3"], -1e-7, False),
    "t_xy_-7.5e-7": (["--eta", "2/3", "--t", "1/3", "--t_xy", "1e-3"], -7.5e-7, False),
    "t_diag_-5e-8": (
        ["--eta", "2/3", "--t_diag", "0.3333334,0.3333334,0.3333334"], -5e-8, False),
}


class TestPositivityAgreement:
    """verify, signal, bounds.feasible and sweep give one positivity verdict.

    Zero is the threshold and 1e-9 the only round-off allowance, so a
    truncated decimal that overshoots the boundary by 2.5e-8 fails
    everywhere; the exact boundary is reached with fractions.
    """

    @pytest.mark.parametrize("name", list(BOUNDARY_POINTS))
    def test_verify_signal_feasible_agree(self, capsys, name):
        flags, lowest, positive = BOUNDARY_POINTS[name]
        status, out, _ = run(capsys, ["verify", *flags])
        report = json.loads(out)
        assert report["min_eigenvalue"] == pytest.approx(lowest, rel=1e-5, abs=1e-15)
        assert report["eigenvalue_floor"] == -1e-9
        _, signal_out, _ = run(capsys, ["signal", *flags, "--shots", "10"])
        if "t_matrix" in report:
            params = GeneralClonerParams(report["eta"], report["t_matrix"])
        else:
            params = ClonerParams(report["eta"], report["t"], report["t_xy"])
        verdicts = {
            "verify positivity_ok": report["positivity_ok"],
            "verify exit status": status == 0,
            "signal physical": json.loads(signal_out)["physical"],
            "feasible": feasible(params),
            "is_positive": bool(is_positive(report["min_eigenvalue"])),
            "check_point positivity_ok": check_point(params)["positivity_ok"],
        }
        assert verdicts == dict.fromkeys(verdicts, positive)

    def test_sweep_flags_match_feasible(self, capsys):
        _, out, _ = run(capsys, ["sweep", "--resolution", "13", "--format", "json"])
        rows = json.loads(out)["rows"]
        assert len(rows) == 13 ** 3
        mismatched = [row[:3] for row in rows
                      if row[7] != feasible(ClonerParams(*row[:3]))]
        assert mismatched == []


class TestDeterminism:
    CASES = {
        "verify": ["verify", "--eta", "2/3", "--t", "1/3"],
        "optimize": ["optimize", "--resolution", "21"],
        "clone": ["clone", "--input", "0,1,0"],
        "signal": ["signal", "--t_diag", "0,0,1/3", "--shots", "2000"],
        "signal_csv": ["signal", "--shots", "100", "--format", "csv"],
        "sweep": ["sweep", "--resolution", "5"],
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_stdout_is_byte_identical(self, capsys, name):
        first = run(capsys, self.CASES[name])
        second = run(capsys, self.CASES[name])
        assert first == second
        assert first[1] != ""

    #: exact exit status and stdout of reports whose fields pass through
    #: the emitter: CSV and JSON `signal`, with and without a Monte Carlo
    #: estimate, the grid's optimum at the default resolution and off
    #: t = 1/3, and `verify` passing and failing for either parameter type
    PINNED = {
        "optimize": (
            ["optimize"], 0,
            '{"closed_form": {"eta_max": 0.66666666666666663, "fidelity_max": 0.83333333333333326, '
            '"method": "closed_form", "t_star": 0.33333333333333331, "t_xy_star": 0}, '
            '"command": "optimize", "discrepancy": 0.00016666666666664831, '
            '"grid": {"eta_max": 0.66649999999999998, "fidelity_max": 0.83325000000000005, '
            '"method": "grid", "t_star": 0.33299999999999996, "t_xy_star": 0}, '
            '"resolution": 2001}\n'),
        "optimize_grid_1000": (
            ["optimize", "--method", "grid", "--resolution", "1000"], 0,
            '{"closed_form": null, "command": "optimize", "discrepancy": 0.0010010010010009784, '
            '"grid": {"eta_max": 0.66566566566566565, "fidelity_max": 0.83283283283283283, '
            '"method": "grid", "t_star": 0.3313313313313313, '
            '"t_xy_star": -0.0010010010010009784}, "resolution": 1000}\n'),
        "signal_csv": (
            ["signal", "--t_diag", "0,0,1/3", "--shots", "100", "--format", "csv"], 0,
            "axis_a_x,axis_a_y,axis_a_z,axis_b_x,axis_b_y,axis_b_z,trace_distance,"
            "helstrom_probability,mc_estimate,mc_shots,seed,physical\n"
            "0,0,1,1,0,0,0.333333333,0.583333333,0.61,100,12345,1\n"),
        "signal_csv_non_physical": (
            ["signal", "--eta", "0.8", "--t", "1/3", "--shots", "500", "--format", "csv"], 0,
            "axis_a_x,axis_a_y,axis_a_z,axis_b_x,axis_b_y,axis_b_z,trace_distance,"
            "helstrom_probability,mc_estimate,mc_shots,seed,physical\n"
            "0,0,1,1,0,0,0,0.5,,0,12345,0\n"),
        "signal_json_non_physical": (
            ["signal", "--eta", "0.8", "--t", "1/3", "--shots", "500"], 0,
            '{"axis_a": [0, 0, 1], "axis_b": [1, 0, 0], "command": "signal", '
            '"eta": 0.80000000000000004, "helstrom_probability": 0.5, "mc_estimate": null, '
            '"mc_shots": 0, "physical": false, "seed": 12345, "t": 0.33333333333333331, '
            '"t_xy": 0, "trace_distance": 0}\n'),
        "verify": (
            ["verify", "--eta", "2/3", "--t", "1/3"], 0,
            '{"axial_ok": true, "axial_residual": 0, "command": "verify", "covariance_ok": true, '
            '"covariance_residual": 0, "eigenvalue_floor": -1.0000000000000001e-09, '
            '"eta": 0.66666666666666663, "min_eigenvalue": 1.3877787807814457e-17, '
            '"no_signaling_ok": true, "no_signaling_residual": 6.219666572184064e-17, '
            '"pass": true, "positivity_ok": true, "residual_threshold": 1.0000000000000001e-09, '
            '"t": 0.33333333333333331, "t_xy": 0}\n'),
        "verify_non_physical": (
            ["verify", "--eta", "0.7", "--t", "1/3"], 1,
            '{"axial_ok": true, "axial_residual": 0, "command": "verify", "covariance_ok": true, '
            '"covariance_residual": 0, "eigenvalue_floor": -1.0000000000000001e-09, '
            '"eta": 0.69999999999999996, "min_eigenvalue": -0.016666666666666649, '
            '"no_signaling_ok": true, "no_signaling_residual": 6.219666572184064e-17, '
            '"pass": false, "positivity_ok": false, "residual_threshold": 1.0000000000000001e-09, '
            '"t": 0.33333333333333331, "t_xy": 0}\n'),
        "verify_t_diag_signals": (
            ["verify", "--t_diag", "0,0,1/3"], 1,
            '{"axial_ok": true, "axial_residual": 0, "command": "verify", "covariance_ok": true, '
            '"covariance_residual": 0, "eigenvalue_floor": -1.0000000000000001e-09, "eta": 0, '
            '"min_eigenvalue": 0.16666666666666669, "no_signaling_ok": false, '
            '"no_signaling_residual": 0.33333333333333331, "pass": false, "positivity_ok": true, '
            '"residual_threshold": 1.0000000000000001e-09, '
            '"t_matrix": [[0, 0, 0], [0, 0, 0], [0, 0, 0.33333333333333331]]}\n'),
        "verify_t_diag_isotropic": (
            ["verify", "--eta=2/3", "--t_diag=1/3,1/3,1/3"], 0,
            '{"axial_ok": true, "axial_residual": 0, "command": "verify", "covariance_ok": true, '
            '"covariance_residual": 0, "eigenvalue_floor": -1.0000000000000001e-09, '
            '"eta": 0.66666666666666663, "min_eigenvalue": 1.3877787807814457e-17, '
            '"no_signaling_ok": true, "no_signaling_residual": 6.219666572184064e-17, '
            '"pass": true, "positivity_ok": true, "residual_threshold": 1.0000000000000001e-09, '
            '"t_matrix": [[0.33333333333333331, 0, 0], [0, 0.33333333333333331, 0], '
            '[0, 0, 0.33333333333333331]]}\n'),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_stdout_is_pinned(self, capsys, name):
        argv, status, expected = self.PINNED[name]
        assert run(capsys, argv) == (status, expected, "")

    def test_clone_output_is_pinned(self, capsys):
        # a complex output matrix: every off-diagonal entry is purely imaginary
        status, out, err = run(capsys, ["clone", "--input", "0,0.6,0.8"])
        assert (status, err) == (0, "")
        assert '"output_matrix": [[[0.59999999999999998, 0], [0, -0.099999999999999992], ' in out
        data = out.encode("utf-8")
        assert len(data) == 845
        assert hashlib.sha256(data).hexdigest() == (
            "3c99f096bfe00e40fcf52e03cd89f7d315569116e84c8b29fe995d28cac09d2e")

    def test_file_output_is_byte_identical(self, capsys, tmp_path):
        # stdout and --out are the two sinks of one write path
        a, b = tmp_path / "a.out", tmp_path / "b.out"
        for argv in (["signal", "--shots", "5000"],
                     ["sweep", "--resolution", "5", "--format", "csv"],
                     ["sweep", "--resolution", "5", "--format", "json"]):
            run(capsys, [*argv, "--out", str(a)])
            run(capsys, [*argv, "--out", str(b)])
            _, stdout, _ = run(capsys, argv)
            assert a.read_bytes() == b.read_bytes() == stdout.encode("utf-8"), argv
            assert a.read_bytes().endswith(b"\n")
