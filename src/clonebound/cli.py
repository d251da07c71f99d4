"""Command line front end: `clone-bound <verify|optimize|clone|signal|sweep>`.

Every subcommand emits machine-readable output (JSON by default, CSV
where noted), deterministic byte for byte for identical flags and seed.
Numeric flags accept plain decimals and fraction strings such as "2/3".

Subcommands:

    verify     run the constraint suite (covariance structure, axial
               invariance, opposite-mixture identity, positivity) on a
               parameter point and print `family.check_point`'s report,
               where the verdict and its tolerance live; exit 0 iff
               every check passes
    optimize   report the maximal shrink factor, analytic and/or grid
    clone      run the universal cloner on a pure input direction
    signal     analytic + Monte-Carlo axis-distinguishing experiment
    sweep      CSV or JSON feasibility landscape over (eta, t, t_xy)

The parser validates every flag: its `add_argument` declares the
default and a `type=` parser that checks the value and its range, so a
bad value is refused as `argument --flag: ...`.  Each handler returns
(exit status, output chunks), made as they are written: `sweep` writes
`landscape.sweep_blocks`' pieces through `serialize.Table`, so memory
holds one batch at any `--resolution`.  `main` writes the chunks, to
stdout or to `--out`, created once flags are valid; its parser is built
once per process.

Exit status: 0 success (all checks passed where applicable), 1 verify
failure, 2 usage error (bad flags, malformed numbers, non-unit axes,
unwritable output path), reported by `main` as one `error: ...` line.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import math
import os
import sys
from fractions import Fraction

import numpy as np

from .bounds import MAX_RESOLUTION, max_eta_closed_form, max_eta_grid
from .buzek_hillery import bh_clone
from .errors import InvalidBlochError
from .family import ClonerParams, GeneralClonerParams, check_point, require_unit_axis
from .landscape import SWEEP_HEADER, sweep_blocks
from .pauli import bloch_to_density, overlap_fidelity, partial_trace, pauli_decompose
from .serialize import Table, csv_lines, dump_json
from .signaling import MAX_SHOTS, monte_carlo_signal


class _UsageError(ValueError):
    pass


# the `type=` parsers: argparse reports their ArgumentTypeError as `argument --flag: ...`
def _number(text: str) -> float:
    """Parse a decimal or fraction string ("0.25", "2/3", "-1/3") to a finite float."""
    try:
        value = float(text)  # a decimal past the float range reads as inf
    except ValueError:
        try:
            value = float(Fraction(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
        except OverflowError as exc:  # a fraction past the float range
            raise argparse.ArgumentTypeError(f"beyond the float range: {text!r}") from exc
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _magnitude(text: str) -> float:
    """`_number` within [-1, 1], the range of eta and of every t_jk."""
    value = _number(text)
    if abs(value) > 1.0:
        raise argparse.ArgumentTypeError(f"must be in [-1, 1], got {text!r}")
    return value


def _vector3(text: str, component=_number) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"must be three comma-separated components, got {text!r}")
    return np.array([component(p) for p in parts])


def _unit_axis(text: str) -> np.ndarray:
    try:
        return require_unit_axis(_vector3(text))
    except InvalidBlochError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _int_in(lo: int, hi: int | None = None):
    """A `type=` parser for integers in [lo, hi], or >= lo when hi is None."""
    bounds = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < lo or (hi is not None and value > hi):
            raise argparse.ArgumentTypeError(f"must be {bounds}, got {value}")
        return value

    return parse


def _params_from_args(args) -> object:
    """Build ClonerParams, or GeneralClonerParams when --t_diag is given."""
    if args.t_diag is not None:
        if args.t != 0.0 or args.t_xy != 0.0:
            raise _UsageError("--t_diag conflicts with non-zero --t / --t_xy")
        return GeneralClonerParams(eta=args.eta, t=np.diag(args.t_diag))
    return ClonerParams(eta=args.eta, t=args.t, t_xy=args.t_xy)


def _cmd_verify(args):
    params = _params_from_args(args)
    report = {"command": "verify", **params.to_json_dict(), **check_point(params)}
    return (0 if report["pass"] else 1), [dump_json(report)]


def _cmd_optimize(args):
    report = {"command": "optimize", "closed_form": None, "grid": None,
              "resolution": None, "discrepancy": None}
    closed = max_eta_closed_form()
    if args.method in ("both", "closed_form"):
        report["closed_form"] = closed.to_json_dict()
    if args.method in ("both", "grid"):
        grid = max_eta_grid(args.resolution)
        report["grid"] = grid.to_json_dict()
        report["resolution"] = args.resolution
        # never negative: the grid cannot beat the analytic optimum
        report["discrepancy"] = closed.eta_max - grid.eta_max
    return 0, [dump_json(report)]


def _cmd_clone(args):
    rho_in = bloch_to_density(args.input)
    pair = bh_clone(rho_in)
    coeffs = pauli_decompose(pair)
    report = {
        "command": "clone",
        "input": args.input,
        "output_matrix": pair,
        "c00": coeffs.c00,
        "a": coeffs.a,
        "b": coeffs.b,
        "t_matrix": coeffs.t,
        "fidelity_clone1": overlap_fidelity(rho_in, partial_trace(pair, 1)),
        "fidelity_clone2": overlap_fidelity(rho_in, partial_trace(pair, 2)),
        "trace": float(np.trace(pair).real),
    }
    return 0, [dump_json(report)]


def _cmd_signal(args):
    params = _params_from_args(args)
    fields = dataclasses.asdict(monte_carlo_signal(params, args.axis_a, args.axis_b,
                                                   shots=args.shots, seed=args.seed))
    if args.format == "json":
        return 0, [dump_json({"command": "signal", **params.to_json_dict(), **fields})]
    # the report's fields in order, an axis as its three columns <name>_x, _y, _z
    cells = {}
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            cells.update(zip((f"{name}_{c}" for c in "xyz"), value.tolist()))
        else:
            cells[name] = value
    return 0, (line + "\n" for line in csv_lines(cells, [cells.values()]))


def _cmd_sweep(args):
    table = Table(args.format, SWEEP_HEADER, {"command": "sweep", "resolution": args.resolution})
    return 0, table.chunks(sweep_blocks(table, args.resolution))


def _add_params_flags(sub):
    sub.add_argument("--eta", type=_magnitude, default=0.0, help="shrink factor")
    sub.add_argument("--t", type=_magnitude, default=0.0,
                     help="isotropic correlation t_xx = t_yy = t_zz")
    sub.add_argument("--t_xy", type=_magnitude, default=0.0,
                     help="antisymmetric xy correlation (t_xy = -t_yx)")
    sub.add_argument("--t_diag", type=functools.partial(_vector3, component=_magnitude),
                     metavar="a,b,c",
                     help="diagonal 3x3 correlation matrix instead of --t/--t_xy")


def _add_output_flags(sub, handler, default_format=None):
    """The output flags, last in --help, --format only given its default; then the handler."""
    if default_format is not None:
        sub.add_argument("--format", choices=("json", "csv"), default=default_format,
                         help="output format")
    sub.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")
    sub.set_defaults(handler=handler)


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors raise `_UsageError`, which `main` reports."""

    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="clone-bound",
        description="Universal qubit-cloning bound: family verification, "
                    "optimization, cloning, and signaling experiments.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter
    resolution = _int_in(3, MAX_RESOLUTION)

    verify = subs.add_parser(
        "verify", formatter_class=fmt,
        help="run the constraint suite on a parameter point")
    _add_params_flags(verify)
    _add_output_flags(verify, _cmd_verify)

    optimize = subs.add_parser(
        "optimize", formatter_class=fmt,
        help="maximal shrink factor, closed form and grid")
    optimize.add_argument("--method", choices=("closed_form", "grid", "both"), default="both")
    optimize.add_argument("--resolution", type=resolution, default=2001,
                          help="grid points per axis")
    _add_output_flags(optimize, _cmd_optimize)

    clone = subs.add_parser(
        "clone", formatter_class=fmt,
        help="clone a pure input direction with the universal machine")
    clone.add_argument("--input", type=_unit_axis, default="0,0,1", metavar="x,y,z",
                       help="unit Bloch vector to clone")
    _add_output_flags(clone, _cmd_clone)

    signal = subs.add_parser(
        "signal", formatter_class=fmt,
        help="axis-distinguishing experiment, analytic and Monte Carlo")
    _add_params_flags(signal)
    signal.add_argument("--axis-a", type=_unit_axis, default="0,0,1", metavar="x,y,z",
                        help="Alice's first axis choice")
    signal.add_argument("--axis-b", type=_unit_axis, default="1,0,0", metavar="x,y,z",
                        help="Alice's second axis choice")
    signal.add_argument("--shots", type=_int_in(1, MAX_SHOTS), default=100000,
                        help="Monte-Carlo rounds")
    signal.add_argument("--seed", type=_int_in(0), default=12345, help="generator seed")
    _add_output_flags(signal, _cmd_signal, "json")

    sweep = subs.add_parser(
        "sweep", formatter_class=fmt,
        help="feasibility landscape over (eta, t, t_xy)")
    sweep.add_argument("--resolution", type=resolution, default=13,
                       help="grid points per axis (rows = resolution^3)")
    _add_output_flags(sweep, _cmd_sweep, "csv")

    return parser


#: main's parser, built once per process: parse_args leaves it as it is
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        status, chunks = args.handler(args)
    except ValueError as exc:  # _UsageError and CloneBoundError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        with (contextlib.nullcontext(sys.stdout) if args.out is None
              else open(args.out, "w", encoding="utf-8", newline="\n")) as stream:
            stream.writelines(chunks)
    except BrokenPipeError:
        # the reader left early (`| head`): stop quietly; the exit flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except OSError as exc:
        target = "stdout" if args.out is None else repr(args.out)
        print(f"error: cannot write {target}: {exc}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
