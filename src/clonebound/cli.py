"""Command line front end: `clone-bound <verify|optimize|clone|signal|sweep>`.

Every subcommand emits machine-readable output (JSON by default, CSV
where noted), deterministic byte for byte for identical flags and seed.
Numeric flags accept plain decimals and fraction strings such as "2/3".

Subcommands:

    verify     run the constraint suite (covariance structure, axial
               invariance, opposite-mixture identity, positivity) on a
               parameter point; exit 0 iff every check passes
    optimize   report the maximal shrink factor, analytic and/or grid
    clone      run the universal cloner on a pure input direction
    signal     analytic + Monte-Carlo axis-distinguishing experiment
    sweep      CSV feasibility landscape over (eta, t, t_xy)

Exit status: 0 success (all checks passed where applicable), 1 verify
failure, 2 usage error (bad flags, malformed numbers, non-unit axes,
unwritable output path).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

import numpy as np

from .bounds import max_eta_closed_form, max_eta_grid
from .buzek_hillery import bh_clone
from .family import (
    CANONICAL_AXIS_PAIRS,
    ClonerParams,
    GeneralClonerParams,
    _require_unit_axis,
    axial_covariance_residual,
    covariance_constraint_residual,
    is_positive,
    min_output_eigenvalue,
    no_signaling_residual,
    positivity_eigenvalues,
    template_state_z,
)
from .pauli import (
    STATE_TOL,
    bloch_to_density,
    overlap_fidelity,
    partial_trace,
    pauli_decompose,
)
from .serialize import complex_matrix_to_json, csv_lines, dump_json
from .signaling import monte_carlo_signal

#: documented defaults for every flag of every subcommand; the committed
#: reference-config.json at the repository root mirrors this table
DEFAULTS = {
    "verify": {
        "eta": 0.0, "t": 0.0, "t_xy": 0.0, "t_diag": None, "out": None,
    },
    "optimize": {
        "method": "both", "resolution": 2001, "out": None,
    },
    "clone": {
        "input": "0,0,1", "out": None,
    },
    "signal": {
        "eta": 0.0, "t": 0.0, "t_xy": 0.0, "t_diag": None,
        "axis_a": "0,0,1", "axis_b": "1,0,0",
        "shots": 100000, "seed": 12345,
        "format": "json", "out": None,
    },
    "sweep": {
        "resolution": 13, "format": "csv", "out": None,
    },
}


class _UsageError(ValueError):
    pass


def _number(text: str) -> float:
    """Parse a decimal or fraction string ("0.25", "2/3", "-1/3") to float."""
    try:
        return float(text)
    except ValueError:
        pass
    try:
        return float(Fraction(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise _UsageError(f"not a number: {text!r}") from exc


def _vector3(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise _UsageError(f"expected three comma-separated components, got {text!r}")
    return np.array([_number(p) for p in parts])


def _params_from_args(args) -> object:
    """Build ClonerParams, or GeneralClonerParams when --t_diag is given."""
    eta = _number(args.eta)
    if args.t_diag is not None:
        if _number(args.t) != 0.0 or _number(args.t_xy) != 0.0:
            raise _UsageError("--t_diag conflicts with non-zero --t / --t_xy")
        diag = _vector3(args.t_diag)
        return GeneralClonerParams(eta=eta, t=np.diag(diag))
    return ClonerParams(eta=eta, t=_number(args.t), t_xy=_number(args.t_xy))


def _params_report_fields(params) -> dict:
    if isinstance(params, ClonerParams):
        return params.to_json_dict()
    return {"eta": params.eta, "t_matrix": [list(map(float, r)) for r in params.t]}


def _cmd_verify(args):
    params = _params_from_args(args)
    covariance = covariance_constraint_residual(params.as_matrix())
    axial = axial_covariance_residual(template_state_z(params), (0.0, 0.0, 1.0))
    axes_a, axes_b = np.swapaxes(CANONICAL_AXIS_PAIRS, 0, 1)
    no_signal = float(no_signaling_residual(params, axes_a, axes_b).max())
    min_eig = min_output_eigenvalue(params)
    # one round-off allowance, STATE_TOL, for the residuals and the
    # eigenvalue floor; boundary points pass when given as fractions
    checks = {
        "covariance_ok": covariance < STATE_TOL,
        "axial_ok": axial < STATE_TOL,
        "no_signaling_ok": no_signal < STATE_TOL,
        "positivity_ok": is_positive(min_eig),
    }
    report = {
        "command": "verify",
        **_params_report_fields(params),
        "covariance_residual": covariance,
        "axial_residual": axial,
        "no_signaling_residual": no_signal,
        "min_eigenvalue": min_eig,
        "residual_threshold": STATE_TOL,
        "eigenvalue_floor": -STATE_TOL,
        **checks,
        "pass": all(checks.values()),
    }
    return (0 if report["pass"] else 1), dump_json(report)


def _cmd_optimize(args):
    resolution = int(args.resolution)
    report = {"command": "optimize", "closed_form": None, "grid": None,
              "resolution": None, "discrepancy": None}
    closed = max_eta_closed_form()
    if args.method in ("both", "closed_form"):
        report["closed_form"] = closed.to_json_dict()
    if args.method in ("both", "grid"):
        grid = max_eta_grid(resolution)
        report["grid"] = grid.to_json_dict()
        report["resolution"] = resolution
        # never negative: the grid cannot beat the analytic optimum
        report["discrepancy"] = closed.eta_max - grid.eta_max
    return 0, dump_json(report)


def _cmd_clone(args):
    direction = _require_unit_axis(_vector3(args.input), "--input")
    rho_in = bloch_to_density(direction)
    pair = bh_clone(rho_in)
    coeffs = pauli_decompose(pair)
    report = {
        "command": "clone",
        "input": [float(v) for v in direction],
        "output_matrix": complex_matrix_to_json(pair),
        "c00": coeffs.c00,
        "a": [float(v) for v in coeffs.a],
        "b": [float(v) for v in coeffs.b],
        "t_matrix": [list(map(float, row)) for row in coeffs.t],
        "fidelity_clone1": overlap_fidelity(rho_in, partial_trace(pair, 1)),
        "fidelity_clone2": overlap_fidelity(rho_in, partial_trace(pair, 2)),
        "trace": float(np.trace(pair).real),
    }
    return 0, dump_json(report)


_SIGNAL_CSV_HEADER = (
    "axis_a_x", "axis_a_y", "axis_a_z", "axis_b_x", "axis_b_y", "axis_b_z",
    "trace_distance", "helstrom_probability", "mc_estimate", "mc_shots",
    "seed", "physical",
)


def _cmd_signal(args):
    params = _params_from_args(args)
    axis_a = _require_unit_axis(_vector3(args.axis_a), "--axis-a")
    axis_b = _require_unit_axis(_vector3(args.axis_b), "--axis-b")
    shots = int(args.shots)
    if shots < 1:
        raise _UsageError(f"--shots must be >= 1, got {shots}")
    report = monte_carlo_signal(params, axis_a, axis_b, shots=shots, seed=int(args.seed))
    if args.format == "csv":
        row = (
            *(float(v) for v in report.axis_a), *(float(v) for v in report.axis_b),
            report.trace_distance, report.helstrom_probability,
            "" if report.mc_estimate is None else report.mc_estimate,
            report.mc_shots, report.seed, report.physical,
        )
        return 0, "\n".join(csv_lines(_SIGNAL_CSV_HEADER, [row])) + "\n"
    payload = {
        "command": "signal",
        **_params_report_fields(params),
        "axis_a": [float(v) for v in report.axis_a],
        "axis_b": [float(v) for v in report.axis_b],
        "trace_distance": report.trace_distance,
        "helstrom_probability": report.helstrom_probability,
        "mc_estimate": report.mc_estimate,
        "mc_shots": report.mc_shots,
        "seed": report.seed,
        "physical": report.physical,
    }
    return 0, dump_json(payload)


_SWEEP_HEADER = (
    "eta", "t", "t_xy", "lam1", "lam2", "lam3", "lam4", "feasible", "fidelity",
)


def _sweep_rows(resolution: int):
    axis = np.linspace(-1.0, 1.0, resolution)
    for eta in axis:
        for t in axis:
            for t_xy in axis:
                lams = positivity_eigenvalues(ClonerParams(eta, t, t_xy))
                yield (
                    float(eta), float(t), float(t_xy),
                    lams.lam1, lams.lam2, lams.lam3, lams.lam4,
                    is_positive(lams.min()),
                    (1.0 + float(eta)) / 2.0,
                )


def _cmd_sweep(args):
    resolution = int(args.resolution)
    if resolution < 3:
        raise _UsageError(f"--resolution must be >= 3, got {resolution}")
    rows = _sweep_rows(resolution)
    if args.format == "json":
        payload = {
            "command": "sweep",
            "resolution": resolution,
            "header": list(_SWEEP_HEADER),
            "rows": [list(r) for r in rows],
        }
        return 0, dump_json(payload)
    return 0, "\n".join(csv_lines(_SWEEP_HEADER, rows)) + "\n"


def _add_params_flags(sub, command):
    d = DEFAULTS[command]
    sub.add_argument("--eta", default=str(d["eta"]), help="shrink factor")
    sub.add_argument("--t", default=str(d["t"]),
                     help="isotropic correlation t_xx = t_yy = t_zz")
    sub.add_argument("--t_xy", default=str(d["t_xy"]),
                     help="antisymmetric xy correlation (t_xy = -t_yx)")
    sub.add_argument("--t_diag", default=d["t_diag"], metavar="a,b,c",
                     help="diagonal 3x3 correlation matrix instead of --t/--t_xy")


def _add_output_flags(sub, command):
    d = DEFAULTS[command]
    if "format" in d:
        sub.add_argument("--format", choices=("json", "csv"), default=d["format"],
                         help="output format")
    sub.add_argument("--out", default=d["out"], metavar="PATH",
                     help="write output to PATH instead of stdout")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors are one `error: ...` line, exit 2."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="clone-bound",
        description="Universal qubit-cloning bound: family verification, "
                    "optimization, cloning, and signaling experiments.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    verify = subs.add_parser(
        "verify", formatter_class=fmt,
        help="run the constraint suite on a parameter point")
    _add_params_flags(verify, "verify")
    _add_output_flags(verify, "verify")
    verify.set_defaults(handler=_cmd_verify)

    optimize = subs.add_parser(
        "optimize", formatter_class=fmt,
        help="maximal shrink factor, closed form and grid")
    optimize.add_argument("--method", choices=("closed_form", "grid", "both"),
                          default=DEFAULTS["optimize"]["method"])
    optimize.add_argument("--resolution", type=int,
                          default=DEFAULTS["optimize"]["resolution"],
                          help="grid points per axis")
    _add_output_flags(optimize, "optimize")
    optimize.set_defaults(handler=_cmd_optimize)

    clone = subs.add_parser(
        "clone", formatter_class=fmt,
        help="clone a pure input direction with the universal machine")
    clone.add_argument("--input", default=DEFAULTS["clone"]["input"],
                       metavar="x,y,z", help="unit Bloch vector to clone")
    _add_output_flags(clone, "clone")
    clone.set_defaults(handler=_cmd_clone)

    signal = subs.add_parser(
        "signal", formatter_class=fmt,
        help="axis-distinguishing experiment, analytic and Monte Carlo")
    _add_params_flags(signal, "signal")
    signal.add_argument("--axis-a", default=DEFAULTS["signal"]["axis_a"],
                        metavar="x,y,z", help="Alice's first axis choice")
    signal.add_argument("--axis-b", default=DEFAULTS["signal"]["axis_b"],
                        metavar="x,y,z", help="Alice's second axis choice")
    signal.add_argument("--shots", type=int, default=DEFAULTS["signal"]["shots"],
                        help="Monte-Carlo rounds")
    signal.add_argument("--seed", type=int, default=DEFAULTS["signal"]["seed"],
                        help="generator seed")
    _add_output_flags(signal, "signal")
    signal.set_defaults(handler=_cmd_signal)

    sweep = subs.add_parser(
        "sweep", formatter_class=fmt,
        help="feasibility landscape over (eta, t, t_xy)")
    sweep.add_argument("--resolution", type=int,
                       default=DEFAULTS["sweep"]["resolution"],
                       help="grid points per axis (rows = resolution^3)")
    _add_output_flags(sweep, "sweep")
    sweep.set_defaults(handler=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status, text = args.handler(args)
    except ValueError as exc:  # _UsageError and CloneBoundError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out is None:
        sys.stdout.write(text)
        return status
    try:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {args.out!r}: {exc}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
