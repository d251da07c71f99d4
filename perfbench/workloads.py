"""The three closed-loop workloads and the checks on their outputs.

Each workload draws all its inputs from the workload seed, runs one
operation at a time (`run`, the timed part) and checks every output
(`check`, untimed).  Op sizes are drawn stratified: each cycle of
operations takes one draw from every stratum of the size range, in a
seeded order, so every run sees the same spread of sizes and the
medians and tails it reports are steady from seed to seed.

Calls into clonebound go through its module attributes at call time
(`self.lib.family.no_signaling_residual`), so a traced run that rebinds
those names sees the benchmark's direct calls too.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np

import oracles

Z = (0.0, 0.0, 1.0)
X = (1.0, 0.0, 0.0)
ON_FAMILY, UNSTRUCTURED, NEAR_FAMILY = "on", "unstructured", "near"

#: thresholds of the package's verify suite, which certify reproduces
RESIDUAL_THRESHOLD = 1e-9
EIGENVALUE_FLOOR = 1e-6
#: tolerance of the package's sweep feasibility flag
FEASIBILITY_TOL = 1e-12
#: eigenvalues this close to a threshold may fall on either side of it
#: when a tolerance policy changes, so flags there are not checked
BOUNDARY_BAND = 1e-9


def stratified(rng, n):
    """n uniform draws on [0, 1), one per stratum of width 1/n, in seeded order."""
    return rng.permutation((np.arange(n) + rng.random(n)) / n)


def random_axes(rng, n):
    vecs = rng.standard_normal((n, 3))
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def _vec_arg(vec):
    return ",".join(repr(float(v)) for v in vec)


def parse_sweep(text, fmt):
    """Sweep output as an (n, 9) float array in header order, or a problem string."""
    header = ["eta", "t", "t_xy", "lam1", "lam2", "lam3", "lam4", "feasible", "fidelity"]
    if fmt == "json":
        payload = json.loads(text)
        cols, rows = payload["header"], payload["rows"]
        table = np.array(rows, dtype=float).reshape(len(rows), len(cols))
    else:
        head, _, body = text.partition("\n")
        cols = head.split(",")
        cells = body.rstrip("\n").replace("\n", ",").split(",")
        table = np.array(cells, dtype=float).reshape(-1, len(cols))
    missing = [c for c in header if c not in cols]
    if missing:
        return f"sweep output lacks columns {missing}"
    return table[:, [cols.index(c) for c in header]]


class SweepOracle:
    """Re-derives sweep rows: count r^3, grid order, spectrum, feasible flag, fidelity.

    The eigvalsh spectra of each resolution's grid are computed once.
    """

    def __init__(self):
        self._grids = {}

    def _grid(self, resolution):
        if resolution not in self._grids:
            axis = np.linspace(-1.0, 1.0, resolution)
            eta, t, t_xy = (g.ravel() for g in np.meshgrid(axis, axis, axis, indexing="ij"))
            self._grids[resolution] = (np.stack([eta, t, t_xy], axis=1),
                                       oracles.family_spectra(eta, t, t_xy))
        return self._grids[resolution]

    def check(self, text, fmt, resolution):
        try:
            rows = parse_sweep(text, fmt)
        except (ValueError, KeyError) as exc:
            return [f"unparseable sweep output: {exc!r}"]
        if isinstance(rows, str):
            return [rows]
        if rows.shape != (resolution ** 3, 9):
            return [f"sweep has shape {rows.shape}, expected ({resolution ** 3}, 9)"]
        # CSV cells carry 9 significant digits, JSON round-trips exactly
        tol = 1e-8 if fmt == "csv" else 1e-12
        grid, spectra = self._grid(resolution)
        problems = []
        if not oracles.close(rows[:, :3], grid, tol):
            problems.append("sweep grid columns differ from the (eta, t, t_xy) grid")
        if not oracles.close(rows[:, 3:7], spectra[:, ::-1], tol):
            problems.append("sweep eigenvalues differ from eigvalsh")
        lowest = spectra[:, 0]
        clear = np.abs(lowest + FEASIBILITY_TOL) > BOUNDARY_BAND
        expected = lowest >= -FEASIBILITY_TOL
        if np.any((rows[:, 7] != 0.0)[clear] != expected[clear]):
            problems.append("sweep feasible flag disagrees with eigvalsh")
        if not oracles.close(rows[:, 8], (1.0 + grid[:, 0]) / 2.0, tol):
            problems.append("sweep fidelity differs from (1 + eta)/2")
        return problems


def check_grid_report(report, resolution):
    """The grid optimum: at most the closed form, within one grid step of 2/3."""
    problems = []
    eta = report["eta_max"]
    step = 2.0 / (resolution - 1)
    if not oracles.ETA_MAX - step <= eta <= oracles.ETA_MAX + FEASIBILITY_TOL:
        problems.append(f"grid eta_max {eta!r} not within one step below 2/3")
    if abs(report["fidelity_max"] - (1.0 + eta) / 2.0) > 1e-15:
        problems.append("grid fidelity_max is not (1 + eta_max)/2")
    tmat = oracles.family_matrix(report["t_star"], report["t_xy_star"])
    if oracles.min_eigenvalue(eta, tmat) < -BOUNDARY_BAND:
        problems.append("grid optimum is not positive per eigvalsh")
    return problems


def check_clone(direction, fidelities, a, b, t_matrix, matrix):
    """Buzek-Hillery output for a pure input m: F = 5/6, Bloch 2m/3, T = I/3."""
    problems = []
    m = np.asarray(direction, dtype=float)
    if not oracles.close(fidelities, [oracles.FIDELITY_MAX] * 2, 1e-12):
        problems.append(f"clone fidelities {fidelities} differ from 5/6")
    if not (oracles.close(a, m / 6.0, 1e-12) and oracles.close(b, m / 6.0, 1e-12)):
        problems.append("clone marginals differ from 2m/3")
    if not oracles.close(t_matrix, np.eye(3) / 12.0, 1e-12):
        problems.append("clone correlations differ from I/3")
    spectrum = np.linalg.eigvalsh(matrix)
    if spectrum[0] < -1e-12 or abs(spectrum.sum() - 1.0) > 1e-12:
        problems.append(f"clone pair spectrum {spectrum} is not a state")
    return problems


class Certify:
    """Parameter points through the full verdict, in process.

    Half the points lie on the family, a quarter are unstructured 3x3
    correlation matrices and a quarter sit near the family with
    |t_zz - t_xx| >= 1e-3.  Every point also gets 0..MAX_RANDOM_PAIRS
    random axis pairs, which spreads both halves' costs so that the
    median latency sits where both overlap rather than on the gap
    between them.
    """

    name = "certify"
    tail_percentile = 99.5
    POOL = 8192
    MC_SHOTS = 10_000
    MAX_RANDOM_PAIRS = 12

    def __init__(self, lib, seed):
        self.lib = lib
        rng = np.random.default_rng([seed, 1])
        n = self.POOL
        kinds = np.concatenate(
            [rng.permutation([ON_FAMILY, ON_FAMILY, UNSTRUCTURED, NEAR_FAMILY])
             for _ in range(n // 4)])
        n_pairs = np.concatenate(
            [np.floor(stratified(rng, 16) * (self.MAX_RANDOM_PAIRS + 1)).astype(int)
             for _ in range(n // 16)])
        eta = rng.uniform(-1.0, 1.0, n)
        on = rng.uniform(-1.0, 1.0, (n, 2))
        unstructured = rng.uniform(-1.0, 1.0, (n, 3, 3))
        near = rng.uniform(-0.9, 0.9, (n, 3))
        seeds = rng.integers(0, 2 ** 31, (n, 2))
        self.ops = []
        for i in range(n):
            if kinds[i] == ON_FAMILY:
                point = (float(on[i, 0]), float(on[i, 1]))
            elif kinds[i] == UNSTRUCTURED:
                point = unstructured[i]
            else:
                s, u, t_xy = near[i]
                if abs(u - s) < 1e-3:
                    u = s + (1e-3 if u >= s else -1e-3)
                point = np.array([[s, t_xy, 0.0], [-t_xy, s, 0.0], [0.0, 0.0, u]])
            pairs = random_axes(rng, 2 * n_pairs[i]).reshape(-1, 2, 3)
            self.ops.append((i, kinds[i], float(eta[i]), point, pairs,
                             int(seeds[i, 0]), int(seeds[i, 1])))
        self.mc = oracles.MonteCarloLedger(max_checks=n)

    def __iter__(self):
        while True:
            yield from self.ops

    def warm_up(self):
        for op in self.ops[:4]:  # the first block of four holds every kind
            self.run(op)

    def run(self, op):
        _, kind, eta, point, pairs, rotation_seed, mc_seed = op
        fam, pauli, sig = self.lib.family, self.lib.pauli, self.lib.signaling
        if kind == ON_FAMILY:
            params = fam.ClonerParams(eta, point[0], point[1])
            tmat = params.as_matrix()
        else:
            params = fam.GeneralClonerParams(eta, point)
            tmat = params.t
        out = {"tmat": tmat}
        out["covariance"] = fam.covariance_constraint_residual(tmat)
        out["axial"] = fam.axial_covariance_residual(fam.template_state_z(params), Z)
        axis_pairs = list(fam.CANONICAL_AXIS_PAIRS) + [tuple(p) for p in pairs]
        out["pairs"] = axis_pairs
        out["signaling"] = [fam.no_signaling_residual(params, a, b) for a, b in axis_pairs]
        if kind == ON_FAMILY:
            out["spectrum"] = fam.positivity_eigenvalues(params).as_array()
        else:
            out["spectrum"] = pauli.hermitian_eigenvalues4(fam.template_state_z(params))
            out["advantage"] = sig.signaling_advantage(params, Z, X)
            out["mc"] = sig.monte_carlo_signal(params, Z, X, self.MC_SHOTS, mc_seed)
        u, rot = pauli.random_rotation(rotation_seed)
        direction = rot @ np.array(Z)
        rho = pauli.bloch_to_density(direction)
        pair = self.lib.buzek_hillery.bh_clone(rho)
        coeffs = pauli.pauli_decompose(pair)
        out["clone"] = (u, rot, direction, pair, coeffs, (
            pauli.overlap_fidelity(rho, pauli.partial_trace(pair, 1)),
            pauli.overlap_fidelity(rho, pauli.partial_trace(pair, 2))))
        out["pass"] = (max(out["covariance"], out["axial"], max(out["signaling"]))
                       < RESIDUAL_THRESHOLD and out["spectrum"].min() >= -EIGENVALUE_FLOOR)
        return out

    def check(self, op, out):
        index, kind, eta, _, _, _, _ = op
        tmat = out["tmat"]
        problems = []
        cov = max(abs(tmat[0, 0] - tmat[1, 1]), abs(tmat[0, 1] + tmat[1, 0]),
                  *(abs(tmat[j, k]) for j, k in ((0, 2), (2, 0), (1, 2), (2, 1))))
        if out["covariance"] != cov:
            problems.append(f"covariance residual {out['covariance']!r} != {cov!r}")
        expected = [oracles.signaling_residual(tmat, a, b) for a, b in out["pairs"]]
        if not oracles.close(out["signaling"], expected, 1e-9):
            problems.append("no-signaling residuals differ from eigvalsh trace distances")
        oracle_spectrum = np.linalg.eigvalsh(oracles.template(eta, tmat))[::-1]
        if not oracles.close(out["spectrum"], oracle_spectrum, 1e-9):
            problems.append("spectrum differs from eigvalsh")
        lowest = oracle_spectrum[-1]
        if abs(lowest + EIGENVALUE_FLOOR) > BOUNDARY_BAND:
            constraints = max(out["covariance"], out["axial"], max(out["signaling"]))
            verdict = constraints < RESIDUAL_THRESHOLD and lowest >= -EIGENVALUE_FLOOR
            if out["pass"] != verdict:
                problems.append(f"verdict {out['pass']} disagrees with the oracles")
        if kind == ON_FAMILY:
            if max(out["covariance"], out["axial"], max(out["signaling"])) >= 1e-9:
                problems.append("family point fails a covariance or no-signaling check")
        else:
            if max(out["covariance"], max(out["signaling"])) <= RESIDUAL_THRESHOLD:
                problems.append("off-family point passes the constraint checks")
            problems += self._check_signal(index, tmat, out["advantage"], out["mc"], lowest)
        u, rot, direction, pair, coeffs, fidelities = out["clone"]
        if not oracles.close(rot, oracles.bloch_rotation(u), 1e-12):
            problems.append("random_rotation's R is not the Bloch rotation of its U")
        problems += check_clone(direction, fidelities, coeffs.a, coeffs.b, coeffs.t, pair)
        if abs(coeffs.c00 - 0.25) > 1e-15:
            problems.append("clone pair c00 != 1/4")
        return problems

    def _check_signal(self, key, tmat, adv, mc, lowest):
        problems = []
        if abs(adv.trace_distance - oracles.signaling_residual(tmat, Z, X)) > 1e-9:
            problems.append("signaling_advantage trace distance differs from eigvalsh")
        if (mc.trace_distance, mc.helstrom_probability) != (
                adv.trace_distance, adv.helstrom_probability):
            problems.append("monte_carlo_signal disagrees with signaling_advantage")
        if abs(lowest + 1e-9) > BOUNDARY_BAND / 10 and mc.physical != (lowest >= -1e-9):
            problems.append(f"physical flag {mc.physical} disagrees with eigvalsh")
        if mc.physical:
            if mc.mc_shots != self.MC_SHOTS:
                problems.append(f"mc_shots {mc.mc_shots} != {self.MC_SHOTS}")
            failure = self.mc.check(key, mc.mc_estimate, mc.helstrom_probability, mc.mc_shots)
            if failure:
                problems.append(failure)
        elif mc.mc_estimate is not None:
            problems.append("non-physical point has a Monte Carlo estimate")
        return problems

    def finish(self):
        z = self.mc.pooled_z()
        return [] if abs(z) <= 4.0 else [f"pooled Monte Carlo deviation {z:.2f} sigma"]


class Landscape:
    """Bound grids and sweeps, in process, over stratified sizes.

    Each cycle holds GRIDS_PER_CYCLE `max_eta_grid(R)` jobs, the last at
    the CLI default R = 2001 so that every run reaches the same peak
    memory, and SWEEPS_PER_CYCLE `clone-bound sweep` jobs through
    `cli.main`, half CSV and half JSON, written with --out.
    """

    name = "landscape"
    tail_percentile = 95
    GRID_MIN, GRID_DEFAULT = 101, 2001
    SWEEP_MIN, SWEEP_MAX = 9, 25
    GRIDS_PER_CYCLE = 16
    SWEEPS_PER_CYCLE = 16
    CYCLES = 64

    def __init__(self, lib, seed, workdir):
        self.lib = lib
        self.out_path = os.path.join(workdir, "sweep.out")
        self.sweeps = SweepOracle()
        rng = np.random.default_rng([seed, 2])
        self.ops = []
        for _ in range(self.CYCLES):
            cycle = []
            span = self.GRID_DEFAULT - self.GRID_MIN
            for u in stratified(rng, self.GRIDS_PER_CYCLE - 1):
                cycle.append(("grid", self.GRID_MIN + int(u * span)))
            cycle.append(("grid", self.GRID_DEFAULT))
            sizes = self.SWEEP_MIN + np.floor(
                stratified(rng, self.SWEEPS_PER_CYCLE)
                * (self.SWEEP_MAX - self.SWEEP_MIN + 1)).astype(int)
            formats = ["csv", "json"] * (self.SWEEPS_PER_CYCLE // 2)
            cycle += [("sweep", int(r), fmt) for r, fmt in zip(sorted(sizes), formats)]
            self.ops += [cycle[i] for i in rng.permutation(len(cycle))]

    def __iter__(self):
        while True:
            yield from self.ops

    def warm_up(self):
        for op in (("grid", self.GRID_MIN), ("sweep", self.SWEEP_MIN, "csv"),
                   ("sweep", self.SWEEP_MIN, "json")):
            self.run(op)

    def run(self, op):
        if op[0] == "grid":
            return self.lib.bounds.max_eta_grid(op[1])
        _, resolution, fmt = op
        return self.lib.cli.main(["sweep", "--resolution", str(resolution),
                                  "--format", fmt, "--out", self.out_path])

    def check(self, op, out):
        if op[0] == "grid":
            return check_grid_report(out.to_json_dict(), op[1])
        if out != 0:
            return [f"sweep exited {out}"]
        with open(self.out_path, encoding="utf-8") as fh:
            text = fh.read()
        return self.sweeps.check(text, op[2], op[1])

    def finish(self):
        return []


class Invocation:
    """One `clone-bound` command line and what its output must satisfy."""

    def __init__(self, kind, argv, status, **facts):
        self.kind = kind
        self.argv = argv
        self.status = status
        self.facts = facts


class Cli:
    """`python -m clonebound` as a user runs it: one fresh process per call.

    Each block of the script holds the thirteen invocations below with
    seeded parameters, run in a seeded order and then again in another,
    so every argv is checked for byte-identical stdout on its repeat.
    Signal shot counts are stratified over [1e4, 1e7]; their cost is
    linear in the shots, so the upper part of the latency distribution,
    where the tail percentile falls, is a continuous band rather than a
    step between two kinds of invocation.
    """

    name = "cli"
    tail_percentile = 90
    BLOCKS = 40
    SIGNALS = 4
    SIGNAL_MIN, SIGNAL_MAX = 10_000, 10_000_000

    def __init__(self, root, env, seed, lib):
        self.root = root
        self.env = env
        self.lib = lib
        rng = np.random.default_rng([seed, 3])
        self.ops = []
        for block in range(self.BLOCKS):
            calls = self._block(rng, block)
            for _ in range(2):  # each argv twice, so its stdout is compared on the repeat
                self.ops += [calls[i] for i in rng.permutation(len(calls))]
        self.mc = oracles.MonteCarloLedger(max_checks=self.SIGNALS * self.BLOCKS)
        self.first_stdout = {}
        self.sweeps = SweepOracle()

    @staticmethod
    def _family_point(rng, feasible):
        while True:
            eta, t, t_xy = rng.uniform(-1.0, 1.0, 3)
            lowest = oracles.min_eigenvalue(eta, oracles.family_matrix(t, t_xy))
            if (lowest >= 1e-3) if feasible else (lowest <= -1e-2):
                return float(eta), float(t), float(t_xy)

    @staticmethod
    def _violator(rng):
        """Diagonal (s, s, u) with |u - s| >= 0.01 and a positive template."""
        while True:
            s, u = rng.uniform(-1 / 3, 1 / 3, 2)
            diag = np.diag([s, s, u])
            if abs(u - s) >= 0.01 and oracles.min_eigenvalue(0.0, diag) >= 1e-3:
                return diag

    def _block(self, rng, block):
        calls = []
        for feasible in (True, False):
            eta, t, t_xy = self._family_point(rng, feasible)
            calls.append(Invocation(
                "verify", ["verify", f"--eta={eta!r}", f"--t={t!r}", f"--t_xy={t_xy!r}"],
                0 if feasible else 1, eta=eta, tmat=oracles.family_matrix(t, t_xy)))
        diag = self._violator(rng)
        calls.append(Invocation("verify", ["verify", "--t_diag=" + _vec_arg(np.diag(diag))],
                                1, eta=0.0, tmat=diag))
        calls.append(Invocation("optimize", ["optimize", "--method", "closed_form"], 0))
        calls.append(Invocation("optimize", ["optimize"], 0, resolution=2001))
        for direction in random_axes(rng, 2):
            calls.append(Invocation("clone", ["clone", "--input=" + _vec_arg(direction)], 0,
                                    direction=direction))
        for shots in self.SIGNAL_MIN + np.floor(
                stratified(rng, self.SIGNALS) * (self.SIGNAL_MAX - self.SIGNAL_MIN + 1)):
            diag = self._violator(rng)
            mc_seed = int(rng.integers(0, 2 ** 31))
            argv = ["signal", "--t_diag=" + _vec_arg(np.diag(diag)), f"--seed={mc_seed}",
                    f"--shots={int(shots)}"]
            calls.append(Invocation("signal", argv, 0, tmat=diag, shots=int(shots)))
        calls.append(Invocation("sweep", ["sweep"], 0, resolution=13))
        calls.append(self._malformed(rng, block))
        return calls

    @staticmethod
    def _malformed(rng, block):
        value = float(rng.uniform(0.01, 1.0))
        argv = [
            ["verify", f"--eta={1.0 + value!r}"],
            ["verify", "--t=1/0"],
            ["clone", f"--input={value!r},0"],
            ["clone", "--input=" + _vec_arg([value, 1.0, 0.0])],
            ["signal", "--t_diag=0,0,1/3", "--shots=0"],
            ["sweep", f"--resolution={int(value * 3)}"],
        ][block % 6]
        return Invocation("malformed", argv, 2)

    def __iter__(self):
        while True:
            yield from self.ops

    def warm_up(self):
        """Warms the in-process replay; the subprocess loop needs none."""
        for op in self.ops[:13]:
            if op.kind in ("verify", "clone"):
                self.run_in_process(op)

    def run(self, op):
        proc = subprocess.run([sys.executable, "-m", "clonebound", *op.argv],
                              cwd=self.root, env=self.env, capture_output=True,
                              timeout=120)
        return proc.returncode, proc.stdout.decode(), proc.stderr.decode()

    def run_in_process(self, op):
        """The same invocation through cli.main, for the traced run."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = self.lib.cli.main(list(op.argv))
        return status, out.getvalue(), err.getvalue()

    def check(self, op, out):
        status, stdout, stderr = out
        if status != op.status:
            return [f"{op.argv} exited {status}, expected {op.status}: {stderr.strip()[:200]}"]
        key = tuple(op.argv)
        first = self.first_stdout.setdefault(key, stdout)
        problems = [] if first == stdout else [f"{op.argv} stdout differs on repeat"]
        if op.kind == "malformed":
            lines = stderr.splitlines()
            if stdout or len(lines) != 1 or not lines[0].startswith("error: "):
                problems.append(f"{op.argv} gave no one-line error: {stderr[:200]!r}")
            return problems
        return problems + getattr(self, f"_check_{op.kind}")(op, stdout)

    def _check_verify(self, op, stdout):
        report = json.loads(stdout)
        problems = []
        lowest = oracles.min_eigenvalue(op.facts["eta"], op.facts["tmat"])
        if abs(report["min_eigenvalue"] - lowest) > 1e-9:
            problems.append(f"verify min_eigenvalue {report['min_eigenvalue']!r} vs {lowest!r}")
        if report["pass"] != (op.status == 0):
            problems.append("verify pass flag disagrees with its exit status")
        return problems

    def _check_optimize(self, op, stdout):
        report = json.loads(stdout)
        closed = report["closed_form"]
        problems = []
        if abs(closed["eta_max"] - oracles.ETA_MAX) > 1e-15 or abs(
                closed["fidelity_max"] - oracles.FIDELITY_MAX) > 1e-15:
            problems.append("closed form is not eta = 2/3, F = 5/6")
        if "resolution" in op.facts:
            problems += check_grid_report(report["grid"], op.facts["resolution"])
        return problems

    def _check_clone(self, op, stdout):
        report = json.loads(stdout)
        matrix = np.array(report["output_matrix"], dtype=float)
        return check_clone(op.facts["direction"],
                           (report["fidelity_clone1"], report["fidelity_clone2"]),
                           report["a"], report["b"], report["t_matrix"],
                           matrix[..., 0] + 1j * matrix[..., 1])

    def _check_signal(self, op, stdout):
        report = json.loads(stdout)
        problems = []
        expected = oracles.signaling_residual(op.facts["tmat"], Z, X)
        if abs(report["trace_distance"] - expected) > 1e-9:
            problems.append(f"signal trace_distance {report['trace_distance']!r} vs {expected!r}")
        if not report["physical"] or report["mc_shots"] != op.facts["shots"]:
            return problems + ["signal skipped or truncated its Monte Carlo"]
        failure = self.mc.check(tuple(op.argv), report["mc_estimate"],
                                report["helstrom_probability"], report["mc_shots"])
        return problems + ([failure] if failure else [])

    def _check_sweep(self, op, stdout):
        return self.sweeps.check(stdout, "csv", op.facts["resolution"])

    def finish(self):
        z = self.mc.pooled_z()
        return [] if abs(z) <= 4.0 else [f"pooled Monte Carlo deviation {z:.2f} sigma"]

