"""Acceptance gate: the eight headline checks, one test and one verdict line each.

Each test prints a single `[PASS]`/`[FAIL]` line (visible with `pytest -s`
or in failure output) and then asserts, so `pytest -v` shows one verdict
per criterion either way.  Tolerances are stated inline next to every
comparison.
"""

import json
import time

import numpy as np
import pytest

from clonebound import cli
from clonebound.buzek_hillery import bh_clone, bh_family_point
from clonebound.bounds import max_eta_closed_form, max_eta_grid
from clonebound.family import (
    CANONICAL_AXIS_PAIRS,
    ClonerParams,
    GeneralClonerParams,
    axial_covariance_residual,
    covariance_constraint_residual,
    no_signaling_residual,
    output_state,
    output_state_z,
    positivity_eigenvalues,
    rotate_output,
)
from clonebound.pauli import (
    bloch_to_density,
    hermitian_eigenvalues4,
    overlap_fidelity,
    partial_trace,
    random_rotation,
    tensor,
)
from clonebound.signaling import (
    averaged_clone_output,
    helstrom_projector,
    monte_carlo_signal,
)

OPTIMUM = ClonerParams(eta=2 / 3, t=1 / 3, t_xy=0.0)


def verdict(number: int, description: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_bound_reproduction():
    """Closed form gives eta 2/3 and fidelity 5/6 exactly; grid 2001 within 1e-3."""
    start = time.perf_counter()
    closed = max_eta_closed_form()
    grid = max_eta_grid(resolution=2001)
    elapsed = time.perf_counter() - start
    ok = (
        abs(closed.eta_max - 2 / 3) < 1e-12
        and abs(closed.fidelity_max - 5 / 6) < 1e-12
        and abs(grid.eta_max - 2 / 3) < 1e-3
        and elapsed < 10.0
    )
    verdict(
        1,
        f"eta_max {closed.eta_max:.15f}, F_max {closed.fidelity_max:.15f} "
        f"(tol 1e-12), grid@2001 {grid.eta_max:.6f} (tol 1e-3), {elapsed:.2f}s < 10s",
        ok,
    )


def test_criterion_2_optimal_point_certificate():
    """Spectrum at the optimum is (2/3, 1/3, 0, 0) with exactly two zeros."""
    closed = positivity_eigenvalues(OPTIMUM).as_array()
    numeric = hermitian_eigenvalues4(output_state_z(OPTIMUM))
    closed_err = float(np.max(np.abs(closed - [2 / 3, 1 / 3, 0.0, 0.0])))
    cross_err = float(np.max(np.abs(closed - numeric)))
    zeros = int(np.sum(np.abs(closed) < 1e-12))
    ok = closed_err < 1e-12 and cross_err < 1e-10 and zeros == 2
    verdict(
        2,
        f"spectrum error {closed_err:.2e} (tol 1e-12), eigensolver gap "
        f"{cross_err:.2e} (tol 1e-10), {zeros} zero eigenvalues (want 2)",
        ok,
    )


def test_criterion_3_cloner_saturates_the_bound():
    """Both clone fidelities are 5/6 for 500 Haar-random pure inputs."""
    start = time.perf_counter()
    worst = 0.0
    for seed in range(500):
        _, r = random_rotation(seed)
        rho_in = bloch_to_density(r @ [0.0, 0.0, 1.0])
        pair = bh_clone(rho_in)
        for keep in (1, 2):
            f = overlap_fidelity(rho_in, partial_trace(pair, keep))
            worst = max(worst, abs(f - 5 / 6))
    point = bh_family_point()
    point_err = max(
        abs(point.eta - 2 / 3), abs(point.t - 1 / 3), abs(point.t_xy)
    )
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and point_err < 1e-12 and elapsed < 5.0
    verdict(
        3,
        f"max |F - 5/6| {worst:.2e} over 500 inputs (tol 1e-12), family point "
        f"error {point_err:.2e} (tol 1e-12), {elapsed:.2f}s < 5s",
        ok,
    )


def test_criterion_4_family_never_signals():
    """Opposite-mixture sums agree for 1000 random params x 50 axis pairs."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        eta, t, t_xy = rng.uniform(-1.0, 1.0, size=3)
        params = ClonerParams(eta, t, t_xy)
        # the same draws as 50 sequential (a, b) pairs of normalized normals
        draws = rng.standard_normal((50, 2, 3))
        axes = draws / np.linalg.norm(draws, axis=-1, keepdims=True)
        resid = no_signaling_residual(params, axes[:, 0], axes[:, 1])
        worst = max(worst, float(resid.max()))
    ok = worst < 1e-12
    verdict(4, f"max residual {worst:.2e} over 50000 cases (tol 1e-12)", ok)


def test_criterion_5_violators_signal():
    """t = diag(0,0,1/3) at axes (z, x): D = 1/3, guessing rate 7/12, Monte Carlo."""
    start = time.perf_counter()
    violator = GeneralClonerParams(eta=0.0, t=np.diag([0.0, 0.0, 1 / 3]))
    z, x = (0.0, 0.0, 1.0), (1.0, 0.0, 0.0)
    # independent oracle: brute-force spectrum of the summed-output difference
    diff = 2.0 * (averaged_clone_output(violator, z) - averaged_clone_output(violator, x))
    oracle = 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))
    # the rate the Helstrom measurement reaches on the averaged outputs
    projector = helstrom_projector(violator, z, x)
    rate = 0.5 + 0.25 * float(np.trace(projector @ diff).real)
    shots = 100_000
    report = monte_carlo_signal(violator, z, x, shots=shots, seed=20240)
    mc_tol = 3.0 / (2.0 * np.sqrt(shots))
    elapsed = time.perf_counter() - start
    ok = (
        abs(report.trace_distance - 1 / 3) < 1e-12
        and abs(oracle - 1 / 3) < 1e-12
        and abs(rate - 7 / 12) < 1e-12
        and abs(report.helstrom_probability - rate) < 1e-12
        and abs(report.mc_estimate - rate) < mc_tol
        and elapsed < 30.0
    )
    verdict(
        5,
        f"analytic D {report.trace_distance:.15f} vs oracle {oracle:.15f} "
        f"(tol 1e-12), rate {report.helstrom_probability:.15f} vs projector "
        f"{rate:.15f} = 7/12 (tol 1e-12), MC {report.mc_estimate:.5f} "
        f"(tol {mc_tol:.5f}), {elapsed:.2f}s < 30s",
        ok,
    )


def test_criterion_6_covariance_suite():
    """Conjugation consistency and axial commutators over 100 rotations."""
    rng = np.random.default_rng(99)
    worst_conj = 0.0
    worst_axial = 0.0
    for seed in range(100):
        u, r = random_rotation(seed)
        params = ClonerParams(*rng.uniform(-0.5, 0.5, size=3))
        m = r @ [0.0, 0.0, 1.0]
        uu = tensor(u, u)
        conjugated = uu @ output_state_z(params) @ uu.conj().T
        worst_conj = max(
            worst_conj,
            float(np.max(np.abs(conjugated - output_state(params, m)))),
        )
        worst_axial = max(
            worst_axial,
            axial_covariance_residual(output_state(params, m), m),
        )
    ok = worst_conj < 1e-10 and worst_axial < 1e-10
    verdict(
        6,
        f"conjugation residual {worst_conj:.2e}, axial residual "
        f"{worst_axial:.2e} (generator commutator) over 100 rotations (tol 1e-10)",
        ok,
    )


def test_criterion_7_constraints_carve_out_the_family():
    """The two residual checks accept exactly isotropic + antisymmetric-xy."""
    rng = np.random.default_rng(777)
    axes_a, axes_b = np.swapaxes(CANONICAL_AXIS_PAIRS, 0, 1)

    def combined(eta, t):
        params = GeneralClonerParams(eta=eta, t=t)
        resid = no_signaling_residual(params, axes_a, axes_b).max()
        return max(covariance_constraint_residual(t), float(resid))

    rejected = 0
    for i in range(1000):
        if i % 2 == 0:
            t = rng.uniform(-1.0, 1.0, size=(3, 3))  # unstructured
        else:
            s, u, t_xy = rng.uniform(-0.9, 0.9, size=3)
            if abs(u - s) < 1e-3:
                u = s + (1e-3 if u >= s else -1e-3)
            t = np.array([[s, t_xy, 0.0], [-t_xy, s, 0.0], [0.0, 0.0, u]])
        if combined(rng.uniform(-1, 1), t) > 1e-9:
            rejected += 1

    accepted = 0
    for _ in range(1000):
        s, t_xy = rng.uniform(-1.0, 1.0, size=2)
        t = np.array([[s, t_xy, 0.0], [-t_xy, s, 0.0], [0.0, 0.0, s]])
        if combined(rng.uniform(-1, 1), t) < 1e-12:
            accepted += 1

    ok = rejected == 1000 and accepted == 1000
    verdict(
        7,
        f"rejected {rejected}/1000 off-family (residual > 1e-9), accepted "
        f"{accepted}/1000 on-family (residual < 1e-12)",
        ok,
    )


def test_criterion_8_cli_determinism(tmp_path):
    """Each subcommand writes byte-identical output on repeated runs."""
    cases = {
        "verify": ["verify", "--eta", "2/3", "--t", "1/3"],
        "optimize": ["optimize", "--resolution", "101"],
        "clone": ["clone", "--input", "0,0,1"],
        "signal": ["signal", "--t_diag", "0,0,1/3", "--shots", "5000",
                   "--seed", "99"],
        "sweep": ["sweep", "--resolution", "7"],
    }
    stable = []
    for name, argv in cases.items():
        first, second = tmp_path / f"{name}_1", tmp_path / f"{name}_2"
        status_1 = cli.main(argv + ["--out", str(first)])
        status_2 = cli.main(argv + ["--out", str(second)])
        if status_1 == status_2 and first.read_bytes() == second.read_bytes():
            stable.append(name)
    ok = len(stable) == len(cases)
    verdict(8, f"byte-identical reruns for {len(stable)}/{len(cases)} subcommands", ok)
    # spot-check the repeated signal transcript really sampled
    report = json.loads((tmp_path / "signal_1").read_text(encoding="utf-8"))
    assert report["mc_shots"] == 5000
    assert report["seed"] == 99
