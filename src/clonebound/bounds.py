"""Maximizing the shrink factor eta over the positivity-feasible family.

Two independent routes to the same number:

* `max_eta_closed_form` runs the analytic argument in exact rational
  arithmetic: the lowest outer eigenvalue caps eta at (1 + t)/2, the
  central block demands 1 - t - 2 sqrt(t^2 + t_xy^2) >= 0, and the
  ceiling is maximized on that feasible set at t_xy = 0, t = 1/3.
* `max_eta_grid` knows none of that except the eta ceiling itself: it
  walks t down from +1 over a grid of [-1, 1], builds the output-matrix
  entries at the ceiling for every grid t_xy, and stops at the first
  row with a point whose four eigenvalues pass the package's one
  positivity verdict (`family.is_positive`).  The ceiling grows with
  t, so that row holds the largest feasible eta on the whole (t, t_xy)
  grid, and only one row is ever in memory.

The grid acts as the brute-force check on the closed form, so it must
never report a larger eta; ties between grid points resolve
deterministically (see max_eta_grid).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidResolutionError
from .family import is_positive, min_output_eigenvalue


@dataclass(frozen=True)
class BoundResult:
    eta_max: float
    t_star: float
    t_xy_star: float
    fidelity_max: float
    method: str  # "closed_form" or "grid"

    def to_json_dict(self) -> dict:
        return asdict(self)


def feasible(params) -> bool:
    """`is_positive` (lowest eigenvalue >= -1e-9) for either parameter type."""
    return bool(is_positive(min_output_eigenvalue(params)))


def max_eta_closed_form() -> BoundResult:
    """The analytic optimum, evaluated in exact rational arithmetic.

    With t_xy = 0 the central-block constraint reads 1 - 3t >= 0 for
    t >= 0, so the eta ceiling (1 + t)/2 peaks at t = 1/3; any t_xy != 0
    only tightens the block constraint.  Exact values: eta = 2/3,
    fidelity = 5/6.
    """
    t_star = Fraction(1, 3)
    eta_max = (1 + t_star) / 2
    assert eta_max == Fraction(2, 3) and (1 + eta_max) / 2 == Fraction(5, 6)
    eta = float(eta_max)
    # the float fidelity is derived from the float eta so that
    # fidelity_max == (1 + eta_max)/2 holds bitwise on the result
    return BoundResult(
        eta_max=eta,
        t_star=float(t_star),
        t_xy_star=0.0,
        fidelity_max=(1.0 + eta) / 2.0,
        method="closed_form",
    )


def _matrix_entry_eigenvalues(eta, t, t_xy):
    """Output eigenvalues read straight off the z-frame matrix entries.

    Vectorized over broadcastable eta/t/t_xy arrays.  Deliberately
    reconstructs the values from the matrix layout (two decoupled
    diagonal entries plus a 2x2 Hermitian block) instead of reusing the
    closed-form expressions, so the grid search stays an independent
    check on them.
    """
    d0 = (1.0 + 2.0 * eta + t) / 4.0
    d3 = (1.0 - 2.0 * eta + t) / 4.0
    block_diag = (1.0 - t) / 4.0
    block_off = np.abs(2.0 * t + 2.0j * t_xy) / 4.0
    return d0, d3, block_diag + block_off, block_diag - block_off


def max_eta_grid(resolution: int) -> BoundResult:
    """Brute-force scan of (t, t_xy) in [-1, 1]^2, one t row at a time.

    For each grid pair the candidate eta is its ceiling (1 + t)/2; the
    pair survives if all four matrix eigenvalues at that eta pass
    `is_positive` (>= -1e-9).  The ceiling grows strictly with t, and
    distinct grid t give distinct eta, so walking t down from +1 and
    stopping at the first row with a survivor finds the largest eta on
    the whole grid while holding one row of `resolution` values.  Every
    survivor in that row ties; ties resolve deterministically to the
    t_xy of smallest magnitude (negative side first on exact magnitude
    ties), tracking the true t_xy = 0 maximizer at every resolution.
    """
    resolution = int(resolution)
    if resolution < 3:
        raise InvalidResolutionError(f"grid resolution must be >= 3, got {resolution}")
    axis = np.linspace(-1.0, 1.0, resolution)
    for t in axis[::-1]:
        eta = (1.0 + t) / 2.0
        ok = np.ones(resolution, dtype=bool)
        for lam in _matrix_entry_eigenvalues(eta, t, axis):
            ok &= is_positive(lam)
        if ok.any():
            t_xy = axis[ok]
            pick = np.lexsort((t_xy, np.abs(t_xy)))[0]
            return BoundResult(
                eta_max=float(eta),
                t_star=float(t),
                t_xy_star=float(t_xy[pick]),
                fidelity_max=(1.0 + float(eta)) / 2.0,
                method="grid",
            )
    raise RuntimeError("no feasible grid point; the domain is wrong")
