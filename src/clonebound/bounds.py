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
  positivity verdict (`pauli.is_positive`).  The ceiling grows with
  t, so that row holds the largest feasible eta on the whole (t, t_xy)
  grid.  Rows are scanned in blocks of at most 2**14 cells, or one row
  when a row is longer, so memory stays bounded at any resolution; the
  blocks share one entry buffer, its t_xy half written once per call.

The grid acts as the brute-force check on the closed form, so it must
never report a larger eta; ties between grid points resolve
deterministically (see max_eta_grid).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import reduce

import numpy as np

from .errors import InvalidResolutionError
from .family import min_output_eigenvalue
from .pauli import is_positive

#: the largest grid resolution accepted anywhere: one axis of it is 0.8 MB
MAX_RESOLUTION = 100_001
#: the most (t, t_xy) cells one numpy pass of the grid scan holds
_GRID_CELLS = 2**14


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


def _matrix_entry_eigenvalues(eta, t, entry):
    """Output eigenvalues read straight off the z-frame matrix entries.

    Vectorized over broadcastable eta/t arrays and `entry`, four times
    the block's off-diagonal entry (2t + 2i t_xy); the last level is
    written over the array of |entry| / 4.  Deliberately reconstructs
    the values from the matrix layout (two decoupled diagonal entries
    plus a 2x2 Hermitian block) instead of reusing the closed-form
    expressions, so the grid search stays an independent check on them.
    """
    d0 = (1.0 + 2.0 * eta + t) / 4.0
    d3 = (1.0 - 2.0 * eta + t) / 4.0
    block_diag = (1.0 - t) / 4.0
    block_off = np.abs(entry) * 0.25
    return d0, d3, block_diag + block_off, np.subtract(block_diag, block_off, out=block_off)


def max_eta_grid(resolution: int) -> BoundResult:
    """Brute-force scan of (t, t_xy) in [-1, 1]^2, a block of t rows at a time.

    For each grid pair the candidate eta is its ceiling (1 + t)/2; the
    pair survives if all four matrix eigenvalues at that eta pass
    `is_positive` (>= -1e-9).  The ceiling grows strictly with t, and
    distinct grid t give distinct eta, so walking t down from +1 and
    stopping at the first row with a survivor finds the largest eta on
    the whole grid while holding a block of at most 2**14 cells, or one
    row of `resolution` values when a row is longer.  Every survivor in
    that row ties; ties resolve deterministically to the t_xy of
    smallest magnitude (negative side first on exact magnitude ties),
    tracking the true t_xy = 0 maximizer at every resolution.  Blocks
    share one entry buffer whose t_xy half is written once per call.
    """
    resolution = int(resolution)
    if not 3 <= resolution <= MAX_RESOLUTION:
        raise InvalidResolutionError(
            f"grid resolution must be in [3, {MAX_RESOLUTION}], got {resolution}")
    axis = np.linspace(-1.0, 1.0, resolution)
    descending = axis[::-1]
    rows = min(resolution, max(1, _GRID_CELLS // resolution))
    entry = np.empty((rows, resolution), dtype=complex)
    entry.imag = 2.0 * axis
    for lo in range(0, resolution, rows):
        t = descending[lo:lo + rows, None]
        eta = (1.0 + t) / 2.0
        entry[:len(t)].real = 2.0 * t
        # d0 and d3 are (rows, 1): ANDed first, only two passes touch every cell
        ok = reduce(np.logical_and,
                    map(is_positive, _matrix_entry_eigenvalues(eta, t, entry[:len(t)])))
        hits = ok.any(axis=1)
        if hits.any():
            row = hits.argmax()  # the first, at the largest t
            eta_max = float(eta[row, 0])
            t_xy = axis[ok[row]]
            pick = np.lexsort((t_xy, np.abs(t_xy)))[0]
            return BoundResult(
                eta_max=eta_max,
                t_star=float(t[row, 0]),
                t_xy_star=float(t_xy[pick]),
                fidelity_max=(1.0 + eta_max) / 2.0,
                method="grid",
            )
    raise RuntimeError("no feasible grid point; the domain is wrong")
