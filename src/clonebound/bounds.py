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
  grid.  What depends on t alone is worked out once per call; the
  cells are scanned in blocks of at most 2**14, or one row when a row
  is longer, so memory stays O(resolution).  Blocks share one entry
  buffer, its t_xy half written once per call, and two level buffers.

The grid acts as the brute-force check on the closed form, so it must
never report a larger eta; ties between grid points resolve
deterministically (see max_eta_grid).
"""

from __future__ import annotations

import operator
from dataclasses import asdict, dataclass
from fractions import Fraction

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


def _row_levels(eta, t):
    """The output levels fixed by the row: the outer pair d0, d3 and the block diagonal.

    With `_central_levels`, the eigenvalues read off the z-frame matrix
    layout (two diagonal entries plus a 2x2 Hermitian block), not off
    the closed form, so the grid stays an independent check on it.
    """
    return (1.0 + 2.0 * eta + t) / 4.0, (1.0 - 2.0 * eta + t) / 4.0, (1.0 - t) / 4.0


def _central_levels(block_diag, entry, upper, lower):
    """The block's levels block_diag +- |entry|/4 into `upper`, `lower`; entry = 2t + 2i t_xy."""
    np.multiply(np.abs(entry, out=lower), 0.25, out=lower)  # exact, so equal to / 4.0
    return np.add(block_diag, lower, out=upper), np.subtract(block_diag, lower, out=lower)


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
    tracking the true t_xy = 0 maximizer at every resolution.  The outer
    pair is judged once per row, each cell once on the lower of its
    central pair; `resolution` must be an integer (`operator.index`).
    """
    try:
        resolution = operator.index(resolution)
    except TypeError:
        raise InvalidResolutionError(
            f"grid resolution must be an integer, got {resolution!r}") from None
    if not 3 <= resolution <= MAX_RESOLUTION:
        raise InvalidResolutionError(
            f"grid resolution must be in [3, {MAX_RESOLUTION}], got {resolution}")
    axis = np.linspace(-1.0, 1.0, resolution)
    descending = axis[::-1, None]
    d0, d3, block_diag = _row_levels((1.0 + descending) / 2.0, descending)
    row_ok = is_positive(d0) & is_positive(d3)
    del d0, d3  # only their verdict is kept
    two_t = 2.0 * descending
    rows = min(resolution, max(1, _GRID_CELLS // resolution))
    entry = np.empty((rows, resolution), dtype=complex)
    entry.imag = 2.0 * axis
    upper, lower = np.empty(entry.shape), np.empty(entry.shape)
    for lo in range(0, resolution, rows):
        n = min(rows, resolution - lo)
        entry[:n].real = two_t[lo:lo + n]
        ok = is_positive(np.minimum(*_central_levels(
            block_diag[lo:lo + n], entry[:n], upper[:n], lower[:n]), out=lower[:n]))
        if not ok.any():
            continue
        hits = ok.any(axis=1) & row_ok[lo:lo + n, 0]
        if hits.any():
            row = hits.argmax()  # the first, at the largest t
            t = descending[lo + row, 0]
            eta_max = float((1.0 + t) / 2.0)
            t_xy = axis[ok[row]]
            pick = np.lexsort((t_xy, np.abs(t_xy)))[0]
            return BoundResult(
                eta_max=eta_max,
                t_star=float(t),
                t_xy_star=float(t_xy[pick]),
                fidelity_max=(1.0 + eta_max) / 2.0,
                method="grid",
            )
    raise RuntimeError("no feasible grid point; the domain is wrong")
