"""Maximizing the shrink factor eta over the positivity-feasible family.

Two independent routes to the same number:

* `max_eta_closed_form` runs the analytic argument in exact rational
  arithmetic: the lowest outer eigenvalue caps eta at (1 + t)/2, the
  central block demands 1 - t - 2 sqrt(t^2 + t_xy^2) >= 0, and the
  ceiling is maximized on that feasible set at t_xy = 0, t = 1/3.
* `max_eta_grid` knows none of that except the eta ceiling itself: it
  reads the four levels off the z-frame matrix layout and walks t down
  from +1 to the first grid row whose deciding cells, those of smallest
  |t_xy|, pass the package's one positivity verdict (`pauli.is_positive`).
  The ceiling grows with t, so that row holds the largest feasible eta
  on the whole (t, t_xy) grid; why those cells decide a row is told in
  its docstring.  Memory stays O(resolution).

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


def _central_levels(block_diag, entry):
    """The block's levels block_diag +- |entry|/4; entry = 2t + 2i t_xy."""
    half_gap = np.abs(entry) * 0.25  # exact, so equal to / 4.0
    return block_diag + half_gap, block_diag - half_gap


def max_eta_grid(resolution: int) -> BoundResult:
    """Brute-force scan of (t, t_xy) in [-1, 1]^2, judged on the cells that decide each row.

    For each grid pair the candidate eta is its ceiling (1 + t)/2; the
    pair survives if all four matrix eigenvalues at that eta pass
    `is_positive` (>= -1e-9).  In a row of fixed t only the block's
    lower level moves with t_xy, and it falls as |2t + 2i t_xy| grows,
    so the row has a survivor iff its cells of smallest |t_xy| (an
    exact-magnitude pair both kept) survive.  That assumes numpy's
    complex `abs` is monotone in |imag| at a fixed real part, which the
    tests check on the full plane.  The ceiling grows strictly with t,
    so the first surviving row down from +1 holds the largest eta on
    the grid, and its deciding cell is the tie-break's pick among the
    row's survivors: smallest |t_xy|, negative side first, tracking the
    true t_xy = 0 maximizer.  `resolution` must be an integer
    (`operator.index`).
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
    size = np.abs(axis)
    columns = axis[size == size.min()]  # every exact tie, the negative side first
    del size
    t = axis[::-1, None]
    d0, d3, block_diag = _row_levels((1.0 + t) / 2.0, t)
    ok = is_positive(d0) & is_positive(d3)
    del d0, d3  # only their verdict is kept
    entry = np.empty((resolution, len(columns)), dtype=complex)
    entry.real, entry.imag = 2.0 * t, 2.0 * columns
    for level in _central_levels(block_diag, entry):
        ok = ok & is_positive(level)
    hits = ok.any(axis=1)
    row = hits.argmax()  # the first, at the largest t
    if not hits[row]:
        raise RuntimeError("no feasible grid point; the domain is wrong")
    eta_max = float((1.0 + t[row, 0]) / 2.0)
    return BoundResult(
        eta_max=eta_max,
        t_star=float(t[row, 0]),
        t_xy_star=float(columns[ok[row]][0]),
        fidelity_max=(1.0 + eta_max) / 2.0,
        method="grid",
    )
