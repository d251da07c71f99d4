"""The feasibility landscape over (eta, t, t_xy) as `serialize.Table` text.

`sweep_blocks` spells `clone-bound sweep`'s rows in grid order: the
point, its four eigenvalues in descending order, the positivity flag
and the fidelity (1 + eta)/2.  The spectrum is `family`'s outer pair
over (eta, t) and central pair over (t, t_xy), which eta does not move,
so up to R = 128 the plane's words are made once per sweep and each
batch of whole eta blocks adds only its outer levels and its frame.
"""

from __future__ import annotations

import numpy as np

from .family import _central_levels, _outer_levels
from .pauli import is_positive

SWEEP_HEADER = ("eta", "t", "t_xy", "lam1", "lam2", "lam3", "lam4", "feasible", "fidelity")
#: the most rows a piece of sweep text holds; a batch holds at most 16 pieces' cells
_PIECE_ROWS = 1024


def sweep_blocks(table, resolution: int):
    """(pool, index) pieces of the sweep over the (eta, t, t_xy) grid, in order.

    A batch is b eta blocks of one (t, t_xy) rectangle: the whole plane
    for as many eta as fit in 16 * `_PIECE_ROWS` cells, else one eta and
    as many whole t rows as fit in `_PIECE_ROWS` rows, or a slice of one.
    Its pool holds each word once: the rectangle's pair and central
    words (kept in one slot while the rectangle stays), the batch's
    distinct outer levels, and seven frame words per eta: the row ends
    (flag, fidelity, next row's eta) that stay in its block or cross to
    the next, the two that close, and the opener.  A row's index is its
    pair, its four levels merged by a compare network of the two sorted
    pairs, and the end `is_positive` picks on the lower low.  A piece is
    a run of at most `_PIECE_ROWS` rows, opened on its first row's eta
    and closed at its last, so the pieces join into the same text
    wherever they are cut.
    """
    axis = np.linspace(-1.0, 1.0, resolution)
    # a batch's cells: as many whole planes as fit in 16 pieces, else one piece of a plane
    cells = 16 * _PIECE_ROWS if resolution ** 2 <= 16 * _PIECE_ROWS else _PIECE_ROWS
    n_eta, n_t = cells // resolution ** 2 or 1, cells // resolution or 1
    width = min(resolution, cells)
    slot = None
    for e_lo in range(0, resolution, n_eta):
        eta = axis[e_lo:e_lo + n_eta, None, None]
        b = len(eta)
        text = table.floats((eta, (1.0 + eta) / 2.0))
        frame = []
        for j, (lead, tail) in enumerate(zip(text[:b], text[b:])):
            first, (stay, close) = table.row_frame(lead, tail)
            cross = table.row_frame(text[j + 1], tail)[1][0] if j + 1 < b else close
            frame += [*stay, *cross, *close, first]
        for t_lo in range(0, resolution, n_t):
            t = axis[t_lo:t_lo + n_t, None]
            for xy_lo in range(0, resolution, width):
                if slot != (t_lo, xy_lo):
                    t_xy = axis[xy_lo:xy_lo + width]
                    m, w, n = len(t), len(t_xy), len(t) * len(t_xy)
                    b1, b2 = _central_levels(t, t_xy)
                    # pool: pair words, distinct central levels, distinct outer levels, frame
                    distinct, central_at = np.unique((b1, b2), return_inverse=True)
                    xy_cells = table.cells(t_xy)
                    pairs = [a + c for a in table.cells(t) for c in xy_cells]
                    head = np.array(pairs + table.cells(distinct), dtype=object)
                    b1_word, b2_word = n + central_at.reshape(2, m, w)
                    slot = (t_lo, xy_lo)
                outer = _outer_levels(eta, t)
                a1, a2 = np.maximum(*outer), np.minimum(*outer)
                distinct, outer_at = np.unique((a1, a2), return_inverse=True)
                a1_word, a2_word = len(head) + outer_at.reshape(2, b, m, 1)
                base = len(head) + len(distinct)
                pool = np.concatenate((head, np.array(table.cells(distinct) + frame, dtype=object)))
                # merge the outer pair a1 >= a2 with the central b1 >= b2: the
                # top is the higher high, the bottom the lower low, the rest between
                hi, lo = b1 > a1, b2 < a2
                mid_hi, mid_lo = np.where(hi, a1_word, b1_word), np.where(lo, a2_word, b2_word)
                swap = np.maximum(a2, b2) > np.minimum(a1, b1)
                flag = is_positive(np.minimum(a2, b2))
                index = np.empty((b, m, w, 6), dtype=np.intp)
                index[..., 0] = np.arange(n).reshape(m, w)
                index[..., 1] = np.where(hi, b1_word, a1_word)
                index[..., 2] = np.where(swap, mid_lo, mid_hi)
                index[..., 3] = np.where(swap, mid_hi, mid_lo)
                index[..., 4] = np.where(lo, b2_word, a2_word)
                index[..., 5] = base + 7 * np.arange(b)[:, None, None] + flag
                index[:, -1, -1, 5] += 2  # an eta block's last row crosses to the next
                index = index.reshape(-1)
                for r0 in range(0, b * n, _PIECE_ROWS):  # open on row r0's eta, close at r1
                    r1 = min(r0 + _PIECE_ROWS, b * n)
                    piece = np.concatenate(([base + 7 * (r0 // n) + 6], index[6 * r0:6 * r1]))
                    piece[-1] = base + 7 * ((r1 - 1) // n) + 4 + flag.flat[r1 - 1]
                    yield pool, piece
