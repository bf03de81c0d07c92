"""Deterministic supremum scans.

A scan reduces residuals held as rows over one index domain. The domain is
reduced in fixed-size chunks of (rows x span), each row of a chunk to
(max, first argmax), and a later chunk replaces a row's running best only
when its max is strictly greater. Ties therefore resolve to the smallest
index. A NaN anywhere in a row makes its first NaN that row's supremum, so
a non-finite residual fails every bound it is compared against; the scan
stops at the chunk where the last row meets its NaN.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

_CHUNK = 8192


def max_scan(n_items: int, chunk_fn: Callable[[int, int], np.ndarray], n_rows: int) -> tuple[list[float], list[int]]:
    """Max of each row over the (n_rows x span) arrays chunk_fn(start, stop).

    Returns one value and one global index per row. Ties resolve to the
    smallest index, and a row's first NaN, if any, is its supremum. An
    empty domain gives each row (0.0, -1).
    """
    if not n_items:
        return [0.0] * n_rows, [-1] * n_rows
    vals: list[float] = []
    idxs: list[int] = []
    for start in range(0, n_items, _CHUNK):
        arr = chunk_fn(start, min(start + _CHUNK, n_items))
        for r, i in enumerate(arr.argmax(axis=1).tolist()):  # a row's first NaN when it has one
            val = arr.item(r, i)
            if not start:
                vals.append(val)
                idxs.append(i)
            elif vals[r] == vals[r] and (val > vals[r] or val != val):
                vals[r], idxs[r] = val, start + i
        if all(v != v for v in vals):
            break
    return vals, idxs
