"""Deterministic supremum scans.

The index domain is reduced in fixed-size chunks, each to (max, first
argmax), and a later chunk replaces the running best only when its max is
strictly greater. Ties therefore resolve to the smallest index. A NaN
anywhere makes the first NaN the supremum, so a non-finite residual fails
every bound it is compared against; the scan stops at the chunk holding it.
A chunk may hold several residuals as rows over the same indices; each row
is reduced alone under that rule, and the scan stops once every row has
met its NaN.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

_CHUNK = 8192


def max_scan(n_items: int, chunk_fn: Callable[[int, int], np.ndarray]) -> tuple:
    """Max over chunk_fn(start, stop) arrays; returns (value, global index).

    Chunk arrays are 1-d, or 2-d with one row per residual, and then the
    value and index are lists with one entry per row. Ties resolve to the
    smallest index, and the first NaN, if any, is the supremum. Empty
    domains return (0.0, -1).
    """
    vals: list[float] = []
    idxs: list[int] = []
    arr = None
    for start in range(0, n_items, _CHUNK):
        arr = chunk_fn(start, min(start + _CHUNK, n_items))
        for r, row in enumerate((arr,) if arr.ndim == 1 else arr):
            i = int(row.argmax())  # the first NaN when the row has one
            val = float(row[i])
            if not start:
                vals.append(val)
                idxs.append(i)
            elif vals[r] == vals[r] and (val > vals[r] or val != val):
                vals[r], idxs[r] = val, start + i
        if all(v != v for v in vals):
            break
    if arr is None:
        return 0.0, -1
    return (vals[0], idxs[0]) if arr.ndim == 1 else (vals, idxs)
