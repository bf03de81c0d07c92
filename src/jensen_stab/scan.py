"""Deterministic supremum scans.

The index domain is reduced in fixed-size chunks, each to (max, first
argmax), and a later chunk replaces the running best only when its max is
strictly greater. Ties therefore resolve to the smallest index. A NaN
anywhere makes the first NaN the supremum, so a non-finite residual fails
every bound it is compared against; the scan stops at the chunk holding it.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

_CHUNK = 8192


def max_scan(n_items: int, chunk_fn: Callable[[int, int], np.ndarray]) -> tuple[float, int]:
    """Max over chunk_fn(start, stop) arrays; returns (value, global index).

    Ties resolve to the smallest index, and the first NaN, if any, is the
    supremum. Empty domains return (0.0, -1).
    """
    best_val, best_idx = 0.0, -1
    for start in range(0, n_items, _CHUNK):
        arr = chunk_fn(start, min(start + _CHUNK, n_items))
        i = int(np.argmax(arr))  # the first NaN when the chunk has one
        val = float(arr[i])
        if val != val:
            return val, start + i
        if start == 0 or val > best_val:
            best_val, best_idx = val, start + i
    return best_val, best_idx
