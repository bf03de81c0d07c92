"""The chunked supremum scan: spans, tie-breaking and the empty domain."""

from __future__ import annotations

import numpy as np

from jensen_stab.scan import _CHUNK, max_scan


def _scan(arr: np.ndarray) -> tuple[float, int]:
    return max_scan(arr.shape[0], lambda start, stop: arr[start:stop])


def test_tie_across_a_chunk_boundary_resolves_to_the_smaller_index():
    arr = np.zeros(2 * _CHUNK + 5)
    arr[_CHUNK - 1] = arr[_CHUNK] = arr[2 * _CHUNK + 1] = 3.0
    assert _scan(arr) == (3.0, _CHUNK - 1)
    arr[_CHUNK - 1] = 0.0
    assert _scan(arr) == (3.0, _CHUNK)


def test_maximum_in_the_last_partial_chunk():
    n = 2 * _CHUNK + 7
    arr = np.full(n, -1.0)
    arr[0] = arr[_CHUNK] = 2.0
    arr[n - 2] = 2.5
    assert _scan(arr) == (2.5, n - 2)


def test_chunks_are_fixed_consecutive_spans():
    spans = []

    def chunk(start: int, stop: int) -> np.ndarray:
        spans.append((start, stop))
        return np.zeros(stop - start)

    max_scan(2 * _CHUNK + 3, chunk)
    assert spans == [(0, _CHUNK), (_CHUNK, 2 * _CHUNK), (2 * _CHUNK, 2 * _CHUNK + 3)]


def test_empty_domain_returns_no_witness():
    def chunk(start: int, stop: int) -> np.ndarray:
        raise AssertionError("an empty domain has no chunks")

    assert max_scan(0, chunk) == (0.0, -1)
