"""The chunked supremum scan: spans, tie-breaking, the empty domain and rows."""

from __future__ import annotations

import numpy as np

from jensen_stab.scan import _CHUNK, max_scan


def _scan(arr: np.ndarray) -> tuple[float, int]:
    """The scan of arr as a one-row chunk, unwrapped to its one (value, index)."""
    (value,), (idx,) = max_scan(arr.shape[0], lambda start, stop: arr[None, start:stop], 1)
    return value, idx


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
        return np.zeros((1, stop - start))

    max_scan(2 * _CHUNK + 3, chunk, 1)
    assert spans == [(0, _CHUNK), (_CHUNK, 2 * _CHUNK), (2 * _CHUNK, 2 * _CHUNK + 3)]


def test_empty_domain_returns_no_witness():
    def chunk(start: int, stop: int) -> np.ndarray:
        raise AssertionError("an empty domain has no chunks")

    assert max_scan(0, chunk, 1) == ([0.0], [-1])
    assert max_scan(0, chunk, 3) == ([0.0] * 3, [-1] * 3)


def test_first_nan_is_the_supremum_in_any_chunk():
    arr = np.zeros(2 * _CHUNK + 5)
    arr[_CHUNK + 3] = arr[2 * _CHUNK + 1] = np.nan
    arr[_CHUNK + 7] = 5.0
    value, idx = _scan(arr)
    assert np.isnan(value) and idx == _CHUNK + 3
    arr[3] = np.nan
    value, idx = _scan(arr)
    assert np.isnan(value) and idx == 3


def test_rows_are_reduced_each_alone():
    rows = np.zeros((4, 2 * _CHUNK + 5))
    rows[0, _CHUNK + 2] = 1.0
    rows[1, 3] = rows[1, _CHUNK + 9] = np.nan  # the first NaN is final, whatever comes after it
    rows[1, 2 * _CHUNK] = 9.0
    rows[2, 5] = rows[2, _CHUNK + 5] = 2.0
    rows[3, _CHUNK + 4] = np.nan
    spans = []

    def chunk(start: int, stop: int) -> np.ndarray:
        spans.append(start)
        return rows[:, start:stop]

    values, idxs = max_scan(rows.shape[1], chunk, rows.shape[0])
    want = [_scan(row) for row in rows]
    assert idxs == [i for _, i in want] == [_CHUNK + 2, 3, 5, _CHUNK + 4]
    assert [v for v in values if v == v] == [v for v, _ in want if v == v] == [1.0, 2.0]
    assert spans == [0, _CHUNK, 2 * _CHUNK]
    # Once every row has met its NaN the scan stops.
    rows[[0, 2], 1] = np.nan
    spans.clear()
    max_scan(rows.shape[1], chunk, rows.shape[0])
    assert spans == [0, _CHUNK]
