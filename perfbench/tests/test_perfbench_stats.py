"""Percentile selection: nearest rank, and the qualifying-tail rule."""

from __future__ import annotations

import math

import pytest

from perfbench import stats


def test_nearest_rank_percentile() -> None:
    values = list(range(1, 101))  # 1..100
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 100) == 100
    assert stats.percentile(values, 0) == 1
    assert stats.percentile([7.0], 99) == 7.0


def test_percentile_rejects_bad_input() -> None:
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


@pytest.mark.parametrize(
    "n, expected",
    [(1000, 99.0), (5000, 99.0), (200, 95.0), (120, 91.6), (144, 93.0)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n: int, expected: float) -> None:
    q = stats.tail_percentile(n)
    assert q == expected
    rank = math.ceil(q / 100.0 * n - 1e-9)
    assert n - rank >= stats.TAIL_SAMPLES


def test_tail_percentile_without_enough_samples_is_the_median() -> None:
    assert stats.tail_percentile(10) == 50.0
    assert stats.tail_percentile(3) == 50.0


def test_tail_value_has_ten_samples_beyond_it() -> None:
    values = [float(v) for v in range(200)]
    q, value = stats.tail(values)
    assert q == 95.0
    assert sum(1 for v in values if v > value) == 10
