"""The tail rule: the highest percentile with ten samples beyond it."""

import pytest

from perfbench.stats import geomean, tail


@pytest.mark.parametrize(
    "n, percentile, index",
    [(100, 90.0, 89), (200, 95.0, 189), (1000, 99.0, 989), (20, 50.0, 9),
     (30, 100 * 20 / 30, 19)],
)
def test_tail_picks_the_percentile_with_ten_samples_beyond(n, percentile, index):
    samples = [float(i) for i in range(n)][::-1]  # order must not matter
    value, got = tail(samples)
    assert got == pytest.approx(percentile)
    assert value == index
    assert sum(s > value for s in samples) == 10


def test_tail_below_twenty_samples_reports_the_median():
    assert tail([5.0, 1.0, 3.0]) == (3.0, 50.0)
    assert tail([float(i) for i in range(19)]) == (9.0, 50.0)


def test_tail_needs_samples():
    with pytest.raises(ValueError):
        tail([])


def test_geomean():
    assert geomean([1.0, 4.0]) == pytest.approx(2.0)
