import pytest

import stats


@pytest.mark.parametrize("n", [11, 20, 37, 100, 1000])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n):
    samples = [float(k) for k in range(n)][::-1]
    value, pct, count = stats.tail(samples)
    assert count == n
    assert sum(1 for s in samples if s > value) == 10
    assert pct == pytest.approx(100.0 * (n - 10) / n)


def test_tail_of_a_hundred_is_p90():
    value, pct, _ = stats.tail([float(k) for k in range(1, 101)])
    assert (value, pct) == (90.0, 90.0)


def test_too_few_samples_for_a_tail_give_the_median():
    assert stats.tail([3.0, 1.0, 2.0]) == (2.0, 50.0, 3)

