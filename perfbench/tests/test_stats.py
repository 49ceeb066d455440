import pytest

from perfbench.stats import median, spread, tail


def test_tail_leaves_exactly_ten_samples_beyond():
    values = list(range(1, 101))  # 1..100
    value, percentile, n = tail(values)
    assert (value, percentile, n) == (90, 90.0, 100)
    assert sum(v > value for v in values) == 10


def test_tail_is_the_highest_such_percentile():
    values = [float(v) for v in range(1000)]
    value, percentile, _n = tail(values)
    assert percentile == pytest.approx(99.0)
    assert value == 989.0


def test_tail_ignores_input_order():
    assert tail([5, 1, 4, 2, 3, 9, 8, 7, 6, 0, 10, 11]) == (1, pytest.approx(100 * 2 / 12), 12)


def test_tail_with_too_few_samples_reports_the_maximum():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert tail([float(v) for v in range(10)]) == (9.0, 100.0, 10)
    assert tail([]) == (0.0, 0.0, 0)


def test_median_and_spread():
    assert median([3, 1, 2]) == 2
    assert spread([10.0] * 10) == 0.0
    # statistics.quantiles (exclusive method): q1 = 8.5, q3 = 11.5
    assert spread([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx(3.0 / 10.0)


def test_host_factor_scales_to_the_reference_kernel_time():
    from perfbench import calibrate

    ref = calibrate.REFERENCE_S
    assert calibrate.factor(ref, ref) == pytest.approx(1.0)
    # A host twice as slow as the reference halves every measured time.
    assert calibrate.factor(2 * ref, 2 * ref) == pytest.approx(0.5)
    assert calibrate.factor(ref, 3 * ref) == pytest.approx(0.5)
