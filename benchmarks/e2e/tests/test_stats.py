"""Percentiles, sample counts and the calibrated clock's arithmetic."""

import pytest

from benchmarks.e2e.stats import calibrate, iqr_share, midmean, percentile, summarize


def test_percentile_interpolates_and_counts_samples():
    values = [40.0, 10.0, 30.0, 20.0]
    assert percentile(values, 0) == 10.0
    assert percentile(values, 50) == 25.0
    assert percentile(values, 100) == 40.0
    assert summarize(values) == {"p50": 25.0, "p90": 37.0, "n": 4}
    with pytest.raises(ValueError):
        percentile([], 50)


def _op_p50(wall, ref, nominal=0.1):
    return percentile(calibrate(wall, ref, nominal), 50)


def test_uniform_slowdown_of_op_and_reference_cancels():
    wall = [0.50, 0.52, 0.48, 0.51, 0.49]
    ref = [0.1] * 6
    slow = 1.5
    assert _op_p50([w * slow for w in wall], [r * slow for r in ref]) == pytest.approx(
        _op_p50(wall, ref)
    )


def test_slowdown_of_the_op_alone_shows_in_full():
    wall = [0.50, 0.52, 0.48, 0.51, 0.49]
    ref = [0.1] * 6
    assert _op_p50([w * 1.5 for w in wall], ref) == pytest.approx(1.5 * _op_p50(wall, ref))


def test_a_burst_is_divided_out_by_the_references_around_it():
    # op 1 ran inside a 1.6x burst that both of its references saw
    calibrated = calibrate([0.5, 0.8, 0.5], [0.1, 0.16, 0.16, 0.1], 0.1)
    assert calibrated[1] == pytest.approx(0.5)
    # its neighbours share one burst reference each: half corrected
    assert calibrated[0] == pytest.approx(0.5 * 0.1 / 0.13)


def test_calibrate_needs_one_more_reference_than_ops():
    with pytest.raises(ValueError):
        calibrate([0.5, 0.5], [0.1, 0.1], 0.1)


def test_iqr_share_matches_the_acceptance_rule():
    values = [100.0, 101.0, 99.0, 102.0, 98.0, 100.5, 99.5, 101.5, 98.5, 100.0]
    import statistics

    q1, _, q3 = statistics.quantiles(values, n=4)
    assert iqr_share(values) == pytest.approx((q3 - q1) / statistics.median(values))


def test_midmean_is_deaf_to_outliers_but_smooth_over_two_quanta():
    assert midmean([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 1000.0]) == 4.5
    quanta = lambda low: [150.0] * low + [200.0] * (20 - low)
    # the median jumps 50 ms when one sample changes side ...
    assert percentile(quanta(11), 50) - percentile(quanta(9), 50) == -50.0
    # ... the midmean moves by a tenth of that per sample
    assert midmean(quanta(11)) - midmean(quanta(9)) == -10.0


def test_the_reference_kernel_has_not_been_edited():
    pytest.importorskip("numpy")
    from benchmarks.e2e.refkernel import ReferenceKernel

    # every calibrated number in baseline.json is a ratio to this kernel
    assert ReferenceKernel("thin").run() == pytest.approx(58656.191877738725, rel=1e-12)
    assert ReferenceKernel("tail").run() == pytest.approx(97420.70351151994, rel=1e-12)
