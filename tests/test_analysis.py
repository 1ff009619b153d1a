"""Fisher information, effective dimension, and return-curve statistics."""

import math

import numpy as np
import pytest

from qnav import UsageError, analysis


# ---------------------------------------------------------------------------
# empirical FIM


def test_fim_zero_gradients():
    fim = analysis.empirical_fim(np.zeros((4, 3)))
    np.testing.assert_array_equal(fim, np.zeros((3, 3)))


def test_fim_linear_model_closed_form():
    """For V = w.x the per-sample gradient is x, so F = mean x x^T."""
    rng = np.random.default_rng(0)
    inputs = [rng.normal(size=4) for _ in range(50)]
    fim = analysis.empirical_fim(np.stack(inputs))
    expected = np.mean([np.outer(x, x) for x in inputs], axis=0)
    np.testing.assert_allclose(fim, expected, atol=1e-12)


def test_fim_symmetric_psd():
    rng = np.random.default_rng(1)
    w = rng.normal(size=(5, 3))
    fim = analysis.empirical_fim(
        np.stack([np.tanh(w @ rng.normal(size=3)) for _ in range(20)]))
    np.testing.assert_allclose(fim, fim.T, atol=1e-14)
    assert np.linalg.eigvalsh(fim).min() >= -1e-9


def test_fim_empty_inputs():
    with pytest.raises(UsageError):
        analysis.empirical_fim(np.zeros((0, 3)))


# ---------------------------------------------------------------------------
# eigenspectrum


def test_eigenspectrum_identity():
    np.testing.assert_array_equal(analysis.eigenspectrum(np.eye(4)), np.ones(4))


def test_eigenspectrum_diag_sorted():
    np.testing.assert_array_equal(
        analysis.eigenspectrum(np.diag([1.0, 3.0, 0.0])), [3.0, 1.0, 0.0])


def test_eigenspectrum_gram_nonnegative():
    rng = np.random.default_rng(2)
    g = rng.normal(size=(6, 4))
    spectrum = analysis.eigenspectrum(g @ g.T)
    assert np.all(spectrum >= -1e-9)
    assert spectrum.sum() == pytest.approx(np.trace(g @ g.T), rel=1e-8)


def test_eigenspectrum_rejects_nonsquare():
    with pytest.raises(UsageError):
        analysis.eigenspectrum(np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# effective dimension


def kappa_of(gamma, n):
    return gamma * n / (2 * math.pi * math.log(n))


def test_effective_dimension_identity_closed_form():
    d, gamma, n = 5, 1.0, 3690
    kappa = kappa_of(gamma, n)
    samples = [np.eye(d)] * 3
    d_eff, normalized = analysis.effective_dimension(samples, gamma, n)
    expected = d * math.log(1.0 + kappa) / math.log(kappa)
    assert d_eff == pytest.approx(expected, rel=1e-12)
    assert normalized == pytest.approx(expected / d, rel=1e-12)
    assert 0.0 < d_eff <= d * math.log(1 + kappa) / math.log(kappa) + 1e-12


def test_effective_dimension_zero_fim():
    d_eff, normalized = analysis.effective_dimension([np.zeros((4, 4))] * 2, 1.0, 100)
    assert d_eff == 0.0
    assert normalized == 0.0


def test_effective_dimension_bounds_random():
    rng = np.random.default_rng(3)
    d = 6
    samples = []
    for _ in range(5):
        g = rng.normal(size=(d, d))
        samples.append(g @ g.T / d)
    d_eff, normalized = analysis.effective_dimension(samples, 1.0, 3690)
    assert 0.0 < d_eff <= d
    assert 0.0 < normalized <= 1.0


def test_effective_dimension_monotone_in_scale():
    """Scaling the (unnormalized) FIM cannot shrink the effective dimension."""
    rng = np.random.default_rng(4)
    d = 4
    g = rng.normal(size=(d, d))
    base = g @ g.T
    # bypass trace normalization by comparing det-based values directly
    kappa = kappa_of(1.0, 3690)
    for c in (1.5, 3.0, 10.0):
        low = np.linalg.slogdet(np.eye(d) + kappa * base)[1]
        high = np.linalg.slogdet(np.eye(d) + kappa * c * base)[1]
        assert high >= low


def test_effective_dimension_validation():
    with pytest.raises(UsageError):
        analysis.effective_dimension([np.eye(2)], 1.0, 100)  # one sample
    with pytest.raises(UsageError):
        analysis.effective_dimension([np.eye(2)] * 2, 1.5, 100)  # gamma > 1
    with pytest.raises(UsageError):
        analysis.effective_dimension([np.eye(2)] * 2, 1.0, 2)  # n too small
    with pytest.raises(UsageError):
        # indefinite sample: positive trace but a strongly negative direction
        analysis.effective_dimension([np.diag([1.0, -0.1])] * 2, 1.0, 3690)


def test_fim_report_linear_model():
    rng = np.random.default_rng(5)
    inputs = [rng.normal(size=3) for _ in range(40)]
    report = analysis.fim_report(lambda theta: np.stack(inputs),
                                 [np.zeros(3), np.ones(3)])
    assert report.d == 3
    assert report.n_theta_samples == 2
    assert report.n_inputs == 40
    assert len(report.eigenvalues) == 3
    assert 0.0 < report.effective_dim <= 3.0
    payload = report.to_dict()
    assert payload["effective_dim"] == report.effective_dim


# ---------------------------------------------------------------------------
# curves


def test_smooth_curve_constant():
    assert analysis.smooth_curve([2.0] * 5, 3) == [2.0] * 5


def test_smooth_curve_window_one_is_identity():
    series = [3.0, -1.0, 4.0]
    assert analysis.smooth_curve(series, 1) == series


def test_smooth_curve_partial_windows():
    assert analysis.smooth_curve([0.0, 10.0], 2) == [0.0, 5.0]
    assert analysis.smooth_curve([3.0, 6.0, 9.0, 12.0], 2) == [3.0, 4.5, 7.5, 10.5]


def test_smooth_curve_rejects_bad_window():
    with pytest.raises(UsageError):
        analysis.smooth_curve([1.0], 0)


def test_auc_examples():
    assert analysis.auc([5.0] * 4) == pytest.approx(15.0)  # c * (E-1)
    assert analysis.auc([0.0, 1.0]) == pytest.approx(0.5)
    with pytest.raises(UsageError):
        analysis.auc([1.0])


def test_auc_linear_in_curve():
    rng = np.random.default_rng(6)
    a = rng.normal(size=10)
    b = rng.normal(size=10)
    assert analysis.auc(2 * a + 3 * b) == pytest.approx(
        2 * analysis.auc(a) + 3 * analysis.auc(b))


def test_aggregate_single_run():
    stats = analysis.aggregate_runs([[1.0, 2.0, 3.0]], smooth_window=1)
    assert stats.n_runs == 1
    assert stats.mean == [1.0, 2.0, 3.0]
    assert stats.std == [0.0, 0.0, 0.0]
    assert stats.auc_std == 0.0


def test_aggregate_identical_runs():
    stats = analysis.aggregate_runs([[1.0, 3.0], [1.0, 3.0]], smooth_window=1)
    assert stats.std == [0.0, 0.0]
    assert stats.auc_mean == pytest.approx(2.0)


def test_aggregate_example_runs():
    stats = analysis.aggregate_runs([[1.0, 1.0], [3.0, 3.0]], smooth_window=1)
    assert stats.mean == [2.0, 2.0]
    assert stats.auc_mean == pytest.approx(2.0)
    assert stats.aucs == [pytest.approx(1.0), pytest.approx(3.0)]


def test_aggregate_truncates_mixed_lengths():
    stats = analysis.aggregate_runs([[1.0, 2.0, 3.0], [1.0, 2.0]], smooth_window=1)
    assert stats.length == 2


def test_aggregate_rejects_empty():
    with pytest.raises(UsageError):
        analysis.aggregate_runs([])
    with pytest.raises(UsageError):
        analysis.aggregate_runs([[1.0]])
