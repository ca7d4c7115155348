import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import poisson as scipy_poisson

from parasitometrics.errors import InputError
from parasitometrics.poisson import (
    MAX_EXPECTED_COUNT,
    count_pmf,
    min_volume_for_detection,
)


class TestCountPmf:
    def test_matches_scipy(self):
        pmf = dict(count_pmf(120.0, 0.5))
        for k in range(0, 101, 10):
            assert pmf[k] == pytest.approx(scipy_poisson.pmf(k, 60.0), rel=1e-9)

    def test_zero_count_probabilities(self):
        # P = 100/cV across three examined volumes; P(0) = e^{-P*V}
        for v, expected, tol in [
            (0.001, 0.90484, 1e-5),
            (0.01, 0.36788, 1e-5),
            (0.05, 6.7379e-3, 1e-7),
        ]:
            pmf = dict(count_pmf(100.0, v))
            assert pmf[0] == pytest.approx(expected, abs=tol)

    def test_zero_parasitemia(self):
        assert count_pmf(0.0, 1.0) == [(0, 1.0)]

    def test_default_k_max_normalizes(self):
        total = sum(p for _, p in count_pmf(200.0, 1.0))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_mean_matches_rate(self):
        lam = 37.5
        mean = sum(k * p for k, p in count_pmf(75.0, 0.5))
        assert mean == pytest.approx(lam, abs=1e-6 * lam)

    def test_starts_at_first_nonzero_probability(self):
        # e^-1000 underflows to 0.0, and so does every term below k = 71
        def prob(k):
            return math.exp(k * math.log(1000.0) - 1000.0 - math.lgamma(k + 1))

        pmf = count_pmf(1000.0, 1.0)
        assert prob(70) == 0.0
        assert pmf == [(k, prob(k)) for k in range(71, 1196)]

    def test_ends_where_log_space_rounding_keeps_the_sum_short(self):
        # the cumulative of this pmf never reaches 1 - 1e-9: the walk stops
        # where the probabilities past the mode underflow
        lam = 878819.8857753363
        pmf = count_pmf(lam, 1.0)
        assert pmf[-1][0] > lam
        assert all(p > 0.0 for _, p in pmf)

    def test_rejects_expected_count_above_limit(self):
        assert count_pmf(MAX_EXPECTED_COUNT, 1.0)
        with pytest.raises(InputError, match=r"expected count P\*V=1500000.0 must be <= 1e\+06"):
            count_pmf(MAX_EXPECTED_COUNT, 1.5)
        with pytest.raises(InputError, match=r"expected count P\*V=inf must be <= 1e\+06"):
            count_pmf(1e300, 1e300)

    def test_rejects_negative_inputs(self):
        with pytest.raises(InputError, match="parasitemia P=-1.0 must be finite and >= 0"):
            count_pmf(-1.0, 1.0)
        with pytest.raises(InputError, match="volume V=0.0 must be finite and > 0"):
            count_pmf(10.0, 0.0)

    @given(
        p=st.floats(min_value=0.1, max_value=500.0),
        v=st.floats(min_value=0.01, max_value=5.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_pmf_is_distribution(self, p, v):
        pmf = count_pmf(p, v)
        probs = [q for _, q in pmf]
        assert all(q >= 0 for q in probs)
        assert sum(probs) == pytest.approx(1.0, abs=1e-9)


class TestPoissonCurve:
    def test_zero_count_shrinks_with_volume(self):
        volumes = [0.01, 0.05, 0.1, 0.5, 1.0]
        zero_probs = [dict(count_pmf(100.0, v))[0] for v in volumes]
        assert zero_probs == sorted(zero_probs, reverse=True)


class TestMinVolume:
    def test_log2_detection_example(self):
        # P(at least 1) = 0.5 at lambda = ln 2
        v = min_volume_for_detection(100.0, k_min=1, confidence=0.5)
        assert v == pytest.approx(math.log(2) / 100.0, rel=1e-5)

    def test_single_count_95(self):
        # lambda = 3 gives P(>=1) = 1 - e^{-3} ~ 0.9502
        v = min_volume_for_detection(100.0, k_min=1, confidence=1 - math.exp(-3))
        assert v == pytest.approx(0.03, rel=1e-5)

    def test_two_count_example(self):
        v = min_volume_for_detection(100.0, k_min=2, confidence=0.95)
        assert scipy_poisson.sf(1, 100.0 * v) == pytest.approx(0.95, abs=1e-4)
        # tighter volumes must fail the confidence target
        assert scipy_poisson.sf(1, 100.0 * v * 0.99) < 0.95

    @given(
        p=st.floats(min_value=1.0, max_value=1e4),
        k=st.integers(min_value=1, max_value=10),
        conf=st.floats(min_value=0.5, max_value=0.999),
    )
    @settings(max_examples=40, deadline=None)
    def test_volume_achieves_confidence(self, p, k, conf):
        v = min_volume_for_detection(p, k_min=k, confidence=conf)
        assert scipy_poisson.sf(k - 1, p * v) >= conf - 1e-4

    def test_scale_invariance(self):
        # doubling parasitemia halves the required volume
        v1 = min_volume_for_detection(50.0, k_min=1, confidence=0.9)
        v2 = min_volume_for_detection(100.0, k_min=1, confidence=0.9)
        assert v1 == pytest.approx(2 * v2, rel=1e-5)

    def test_rejects_bad_inputs(self):
        with pytest.raises(InputError, match="parasitemia P=0.0 must be finite and > 0"):
            min_volume_for_detection(0.0, k_min=1, confidence=0.9)
        with pytest.raises(InputError, match="k_min must be >= 1"):
            min_volume_for_detection(100.0, k_min=0, confidence=0.9)
        with pytest.raises(InputError, match=r"confidence=1.0 must be in \(0, 1\)"):
            min_volume_for_detection(100.0, k_min=1, confidence=1.0)


class TestRelativeError:
    def test_monte_carlo_cv(self):
        # empirical CV of Poisson counts vs the floor 1/sqrt(P*V), P = 25, V = 1
        rng = np.random.default_rng(11)
        counts = rng.poisson(25.0 * 1.0, 200_000)
        cv = counts.std() / counts.mean()
        predicted = 1.0 / math.sqrt(25.0 * 1.0)
        assert abs(cv - predicted) / predicted < 0.05
