import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, strategies as st

from parasitometrics.errors import InputError
from parasitometrics.stats import alpha_for_specificity, summarize

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestSummarize:
    def test_skewed_sample_one_sided_sigmas(self):
        # {1,2,3,10}: median 2.5; right side {3,10} reflected -> sqrt((0.5^2+7.5^2)/2)
        s = summarize([1, 2, 3, 10])
        assert s.median == 2.5
        assert s.sigma_right == pytest.approx(5.3150729064, abs=1e-9)
        assert s.sigma_left == pytest.approx(1.1180339887, abs=1e-9)

    def test_constant_sample(self):
        s = summarize([5, 5, 5, 5])
        assert s.mean == s.median == 5
        assert s.std == s.sigma_left == s.sigma_right == 0.0

    def test_exact_symmetry(self):
        s = summarize([-1, 0, 1])
        assert s.sigma_left == s.sigma_right

    def test_population_convention(self):
        s = summarize([0.0, 2.0])
        assert s.std == pytest.approx(1.0)  # divide by n, not n-1

    def test_percentile_interpolation(self):
        s = summarize(list(range(0, 101, 10)))  # 0,10,...,100
        assert s.percentile(95) == pytest.approx(95.0)
        assert s.percentile(0) == 0.0
        assert s.percentile(100) == 100.0
        with pytest.raises(InputError, match=r"percentile q=101 outside \[0, 100\]"):
            s.percentile(101)

    def test_errors(self):
        with pytest.raises(InputError, match="summarize requires a non-empty sample"):
            summarize([])
        with pytest.raises(InputError, match="summarize requires all-finite values"):
            summarize([1.0, float("nan")])
        with pytest.raises(InputError, match="summarize requires all-finite values"):
            summarize([1.0, float("inf")])

    @given(st.lists(finite_floats, min_size=1, max_size=50), st.randoms())
    def test_permutation_invariance(self, values, rnd):
        shuffled = values[:]
        rnd.shuffle(shuffled)
        a, b = summarize(values), summarize(shuffled)
        assert a.mean == pytest.approx(b.mean, rel=1e-12, abs=1e-12)
        assert a.median == b.median
        assert a.sigma_left == pytest.approx(b.sigma_left, rel=1e-12, abs=1e-12)
        assert a.sigma_right == pytest.approx(b.sigma_right, rel=1e-12, abs=1e-12)

    @given(
        # integer-valued samples keep the affine map exact in float64, so
        # median ties are preserved and the property holds without slack
        st.lists(st.integers(min_value=-1000, max_value=1000).map(float),
                 min_size=2, max_size=30),
        st.integers(min_value=-10, max_value=10).filter(lambda a: a != 0).map(float),
        st.integers(min_value=-100, max_value=100).map(float),
    )
    def test_affine_equivariance(self, values, a, b):
        base = summarize(values)
        mapped = summarize([a * x + b for x in values])
        tol = dict(rel=1e-9, abs=1e-9)
        assert mapped.mean == pytest.approx(a * base.mean + b, **tol)
        assert mapped.std == pytest.approx(abs(a) * base.std, **tol)
        if a > 0:
            assert mapped.sigma_right == pytest.approx(a * base.sigma_right, **tol)
            assert mapped.sigma_left == pytest.approx(a * base.sigma_left, **tol)
        else:
            # reflection swaps the sides
            assert mapped.sigma_right == pytest.approx(abs(a) * base.sigma_left, **tol)
            assert mapped.sigma_left == pytest.approx(abs(a) * base.sigma_right, **tol)


class TestAlphaForSpecificity:
    def test_known_quantiles(self):
        assert alpha_for_specificity(0.95) == pytest.approx(1.6449, abs=5e-5)
        assert alpha_for_specificity(0.5) == pytest.approx(0.0, abs=1e-12)
        assert alpha_for_specificity(0.975) == pytest.approx(1.9600, abs=5e-5)

    def test_out_of_range(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(InputError,
                               match=rf"^target specificity K={bad} outside \(0, 1\)$"):
                alpha_for_specificity(bad)

    @given(st.floats(min_value=0.01, max_value=0.99))
    def test_antisymmetry(self, k):
        assert alpha_for_specificity(1 - k) == pytest.approx(
            -alpha_for_specificity(k), rel=1e-9, abs=1e-9
        )

    def test_strictly_increasing(self):
        ks = np.linspace(0.01, 0.99, 99)
        alphas = [alpha_for_specificity(k) for k in ks]
        assert all(a < b for a, b in zip(alphas, alphas[1:]))

    # the quantile is read from CPython's private _statistics module, so it must
    # stay the stdlib NormalDist's, bit for bit
    @pytest.mark.parametrize("K", [k for centre in (0.95, 0.5) for k in (
        math.nextafter(centre, 0.0), centre, math.nextafter(centre, 1.0))])
    def test_is_normaldists_inv_cdf_at_the_calibration_targets(self, K):
        assert alpha_for_specificity(K).hex() == NormalDist().inv_cdf(K).hex()

    @given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
    def test_is_normaldists_inv_cdf(self, K):
        assert alpha_for_specificity(K).hex() == NormalDist().inv_cdf(K).hex()

    def test_monte_carlo_coverage(self):
        draws = np.random.default_rng(7).standard_normal(100_000)
        for k in (0.9, 0.95, 0.99):
            frac = np.mean(draws < alpha_for_specificity(k))
            assert abs(frac - k) < 0.01
