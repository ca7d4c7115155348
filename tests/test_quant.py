
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from parasitometrics.calibration import OperatingPoint
from parasitometrics.errors import DegenerateDataError, InputError
from parasitometrics.quant import (
    CONSTANT_X_NOTE,
    ExpectedRates,
    _r2,
    estimate_parasitemia,
    quant_fom,
    quant_report,
)

from conftest import make_cohort, make_dist, make_patient


class TestEstimateParasitemia:
    def test_hand_arithmetic(self):
        est = estimate_parasitemia(60, 0.05, ExpectedRates(F_hat=100.0, S_hat=0.8))
        assert est.P_hat == pytest.approx(1375.0)
        assert not est.negative_clamped

    def test_pure_noise_sample(self):
        est = estimate_parasitemia(100, 1.0, ExpectedRates(F_hat=100.0, S_hat=0.5))
        assert est.P_hat == 0.0
        assert not est.negative_clamped

    def test_oracle_detector_identity(self):
        est = estimate_parasitemia(42, 2.0, ExpectedRates(F_hat=0.0, S_hat=1.0))
        assert est.P_hat == pytest.approx(21.0)

    def test_negative_clamps_with_flag(self):
        est = estimate_parasitemia(0, 1.0, ExpectedRates(F_hat=50.0, S_hat=0.8))
        assert est.P_hat == 0.0
        assert est.negative_clamped

    def test_invalid_rates(self):
        with pytest.raises(InputError, match="F_hat=-1.0 must be finite and >= 0"):
            ExpectedRates(F_hat=-1.0, S_hat=0.5)
        with pytest.raises(InputError, match=r"S_hat=0.0 must be in \(0, 1\]"):
            ExpectedRates(F_hat=0.0, S_hat=0.0)

    def test_forward_model_inverse(self):
        # plugging E[n] = (P*S + F)*V back in recovers P exactly
        rng = np.random.default_rng(23)
        for _ in range(50):
            p = rng.uniform(1, 1e5)
            s = rng.uniform(0.05, 1.0)
            f = rng.uniform(0, 500)
            v = rng.uniform(0.01, 10)
            n = (p * s + f) * v
            est = (n / v - f) / s
            assert est == pytest.approx(p, rel=1e-9)


class TestQuantFom:
    def test_hand_arithmetic(self):
        S = make_dist([0.7, 0.8, 0.9])
        F = make_dist([30.0, 50.0, 70.0])
        sigma_s, sigma_f = S.summary.std, F.summary.std
        expected = sigma_s / 0.8 + sigma_f / (0.8 * 1000.0)
        assert quant_fom(S, F, 1000.0) == pytest.approx(expected, abs=1e-12)

    def test_consistent_detector_zero(self):
        S = make_dist([0.8, 0.8])
        F = make_dist([50.0, 50.0])
        assert quant_fom(S, F, 100.0) == 0.0

    def test_sensitivity_term_dominates_at_large_P(self):
        S = make_dist([0.7, 0.9])
        F = make_dist([30.0, 70.0])
        limit = S.summary.std / S.summary.mean
        assert quant_fom(S, F, 1e9) == pytest.approx(limit, rel=1e-6)

    def test_nonpositive_parasitemia(self):
        S = make_dist([0.8, 0.8])
        F = make_dist([50.0, 50.0])
        with pytest.raises(InputError, match="P=0.0 must be > 0"):
            quant_fom(S, F, 0.0)


class TestQuantReport:
    def _perfect_cohort(self):
        patients = []
        for i, p_true in enumerate((100.0, 1000.0, 10000.0)):
            n = int(p_true)  # V = 1, all parasites detected, no FPs
            patients.append(
                make_patient(f"p{i}", positive=True, parasitemia=p_true,
                             parasite_scores=(0.9,) * n)
            )
        return make_cohort(*patients)

    def test_perfect_detector(self):
        cohort = self._perfect_cohort()
        result = quant_report(
            cohort, OperatingPoint(C=0.5, T=1.0), ExpectedRates(F_hat=0.0, S_hat=1.0)
        )
        for p_hat, p_true, rel in result.per_patient.values():
            assert rel == 0.0
            assert p_hat == p_true
        assert result.r2_linear == pytest.approx(1.0)
        assert result.r2_log == pytest.approx(1.0)
        assert all(diff == 0.0 for _, diff in result.bland_altman)

    def test_linear_r2_illusion(self):
        # 30% relative error on the two small patients, 0% on the large one:
        # linear R^2 stays near 1 while log R^2 drops visibly
        pts = []
        for i, (p_true, p_hat) in enumerate(
            [(100.0, 50.0), (150.0, 300.0), (200.0, 100.0),
             (250.0, 500.0), (50_000.0, 50_000.0)]
        ):
            pts.append(
                make_patient(f"p{i}", positive=True, parasitemia=p_true,
                             parasite_scores=(0.9,) * int(p_hat))
            )
        cohort = make_cohort(*pts)
        result = quant_report(
            cohort, OperatingPoint(C=0.5, T=1.0), ExpectedRates(F_hat=0.0, S_hat=1.0)
        )
        assert result.r2_linear > 0.99
        assert result.r2_log < result.r2_linear - 0.005

    def test_bland_altman_zero_iff_exact(self):
        cohort = self._perfect_cohort()
        result = quant_report(
            cohort, OperatingPoint(C=0.5, T=1.0), ExpectedRates(F_hat=0.0, S_hat=1.0)
        )
        assert all(d == 0.0 for _, d in result.bland_altman)
        biased = quant_report(
            cohort, OperatingPoint(C=0.5, T=1.0), ExpectedRates(F_hat=0.0, S_hat=0.5)
        )
        assert all(d != 0.0 for _, d in biased.bland_altman)

    def test_insufficient_positives(self):
        cohort = make_cohort(
            make_patient("p0", positive=True, parasite_scores=(0.9,))
        )
        with pytest.raises(DegenerateDataError,
                           match="quantitation report needs >= 2 positive patients"):
            quant_report(
                cohort, OperatingPoint(C=0.5, T=1.0),
                ExpectedRates(F_hat=0.0, S_hat=1.0),
            )

    def test_monte_carlo_fom_prediction(self):
        # empirical std of relative error vs the figure-of-merit prediction
        rng = np.random.default_rng(8)
        mu_s, sigma_s, mu_f, sigma_f = 0.8, 0.1, 100.0, 20.0
        n = 20_000
        # the figure of merit adds the two error terms linearly (worst case),
        # so drive both with a shared perturbation; independent draws would
        # combine in quadrature and undershoot the bound at small P
        z = rng.normal(0.0, 1.0, n)
        s = mu_s + sigma_s * z
        f = mu_f + sigma_f * z
        for p_true in (200.0, 2000.0, 20000.0):
            n_alleged = (s * p_true + f)  # V = 1, expectation (no Poisson noise)
            p_hat = (n_alleged - mu_f) / mu_s
            rel = (p_hat - p_true) / p_true
            predicted = sigma_s / mu_s + sigma_f / (mu_s * p_true)
            assert abs(np.std(rel) - predicted) / predicted < 0.25


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([1.0, 80.0, 200.0]) | st.floats(1e-3, 1e6),
                min_size=2, max_size=12))
@example([1.0, 1.0])
@example([80.0, 80.0, 80.0])
def test_fom_is_taken_at_the_np_median_parasitemia(parasitemias):
    cohort = make_cohort(*(
        make_patient(f"pt{i:02d}", positive=True, parasitemia=p, parasite_scores=(0.9,))
        for i, p in enumerate(parasitemias)))
    S = make_dist([0.7, 0.8, 0.9])
    F = make_dist([10.0, 20.0, 60.0])
    with warnings.catch_warnings():  # near-equal parasitemias make the R^2 fits ill-conditioned
        warnings.simplefilter("ignore")
        result = quant_report(cohort, OperatingPoint(C=0.5, T=0.0),
                              ExpectedRates(F_hat=0.0, S_hat=1.0), (S, F))
    assert repr(result.fom) == repr(quant_fom(S, F, float(np.median(parasitemias))))
    # R^2 is undefined, and reported as None with a note, only without spread in x
    if len(set(parasitemias)) == 1:
        assert result.r2_linear is None and result.r2_log is None
    else:
        assert result.r2_linear is not None
    assert (CONSTANT_X_NOTE in result.notes) == (result.r2_log is None)


def test_r2_of_a_huge_x_is_exact_without_warnings():
    # np.polyfit on the unscaled x squares 1e200, warns twice and gives 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _r2(np.array([1.0, 1e200]), np.array([1.0, 2.0])) == 1.0


def reference_r2(x: np.ndarray, y: np.ndarray) -> float | None:
    """``quant._r2`` before it scaled x and y, exact while x * x stays finite."""
    if not x.min() < x.max():
        return None
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return 1.0 - ss_res / ss_tot


@settings(max_examples=500, deadline=None)
@given(st.lists(st.tuples(st.floats(1e-3, 1e150), st.floats(1e-3, 1e150)),
                min_size=2, max_size=20))
@example([(1.0, 1.0), (2.0, 2.0)])
@example([(1e-3, 1e150), (1e150, 1e-3), (1.0, 1.0)])
def test_r2_matches_the_unscaled_fit_oracle(pairs):
    x, y = (np.array(column) for column in zip(*pairs))
    with warnings.catch_warnings():  # near-equal x make both fits ill-conditioned alike
        warnings.simplefilter("ignore")
        assert repr(_r2(x, y)) == repr(reference_r2(x, y))
