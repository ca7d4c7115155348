import numpy as np
import pytest

from parasitometrics.calibration import (
    CalibrationConfig,
    CalibrationMethod,
    OperatingPoint,
    calibrate_threshold,
    default_c_grid,
    estimate_lod,
    fp_scatter,
    tune_operating_point,
)
from parasitometrics.errors import DegenerateDataError, InputError
from parasitometrics.metrics import fpr_distribution, sensitivity_distribution
from parasitometrics.stats import alpha_for_specificity

from conftest import make_cohort, make_dist, make_patient


fdist = sdist = make_dist


class TestCalibrateThreshold:
    def test_gaussian_hand_arithmetic(self):
        # mu=50, sigma=20 (population), K=0.95 -> 50 + 1.6449*20
        F = fdist([30.0, 50.0, 70.0])
        sigma = F.summary.std
        cfg = CalibrationConfig(K=0.95, method=CalibrationMethod.GAUSSIAN)
        t = calibrate_threshold(F, cfg)
        assert t == pytest.approx(50.0 + alpha_for_specificity(0.95) * sigma, abs=1e-12)

    def test_degenerate_sigma_collapses(self):
        F = fdist([40.0, 40.0, 40.0])
        for method in (CalibrationMethod.GAUSSIAN, CalibrationMethod.ROBUST):
            cfg = CalibrationConfig(K=0.99, method=method)
            assert calibrate_threshold(F, cfg) == pytest.approx(40.0)

    def test_percentile_interpolated(self):
        F = fdist([0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100])
        cfg = CalibrationConfig(K=0.95, method=CalibrationMethod.PERCENTILE)
        assert calibrate_threshold(F, cfg) == pytest.approx(95.0)

    def test_scatter_export_sorted(self):
        F = fdist([5.0, 1.0, 3.0])
        values = [v for _, v in fp_scatter(F)]
        assert values == sorted(values)

    def test_insufficient_patients(self):
        F = fdist([5.0])
        with pytest.raises(DegenerateDataError,
                           match="gaussian calibration needs >= 2 patients, got 1"):
            calibrate_threshold(F, CalibrationConfig(method=CalibrationMethod.GAUSSIAN))

    def test_strictly_increasing_in_K(self):
        F = fdist([30.0, 50.0, 70.0])
        ts = [
            calibrate_threshold(F, CalibrationConfig(K=k))
            for k in (0.8, 0.9, 0.95, 0.99)
        ]
        assert all(a < b for a, b in zip(ts, ts[1:]))

    def test_robust_matches_gaussian_on_symmetric_sample(self):
        # exactly symmetric with no point at the median: mean = median and
        # sigma_R = sigma (population); a point sitting exactly on the median
        # would enter both sides and dilute sigma_R
        F = fdist([10.0, 20.0, 40.0, 50.0])
        t_gauss = calibrate_threshold(F, CalibrationConfig(method=CalibrationMethod.GAUSSIAN))
        t_robust = calibrate_threshold(F, CalibrationConfig(method=CalibrationMethod.ROBUST))
        assert t_robust == pytest.approx(t_gauss, abs=1e-9)

    def test_calibration_soundness_monte_carlo(self):
        # 2,000 synthetic negatives, FPR ~ Normal(mu, sigma) truncated at 0:
        # fraction below T should be close to K
        rng = np.random.default_rng(42)
        draws = np.clip(rng.normal(100.0, 30.0, size=2000), 0.0, None)
        F = fdist(draws)
        t = calibrate_threshold(F, CalibrationConfig(K=0.95))
        frac_below = np.mean(draws < t)
        assert abs(frac_below - 0.95) < 0.02


class TestEstimateLod:
    def test_gaussian_hand_arithmetic(self):
        F = fdist([30.0, 50.0, 70.0])
        S = sdist([0.66, 0.66, 0.66])
        est = estimate_lod(F, S, CalibrationConfig())
        assert est.L == pytest.approx(3.3 * F.summary.std / 0.66, abs=1e-12)

    def test_plus_one_degenerate(self):
        F = fdist([10.0, 10.0])
        S = sdist([1.0, 1.0])
        est = estimate_lod(F, S, CalibrationConfig(plus_one=True))
        assert est.L == pytest.approx(1.0)

    def test_percentile_config_gets_the_gaussian_lod_and_its_label(self):
        # the LoD has no percentile formula; the tuner's percentile sweep reads this one
        F = fdist([30.0, 50.0, 70.0])
        S = sdist([0.5, 0.66, 0.8])
        est = estimate_lod(F, S, CalibrationConfig(method=CalibrationMethod.PERCENTILE))
        assert est == estimate_lod(F, S, CalibrationConfig(method=CalibrationMethod.GAUSSIAN))
        assert est.method is CalibrationMethod.GAUSSIAN

    def test_robust_formula(self):
        # sigma_L=5, sigma_R=20, median(S)=0.5 -> 1.65*25/0.5 = 82.5
        F = fdist([1.0, 2.0, 3.0, 10.0])
        S = sdist([0.5, 0.5, 0.5])
        est = estimate_lod(F, S, CalibrationConfig(method=CalibrationMethod.ROBUST))
        expected = 1.65 * (F.summary.sigma_left + F.summary.sigma_right) / 0.5
        assert est.L == pytest.approx(expected, abs=1e-12)

    def test_pessimistic_beta(self):
        F = fdist([30.0, 50.0, 70.0])
        S = sdist([0.5, 0.7, 0.9])
        plain = estimate_lod(F, S, CalibrationConfig())
        pessimistic = estimate_lod(F, S, CalibrationConfig(beta=1.0))
        assert pessimistic.L > plain.L
        with pytest.raises(DegenerateDataError, match=r"^LoD denominator .* <= 0$"):
            estimate_lod(F, S, CalibrationConfig(beta=100.0))

    def test_scale_equivariance(self):
        rng = np.random.default_rng(5)
        f_vals = rng.uniform(10, 100, size=9)
        s_vals = rng.uniform(0.3, 0.9, size=7)
        base = estimate_lod(fdist(f_vals), sdist(s_vals), CalibrationConfig())
        scaled_f = estimate_lod(fdist(3.0 * f_vals), sdist(s_vals), CalibrationConfig())
        assert scaled_f.L == pytest.approx(3.0 * base.L, rel=1e-12)
        scaled_s = estimate_lod(fdist(f_vals), sdist(0.5 * s_vals), CalibrationConfig())
        assert scaled_s.L == pytest.approx(base.L / 0.5, rel=1e-12)

    def test_monotone_in_mu_S(self):
        F = fdist([30.0, 50.0, 70.0])
        lods = [
            estimate_lod(F, sdist([mu] * 3), CalibrationConfig()).L
            for mu in (0.4, 0.6, 0.8, 1.0)
        ]
        assert all(a >= b for a, b in zip(lods, lods[1:]))


def breakeven_residual(L, F, S, z=1.65):
    """The LoD derivation's breakeven condition at K = 0.95: a clean positive
    sample (5th-percentile FPR) at the LoD just reaches the threshold,
    L*mu(S) + mu(F) - z*sigma(F) = mu(F) + z*sigma(F)."""
    f, s = F.summary, S.summary
    return (L * s.mean + f.mean - z * f.std) - (f.mean + z * f.std)


class TestBreakevenCheck:
    def test_identity_at_lod(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            F = fdist(rng.uniform(0, 300, size=rng.integers(2, 12)))
            S = sdist(rng.uniform(0.05, 1.0, size=rng.integers(1, 12)))
            L = estimate_lod(F, S, CalibrationConfig()).L
            assert abs(breakeven_residual(L, F, S)) < 1e-12 * (1.0 + F.summary.mean)

    def test_doubled_lod_residual(self):
        F, S = fdist([30.0, 50.0, 70.0]), sdist([0.7, 0.8, 0.9])
        L = estimate_lod(F, S, CalibrationConfig()).L
        assert breakeven_residual(2 * L, F, S) == pytest.approx(L * 0.8, abs=1e-12)

    def test_clean_sample_limit(self):
        F, S = fdist([10.0, 10.0, 10.0]), sdist([0.5, 0.5])
        L = estimate_lod(F, S, CalibrationConfig()).L
        assert L == 0.0
        assert breakeven_residual(L, F, S) == 0.0


def _tuning_fixture():
    """Cohorts where higher C trades FP spread against sensitivity.

    Negative FP scores are spread so that raising C shrinks sigma(F), while
    positives lose parasites at high C, giving an interior LoD minimum.
    """
    rng = np.random.default_rng(99)
    negatives = []
    for i in range(12):
        n_hi = int(rng.integers(0, 10))
        n_lo = int(rng.integers(10, 40))
        scores = tuple(rng.uniform(0.6, 1.0, n_hi)) + tuple(rng.uniform(0.0, 0.6, n_lo))
        negatives.append(make_patient(f"n{i}", distractor_scores=scores))
    positives = []
    for i in range(8):
        n = int(rng.integers(20, 60))
        scores = tuple(rng.beta(4, 2, n))
        positives.append(
            make_patient(f"p{i}", positive=True, parasitemia=float(n),
                         parasite_scores=scores)
        )
    return make_cohort(*positives), make_cohort(*negatives)


class TestTuner:
    def test_single_candidate_passthrough(self):
        train_pos, val_neg = _tuning_fixture()
        best, table, _ = tune_operating_point(train_pos, val_neg, None, [0.4])
        assert best.C == 0.4
        assert len(table) == 1
        assert best.T == table[0].T

    def test_matches_exhaustive_oracle(self):
        train_pos, val_neg = _tuning_fixture()
        grid = [i / 50.0 for i in range(51)]
        cfg = CalibrationConfig(K=0.95)
        best, table, _ = tune_operating_point(train_pos, val_neg, None, grid, cfg)

        # independent exhaustive evaluation of the same grid
        oracle_best = None
        for c in grid:
            try:
                F = fpr_distribution(val_neg, c)
                S = sensitivity_distribution(train_pos, c)
                t = calibrate_threshold(F, cfg)
                lod = estimate_lod(F, S, cfg).L
            except Exception:
                continue
            if (
                oracle_best is None
                or lod < oracle_best[2]
                or (lod == oracle_best[2] and c > oracle_best[0])
            ):
                oracle_best = (c, t, lod)
        assert best.C == oracle_best[0]
        assert best.T == oracle_best[1]

    def test_tie_breaks_toward_larger_C(self):
        # two identical-score populations: C in {0.1, 0.2} see identical counts
        neg = make_cohort(
            make_patient("n1", distractor_scores=(0.5, 0.5, 0.5)),
            make_patient("n2", distractor_scores=(0.5,)),
        )
        pos = make_cohort(
            make_patient("p1", positive=True, parasite_scores=(0.9, 0.8)),
            make_patient("p2", positive=True, parasite_scores=(0.7,)),
        )
        best, _, _ = tune_operating_point(pos, neg, None, [0.1, 0.2])
        assert best.C == 0.2

    def test_validation_positives_preferred(self):
        train_pos, val_neg = _tuning_fixture()
        val_pos = make_cohort(
            make_patient("vp1", positive=True, parasite_scores=(0.9,) * 10),
            make_patient("vp2", positive=True, parasite_scores=(0.9,) * 10),
        )
        _, table, _ = tune_operating_point(train_pos, val_neg, val_pos, [0.5])
        assert table[0].mu_S == pytest.approx(1.0)

    def test_empty_grid(self):
        train_pos, val_neg = _tuning_fixture()
        with pytest.raises(InputError, match="C_grid must be non-empty"):
            tune_operating_point(train_pos, val_neg, None, [])


def test_default_c_grid_includes_observed_scores():
    cohort = make_cohort(
        make_patient("p", positive=True, parasite_scores=(0.123, 0.456))
    )
    grid = default_c_grid(cohort)
    assert 0.123 in grid and 0.456 in grid
    assert 0.0 in grid and 1.0 in grid
    assert grid == sorted(grid)


def test_operating_point_validation():
    with pytest.raises(InputError, match=r"C=1.2 outside \[0, 1\]"):
        OperatingPoint(C=1.2, T=0.0)
    with pytest.raises(InputError, match="T=-1.0 must be finite and >= 0"):
        OperatingPoint(C=0.5, T=-1.0)


@pytest.mark.parametrize("K", [0.5, 0.3, 0.05, 1e-300])
def test_specificity_target_at_or_below_half_is_input_error(K):
    # alpha(K) <= 0 there, so every LoD is <= 0 and a calibrated T can be < 0;
    # the normal quantile itself keeps its (0, 1) domain
    assert alpha_for_specificity(K) <= 0
    for method in CalibrationMethod:
        with pytest.raises(InputError) as err:
            CalibrationConfig(K=K, method=method)
        assert str(err.value) == (f"target specificity K={K} must be above 0.5: at or below "
                                  "it, the normal quantile of K and every LoD are <= 0")
    cfg = CalibrationConfig(K=0.5000001)
    assert estimate_lod(fdist([1.0, 3.0]), sdist([0.5, 0.7]), cfg).L > 0
    with pytest.raises(InputError, match=r"K=1.5 outside \(0, 1\)"):
        CalibrationConfig(K=1.5)
