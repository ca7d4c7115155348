"""Acceptance gate: every headline guarantee of the library, one test each.

Each test prints a single PASS line on success (run with ``pytest -s`` to see
them inline); a failing criterion shows up as a normal pytest failure.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

from parasitometrics import reproduce
from parasitometrics.calibration import (
    CalibrationConfig,
    CalibrationMethod,
    OperatingPoint,
    calibrate_threshold,
    estimate_lod,
    tune_operating_point,
)
from parasitometrics.cli import main as cli_main
from parasitometrics.curves import (
    easy_distractor_experiment,
    object_roc,
    precision_with_reexpression,
)
from parasitometrics.metrics import (
    fpr_distribution,
    patient_level_sens_spec,
    pooled_object_sensitivity,
    sensitivity_distribution,
)
from parasitometrics.poisson import count_pmf, min_volume_for_detection
from parasitometrics.quant import quant_fom
from parasitometrics.reproduce import run_all
from parasitometrics.simulator import (
    Fixed,
    SimConfig,
    TruncatedNormal,
    generate_cohort,
    paper_worked_examples,
)
from parasitometrics.stats import alpha_for_specificity, summarize

from conftest import make_cohort, make_dist, make_patient, object_rows
from test_count_oracle import loop_patient_counts


def _report(n: int, name: str, detail: str) -> None:
    print(f"PASS  criterion {n:02d} ({name}): {detail}")


def _example(name: str) -> dict:
    return paper_worked_examples()[name]


def test_criterion_01_pooled_vs_patient_level_sensitivity():
    start = time.perf_counter()
    ex = _example("patient-level")
    cohort, C, T = ex["cohort"], ex["C"], ex["T"]

    pooled = pooled_object_sensitivity(cohort, C).value
    assert pooled == pytest.approx(50_000 / 50_900, abs=1e-9)

    strat = patient_level_sens_spec(cohort, OperatingPoint(C=C, T=T))
    assert strat.overall == 0.25

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, "pooled vs patient-level sensitivity",
            f"pooled={pooled:.6f}, patient-level={strat.overall}, {elapsed:.2f}s")


def test_criterion_02_precision_reexpression():
    ex = _example("precision")
    rep = precision_with_reexpression(
        ex["cohort"], C=ex["C"], lod_parasitemia=ex["lod_parasitemia"]
    )
    assert rep.precision == pytest.approx(0.9901, abs=1e-4)
    assert rep.precision_at_lod == pytest.approx(0.5, abs=1e-9)
    _report(2, "precision re-expression at LoD",
            f"precision={rep.precision:.6f}, at LoD={rep.precision_at_lod:.6f}")


def test_criterion_03_auc_imbalance_coexistence():
    ex = _example("auc-imbalance")
    roc = object_roc(ex["cohort"])
    assert roc.auc >= 0.999

    # FP count at the lowest threshold that keeps every parasite detected
    C_full = ex["full_sensitivity_threshold"]
    patient = ex["cohort"].patients[0]
    fp_at_full = sum(
        1 for _, score, parasite in object_rows(patient)
        if not parasite and score >= C_full
    )
    assert fp_at_full == 50
    _report(3, "AUC/imbalance coexistence",
            f"AUC={roc.auc:.6f} with {fp_at_full} FPs per parasite")


def test_criterion_04_easy_distractor_inflation():
    cohort = make_cohort(
        make_patient("neg1", positive=False,
                     distractor_scores=(0.55, 0.6, 0.7, 0.3, 0.2)),
        make_patient("pos1", positive=True, parasitemia=400.0,
                     parasite_scores=(0.9, 0.8, 0.65, 0.4),
                     distractor_scores=(0.75, 0.5)),
    )
    n_real_objects = sum(len(list(object_rows(p))) for p in cohort.patients)  # 11
    n_real_distractors = sum(len(p.distractor_scores) for p in cohort.patients)  # 7
    n_easy_per_patient = 10 * n_real_objects // len(cohort.patients)
    total_easy = n_easy_per_patient * len(cohort.patients)  # 10x real objects

    before, after, froc_unchanged = easy_distractor_experiment(
        cohort, n_easy=n_easy_per_patient, easy_score_max=0.1
    )
    assert after > before  # strictly inflated
    closed_form = 1.0 - (1.0 - before) * n_real_distractors / (
        n_real_distractors + total_easy
    )
    assert after == pytest.approx(closed_form, abs=1e-9)
    assert froc_unchanged
    _report(4, "easy distractors inflate AUC but not FROC",
            f"AUC {before:.4f} -> {after:.4f}, FROC grid bit-identical")


def test_criterion_05_calibration_soundness():
    start = time.perf_counter()
    C = 0.5
    cohort = generate_cohort(SimConfig(
        seed=20260826, n_negative=2_000, n_positive=0,
        examined_volume=1.0, fpr_dist=TruncatedNormal(50.0, 20.0),
    ))
    F = fpr_distribution(cohort, C)
    T = calibrate_threshold(F, CalibrationConfig(K=0.95))

    healthy = sum(
        1 for p in cohort.patients if sum(loop_patient_counts(p, C)[4:]) < T
    )
    specificity = healthy / len(cohort.patients)
    assert 0.93 <= specificity <= 0.97

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(5, "specificity-targeted calibration",
            f"empirical specificity {specificity:.4f} at K=0.95, {elapsed:.2f}s")


def test_criterion_06_lod_algebraic_identities():
    # breakeven at K = 0.95: a clean positive sample (5th-percentile FPR) at
    # the LoD just reaches T, L*mu(S) + mu(F) - 1.65*sigma(F) = mu(F) + 1.65*sigma(F)
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(100):
        F = make_dist(rng.uniform(1.0, 500.0, size=rng.integers(2, 20)))
        S = make_dist(rng.uniform(0.05, 1.0, size=rng.integers(1, 20)))
        L = estimate_lod(F, S, CalibrationConfig()).L
        f, s = F.summary, S.summary
        residual = (L * s.mean + f.mean - 1.65 * f.std) - (f.mean + 1.65 * f.std)
        worst = max(worst, abs(residual))
    assert worst <= 1e-12 * 3.3 * 100.0  # residual 0 up to float rounding

    # scale equivariance: scaling the FP distribution by c scales L by c
    S = make_dist([0.7, 0.8, 0.9])
    values = [12.0, 30.0, 45.0, 80.0]
    base = estimate_lod(make_dist(values), S, CalibrationConfig())
    for c in (0.25, 3.0, 117.0):
        scaled = estimate_lod(
            make_dist([c * v for v in values]), S,
            CalibrationConfig(),
        )
        assert scaled.L == pytest.approx(c * base.L, rel=1e-12)
    _report(6, "LoD identities",
            f"breakeven residual <= {worst:.2e}; scale equivariance to 1e-12")


def test_reproduced_breakeven_check_reads_the_library_lod(monkeypatch):
    # an LoD off by one part in a million breaks the breakeven identity
    def drifted(F, S, cfg):
        lod = estimate_lod(F, S, cfg)
        return replace(lod, L=lod.L * (1 + 1e-6))

    monkeypatch.setattr(reproduce, "estimate_lod", drifted)
    checks = {c.name: c for c in reproduce.run_all()}
    assert not checks["lod_breakeven_identity"].passed


def test_criterion_07_lod_empirical_meaning():
    start = time.perf_counter()
    C, s_fixed = 0.5, 0.95
    fpr_spec = TruncatedNormal(50.0, 20.0)

    negatives = generate_cohort(SimConfig(
        seed=701, n_negative=1_000, n_positive=0, fpr_dist=fpr_spec,
    ))
    F = fpr_distribution(negatives, C)
    T = calibrate_threshold(F, CalibrationConfig(K=0.95))
    S = make_dist([s_fixed, s_fixed])
    L = estimate_lod(F, S, CalibrationConfig()).L

    positives = generate_cohort(SimConfig(
        seed=702, n_negative=0, n_positive=2_000, fpr_dist=fpr_spec,
        parasitemia_dist=Fixed(L), patient_sensitivity_dist=Fixed(s_fixed),
    ))
    sens_at_L = patient_level_sens_spec(positives, OperatingPoint(C=C, T=T)).overall
    assert sens_at_L >= 0.80

    # P95: parasitemia where patient-level sensitivity hits 0.95, from a fast
    # count-level Monte Carlo of the same generative model
    def emp_sens(P: float, rng) -> float:
        n = 20_000
        tp = rng.binomial(rng.poisson(P, n), s_fixed)
        fp = rng.poisson(np.maximum(rng.normal(50.0, 20.0, n), 0.0))
        return float(np.mean(tp + fp >= T))

    rng = np.random.default_rng(703)
    lo, hi = L / 4, L * 10
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        if emp_sens(mid, rng) >= 0.95:
            hi = mid
        else:
            lo = mid
    p95 = 0.5 * (lo + hi)

    gap = p95 - L
    assert L <= p95 * 1.1  # optimistic or near-exact, direction only

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(7, "LoD empirical meaning",
            f"L={L:.1f}/cV, sens(L)={sens_at_L:.3f}, P95~{p95:.1f} "
            f"(optimism gap {gap:+.1f}/cV), {elapsed:.1f}s")


@pytest.mark.parametrize("K", [0.90, 0.95, 0.99])
def test_lod_is_detected_with_sensitivity_K_at_specificity_K(K):
    # criterion 07's cohorts, with T and the LoD both set for specificity K:
    # positives at P = L reach T with probability K (CLSI EP17-A2, alpha = beta)
    C, s_fixed = 0.5, 0.95
    fpr_spec = TruncatedNormal(50.0, 20.0)
    cfg = CalibrationConfig(K=K)
    negatives = generate_cohort(SimConfig(
        seed=701, n_negative=1_000, n_positive=0, fpr_dist=fpr_spec,
    ))
    F = fpr_distribution(negatives, C)
    T = calibrate_threshold(F, cfg)
    S = make_dist([s_fixed, s_fixed])
    L = estimate_lod(F, S, cfg).L

    positives = generate_cohort(SimConfig(
        seed=702, n_negative=0, n_positive=2_000, fpr_dist=fpr_spec,
        parasitemia_dist=Fixed(L), patient_sensitivity_dist=Fixed(s_fixed),
    ))
    sens_at_L = patient_level_sens_spec(positives, OperatingPoint(C=C, T=T)).overall
    assert abs(sens_at_L - K) <= 0.03, sens_at_L


def test_criterion_08_tuner_matches_exhaustive_sweep():
    # hand-built cohorts: one negative with distractor scores stepping at
    # every grid point near the optimum (so the LoD changes at each step) and
    # score-1.0 anchors keeping sigma(F) > 0 across the whole grid
    val_neg = make_cohort(
        make_patient("negA", positive=False,
                     distractor_scores=(0.1, 0.2, 0.3, 0.4)
                     + tuple(0.455 + 0.01 * k for k in range(10)) + (1.0, 1.0)),
        make_patient("negB", positive=False, distractor_scores=(1.0,)),
    )
    train = make_cohort(
        make_patient("pos1", positive=True, parasitemia=100.0,
                     parasite_scores=tuple(0.505 + 0.01 * j for j in range(19))
                     + (1.0,)),
        make_patient("pos2", positive=True, parasitemia=150.0,
                     parasite_scores=tuple(0.508 + 0.01 * j for j in range(19))
                     + (1.0,)),
    )
    grid = [i / 100 for i in range(101)]

    # independent exhaustive sweep straight from the formulas
    oracle = []
    for c in grid:
        F = fpr_distribution(val_neg, c)
        S = sensitivity_distribution(train, c)
        if S.summary.mean <= 0:
            continue
        lod = 3.3 * F.summary.std / S.summary.mean
        t = F.summary.mean + alpha_for_specificity(0.95) * F.summary.std
        oracle.append((lod, c, t))
    lods = [row[0] for row in oracle]
    assert lods.count(min(lods)) == 1  # unique minimizer
    _, best_c, best_t = min(oracle)

    op, _, _ = tune_operating_point(
        train, val_neg, None, grid, CalibrationConfig(K=0.95)
    )
    assert op.C == best_c
    assert op.T == best_t
    _report(8, "operating-point tuner oracle",
            f"unique minimum at C={best_c}, T={best_t:.4f}, matched exactly")


def test_criterion_09_quantitation_error_monte_carlo():
    start = time.perf_counter()
    mu_s, sigma_s, mu_f, sigma_f = 0.8, 0.1, 100.0, 20.0
    rng = np.random.default_rng(9)
    n = 50_000
    details = []
    for p_true, predicted in [(200.0, 0.250), (2000.0, 0.138), (20000.0, 0.126)]:
        # figure-of-merit prediction, from the library
        S = make_dist(list(rng.normal(mu_s, sigma_s, 2000)))
        F = make_dist(list(rng.normal(mu_f, sigma_f, 2000)))
        fom = quant_fom(S, F, p_true)
        assert fom == pytest.approx(predicted, abs=5e-3)

        # full forward model: per-patient (s, f), Poisson object counts,
        # estimate inverted with the assumed population rates
        s = np.clip(rng.normal(mu_s, sigma_s, n), 1e-6, 1.0)
        f = np.maximum(rng.normal(mu_f, sigma_f, n), 0.0)
        counts = rng.poisson(s * p_true + f)
        p_hat = (counts - mu_f) / mu_s
        rel_std = float(np.std((p_hat - p_true) / p_true))
        assert abs(rel_std - predicted) / predicted < 0.25
        details.append(f"P={p_true:g}: {rel_std:.3f} vs {predicted:.3f}")

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(9, "quantitation error Monte Carlo", "; ".join(details))


def test_criterion_10_poisson_sampling():
    for v, expected, tol in [
        (0.001, 0.90484, 1e-5),
        (0.01, 0.36788, 1e-5),
        (0.05, 6.7379e-3, 1e-7),
    ]:
        assert dict(count_pmf(100.0, v))[0] == pytest.approx(expected, abs=tol)
    v_min = min_volume_for_detection(100.0, 1, 1.0 - math.exp(-1.0))
    assert v_min == pytest.approx(0.01, abs=1e-6)
    _report(10, "Poisson volume analysis",
            f"P(0) triple matched; min volume {v_min:.6f} cV")


def test_criterion_11_robust_statistics():
    s = summarize([1.0, 2.0, 3.0, 10.0])
    assert s.sigma_left == pytest.approx(1.11803, abs=1e-5)
    assert s.sigma_right == pytest.approx(5.31507, abs=1e-5)

    # on even-sized symmetric samples (median is not a data point, so both
    # half-samples mirror the full one) the robust threshold equals the
    # gaussian one
    rng = np.random.default_rng(11)
    for _ in range(20):
        half = rng.uniform(0.5, 50.0, size=rng.integers(1, 8))
        mu = rng.uniform(10.0, 200.0)
        values = list(mu - half) + list(mu + half)
        F = make_dist(values)
        t_gauss = calibrate_threshold(F, CalibrationConfig(K=0.95))
        t_robust = calibrate_threshold(
            F, CalibrationConfig(K=0.95, method=CalibrationMethod.ROBUST)
        )
        assert t_robust == pytest.approx(t_gauss, abs=1e-9)
    _report(11, "one-sided robust statistics",
            f"sigma_L={s.sigma_left:.5f}, sigma_R={s.sigma_right:.5f}; "
            "robust == gaussian on symmetric samples")


def test_criterion_12_determinism_and_reproduction(tmp_path):
    runner = CliRunner()
    args = ["simulate", "--seed", "42"]
    r1 = runner.invoke(cli_main, args + ["--out", str(tmp_path / "a")])
    r2 = runner.invoke(cli_main, args + ["--out", str(tmp_path / "b")])
    assert r1.exit_code == 0 and r2.exit_code == 0
    for name in ("patients.csv", "objects.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()

    start = time.perf_counter()
    checks = run_all()
    elapsed = time.perf_counter() - start
    assert all(c.passed for c in checks), [c.name for c in checks if not c.passed]
    assert elapsed < 120.0
    _report(12, "determinism and reproduction bundle",
            f"simulate --seed 42 byte-identical; "
            f"{len(checks)} reproduction checks in {elapsed:.1f}s")
