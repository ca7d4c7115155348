"""Numeric reproduction bundle: re-derives every headline number at desk scale.

Each check recomputes a published worked example or closed-form value through
the library's public surface and compares against the independently computed
expectation. ``run_all`` returns the manifest; the CLI turns any failure into
a nonzero exit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .calibration import (
    CalibrationConfig,
    CalibrationMethod,
    OperatingPoint,
    estimate_lod,
)
from .curves import (
    easy_distractor_experiment,
    object_roc,
    precision_with_reexpression,
    sliver_roc,
)
from .datamodel import counts_at
from .metrics import MetricDistribution, patient_level_sens_spec, pooled_object_sensitivity
from .poisson import count_pmf, min_volume_for_detection
from .quant import ExpectedRates, estimate_parasitemia, quant_fom
from .simulator import PCG64, Generator, paper_worked_examples, generate_cohort, who56_preset
from .stats import alpha_for_specificity, summarize


@dataclass(frozen=True)
class CheckResult:
    """One reproduction check: its name, whether it passed, and what it compared."""
    name: str
    passed: bool
    detail: str


def _check(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def _md(values) -> MetricDistribution:
    per = {f"p{i}": float(v) for i, v in enumerate(values)}
    return MetricDistribution(per_patient=per, summary=summarize(values))


def run_all() -> list[CheckResult]:
    checks: list[CheckResult] = []
    examples = paper_worked_examples()

    # normal quantile behind the 1.65-sigma specificity rule
    a = alpha_for_specificity(0.95)
    checks.append(
        _check(
            "normal_quantile_95",
            abs(a - 1.6449) < 5e-5,
            f"alpha(0.95) = {a:.6f}, expected 1.6449 (rounds to 1.65)",
        )
    )

    # pooled vs patient-level sensitivity worked example
    ex = examples["patient-level"]
    want = ex["expected"]
    pooled = pooled_object_sensitivity(ex["cohort"], ex["C"]).value
    strat = patient_level_sens_spec(ex["cohort"], OperatingPoint(C=ex["C"], T=ex["T"]))
    checks.append(
        _check(
            "pooled_vs_patient_sensitivity",
            abs(pooled - want["pooled_sensitivity"]) < 1e-9
            and strat.overall == want["patient_level_sensitivity"],
            f"pooled = {pooled:.5f} (expect 0.98232), patient-level = {strat.overall}",
        )
    )

    # precision re-expression at LoD parasitemia
    ex = examples["precision"]
    want = ex["expected"]
    pr = precision_with_reexpression(ex["cohort"], ex["C"], ex["lod_parasitemia"])
    checks.append(
        _check(
            "precision_reexpression",
            abs(pr.precision - want["precision"]) < 1e-4
            and abs(pr.precision_at_lod - want["precision_at_lod"]) < 1e-9,
            f"precision = {pr.precision:.4f} -> at LoD 100: {pr.precision_at_lod:.4f}",
        )
    )

    # high AUC coexisting with 50 FPs per parasite under 50,000:1 imbalance
    ex = examples["auc-imbalance"]
    roc = object_roc(ex["cohort"])
    cohort = ex["cohort"]
    thr = ex["full_sensitivity_threshold"]
    n_par = sum(p.n_parasite_objects for p in cohort)
    fp = int(counts_at(cohort.patients, [thr], "distractor_scores").sum())
    fp_per_parasite = fp / n_par
    checks.append(
        _check(
            "auc_imbalance_coexistence",
            roc.auc >= ex["expected"]["auc"]
            and fp_per_parasite == ex["expected"]["fp_per_parasite"],
            f"AUC = {roc.auc:.6f}, FPs per parasite at full sensitivity = {fp_per_parasite}",
        )
    )

    # easy-distractor inflation: AUC rises, FROC unchanged
    before, after, froc_same = easy_distractor_experiment(
        examples["precision"]["cohort"], n_easy=1000, easy_score_max=0.05
    )
    checks.append(
        _check(
            "easy_distractor_inflation",
            after > before and froc_same,
            f"AUC {before:.4f} -> {after:.4f}, FROC unchanged = {froc_same}",
        )
    )

    # sliver ROC covers the leftmost 1/D of the original FP axis
    sliver = sliver_roc(roc, D=20.0)
    max_original_fpf = float((sliver.points[:, 0] / 20.0).max())
    checks.append(
        _check(
            "sliver_roc_20_to_1",
            abs(max_original_fpf - 0.05) < 1e-12,
            f"sliver spans original FP fraction [0, {max_original_fpf:g}]",
        )
    )

    # LoD breakeven at K = 0.95: a clean positive sample (5th-percentile FPR)
    # at estimate_lod's L just reaches T, L*mu(S) + mu(F) - 1.65*sigma(F) =
    # mu(F) + 1.65*sigma(F); F's FP values f_lo and f_lo + 2*sigma_f have
    # population sigma(F) = sigma_f
    rng = Generator(PCG64(20260826))
    worst = 0.0
    for _ in range(100):
        f_lo, sigma_f, mu_s = rng.uniform(1, 200), rng.uniform(0.1, 50), rng.uniform(0.2, 1.0)
        F, S = _md([f_lo, f_lo + 2 * sigma_f]), _md([mu_s, mu_s])
        L = estimate_lod(F, S, CalibrationConfig()).L
        f, s = F.summary, S.summary
        worst = max(worst, abs((L * s.mean + f.mean - 1.65 * f.std) - (f.mean + 1.65 * f.std)))
    checks.append(
        _check(
            "lod_breakeven_identity",
            worst <= 1e-12,
            "breakeven residual = 0 to 1e-12 for 100 random parameter triples",
        )
    )

    F = _md([30.0, 50.0, 70.0])  # sigma = 16.3299, mean 50
    S = _md([0.66, 0.66, 0.66])
    lod = estimate_lod(F, S, CalibrationConfig(method=CalibrationMethod.GAUSSIAN))
    expected = 3.3 * F.summary.std / 0.66
    checks.append(
        _check(
            "lod_gaussian_formula",
            abs(lod.L - expected) < 1e-12,
            f"L = {lod.L:.4f} per cV (3.3 * sigma(F) / mu(S))",
        )
    )

    # one-sided deviations of the documented skewed sample
    s = summarize([1.0, 2.0, 3.0, 10.0])
    checks.append(
        _check(
            "one_sided_sigmas",
            abs(s.sigma_left - 1.11803) < 1e-5 and abs(s.sigma_right - 5.31507) < 1e-5,
            f"sigma_L = {s.sigma_left:.5f}, sigma_R = {s.sigma_right:.5f}",
        )
    )

    # parasitemia estimator and figure of merit on hand-checked inputs
    est = estimate_parasitemia(60, 0.05, ExpectedRates(F_hat=100.0, S_hat=0.8))
    checks.append(
        _check(
            "parasitemia_estimator",
            abs(est.P_hat - 1375.0) < 1e-9,
            f"P_hat = {est.P_hat} per cV for n=60, V=0.05, F_hat=100, S_hat=0.8",
        )
    )
    fom = quant_fom(
        _md([0.7, 0.8, 0.9]),
        _md([30.0, 50.0, 70.0]),
        1000.0,
    )
    sig_s = summarize([0.7, 0.8, 0.9]).std
    sig_f = summarize([30.0, 50.0, 70.0]).std
    checks.append(
        _check(
            "quant_figure_of_merit",
            abs(fom - (sig_s / 0.8 + sig_f / (0.8 * 1000.0))) < 1e-12,
            f"FoM(P=1000) = {fom:.6f}",
        )
    )

    # Poisson zero-count probabilities for the examined-volume curves
    p0 = {v: dict(count_pmf(100.0, v))[0] for v in (0.001, 0.01, 0.05)}
    expect = {0.001: math.exp(-0.1), 0.01: math.exp(-1.0), 0.05: math.exp(-5.0)}
    checks.append(
        _check(
            "poisson_zero_probabilities",
            all(abs(p0[v] - expect[v]) < 1e-9 for v in p0),
            "P(0 parasites) at P=100/cV: "
            + ", ".join(f"V={v}: {p0[v]:.6g}" for v in sorted(p0)),
        )
    )
    v_min = min_volume_for_detection(100.0, 1, 1.0 - math.exp(-1.0))
    checks.append(
        _check(
            "poisson_min_volume",
            abs(v_min - 0.01) < 1e-6,
            f"min V for >=1 parasite at 63.2% confidence = {v_min:.8f} cV",
        )
    )

    # WHO 56 diagnosis-set preset
    cohort = generate_cohort(who56_preset(seed=1))
    paras = [p.true_parasitemia for p in cohort.positives]
    checks.append(
        _check(
            "who56_preset",
            len(cohort.negatives) == 20
            and len(cohort.positives) == 20
            and all(80.0 <= p <= 200.0 for p in paras),
            f"20+20 patients, positive parasitemias in [{min(paras):.1f}, {max(paras):.1f}]",
        )
    )

    # inclusive diagnosis rule: N = T counts as positive
    ex = examples["patient-level"]
    diag_strat = patient_level_sens_spec(ex["cohort"], OperatingPoint(C=0.5, T=50_000.0))
    checks.append(
        _check(
            "inclusive_diagnosis_rule",
            diag_strat.overall == 0.25,
            "patient with N = T = 50,000 per cV diagnosed positive",
        )
    )

    return checks
