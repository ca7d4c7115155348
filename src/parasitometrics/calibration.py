"""Threshold calibration, limit-of-detection estimation, and operating-point tuning.

The detector exposes two hyperparameters: C, a score threshold classifying
objects as parasites, and T, a per-cV count threshold diagnosing a patient as
positive when N = TP + FP >= T.

Given the per-patient FPR distribution F on validation negatives, T is set to
hit a target specificity K. Three methods compute it, or T is chosen by hand:

* gaussian:   T = mean(F) + alpha * std(F), alpha the normal quantile of K
* robust:     T = median(F) + alpha * sigma_right(F)    (skew-tolerant)
* percentile: T = Kth percentile of F (linear interpolation)
* by hand:    read fp_scatter (calibrate --scatter-out), then pass T as --T

The LoD estimate follows from requiring a just-barely-positive diagnosis of a
clean (1-K quantile FPR) sample with average sensitivity, so that a sample at
the LoD is detected with sensitivity K at specificity K (CLSI EP17-A2 with
alpha = beta). With z the normal quantile of K rounded up to two places
(1.65 at the default K = 0.95):

    L = 2 * z * std(F) / mean(S)          (gaussian; optionally +1 in the
                                           numerator to keep L >= 1/mean(S))
    L = z * (sigma_L(F) + sigma_R(F)) / median(S)        (robust)

A pessimistic variant replaces the denominator with mean(S) - beta * std(S).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datamodel import CalibrationMethod, CohortDataset, check_thresholds, distinct_sorted
from .errors import DegenerateDataError, InputError
from .metrics import MetricDistribution, fpr_distributions, sensitivity_distributions
from .stats import alpha_for_specificity


@dataclass(frozen=True)
class OperatingPoint:
    """The hyperparameter pair: object-score threshold C, per-cV count threshold T."""

    C: float
    T: float

    def __post_init__(self):
        check_thresholds([self.C])
        if self.T < 0 or not math.isfinite(self.T):
            raise InputError(f"T={self.T} must be finite and >= 0")


@dataclass(frozen=True)
class CalibrationConfig:
    """Target specificity K, the method that computes T, and the LoD's beta and +1 knobs."""
    K: float = 0.95
    method: CalibrationMethod = CalibrationMethod.GAUSSIAN
    beta: float | None = None            # pessimistic LoD denominator knob
    plus_one: bool = False               # +1 in the LoD numerator

    def __post_init__(self):
        if not (0.0 < self.K < 1.0):
            raise InputError(f"target specificity K={self.K} outside (0, 1)")
        if self.K <= 0.5:
            raise InputError(f"target specificity K={self.K} must be above 0.5: at or "
                             "below it, the normal quantile of K and every LoD are <= 0")
        if self.beta is not None and not (self.beta >= 0 and math.isfinite(self.beta)):
            raise InputError(f"beta={self.beta} must be finite and >= 0")


@dataclass(frozen=True)
class LodEstimate:
    """Estimated limit of detection, parasites per cV, with its inputs echoed."""

    L: float
    method: CalibrationMethod
    mu_S: float
    sigma_F: float | None = None
    sigma_left_F: float | None = None
    sigma_right_F: float | None = None
    plus_one: bool = False
    beta: float | None = None


def fp_scatter(F: MetricDistribution) -> list[tuple[str, float]]:
    """Sorted per-patient FP counts per cV: choose T from them, then pass it as --T."""
    return sorted(F.per_patient.items(), key=lambda kv: (kv[1], kv[0]))


def calibrate_threshold(F: MetricDistribution, cfg: CalibrationConfig) -> float:
    """Count threshold T (per cV) hitting target specificity K on F."""
    s = F.summary
    method = cfg.method
    if method in (CalibrationMethod.GAUSSIAN, CalibrationMethod.ROBUST) and s.n < 2:
        raise DegenerateDataError(
            f"{method.value} calibration needs >= 2 patients, got {s.n}"
        )
    if method is CalibrationMethod.GAUSSIAN:
        return s.mean + alpha_for_specificity(cfg.K) * s.std
    if method is CalibrationMethod.ROBUST:
        return s.median + alpha_for_specificity(cfg.K) * s.sigma_right
    return s.percentile(100.0 * cfg.K)


def estimate_lod(
    F: MetricDistribution, S: MetricDistribution, cfg: CalibrationConfig
) -> LodEstimate:
    """Limit of detection (parasites per cV) from the F and S distributions."""
    fs, ss = F.summary, S.summary
    robust = cfg.method is CalibrationMethod.ROBUST
    # only robust has an LoD formula of its own; percentile gets the Gaussian one
    method = CalibrationMethod.ROBUST if robust else CalibrationMethod.GAUSSIAN
    if fs.n < 2:
        raise DegenerateDataError(
            f"{'robust ' if robust else ''}LoD needs >= 2 negative patients"
        )
    denom = ss.median if robust else ss.mean
    if cfg.beta is not None:
        denom = denom - cfg.beta * ss.std
    if denom <= 0:
        raise DegenerateDataError(f"LoD denominator {denom} <= 0")
    z = math.ceil(100 * alpha_for_specificity(cfg.K)) / 100  # 1.65 at K = 0.95
    if robust:
        numer = z * (fs.sigma_left + fs.sigma_right)
        sigmas = {"sigma_left_F": fs.sigma_left, "sigma_right_F": fs.sigma_right}
    else:
        numer = 2 * z * fs.std  # 2 * 1.65 == 3.3 in binary64
        sigmas = {"sigma_F": fs.std}
    if cfg.plus_one:
        numer += 1.0
    return LodEstimate(
        L=numer / denom, method=method, mu_S=denom, plus_one=cfg.plus_one,
        beta=cfg.beta, **sigmas,
    )


@dataclass(frozen=True)
class TuningRow:
    """One swept C: its calibrated T and LoD, and the F and S summaries they came from."""
    C: float
    T: float
    lod: float
    mu_F: float
    sigma_F: float
    sigma_left_F: float
    sigma_right_F: float
    mu_S: float


def default_c_grid(cohort: CohortDataset) -> list[float]:
    """101 evenly spaced thresholds, plus the cohort's scores when few enough."""
    grid = {round(i / 100.0, 2) for i in range(101)}
    observed = distinct_sorted(np.concatenate([p.scores for p in cohort.patients]))
    if len(observed) < 512:
        grid |= set(observed.tolist())
    return sorted(grid)


def tune_operating_point(
    train_positives: CohortDataset,
    validation_negatives: CohortDataset,
    validation_positives: CohortDataset | None,
    C_grid,
    cfg: CalibrationConfig = CalibrationConfig(),
) -> tuple[OperatingPoint, list[TuningRow], list[tuple[float, str]]]:
    """Exhaustive sweep over C: calibrate T for specificity cfg.K, pick lowest LoD.

    S is computed over validation positives when given, else (less ideal but
    workable) over the training positives. Ties in LoD break toward larger C.
    A C where T or the LoD is undefined has no row in the table; it is listed
    in ``skipped`` as ``(C, reason)``, in ascending C. A cohort with no F or S
    distribution at all raises its own DegenerateDataError.
    """
    grid = sorted(set(float(c) for c in C_grid))
    if not grid:
        raise InputError("C_grid must be non-empty")

    s_cohort = validation_positives if validation_positives is not None else train_positives
    table: list[TuningRow] = []
    skipped: list[tuple[float, str]] = []
    best: TuningRow | None = None
    for c, F, S in zip(grid, fpr_distributions(validation_negatives, grid, negatives_only=True),
                       sensitivity_distributions(s_cohort, grid)):
        try:
            T = calibrate_threshold(F, cfg)
            lod = estimate_lod(F, S, cfg)
        except DegenerateDataError as exc:
            skipped.append((c, str(exc)))
            continue
        f = F.summary
        row = TuningRow(C=c, T=T, lod=lod.L, mu_F=f.mean, sigma_F=f.std,
                        sigma_left_F=f.sigma_left, sigma_right_F=f.sigma_right, mu_S=lod.mu_S)
        table.append(row)
        if best is None or row.lod < best.lod or (row.lod == best.lod and row.C > best.C):
            best = row
    if best is None:
        raise DegenerateDataError(
            "no C in the grid produced a well-defined (T, LoD) pair"
        )
    return OperatingPoint(C=best.C, T=best.T), table, skipped
