"""Parasitemia quantitation and its error accounting.

The estimator inverts the forward counting model E[n] = (P * S_hat + F_hat) * V:

    P_hat = (n / V - F_hat) / S_hat

Error in P_hat decomposes into three parts: irreducible Poisson sampling
error (see the poisson module), examined-volume error (proportional to WBC
count error on thick films), and parasite-counting error from interpatient
spread of sensitivity and FPR. The counting part has figure of merit

    sigma(S)/mu(S) + sigma(F) / (mu(S) * P)

whose FPR term shrinks as 1/P, so sensitivity spread dominates at high
parasitemia and FPR spread near the LoD.

Agreement with ground truth is reported per patient via Bland-Altman pairs on
log10 parasitemia (relative error is what matters clinically) and via R^2 on
both linear and log scales; the linear fit is included only to demonstrate
how it overstates fit quality when parasitemias span orders of magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datamodel import CohortDataset, counts_at
from .errors import DegenerateDataError, InputError
from .metrics import MetricDistribution
from .stats import sorted_median

LOG_FLOOR = 0.1  # parasites per cV; floor applied to P_hat before log10

LINEAR_R2_NOTE = (
    "r2_linear is reported for comparison only: across order-of-magnitude "
    "parasitemia ranges the L2 fit is anchored by the highest-parasitemia "
    "patients, giving an illusion of strong fit; prefer r2_log and the "
    "Bland-Altman pairs"
)
CONSTANT_X_NOTE = (
    "r2_linear and r2_log are null when every positive patient has the same "
    "true parasitemia: with no spread in x, no line can be fitted"
)


@dataclass(frozen=True)
class ExpectedRates:
    """Expected FPR per cV and expected sensitivity (e.g. mu(F) and mu(S))."""

    F_hat: float
    S_hat: float

    def __post_init__(self):
        if not (self.F_hat >= 0 and math.isfinite(self.F_hat)):
            raise InputError(f"F_hat={self.F_hat} must be finite and >= 0")
        if not (0.0 < self.S_hat <= 1.0):
            raise InputError(f"S_hat={self.S_hat} must be in (0, 1]")


@dataclass(frozen=True)
class ParasitemiaEstimate:
    """A patient's estimated parasitemia per cV, and whether a negative estimate became 0."""
    P_hat: float
    negative_clamped: bool  # raw estimate was < 0 (n/V below expected FPR)


def estimate_parasitemia(
    n: int, examined_volume: float, rates: ExpectedRates
) -> ParasitemiaEstimate:
    """Estimate parasitemia per cV from n alleged parasites found in V."""
    if examined_volume <= 0:
        raise InputError("examined_volume must be > 0")
    raw = (n / examined_volume - rates.F_hat) / rates.S_hat
    if raw < 0:
        return ParasitemiaEstimate(P_hat=0.0, negative_clamped=True)
    return ParasitemiaEstimate(P_hat=raw, negative_clamped=False)


def quant_fom(S: MetricDistribution, F: MetricDistribution, P: float) -> float:
    """Figure of merit for relative parasite-counting error at parasitemia P."""
    if P <= 0:
        raise InputError(f"P={P} must be > 0")
    mu_s = S.summary.mean
    if mu_s <= 0:
        raise DegenerateDataError("mean sensitivity must be > 0")
    return S.summary.std / mu_s + F.summary.std / (mu_s * P)


def _r2(x: np.ndarray, y: np.ndarray) -> float | None:
    # R^2 of a least-squares simple linear regression of y on x, with intercept;
    # None when x is constant, where the fit is undefined
    if not x.min() < x.max():
        return None
    # polyfit squares x: scale x and y to below 1 by exact powers of two, which
    # leaves R^2 unchanged and keeps the squares of a huge x finite
    x, y = (np.ldexp(v, -math.frexp(float(np.abs(v).max()))[1]) for v in (x, y))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return 1.0 - ss_res / ss_tot


@dataclass(frozen=True)
class QuantResult:
    """Per-patient estimates against ground truth, with their figure of merit and fits."""
    per_patient: dict[str, tuple[float, float, float]]  # P_hat, P_true, rel_error
    fom: float | None
    bland_altman: tuple[tuple[float, float], ...]  # (mean_log10, diff_log10)
    r2_linear: float | None
    r2_log: float | None
    clamped_patients: tuple[str, ...]
    notes: tuple[str, ...] = (LINEAR_R2_NOTE,)


def quant_report(
    cohort: CohortDataset,
    op,
    rates: ExpectedRates,
    fom_inputs: tuple[MetricDistribution, MetricDistribution] | None = None,
) -> QuantResult:
    """Per-patient quantitation vs ground truth across the cohort's positives.

    ``op`` supplies the score threshold C at which alleged parasites are
    counted (n = tp + fp within the patient's volume). ``fom_inputs`` is an
    optional (S, F) pair used to evaluate the counting figure of merit at the
    cohort's median true parasitemia.
    """
    positives = cohort.positives
    if len(positives) < 2:
        raise DegenerateDataError("quantitation report needs >= 2 positive patients")

    per_patient: dict[str, tuple[float, float, float]] = {}
    ba_pairs = []
    clamped = []
    counted = (counts_at(positives, [op.C], "parasite_scores")[0]
               + counts_at(positives, [op.C], "distractor_scores")[0])
    for p, n in zip(positives, counted.tolist()):
        est = estimate_parasitemia(n, p.examined_volume, rates)
        if est.negative_clamped:
            clamped.append(p.patient_id)
        p_true = p.true_parasitemia
        rel = (est.P_hat - p_true) / p_true
        per_patient[p.patient_id] = (est.P_hat, p_true, rel)
        log_hat = math.log10(max(est.P_hat, LOG_FLOOR))
        log_true = math.log10(p_true)
        ba_pairs.append(((log_hat + log_true) / 2.0, log_hat - log_true))

    p_hat = np.array([v[0] for v in per_patient.values()])
    p_true = np.array([v[1] for v in per_patient.values()])
    r2_linear = _r2(p_true, p_hat)
    r2_log = _r2(
        np.log10(p_true), np.log10(np.maximum(p_hat, LOG_FLOOR))
    )

    fom = None
    if fom_inputs is not None:
        S, F = fom_inputs
        fom = quant_fom(S, F, sorted_median(np.sort(p_true)))

    return QuantResult(
        per_patient=per_patient,
        fom=fom,
        bland_altman=tuple(ba_pairs),
        r2_linear=r2_linear,
        r2_log=r2_log,
        clamped_patients=tuple(clamped),
        notes=(LINEAR_R2_NOTE,) + ((CONSTANT_X_NOTE,) if r2_log is None else ()),
    )
