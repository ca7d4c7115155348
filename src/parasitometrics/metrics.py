"""Per-patient metric vectors and patient-level diagnosis metrics.

The two central quantities are the per-patient vectors:

* F — false positives per cV, one entry per patient (negatives preferred,
  since mis-annotated parasites can inflate FPR on positives), and
* S — per-patient object-level sensitivity over positive patients.

Their distributions (not pooled ratios) drive threshold calibration and LoD
estimation. Pooled variants are provided as intermediate measures but carry
imbalance warnings, since a single high-parasitemia patient can dominate the
object pool while contributing one patient to clinical accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .datamodel import (DEFAULT_BIN_EDGES, CohortDataset, GroundTruth, Species, counts_at,
                        per_cv_counts)
from .errors import DegenerateDataError, InputError
from .stats import DistSummary, summarize


@dataclass(frozen=True)
class MetricDistribution:
    """A per-patient metric vector with its distribution summary.

    Entries are keyed by patient_id; ``excluded`` lists patients that were
    filtered out (e.g. positives whose examined volume sampled no parasites).
    """

    per_patient: dict[str, float]
    summary: DistSummary
    excluded: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class Stratum:
    """One stratum's patient count, how many were diagnosed, and that share (None if empty)."""
    label: str
    n_patients: int
    n_detected: int
    value: float | None


@dataclass(frozen=True)
class StratifiedResult:
    """Patient-level sensitivity stratified by parasitemia bin and species,
    with the paired specificity (None when the cohort has no negatives)."""

    bins: tuple[tuple[float, float], ...]
    parasitemia_strata: tuple[Stratum, ...]
    species_strata: tuple[Stratum, ...]
    overall: float
    specificity: float | None


def _distributions(ids, values: np.ndarray, **extra) -> Iterator[MetricDistribution]:
    """One distribution per row of the (threshold x patient) ``values``,
    each built when it is read."""
    pers = (dict(zip(ids, row.tolist())) for row in values)  # Python floats
    return (MetricDistribution(per_patient=per, summary=summarize(per.values()), **extra)
            for per in pers)


def fpr_distributions(
    cohort: CohortDataset, C_grid, negatives_only: bool = True
) -> Iterator[MetricDistribution]:
    """Per-patient false positives per cV at each score threshold in C_grid,
    one distribution at a time; the cohort and C_grid are checked on the call."""
    patients = cohort.negatives if negatives_only else cohort.patients
    if not patients:
        raise DegenerateDataError("no negative patients for FPR distribution")
    warnings = ()
    if not negatives_only and any(
        p.ground_truth is GroundTruth.POSITIVE for p in patients
    ):
        warnings = (
            "FPR computed over positive patients; mis-/unannotated parasites "
            "can inflate these values",
        )
    fp = counts_at(patients, C_grid, "distractor_scores")
    volumes = np.array([p.examined_volume for p in patients])
    return _distributions([p.patient_id for p in patients], fp / volumes, warnings=warnings)


def fpr_distribution(
    cohort: CohortDataset, C: float, negatives_only: bool = True
) -> MetricDistribution:
    """Per-patient false positives per cV at score threshold C."""
    return next(fpr_distributions(cohort, [C], negatives_only))


def sensitivity_distributions(cohort: CohortDataset, C_grid) -> Iterator[MetricDistribution]:
    """Per-patient object sensitivity tp/(tp+fn) over positive patients, at
    each C in C_grid, one distribution at a time; the cohort and C_grid are
    checked on the call.

    Positives whose examined volume sampled zero parasite objects cannot have
    a sensitivity; they are excluded and listed in ``excluded``.
    """
    positives = cohort.positives
    # with any positives, every C is range-checked, even if all are excluded
    tp = counts_at(positives, C_grid, "parasite_scores") if positives else None
    n_parasites = np.array([p.n_parasite_objects for p in positives], dtype=int)
    kept = n_parasites > 0
    if not kept.any():
        raise DegenerateDataError("no positive patients with parasite objects")
    return _distributions(
        [p.patient_id for p, k in zip(positives, kept) if k],
        tp[:, kept] / n_parasites[kept],
        excluded=tuple(p.patient_id for p, k in zip(positives, kept) if not k),
    )


def sensitivity_distribution(cohort: CohortDataset, C: float) -> MetricDistribution:
    """Per-patient object sensitivity tp/(tp+fn) at score threshold C."""
    return next(sensitivity_distributions(cohort, [C]))


@dataclass(frozen=True)
class PooledSensitivity:
    """Object sensitivity pooled over the positives, and a warning if one patient dominates."""
    value: float
    imbalance_warning: str | None


def pooled_object_sensitivity(cohort: CohortDataset, C: float) -> PooledSensitivity:
    """tp/(tp+fn) over all parasite objects pooled across patients.

    Attaches a warning when a single patient contributes more than half of
    the parasite objects, since the pooled number then mostly reflects that
    one patient.
    """
    positives = cohort.positives
    # without positives there are no parasite objects, whatever C is
    tp_total = int(counts_at(positives, [C], "parasite_scores").sum()) if positives else 0
    contrib = {p.patient_id: p.n_parasite_objects for p in positives}
    parasites_total = sum(contrib.values())
    if parasites_total == 0:
        raise DegenerateDataError("cohort contains no parasite objects")
    dominant = max(contrib, key=contrib.get)
    warning = None
    if contrib[dominant] > 0.5 * parasites_total:
        warning = (
            f"patient {dominant!r} contributes {contrib[dominant]} of "
            f"{parasites_total} parasite objects (>50%); pooled sensitivity is "
            "dominated by one patient"
        )
    return PooledSensitivity(value=tp_total / parasites_total, imbalance_warning=warning)


def check_bin_edges(edges: Sequence[float]) -> tuple[float, ...]:
    """The interior parasitemia bin edges, if finite, positive and strictly ascending."""
    edges = tuple(edges)
    if any(not 0.0 < e < float("inf") for e in edges) or list(edges) != sorted(set(edges)):
        raise InputError("bin edges must be finite, positive and strictly ascending")
    return edges


def _bin_label(lo: float, hi: float) -> str:
    hi_s = "inf" if hi == float("inf") else f"{hi:g}"
    return f"({lo:g}, {hi_s}]"


def _stratum(label: str, members: np.ndarray, detected: np.ndarray) -> Stratum:
    n, hits = int(members.sum()), int((members & detected).sum())
    return Stratum(label=label, n_patients=n, n_detected=hits, value=(hits / n) if n else None)


def patient_level_sens_spec(
    cohort: CohortDataset,
    op,
    bin_edges: Sequence[float] = DEFAULT_BIN_EDGES,
) -> StratifiedResult:
    """Patient-level sensitivity (stratified) and specificity.

    A patient is diagnosed positive iff its per-cV N(C) >= T. Specificity is
    computed over negative patients only; with no negatives it is None
    (absent), never 0. Sensitivity is stratified both by true-parasitemia bin
    and by species, and the result always carries the bin definition and the
    specificity: a headline sensitivity without its parasitemia distribution
    and paired specificity is not reportable.
    """
    bounds = (0.0, *check_bin_edges(bin_edges), float("inf"))
    bins = tuple(zip(bounds, bounds[1:]))
    diagnosed = per_cv_counts(cohort.patients, op.C) >= op.T
    positive = np.array([p.ground_truth is GroundTruth.POSITIVE for p in cohort.patients])
    detected, rejected = diagnosed[positive], ~diagnosed[~positive]
    parasitemia = np.array([p.true_parasitemia for p in cohort.positives], dtype=float)
    species = np.array([p.species for p in cohort.positives], dtype=object)
    return StratifiedResult(
        bins=bins,
        parasitemia_strata=tuple(
            _stratum(_bin_label(lo, hi), (lo < parasitemia) & (parasitemia <= hi), detected)
            for lo, hi in bins),
        species_strata=tuple(_stratum(sp.value, members, detected) for sp in Species
                             if (members := species == sp).any()),
        overall=int(detected.sum()) / len(detected) if len(detected) else float("nan"),
        specificity=int(rejected.sum()) / len(rejected) if len(rejected) else None,
    )
