"""Curve constructions and the corrective re-expressions of misleading metrics.

Object-level ROC/AUC look flattering under heavy distractor:parasite
imbalance, so alongside the standard constructions this module provides:

* ``sliver_roc`` — the leftmost 1/D of an ROC stretched to full width, so TP
  and FP counts weigh equally under a D:1 imbalance;
* ``easy_distractor_experiment`` — shows AUC inflating when easy distractors
  are added while FROC (the clinically meaningful curve) is unchanged;
* ``precision_with_reexpression`` — re-expresses a pooled precision at a
  stated limit-of-detection parasitemia, where it is usually far less
  attractive.

The object ROC and the FROC share one threshold column, every distinct
pooled score between the reject-all and accept-all sentinels, and count the
pooled sorted scores at it with ``n_at_or_above``. The AUC comes from the
ROC's own integer TP/FP counts: the trapezoid area over them is the
Mann-Whitney U statistic (Hanley & McNeil 1982), the rank AUC with midranks
for ties, exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .calibration import OperatingPoint
from .datamodel import (
    CohortDataset,
    SerialIds,
    counts_at,
    distinct_sorted,
    n_at_or_above,
    per_cv_counts,
    pooled_scores,
)
from .errors import DegenerateDataError, InputError

# Outside FROC's exact case its per-cV counts are a (threshold x patient)
# matrix, filled into one block of this many elements (at least one row) so
# that memory stays bounded when every object has its own score; the block
# bounds `evaluate --curves`' peak memory together with report._CURVE_BLOCK.
_FROC_BLOCK = 1 << 20


@dataclass(frozen=True, eq=False)  # no generated __eq__: arrays compare elementwise
class CurvePoints:
    """An ordered curve: (x, y, threshold) rows of a read-only (n, 3) float64
    array, thresholds descending."""

    points: np.ndarray
    auc: float | None = None
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        # len(), not -1: a (3, 2) array must fail rather than become (2, 3)
        points = np.array(self.points, dtype=np.float64).reshape(len(self.points), 3)
        points.flags.writeable = False
        object.__setattr__(self, "points", points)


def _thresholds(parasites: np.ndarray, distractors: np.ndarray) -> np.ndarray:
    """+inf (reject all), every distinct score descending, then 0.0 (accept
    all) unless the lowest score is already a zero."""
    distinct = distinct_sorted(np.concatenate([parasites, distractors]))[::-1]
    return np.r_[math.inf, distinct, [0.0] if distinct[-1] > 0.0 else []]


def object_roc(cohort: CohortDataset) -> CurvePoints:
    """Object ROC over all objects pooled: TP vs FP fraction at every distinct
    score, between the reject-all and accept-all sentinels, with its rank AUC."""
    parasites, distractors = pooled_scores(cohort.patients)
    if not len(parasites) or not len(distractors):
        raise DegenerateDataError("ROC needs at least one parasite and one distractor object")
    thresholds = _thresholds(parasites, distractors)
    tps = n_at_or_above(parasites, thresholds)
    fps = n_at_or_above(distractors, thresholds)
    # twice the trapezoid area in count units, i.e. 2U: an exact integer, so
    # the AUC is one correctly rounded division
    two_u = int(np.dot(np.diff(fps), tps[1:] + tps[:-1]))
    points = np.column_stack((fps / len(distractors), tps / len(parasites), thresholds))
    return CurvePoints(points=points, auc=two_u / (2 * len(parasites) * len(distractors)))


def sliver_roc(roc: CurvePoints, D: float) -> CurvePoints:
    """Restrict an ROC to FP fraction in [0, 1/D] and stretch it to full width.

    With D the distractor-to-parasite ratio, the stretched axes weight TP and
    FP counts equally: the y = x diagonal joins operating points with equal
    numbers of TPs and FPs.
    """
    if not (D > 0) or not math.isfinite(D):
        raise InputError(f"distractor-to-parasite ratio D={D} must be positive")
    limit = 1.0 / D
    kept = roc.points[roc.points[:, 0] <= limit + 1e-15] * [D, 1.0, 1.0]
    # close the sliver at x = 1/D exactly (step curve: carry the last y forward)
    if len(kept) and kept[-1, 0] < 1.0:
        kept = np.r_[kept, [[1.0, *kept[-1, 1:]]]]
    return CurvePoints(
        points=kept,
        notes=(
            f"x axis = original FP fraction in [0, {limit:g}] stretched by {D:g}; "
            "the y = x diagonal joins operating points with equal TP and FP counts",
        ),
    )


def froc(cohort: CohortDataset) -> CurvePoints:
    """Free ROC: object sensitivity vs false positives per cV.

    The x axis is the mean FP per cV over negative patients (falling back to
    positives, with a warning, when the cohort has no negatives). y is pooled
    object sensitivity.
    """
    parasites, distractors = pooled_scores(cohort.patients)
    if not len(parasites):  # parasite objects sit on positive patients only
        raise DegenerateDataError("FROC needs positive patients with parasite objects")
    fp_patients = cohort.negatives
    notes = ()
    if not fp_patients:
        fp_patients = cohort.patients
        notes = ("no negative patients: FP/cV computed over all patients",)

    # the object ROC's thresholds, and the FP patients' distractors at or
    # above each, all patients together: no patient's count changes where
    # this total does not
    thresholds = _thresholds(parasites, distractors)
    total = n_at_or_above(pooled_scores(fp_patients)[1], thresholds)
    volumes = np.array([p.examined_volume for p in fp_patients])
    v = volumes[0]
    if (volumes == v).all() and math.frexp(v)[0] == 0.5 and total[-1] < 2**53:
        # one power-of-two volume: every count / v and every partial sum of
        # them is exact, so np.mean's sum is total / v and its one rounding is
        # the division by the number of patients
        fp_rate = total / v / len(fp_patients)
    else:
        change = np.diff(total, prepend=0) != 0
        rows = thresholds[change]
        # C order: an F-ordered block would change np.mean's summation order, so its bits
        out = np.empty((max(1, min(len(rows), _FROC_BLOCK // len(volumes))), len(volumes)))
        means = []
        for lo in range(0, len(rows), len(out)):
            t = rows[lo:lo + len(out)]
            for j, p in enumerate(fp_patients):
                out[:len(t), j] = n_at_or_above(p.distractor_scores, t) / volumes[j]
            means.append(np.mean(out[:len(t)], axis=1))
        # each threshold takes the mean at the last row that changed, 0.0 before any
        fp_rate = np.concatenate([[0.0], *means])[np.cumsum(change)]
    sens = n_at_or_above(parasites, thresholds) / len(parasites)
    return CurvePoints(points=np.column_stack((fp_rate, sens, thresholds)), notes=notes)


def easy_distractor_experiment(
    cohort: CohortDataset,
    n_easy: int,
    easy_score_max: float,
):
    """Inject n_easy low-scoring distractors per patient; AUC inflates, FROC doesn't.

    Injected scores are spread in (0, easy_score_max). Returns
    (auc_before, auc_after, froc_unchanged) where froc_unchanged compares,
    before and after for bit-identity, the best sensitivity the FROC reaches at
    or below each FP rate on the original FROC. The FROC guarantee holds when
    easy_score_max is below every real object score.
    """
    if n_easy < 0:
        raise InputError("n_easy must be >= 0")
    if not (0.0 < easy_score_max <= 1.0):
        raise InputError("easy_score_max must be in (0, 1]")

    def best_sensitivity(points, fp_rates):  # a FROC's x ascends as its threshold falls
        best = np.maximum.accumulate(points[:, 1])
        return best[np.searchsorted(points[:, 0], fp_rates, side="right") - 1].tolist()

    auc_before = object_roc(cohort).auc
    before = froc(cohort).points

    total_easy = n_easy * len(cohort.patients)
    easy = easy_score_max * np.arange(1, total_easy + 1) / (total_easy + 1)
    augmented = replace(
        cohort,
        patients=tuple(
            replace(
                p,
                object_ids=p.object_ids + SerialIds([(f"{p.patient_id}-easy", n_easy, 0)]),
                scores=np.concatenate([p.scores, easy[i * n_easy:(i + 1) * n_easy]]),
                is_parasite=np.concatenate([p.is_parasite, np.zeros(n_easy, dtype=bool)]),
            )
            for i, p in enumerate(cohort.patients)
        ),
        provenance=cohort.provenance + f" +{n_easy} easy distractors/patient",
    )
    auc_after = object_roc(augmented).auc
    froc_unchanged = (best_sensitivity(before, before[:, 0])
                      == best_sensitivity(froc(augmented).points, before[:, 0]))
    return auc_before, auc_after, froc_unchanged


def patient_roc(cohort: CohortDataset, C: float, T_grid) -> CurvePoints:
    """Patient-level ROC: (1 - specificity, patient sensitivity) swept over T.

    Each patient's N at C is counted once; a patient is diagnosed positive at
    every T <= N.
    """
    positives, negatives = cohort.positives, cohort.negatives
    if not positives or not negatives:
        raise DegenerateDataError("patient ROC needs both positive and negative patients")
    ts = sorted(set(float(t) for t in T_grid), reverse=True)
    if not ts:
        raise InputError("T_grid must be non-empty")
    for t in ts:
        OperatingPoint(C=C, T=t)  # raises InputError for a bad C or T

    def n_diagnosed(patients):
        return n_at_or_above(np.sort(per_cv_counts(patients, C)), ts)

    sens = n_diagnosed(positives) / len(positives)
    spec = (len(negatives) - n_diagnosed(negatives)) / len(negatives)
    return CurvePoints(
        points=np.column_stack((1.0 - spec, sens, ts)),
        notes=(
            "only the region near clinically relevant operating points "
            "(e.g. specificity >= 0.9) is salient; the curve depends on the "
            "cohort's parasitemia distribution",
        ),
    )


@dataclass(frozen=True)
class PrecisionReport:
    """Pooled object precision at C, and the precision re-expressed at a LoD parasitemia."""
    precision: float
    precision_at_lod: float


def precision_with_reexpression(
    cohort: CohortDataset, C: float, lod_parasitemia: float
) -> PrecisionReport:
    """Pooled precision, plus precision re-expressed at a LoD parasitemia.

    The implied FP rate per cV is derived from the cohort (pooled FP count
    over pooled examined volume); precision_at_lod assumes perfect sensitivity
    on a sample at parasitemia L: L / (L + FP/cV).
    """
    if not (lod_parasitemia > 0):
        raise InputError("lod_parasitemia must be > 0")
    tp = int(counts_at(cohort, [C], "parasite_scores").sum())
    fp = int(counts_at(cohort, [C], "distractor_scores").sum())
    volume = 0.0
    for p in cohort:  # a running sum: sum() and np.sum round differently
        volume += p.examined_volume
    if tp + fp == 0:
        raise DegenerateDataError("no objects pass the score threshold")
    return PrecisionReport(
        precision=tp / (tp + fp),
        precision_at_lod=lod_parasitemia / (lod_parasitemia + fp / volume),
    )
