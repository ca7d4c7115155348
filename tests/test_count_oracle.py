"""Sorted-score counting and the FROC count matrix against the object loops.

``loop_patient_counts`` and ``loop_froc_points`` are the per-object loops
that ``patient_counts`` and ``froc`` used before patients kept sorted score
arrays. They stay here as the reference, and the fast code must match them
exactly: same integers, same floats, same thresholds.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from parasitometrics import curves
from parasitometrics.curves import froc
from parasitometrics.datamodel import patient_counts

from conftest import make_cohort, make_patient, object_rows


def loop_patient_counts(patient, C):
    tp = fp = fn = tn = 0
    for _, score, parasite in object_rows(patient):
        passed = score >= C
        if parasite:
            if passed:
                tp += 1
            else:
                fn += 1
        else:
            if passed:
                fp += 1
            else:
                tn += 1
    v = patient.examined_volume
    return tp, fp, fn, tn, tp / v, fp / v


def _loop_n_parasites(p):
    return sum(1 for _, _, parasite in object_rows(p) if parasite)


def loop_froc_points(cohort, pooled_sensitivity=True):
    positives = [p for p in cohort.positives if _loop_n_parasites(p) > 0]
    fp_patients = cohort.negatives or cohort.patients
    all_scores = sorted({score for p in cohort for _, score, _ in object_rows(p)}, reverse=True)
    thresholds = [math.inf] + all_scores
    if not thresholds or thresholds[-1] > 0.0:
        thresholds.append(0.0)
    points = []
    for thr in thresholds:
        if math.isinf(thr):
            points.append((0.0, 0.0, thr))
            continue
        c = min(max(thr, 0.0), 1.0)
        fp_rate = float(np.mean([loop_patient_counts(p, c)[5] for p in fp_patients]))
        if pooled_sensitivity:
            tp = sum(loop_patient_counts(p, c)[0] for p in positives)
            total = sum(_loop_n_parasites(p) for p in positives)
            sens = tp / total
        else:
            per = [loop_patient_counts(p, c)[0] / _loop_n_parasites(p) for p in positives]
            sens = float(np.mean(per))
        points.append((fp_rate, sens, thr))
    return tuple(points)


# A few shared values make heavy ties; the floats make distinct scores.
SCORES = st.one_of(
    st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.5000000000000001, 0.9, 1.0]),
    st.floats(min_value=0.0, max_value=1.0),
)
VOLUMES = st.one_of(st.sampled_from([0.1, 0.3, 1.0, 2.5]), st.floats(0.01, 10.0))


@st.composite
def cohorts(draw):
    """A cohort whose first patient is positive with at least one parasite."""
    patients = [
        make_patient(
            "pos0", positive=True, volume=draw(VOLUMES),
            parasite_scores=draw(st.lists(SCORES, min_size=1, max_size=12)),
            distractor_scores=draw(st.lists(SCORES, max_size=12)),
        )
    ]
    for i in range(draw(st.integers(0, 5))):  # positives, maybe with no objects
        patients.append(make_patient(
            f"pos{i + 1}", positive=True, volume=draw(VOLUMES),
            parasite_scores=draw(st.lists(SCORES, max_size=12)),
            distractor_scores=draw(st.lists(SCORES, max_size=12)),
        ))
    if draw(st.booleans()):  # else no negatives, so FP/cV falls back to all patients
        for i in range(draw(st.integers(1, 12))):
            patients.append(make_patient(
                f"neg{i}", volume=draw(VOLUMES),
                distractor_scores=draw(st.lists(SCORES, max_size=12)),
            ))
    return make_cohort(*patients)


@given(cohort=cohorts(), data=st.data())
def test_patient_counts_match_loop(cohort, data):
    for p in cohort:
        on_score = [score for _, score, _ in object_rows(p)]
        C = data.draw(st.one_of(st.sampled_from(on_score), SCORES) if on_score else SCORES)
        c = patient_counts(p, C)
        assert (c.tp, c.fp, c.fn, c.tn, c.TP, c.FP) == loop_patient_counts(p, C)
        assert p.n_parasite_objects == _loop_n_parasites(p)
        assert p.n_distractor_objects == sum(1 for _ in object_rows(p)) - _loop_n_parasites(p)


@settings(max_examples=150)
@given(
    cohort=cohorts(),
    pooled=st.booleans(),
    block=st.sampled_from([1, 3, 4096]),
)
def test_froc_matches_loop(cohort, pooled, block):
    with mock.patch.object(curves, "_FROC_BLOCK", block):
        got = froc(cohort, pooled_sensitivity=pooled)
    assert got.points == loop_froc_points(cohort, pooled_sensitivity=pooled)
    assert got.notes == (() if cohort.negatives else (
        "no negative patients: FP/cV computed over all patients",))


def test_froc_matches_loop_on_many_patients():
    # 300 negatives: the per-threshold FP means sum hundreds of values, where
    # numpy's pairwise summation differs from a running sum
    rng = np.random.default_rng(7)
    negatives = [
        make_patient(f"neg{i}", volume=float(rng.uniform(0.05, 3.0)),
                     distractor_scores=tuple(np.round(rng.random(3), 2)))
        for i in range(300)
    ]
    positive = make_patient("pos", positive=True, parasite_scores=(0.3, 0.7, 0.7, 0.95),
                            distractor_scores=(0.5,))
    cohort = make_cohort(positive, *negatives)
    for pooled in (True, False):
        assert froc(cohort, pooled_sensitivity=pooled).points == \
            loop_froc_points(cohort, pooled_sensitivity=pooled)
