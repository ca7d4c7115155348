"""The object ROC, its AUC and the Poisson tail against the code they replaced.

``roc_points_oracle`` and ``rank_auc_oracle`` are the ROC sweep and the
rank-sum AUC (scipy's midranks for ties) that ``curves`` used before one sort
served both; ``min_volume_oracle`` is ``min_volume_for_detection`` as it was
with ``scipy.stats.poisson.sf``. The new code must match them exactly.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.stats import poisson, rankdata

from parasitometrics.curves import object_roc
from parasitometrics.errors import DegenerateDataError
from parasitometrics.poisson import min_volume_for_detection
from parasitometrics.simulator import paper_worked_examples

from conftest import curve_rows, make_cohort, make_patient, object_rows


def rank_auc_oracle(pos_scores, neg_scores):
    n_pos, n_neg = len(pos_scores), len(neg_scores)
    ranks = rankdata(np.concatenate([pos_scores, neg_scores]))
    pos_rank_sum = ranks[:n_pos].sum()
    return float((pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def roc_points_oracle(scores, is_parasite):
    n_pos = int(is_parasite.sum())
    n_neg = int((~is_parasite).sum())
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_pos = is_parasite[order]
    tps = np.cumsum(sorted_pos)
    fps = np.cumsum(~sorted_pos)
    distinct = np.r_[np.nonzero(np.diff(sorted_scores))[0], len(sorted_scores) - 1]
    points = [(0.0, 0.0, math.inf)]
    for i in distinct:
        points.append(
            (float(fps[i]) / n_neg, float(tps[i]) / n_pos, float(sorted_scores[i]))
        )
    if points[-1][2] > 0.0:
        points.append((1.0, 1.0, 0.0))
    return tuple(points)


def oracle_roc(patients):
    """(points, auc) from the objects themselves, or None with a class missing."""
    rows = [row for p in patients for row in object_rows(p)]
    scores = np.array([score for _, score, _ in rows], dtype=float)
    is_par = np.array([parasite for _, _, parasite in rows], dtype=bool)
    if is_par.all() or not is_par.any():
        return None
    return (roc_points_oracle(scores, is_par),
            rank_auc_oracle(scores[is_par], scores[~is_par]))


def assert_roc_matches_oracle(cohort):
    """The pooled ROC, and each patient's ROC on a one-patient cohort."""
    for sub in (cohort, *(make_cohort(p) for p in cohort)):
        expected = oracle_roc(sub.patients)
        if expected is None:
            with pytest.raises(DegenerateDataError,
                               match="ROC needs at least one parasite and one distractor object"):
                object_roc(sub)
        else:
            roc = object_roc(sub)
            assert (curve_rows(roc), roc.auc) == expected


# A few shared values make heavy ties; the floats make distinct scores.
SCORES = st.one_of(
    st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.5000000000000001, 0.9, 1.0]),
    st.floats(min_value=0.0, max_value=1.0),
)


@st.composite
def cohorts(draw):
    """Up to 5 patients, any of them with no objects or a single class."""
    patients = []
    for i in range(draw(st.integers(1, 5))):
        parasites = draw(st.lists(SCORES, max_size=20))
        patients.append(make_patient(
            f"p{i}", positive=bool(parasites), parasite_scores=parasites,
            distractor_scores=draw(st.lists(SCORES, max_size=30)),
        ))
    return make_cohort(*patients)


@given(cohort=cohorts())
def test_object_roc_matches_rank_oracle(cohort):
    assert_roc_matches_oracle(cohort)


@pytest.mark.parametrize("parasites, distractors", [
    ((0.5,), (0.1, 0.5, 0.9)),          # one parasite, tied with a distractor
    ((0.2, 0.2, 0.7), (0.2,)),          # one distractor
    ((0.3,) * 40, (0.3,) * 60),         # every score tied
    ((1.0,), (0.0,)),                   # scores on both ends of [0, 1]
    ((0.0, 0.0), (0.0,)),               # every score 0: no accept-all sentinel
])
def test_one_object_of_a_class_and_full_ties(parasites, distractors):
    assert_roc_matches_oracle(make_cohort(make_patient(
        "p", positive=True, parasite_scores=parasites, distractor_scores=distractors,
    )))


def test_50000_to_1_worked_example():
    ex = paper_worked_examples()["auc-imbalance"]
    assert_roc_matches_oracle(ex["cohort"])
    assert object_roc(ex["cohort"]).auc == 0.999


def test_many_tied_objects_across_patients():
    rng = np.random.default_rng(5)
    patients = [
        make_patient(f"p{i}", positive=True,
                     parasite_scores=tuple(np.round(rng.beta(5, 2, 300), 3)),
                     distractor_scores=tuple(np.round(rng.beta(2, 5, 1200), 2)))
        for i in range(20)
    ]
    assert_roc_matches_oracle(make_cohort(*patients))


@pytest.mark.parametrize("cohort", [
    make_cohort(make_patient("n")),
    make_cohort(make_patient("n", distractor_scores=(0.4, 0.6))),
    make_cohort(make_patient("p", positive=True, parasite_scores=(0.4,))),
], ids=["no objects", "distractors only", "parasites only"])
def test_missing_class_raises(cohort):
    with pytest.raises(DegenerateDataError, match="ROC needs at least one parasite"):
        object_roc(cohort)


def min_volume_oracle(P, k_min, confidence):
    def attained(v):
        return float(poisson.sf(k_min - 1, P * v))

    lo, hi = 0.0, 1.0 / P
    while attained(hi) < confidence:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if attained(mid) >= confidence:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-6 * hi:
            break
    return hi


def test_min_volume_matches_poisson_sf_oracle():
    grid = itertools.product(
        (1e-3, 0.5, 1.0, 37.0, 100.0, 2.5e3, 1e5, 3e7),
        (1, 2, 3, 5, 10, 50, 400),
        (0.01, 0.5, 0.9, 0.95, 0.99, 0.999, 1 - 1e-9),
    )
    for P, k_min, confidence in grid:
        assert min_volume_for_detection(P, k_min, confidence) == \
            min_volume_oracle(P, k_min, confidence), (P, k_min, confidence)
