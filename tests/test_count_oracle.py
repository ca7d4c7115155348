"""Sorted-score counting and the FROC count matrix against the object loops.

``loop_patient_counts`` and ``loop_froc_points`` are the per-object loops
that counting at a threshold and ``froc`` used before patients kept sorted
score arrays; ``loop_patient_level_sens_spec`` is the patient-level
sensitivity and specificity before they were counted from one diagnosis
vector, with a dict of diagnoses and one member list per stratum. They stay
here as the reference, and the fast code must match them exactly: same
integers, same floats, same thresholds.
"""

import math
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from parasitometrics import curves
from parasitometrics.curves import froc, object_roc, precision_with_reexpression
from parasitometrics.datamodel import (
    GroundTruth,
    Species,
    counts_at,
    n_at_or_above,
    per_cv_counts,
)
from parasitometrics.errors import DegenerateDataError, InputError
from parasitometrics.metrics import (
    StratifiedResult,
    Stratum,
    patient_level_sens_spec,
    pooled_object_sensitivity,
)
from parasitometrics.quant import ExpectedRates, estimate_parasitemia, quant_report
from parasitometrics.simulator import SimConfig, generate_cohort

from conftest import curve_rows, make_cohort, make_patient, object_rows


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


def loop_froc_points(cohort):
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
        tp = sum(loop_patient_counts(p, c)[0] for p in positives)
        total = sum(_loop_n_parasites(p) for p in positives)
        points.append((fp_rate, tp / total, thr))
    return tuple(points)


def checked_loop_counts(patient, C):
    """``loop_patient_counts`` after the range check that counting at C makes."""
    if not (0.0 <= C <= 1.0):
        raise InputError(f"score threshold C={C} outside [0, 1]")
    return loop_patient_counts(patient, C)


def loop_pooled_object_sensitivity(cohort, C):
    tp = sum(checked_loop_counts(p, C)[0] for p in cohort.positives)
    contrib = {p.patient_id: _loop_n_parasites(p) for p in cohort.positives}
    total = sum(contrib.values())
    if total == 0:
        raise DegenerateDataError("cohort contains no parasite objects")
    dominant = max(contrib, key=contrib.get)
    if contrib[dominant] <= 0.5 * total:
        return tp / total, None
    warning = (f"patient {dominant!r} contributes {contrib[dominant]} of {total} parasite "
               "objects (>50%); pooled sensitivity is dominated by one patient")
    return tp / total, warning


def loop_patient_diagnoses(cohort, op):
    out = {}
    for p in cohort:
        _, _, _, _, TP, FP = checked_loop_counts(p, op.C)
        out[p.patient_id] = GroundTruth.POSITIVE if TP + FP >= op.T else GroundTruth.NEGATIVE
    return out


def loop_patient_level_sens_spec(cohort, op, bin_edges):
    diag = loop_patient_diagnoses(cohort, op)
    positives = [p for p in cohort if p.ground_truth is GroundTruth.POSITIVE]
    negatives = [p for p in cohort if p.ground_truth is GroundTruth.NEGATIVE]

    def stratum(label, members):
        hits = sum(1 for p in members if diag[p.patient_id] is GroundTruth.POSITIVE)
        return Stratum(label=label, n_patients=len(members), n_detected=hits,
                       value=(hits / len(members)) if members else None)

    bounds = [0.0, *bin_edges, math.inf]
    bins = tuple(zip(bounds, bounds[1:]))
    correct = sum(1 for p in negatives if diag[p.patient_id] is GroundTruth.NEGATIVE)
    return StratifiedResult(
        bins=bins,
        parasitemia_strata=tuple(
            stratum(f"({lo:g}, {'inf' if hi == math.inf else f'{hi:g}'}]",
                    [p for p in positives if lo < p.true_parasitemia <= hi])
            for lo, hi in bins),
        species_strata=tuple(stratum(sp.value, members) for sp in Species
                             if (members := [p for p in positives if p.species is sp])),
        overall=stratum("all", positives).value if positives else math.nan,
        specificity=correct / len(negatives) if negatives else None,
    )


def loop_precision(cohort, C, lod_parasitemia):
    if not (lod_parasitemia > 0):
        raise InputError("lod_parasitemia must be > 0")
    tp = fp = 0
    volume = 0.0
    for p in cohort:
        p_tp, p_fp, _, _, _, _ = checked_loop_counts(p, C)
        tp, fp = tp + p_tp, fp + p_fp
        volume += p.examined_volume
    if tp + fp == 0:
        raise DegenerateDataError("no objects pass the score threshold")
    return tp / (tp + fp), lod_parasitemia / (lod_parasitemia + fp / volume)


def loop_quant_per_patient(cohort, op, rates):
    positives = [p for p in cohort.positives if p.true_parasitemia > 0]
    if len(positives) < 2:
        raise DegenerateDataError("quantitation report needs >= 2 positive patients")
    per_patient, clamped = [], []
    for p in sorted(positives, key=lambda q: q.patient_id):
        tp, fp, _, _, _, _ = checked_loop_counts(p, op.C)
        est = estimate_parasitemia(tp + fp, p.examined_volume, rates)
        if est.negative_clamped:
            clamped.append(p.patient_id)
        p_true = p.true_parasitemia
        per_patient.append((p.patient_id, (est.P_hat, p_true, (est.P_hat - p_true) / p_true)))
    return per_patient, tuple(clamped)


def outcome(call):
    """A call's result with the type of each leaf, or its exception's type and text."""
    try:
        value = call()
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)
    return value, _types(value)


def _types(value):
    if isinstance(value, (tuple, list)):
        return [_types(v) for v in value]
    if isinstance(value, dict):
        return {k: _types(v) for k, v in value.items()}
    return type(value)


# A few shared values make heavy ties; the floats make distinct scores.
SCORES = st.one_of(
    st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.5000000000000001, 0.9, 1.0]),
    st.floats(min_value=0.0, max_value=1.0),
)
VOLUMES = st.one_of(st.sampled_from([0.1, 0.3, 1.0, 2.5]), st.floats(0.01, 10.0))


@st.composite
def cohorts(draw, scores=SCORES):
    """A cohort whose first patient is positive with at least one parasite.

    Either every patient has its own volume, or all share one: a power of two
    (FROC's exact FP-axis case) or 0.35.
    """
    shared = draw(st.sampled_from([None, 0.5, 1.0, 2.0, 0.35]))
    volumes = VOLUMES if shared is None else st.just(shared)
    patients = [
        make_patient(
            "pos0", positive=True, volume=draw(volumes),
            parasite_scores=draw(st.lists(scores, min_size=1, max_size=12)),
            distractor_scores=draw(st.lists(scores, max_size=12)),
        )
    ]
    for i in range(draw(st.integers(0, 5))):  # positives, maybe with no objects
        patients.append(make_patient(
            f"pos{i + 1}", positive=True, volume=draw(volumes),
            parasite_scores=draw(st.lists(scores, max_size=12)),
            distractor_scores=draw(st.lists(scores, max_size=12)),
        ))
    if draw(st.booleans()):  # else no negatives, so FP/cV falls back to all patients
        for i in range(draw(st.integers(1, 12))):
            patients.append(make_patient(
                f"neg{i}", volume=draw(volumes),
                distractor_scores=draw(st.lists(scores, max_size=12)),
            ))
    return make_cohort(*patients)


@given(cohort=cohorts(), data=st.data())
def test_patient_counts_match_loop(cohort, data):
    for p in cohort:
        on_score = [score for _, score, _ in object_rows(p)]
        C = data.draw(st.one_of(st.sampled_from(on_score), SCORES) if on_score else SCORES)
        tp = int(counts_at([p], [C], "parasite_scores")[0, 0])
        fp = int(counts_at([p], [C], "distractor_scores")[0, 0])
        fn, tn = p.n_parasite_objects - tp, len(p.distractor_scores) - fp
        v = p.examined_volume
        want = loop_patient_counts(p, C)
        assert (tp, fp, fn, tn, tp / v, fp / v) == want
        assert per_cv_counts([p], C).tolist() == [want[4] + want[5]]
        assert p.n_parasite_objects == _loop_n_parasites(p)
        assert len(p.distractor_scores) == sum(1 for _ in object_rows(p)) - _loop_n_parasites(p)


# outside [0, 1]; the int 2 must still be spelled C=2
BAD_C = st.sampled_from([-0.5, -5e-324, 1.0000000000000002, 2, math.inf, -math.inf, math.nan])


@settings(deadline=None)
@given(cohort=cohorts(), data=st.data())
def test_single_threshold_metrics_match_loop(cohort, data):
    if cohort.negatives and data.draw(st.booleans()):  # no positives, so no parasites
        cohort = make_cohort(*cohort.negatives)
    cohort = make_cohort(*data.draw(st.permutations(cohort.patients)))  # ids out of order
    on_score = [score for p in cohort for _, score, _ in object_rows(p)]
    C = data.draw(st.one_of(SCORES, BAD_C, *([st.sampled_from(on_score)] if on_score else [])))
    ns = [sum(loop_patient_counts(p, C)[4:]) for p in cohort] if 0.0 <= C <= 1.0 else []
    T = data.draw(st.one_of(st.floats(0.0, 100.0), *([st.sampled_from(ns)] if ns else [])))
    op = SimpleNamespace(C=C, T=T)  # not an OperatingPoint, so a bad C reaches the count
    lod = data.draw(st.one_of(st.sampled_from([100.0, 1.0, 0.0]), st.floats(1e-3, 1e4)))
    rates = ExpectedRates(F_hat=data.draw(st.sampled_from([0.0, 0.5, 5.0, 50.0])),
                          S_hat=data.draw(st.sampled_from([0.1, 0.5, 1.0])))

    def pooled():
        got = pooled_object_sensitivity(cohort, C)
        return got.value, got.imbalance_warning

    def precision():
        got = precision_with_reexpression(cohort, C, lod)
        return got.precision, got.precision_at_lod

    def quant():
        got = quant_report(cohort, op, rates)
        return list(got.per_patient.items()), got.clamped_patients  # in the order written

    assert outcome(pooled) == outcome(lambda: loop_pooled_object_sensitivity(cohort, C))
    assert outcome(precision) == outcome(lambda: loop_precision(cohort, C, lod))
    assert outcome(quant) == outcome(lambda: loop_quant_per_patient(cohort, op, rates))


# strictly ascending, positive and finite; the sampled values are also drawn as
# parasitemias, so patients sit exactly on an edge
EDGES = st.lists(st.sampled_from([1.0, 2.0, 50.0, 200.0]) | st.floats(1e-3, 1e4),
                 max_size=4, unique=True).map(lambda edges: tuple(sorted(edges)))
SPECIES = st.sampled_from([sp for sp in Species if sp is not Species.NONE])


@settings(deadline=None)
@given(cohort=cohorts(), edges=EDGES, data=st.data())
def test_patient_level_sens_spec_matches_loop(cohort, edges, data):
    if cohort.negatives and data.draw(st.booleans()):  # no positives
        cohort = make_cohort(*cohort.negatives)
    cohort = make_cohort(*(
        p if p.ground_truth is GroundTruth.NEGATIVE else
        replace(p, species=data.draw(SPECIES),
                true_parasitemia=data.draw(st.sampled_from([1.0, 2.0, 50.0, 200.0, *edges])
                                           | st.floats(1e-3, 1e5)))
        for p in data.draw(st.permutations(cohort.patients))))
    on_score = [score for p in cohort for _, score, _ in object_rows(p)]
    C = data.draw(st.one_of(SCORES, BAD_C, *([st.sampled_from(on_score)] if on_score else [])))
    ns = [sum(loop_patient_counts(p, C)[4:]) for p in cohort] if 0.0 <= C <= 1.0 else []
    T = data.draw(st.one_of(st.floats(0.0, 100.0), *([st.sampled_from(ns)] if ns else [])))
    op = SimpleNamespace(C=C, T=T)  # not an OperatingPoint, so a bad C reaches the count
    # by repr: every stratum, the overall sensitivity and the specificity, with
    # their types (np.float64 and float differ in repr under numpy 2)
    assert outcome(lambda: repr(patient_level_sens_spec(cohort, op, edges))) == \
        outcome(lambda: repr(loop_patient_level_sens_spec(cohort, op, edges)))


def test_precision_pools_volume_as_a_running_sum():
    # a running sum of [0.1, 0.2, 0.3] * 5 is 3.0000000000000004; np.sum, and
    # sum() on Python >= 3.12, give 3.0, and so another precision_at_lod at LoD 1
    cohort = make_cohort(*(make_patient(f"neg{i:02d}", volume=v, distractor_scores=(0.9,) * 7)
                           for i, v in enumerate([0.1, 0.2, 0.3] * 5)))
    got = precision_with_reexpression(cohort, 0.5, 1.0)
    assert (got.precision, got.precision_at_lod) == loop_precision(cohort, 0.5, 1.0)
    assert got.precision_at_lod == 1.0 / (1.0 + 105 / 3.0000000000000004)
    assert got.precision_at_lod != 1.0 / (1.0 + 105 / 3.0)


@settings(max_examples=150)
@given(
    cohort=cohorts(),
    block=st.sampled_from([1, 3, 4096]),
)
def test_froc_matches_loop(cohort, block):
    with mock.patch.object(curves, "_FROC_BLOCK", block):
        got = froc(cohort)
    assert curve_rows(got) == loop_froc_points(cohort)
    assert got.notes == (() if cohort.negatives else (
        "no negative patients: FP/cV computed over all patients",))


@settings(max_examples=300)
@given(cohort=cohorts(scores=SCORES | st.sampled_from([-0.0, 0.0])))
def test_froc_has_the_object_roc_thresholds_and_y(cohort):
    # both curves build the same threshold column, so even where the scores
    # hold both -0.0 and 0.0 the FROC prints the zero that the object ROC prints
    def thresholds_and_y(curve):
        return [(repr(y), repr(thr)) for _, y, thr in curve_rows(curve)]

    assume(any(len(p.distractor_scores) for p in cohort))  # the ROC needs a distractor
    assert thresholds_and_y(froc(cohort)) == thresholds_and_y(object_roc(cohort))


def test_a_cohort_whose_only_zeros_are_negative_ends_both_curves_at_negative_zero():
    # a lowest score of -0.0 is the accept-all threshold itself, printed as it
    # was read, with no 0.0 row after it
    cohort = make_cohort(
        make_patient("neg", distractor_scores=(-0.0, 0.3)),
        make_patient("pos", positive=True, parasite_scores=(0.5, -0.0)),
    )
    for curve in (object_roc(cohort), froc(cohort)):
        assert [repr(thr) for _, _, thr in curve_rows(curve)] == ["inf", "0.5", "0.3", "-0.0"]
        assert curve_rows(curve)[-1][1] == 1.0


def _assert_froc_matches_loop_on_300_negatives(volume=None):
    # 300 negatives: the per-threshold FP means sum hundreds of values, where
    # numpy's pairwise summation differs from a running sum
    rng = np.random.default_rng(7)
    negatives = [
        make_patient(f"neg{i}", volume=volume or float(rng.uniform(0.05, 3.0)),
                     distractor_scores=tuple(np.round(rng.random(3), 2)))
        for i in range(300)
    ]
    positive = make_patient("pos", positive=True, parasite_scores=(0.3, 0.7, 0.7, 0.95),
                            distractor_scores=(0.5,))
    cohort = make_cohort(positive, *negatives)
    assert curve_rows(froc(cohort)) == loop_froc_points(cohort)


def test_froc_matches_loop_on_many_patients():
    _assert_froc_matches_loop_on_300_negatives()


def test_froc_matches_loop_on_many_patients_of_one_dyadic_volume():
    # FROC's exact case: the FP axis is total / v / n, without a per-patient mean
    _assert_froc_matches_loop_on_300_negatives(volume=0.5)


@settings(max_examples=100)
@given(cohort=cohorts(), volumes=st.sampled_from([(0.5,), (1.0,), (2.0,), (0.35,), (1.0, 2.0)]),
       block=st.sampled_from([1, 2, 4096]))
def test_froc_counts_patients_only_where_the_fp_total_changes(cohort, volumes, block):
    fp_ids = {p.patient_id for p in (cohort.negatives or cohort.patients)}
    assume(len(volumes) == 1 or len(fp_ids) > 1)  # mixed volumes need two FP patients
    cohort = make_cohort(*(replace(p, examined_volume=volumes[i % len(volumes)])
                           for i, p in enumerate(cohort.patients)))
    with mock.patch.object(curves, "_FROC_BLOCK", block), \
            mock.patch.object(curves, "n_at_or_above", wraps=n_at_or_above) as spy:
        got = froc(cohort)
    assert curve_rows(got) == loop_froc_points(cohort)
    # the first call counts the FP patients' total and the last the parasites
    # for the y axis; between them each block of thresholds counts every FP
    # patient once, in cohort order
    calls = [call.args for call in spy.call_args_list[1:-1]]
    fp_scores = [p.distractor_scores for p in cohort if p.patient_id in fp_ids]
    blocks = [t for _, t in calls[::len(fp_scores)]]
    rows = [float(t) for block_rows in blocks for t in block_rows]
    if volumes in [(0.5,), (1.0,), (2.0,)]:  # one power-of-two volume: no per-patient count
        assert calls == []
    else:  # a total changes only at a threshold equal to some FP patient's distractor
        assert rows == sorted({float(s) for scores in fp_scores for s in scores}, reverse=True)
        assert [id(scores) for scores, _ in calls] == [id(s) for s in fp_scores] * len(blocks)
        assert all(np.array_equal(t, blocks[i // len(fp_scores)])
                   for i, (_, t) in enumerate(calls))
        # the block holds at most _FROC_BLOCK counts, and at least one threshold's row
        assert all(len(t) <= max(1, block // len(fp_scores)) for t in blocks)


def test_froc_memory_stays_within_a_few_curves():
    # 200 + 200 patients at 1 cV, 86,620 points: one power-of-two volume needs
    # no (threshold block x patient) count matrix, which would peak at about
    # 8 times the 2.1 MB curve
    cohort = generate_cohort(SimConfig(seed=0, n_negative=200, n_positive=200))
    froc(cohort)  # numpy's first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        got = froc(cohort)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(got.points) == 86_620
    assert peak <= 6 * got.points.nbytes  # about 4.4 times


def test_froc_memory_outside_the_exact_case_stays_within_one_block():
    # 1000 negatives at 0.35 cV with 5 distractors each: a mean over patients
    # at each of their 5,000 scores, from one block of _FROC_BLOCK floats
    # (8 MB); count matrices of 4096 thresholds by 1000 patients, stacked and
    # then divided by the volumes, peaked at about 63 MB
    rng = np.random.default_rng(3)
    cohort = make_cohort(
        make_patient("pos", positive=True, parasite_scores=(0.3, 0.7, 0.95),
                     distractor_scores=(0.5,)),
        *(make_patient(f"neg{i}", volume=0.35, distractor_scores=tuple(rng.random(5)))
          for i in range(1000)))
    froc(cohort)  # numpy's first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        got = froc(cohort)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(got.points) == 5_006
    assert peak <= 12 * 2**20  # about 8.6 MB
