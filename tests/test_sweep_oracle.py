"""The count-matrix sweeps against the per-threshold loops they replaced.

``loop_fpr_distribution``, ``loop_sensitivity_distribution``,
``loop_estimate_lod``, ``loop_tuning_row`` and ``loop_tune`` are the tuner's
per-C code before F and S came from one (threshold x patient) count matrix;
``loop_patient_roc`` is the patient ROC before it counted each patient's N
once and swept T over the sorted N, diagnosing every patient at each T with
``loop_patient_diagnoses``. They stay here as the reference, and the
sweeps must match them exactly: same rows, same floats, same value types,
same exceptions. ``loop_estimate_lod`` scales its numerator with the target
specificity K, as the LoD does since it follows K rather than a fixed 95%, and
labels every estimate but the robust one gaussian, the formula it used.
``loop_tune`` raises the cohort-level error of a validation set with no
negatives, or of positives with no parasite objects, before its per-C loop.
"""

import math
from dataclasses import replace
from statistics import NormalDist

import pytest
from hypothesis import given, settings, strategies as st

from parasitometrics.calibration import (
    CalibrationConfig,
    CalibrationMethod,
    LodEstimate,
    OperatingPoint,
    TuningRow,
    calibrate_threshold,
    estimate_lod,
    tune_operating_point,
)
from parasitometrics.curves import patient_roc
from parasitometrics.datamodel import GroundTruth
from parasitometrics.errors import DegenerateDataError, InputError
from parasitometrics.metrics import (
    MetricDistribution,
    fpr_distribution,
    fpr_distributions,
    sensitivity_distribution,
    sensitivity_distributions,
)
from parasitometrics.stats import summarize

from conftest import curve_rows, make_cohort, make_patient, object_rows
from test_count_oracle import (
    SCORES,
    VOLUMES,
    checked_loop_counts,
    loop_patient_counts,
    loop_patient_diagnoses,
)


def loop_fpr_distribution(cohort, C, negatives_only=True):
    if negatives_only:
        patients = [p for p in cohort if p.ground_truth is GroundTruth.NEGATIVE]
    else:
        patients = list(cohort.patients)
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
    per = {p.patient_id: checked_loop_counts(p, C)[5] for p in patients}
    return MetricDistribution(per_patient=per, summary=summarize(per.values()),
                              warnings=warnings)


def loop_sensitivity_distribution(cohort, C):
    per, excluded = {}, []
    for p in cohort.positives:
        tp, _, fn, _, _, _ = checked_loop_counts(p, C)
        n_parasites = tp + fn
        if n_parasites == 0:
            excluded.append(p.patient_id)
        else:
            per[p.patient_id] = tp / n_parasites
    if not per:
        raise DegenerateDataError("no positive patients with parasite objects")
    return MetricDistribution(per_patient=per, summary=summarize(per.values()),
                              excluded=tuple(excluded))


def loop_estimate_lod(F, S, cfg):
    fs, ss = F.summary, S.summary
    z = math.ceil(100 * NormalDist().inv_cdf(cfg.K)) / 100
    if cfg.method is CalibrationMethod.ROBUST:
        if fs.n < 2:
            raise DegenerateDataError("robust LoD needs >= 2 negative patients")
        denom = ss.median
        if cfg.beta is not None:
            denom = ss.median - cfg.beta * ss.std
        if denom <= 0:
            raise DegenerateDataError(f"LoD denominator {denom} <= 0")
        numer = z * (fs.sigma_left + fs.sigma_right)
        if cfg.plus_one:
            numer += 1.0
        return LodEstimate(L=numer / denom, method=cfg.method, mu_S=denom,
                           sigma_left_F=fs.sigma_left, sigma_right_F=fs.sigma_right,
                           plus_one=cfg.plus_one, beta=cfg.beta)
    if fs.n < 2:
        raise DegenerateDataError("LoD needs >= 2 negative patients")
    denom = ss.mean
    if cfg.beta is not None:
        denom = ss.mean - cfg.beta * ss.std
    if denom <= 0:
        raise DegenerateDataError(f"LoD denominator {denom} <= 0")
    numer = 2 * z * fs.std
    if cfg.plus_one:
        numer += 1.0
    return LodEstimate(L=numer / denom, method=CalibrationMethod.GAUSSIAN, mu_S=denom,
                       sigma_F=fs.std, plus_one=cfg.plus_one, beta=cfg.beta)


def loop_tuning_row(train_positives, validation_negatives, validation_positives, C, cfg):
    s_cohort = validation_positives if validation_positives is not None else train_positives
    F = loop_fpr_distribution(validation_negatives, C, negatives_only=True)
    S = loop_sensitivity_distribution(s_cohort, C)
    T = calibrate_threshold(F, cfg)
    lod = loop_estimate_lod(F, S, cfg)
    return TuningRow(C=C, T=T, lod=lod.L, mu_F=F.summary.mean, sigma_F=F.summary.std,
                     sigma_left_F=F.summary.sigma_left,
                     sigma_right_F=F.summary.sigma_right, mu_S=lod.mu_S)


def loop_tune(train_positives, validation_negatives, validation_positives, K, C_grid, cfg):
    cfg = replace(cfg, K=K)
    # a cohort with no F or no S at any C fails as a whole, not C by C
    if not any(p.ground_truth is GroundTruth.NEGATIVE for p in validation_negatives):
        raise DegenerateDataError("no negative patients for FPR distribution")
    s_cohort = validation_positives if validation_positives is not None else train_positives
    if not any(parasite for p in s_cohort.positives for _, _, parasite in object_rows(p)):
        raise DegenerateDataError("no positive patients with parasite objects")
    table, skipped, best = [], [], None
    for c in sorted(set(float(c) for c in C_grid)):
        try:
            row = loop_tuning_row(train_positives, validation_negatives,
                                  validation_positives, c, cfg)
        except DegenerateDataError as exc:
            skipped.append((c, str(exc)))
            continue
        table.append(row)
        if best is None or row.lod < best.lod or (row.lod == best.lod and row.C > best.C):
            best = row
    if best is None:
        raise DegenerateDataError(
            "no C in the grid produced a well-defined (T, LoD) pair"
        )
    return OperatingPoint(C=best.C, T=best.T), table, skipped


def loop_patient_roc(cohort, C, T_grid):
    ts = sorted(set(float(t) for t in T_grid), reverse=True)
    points = []
    for t in ts:
        diag = loop_patient_diagnoses(cohort, OperatingPoint(C=C, T=t))
        detected = [diag[p.patient_id] is GroundTruth.POSITIVE for p in cohort.positives]
        rejected = [diag[p.patient_id] is GroundTruth.NEGATIVE for p in cohort.negatives]
        spec = sum(rejected) / len(rejected)
        points.append((1.0 - spec, sum(detected) / len(detected), t))
    return tuple(points)


def outcome(fn, *args):
    """A call's result, or its exception's type and text."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)


def types(value):
    """The value's shape with every leaf replaced by its type."""
    if isinstance(value, (tuple, list)):
        return [types(v) for v in value]
    if isinstance(value, dict):
        return {k: types(v) for k, v in value.items()}
    if isinstance(value, (TuningRow, LodEstimate)):
        return types(vars(value))
    return type(value)


def dist_fields(md):
    return md.per_patient, types(md.per_patient), md.summary, md.excluded, md.warnings


def positives_cohort(draw, prefix, min_size):
    """Positives, some with no parasite objects; heavy ties from SCORES."""
    return make_cohort(*[
        make_patient(
            f"{prefix}{i}", positive=True, volume=draw(VOLUMES),
            parasite_scores=draw(st.lists(SCORES, max_size=10)),
            distractor_scores=draw(st.lists(SCORES, max_size=10)),
        )
        for i in range(draw(st.integers(min_size, 6)))
    ])


@st.composite
def tuner_inputs(draw):
    negatives = make_cohort(*[
        make_patient(f"neg{i}", volume=draw(VOLUMES),
                     distractor_scores=draw(st.lists(SCORES, max_size=10)))
        for i in range(draw(st.integers(1, 10)))  # one negative: every C degenerate
    ])
    train = positives_cohort(draw, "tp", 1)
    validation = positives_cohort(draw, "vp", 1) if draw(st.booleans()) else None
    on_score = sorted({score for c in (negatives, train, validation) if c
                       for p in c for _, score, _ in object_rows(p)})
    grid = draw(st.lists(
        st.one_of(st.sampled_from(on_score), SCORES) if on_score else SCORES,
        min_size=1, max_size=12,
    ))
    cfg = CalibrationConfig(
        method=draw(st.sampled_from([CalibrationMethod.GAUSSIAN, CalibrationMethod.ROBUST,
                                     CalibrationMethod.PERCENTILE])),
        beta=draw(st.sampled_from([None, 0.0, 0.5, 2.0])),
        plus_one=draw(st.booleans()),
    )
    K = draw(st.sampled_from([0.9, 0.95, 0.99]))
    return train, negatives, validation, K, grid, cfg


@settings(max_examples=150, deadline=None)
@given(inputs=tuner_inputs())
def test_tuner_matches_per_c_loop(inputs):
    train, negatives, validation, K, grid, cfg = inputs
    got = outcome(tune_operating_point, train, negatives, validation, grid, replace(cfg, K=K))
    want = outcome(loop_tune, train, negatives, validation, K, grid, cfg)
    assert got == want
    assert types(got) == types(want)


@settings(max_examples=150, deadline=None)
@given(inputs=tuner_inputs(), negatives_only=st.booleans())
def test_distributions_match_per_c_loop(inputs, negatives_only):
    train, negatives, _, _, grid, cfg = inputs
    mixed = make_cohort(*train.patients, *negatives.patients)
    for cohort in (train, negatives, mixed):
        for fast, loop in ((fpr_distributions, loop_fpr_distribution),
                           (sensitivity_distributions, loop_sensitivity_distribution)):
            extra = (negatives_only,) if fast is fpr_distributions else ()
            got = outcome(fast, cohort, grid, *extra)
            if not isinstance(got, tuple):  # errors come from the call, none from a row
                got = list(got)
                assert len(got) == len(grid)
                for c, md in zip(grid, got):
                    assert dist_fields(md) == dist_fields(loop(cohort, c, *extra))
            else:
                assert got == outcome(loop, cohort, grid[0], *extra)
    for c in grid:
        F = fpr_distribution(negatives, c)
        S = outcome(sensitivity_distribution, train, c)
        if isinstance(S, MetricDistribution):
            got, want = outcome(estimate_lod, F, S, cfg), outcome(loop_estimate_lod, F, S, cfg)
            assert got == want
            assert types(got) == types(want)


@st.composite
def roc_inputs(draw):
    patients = [make_patient("neg0", volume=draw(VOLUMES),
                             distractor_scores=draw(st.lists(SCORES, max_size=10)))]
    patients += [
        make_patient(f"neg{i + 1}", volume=draw(VOLUMES),
                     distractor_scores=draw(st.lists(SCORES, max_size=10)))
        for i in range(draw(st.integers(0, 8)))
    ]
    patients += positives_cohort(draw, "pos", 1).patients
    cohort = make_cohort(*patients)
    C = draw(SCORES)
    ns = [sum(loop_patient_counts(p, C)[4:]) for p in cohort]
    t_grid = draw(st.lists(
        st.one_of(st.sampled_from(ns), st.floats(0.0, 100.0), st.just(0.0)),
        min_size=1, max_size=41,
    ))
    return cohort, C, t_grid


@settings(max_examples=150, deadline=None)
@given(inputs=roc_inputs())
def test_patient_roc_matches_per_t_loop(inputs):
    cohort, C, t_grid = inputs
    curve = patient_roc(cohort, C, t_grid)
    points = loop_patient_roc(cohort, C, t_grid)
    assert curve_rows(curve) == points
    assert types(curve_rows(curve)) == types(points)


def test_one_negative_makes_every_c_degenerate():
    negatives = make_cohort(make_patient("n1", distractor_scores=(0.2, 0.6)))
    train = make_cohort(make_patient("p1", positive=True, parasite_scores=(0.7, 0.9)))
    with pytest.raises(DegenerateDataError,
                       match=r"no C in the grid produced a well-defined \(T, LoD\) pair"):
        tune_operating_point(train, negatives, None, [0.0, 0.5, 1.0])


def test_positives_without_parasites_make_every_c_degenerate():
    negatives = make_cohort(make_patient("n1", distractor_scores=(0.2,)),
                            make_patient("n2", distractor_scores=(0.6,)))
    train = make_cohort(make_patient("p1", positive=True, distractor_scores=(0.5,)))
    with pytest.raises(DegenerateDataError, match="no positive patients with parasite objects"):
        tune_operating_point(train, negatives, None, [0.0, 0.5])
    with pytest.raises(DegenerateDataError, match="no positive patients with parasite objects"):
        sensitivity_distributions(train, [0.0, 0.5])


def test_distribution_values_are_python_floats(mixed_cohort):
    for md in (fpr_distribution(mixed_cohort, 0.5),
               fpr_distribution(mixed_cohort, 0.5, negatives_only=False),
               sensitivity_distribution(mixed_cohort, 0.5)):
        assert md.per_patient and all(type(v) is float for v in md.per_patient.values())


@pytest.mark.parametrize("C", [-0.1, 1.5, math.nan])
def test_out_of_range_c_raises(mixed_cohort, C):
    with pytest.raises(InputError, match=rf"score threshold C={C} outside \[0, 1\]"):
        fpr_distributions(mixed_cohort, [0.5, C])
    with pytest.raises(InputError, match=rf"score threshold C={C} outside \[0, 1\]"):
        sensitivity_distributions(mixed_cohort, [C])


@pytest.mark.parametrize("C, T", [
    (0.5, -1.0), (0.5, math.nan), (0.5, math.inf), (1.5, 1.0), (math.nan, 1.0),
])
def test_patient_roc_rejects_bad_c_or_t(mixed_cohort, C, T):
    with pytest.raises(InputError, match="T=" if C == 0.5
                       else r"^score threshold C=.* outside \[0, 1\]$"):
        patient_roc(mixed_cohort, C, [0.0, T, 2.0])
