"""``write_report`` against the writers it replaced, and the numpy.ma-free helpers.

``old_report_json`` and ``old_curve_csv`` are what ``write_report`` wrote
before each curve's points were formatted once for both files:
``json.dump`` of ``_document`` with each curve's points as a list,
``indent=2`` and ``sort_keys=True``, plus a newline, and ``csv.writer`` over
``(repr(thr), repr(x), repr(y))``. They stay here as the reference: for any
report, in either format, ``report.json`` and every ``curve_<name>.csv``
must have the same bytes.

``sorted_median``, ``DistSummary.percentile`` and ``distinct_sorted``
replace ``np.median``, ``np.percentile`` and ``np.unique``, which load
``numpy.ma``; they are checked against all three.

``old_summarize`` is ``summarize`` as it was when it called ``arr.mean()``,
``arr.std()`` and ``np.mean``; ``summarize`` now takes the same
``np.add.reduce`` sums itself, and must give every field the same bits.
"""

import csv
import functools
import io
import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parasitometrics.calibration import (
    CalibrationConfig,
    CalibrationMethod,
    OperatingPoint,
    estimate_lod,
)
from parasitometrics.curves import CurvePoints, froc, object_roc, patient_roc
from parasitometrics.datamodel import distinct_sorted
from parasitometrics.metrics import (
    MetricDistribution,
    fpr_distribution,
    patient_level_sens_spec,
    pooled_object_sensitivity,
    sensitivity_distribution,
)
from parasitometrics.quant import ExpectedRates, quant_report
from parasitometrics.report import _CURVE_BLOCK, EvaluationReport, _document, write_report
from parasitometrics.simulator import SimConfig, generate_cohort
from parasitometrics.stats import sorted_median, summarize

from conftest import curve_rows


def old_report_json(report) -> bytes:
    buf = io.StringIO()
    json.dump(_document(report, lambda name, c: c.points.tolist()), buf, indent=2,
              sort_keys=True)
    buf.write("\n")
    return buf.getvalue().encode("utf-8")


def old_curve_csv(curve) -> bytes:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(("threshold", "x", "y"))
    writer.writerows((repr(thr), repr(x), repr(y)) for x, y, thr in curve_rows(curve))
    return buf.getvalue().encode("utf-8")


def assert_matches_old_writer(report, out_dir, fmt):
    written = write_report(report, out_dir, fmt=fmt)
    assert (out_dir / "report.json").read_bytes() == old_report_json(report)
    curve_files = [p for p in written if p.rsplit("/", 1)[-1].startswith("curve_")]
    if fmt == "json":
        assert written == [str(out_dir / "report.json")] and not curve_files
        return
    assert curve_files == [str(out_dir / f"curve_{name}.csv") for name in report.curves]
    for name, curve in report.curves.items():
        assert (out_dir / f"curve_{name}.csv").read_bytes() == old_curve_csv(curve)


@functools.lru_cache(maxsize=None)
def _base_report() -> EvaluationReport:
    """Every section of a report, from a small simulated cohort."""
    cohort = generate_cohort(SimConfig(seed=2, n_negative=4, n_positive=5))
    op = OperatingPoint(C=0.5, T=2.0)
    fpr = fpr_distribution(cohort, op.C, negatives_only=True)
    sens = sensitivity_distribution(cohort, op.C)
    return EvaluationReport(
        cv_description=cohort.cv_description,
        provenance="simulated",
        operating_point=op,
        fpr=fpr,
        sensitivity=sens,
        pooled_sensitivity=pooled_object_sensitivity(cohort, op.C).value,
        patient_level=patient_level_sens_spec(cohort, op),
        lod_estimates=[estimate_lod(fpr, sens, CalibrationConfig(method=m))
                       for m in (CalibrationMethod.GAUSSIAN, CalibrationMethod.ROBUST)],
        curves={"object_roc": object_roc(cohort), "froc": froc(cohort),
                "patient_roc": patient_roc(cohort, op.C, range(0, 41))},
        quantitation=quant_report(cohort, op, ExpectedRates(F_hat=1.0, S_hat=0.8),
                                  (sens, fpr)),
        warnings=["pooled sensitivity hides imbalance"],
    )


# write_report finds each curve's points at the text '"points": "<name>"' in
# json.dumps's output; strings made of these pieces spell that text, and the
# names alone, wherever a report holds a string or a per-patient id
SPLICE = st.lists(st.sampled_from(['"points": "froc"', '"points": ', '"points"', "points",
                                   "froc", "object_roc", "patient_roc", '"', "\\", ": ",
                                   "\n  "]),
                  min_size=1, max_size=4).map("".join)
# quotes, backslashes, non-ASCII, control characters and lone surrogates: these
# only reach report.json; ids also reach the UTF-8 CSV tables, so no surrogates
TEXT = st.one_of(
    st.text(max_size=8),
    st.text(alphabet=st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é€😀\ud800\udfff'),
            min_size=1, max_size=8),
    SPLICE,
)
IDS = st.one_of(
    st.text(alphabet=st.sampled_from('ab,"\\\n\r\t\x00\x1f é€😀'), max_size=6),
    st.sampled_from(["points", "froc"]),
    SPLICE,
)
# a curve holds float64, so the ints are stored, and written, as floats
NUMBERS = st.one_of(
    st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, 1e16, 1.0, 0.25]),
    st.floats(),
    st.integers(0, 40),  # patient ROC's T grid is range(0, 41) when T <= 0
)
POINTS = st.lists(st.tuples(NUMBERS, NUMBERS, NUMBERS), max_size=12)
CURVES = st.lists(st.sampled_from(["object_roc", "sliver_roc", "froc", "patient_roc"]),
                  unique=True, max_size=4)


@st.composite
def curves(draw):
    out = {}
    for name in draw(CURVES):
        points = draw(POINTS)
        if points and draw(st.booleans()):
            points = [(0.0, 0.0, math.inf)] + points  # reject-all sentinel
        out[name] = CurvePoints(
            points=tuple(points),
            auc=draw(st.none() | st.floats()), notes=tuple(draw(st.lists(TEXT, max_size=2))))
    return out


@st.composite
def distributions(draw):
    ids = draw(st.lists(IDS, min_size=1, max_size=5, unique=True))
    values = draw(st.lists(st.sampled_from([0.0, -0.0, 5e-324, 1e16]) | st.floats(0, 100),
                           min_size=len(ids), max_size=len(ids)))
    return MetricDistribution(per_patient=dict(zip(ids, values)), summary=summarize(values),
                              excluded=tuple(draw(st.lists(IDS, max_size=2))),
                              warnings=tuple(draw(st.lists(TEXT, max_size=2))))


@st.composite
def reports(draw):
    base = _base_report()
    report = EvaluationReport(**{**vars(base), "curves": draw(curves())})
    report.cv_description = draw(TEXT)
    report.provenance = draw(TEXT)
    report.warnings = draw(st.lists(TEXT, max_size=3))
    if draw(st.booleans()):
        report.fpr = draw(distributions())
        report.sensitivity = draw(distributions())
    if draw(st.booleans()):
        report.patient_level = replace(report.patient_level, specificity=None)
    for section in draw(st.lists(st.sampled_from(
            ["operating_point", "pooled_sensitivity", "quantitation"]),
            unique=True)):
        setattr(report, section, None)
    return report


@settings(max_examples=200, deadline=None)
@given(report=reports(), fmt=st.sampled_from(["json", "csv"]))
def test_write_report_matches_json_dump_and_csv_writer(report, fmt, tmp_path_factory):
    assert_matches_old_writer(report, tmp_path_factory.mktemp("r"), fmt)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_simulated_report_matches_old_writer(fmt, tmp_path):
    report = _base_report()
    assert all(report.curves.values())
    assert_matches_old_writer(report, tmp_path, fmt)


@pytest.mark.parametrize("text", ['"points": "froc"', '{"points": "object_roc"}',
                                  '\\"points\\": \\"froc\\"', 'patient_roc"', '"points": '])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_text_that_spells_a_placeholder(text, fmt, tmp_path):
    base = _base_report()
    curves = {name: replace(c, notes=(text, name)) for name, c in base.curves.items()}
    fpr = replace(base.fpr, per_patient={"points": 0.5, text: 1.0, "froc": 2.0},
                  warnings=(text,))
    report = EvaluationReport(**{**vars(base), "cv_description": text, "provenance": text,
                                 "warnings": [text, "froc"], "fpr": fpr, "curves": curves})
    assert_matches_old_writer(report, tmp_path, fmt)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_curves_longer_than_a_block(fmt, tmp_path):
    n = 2 * _CURVE_BLOCK + 3
    floats = [(i / n, 1.0 - i / n, (n - i) / 7) for i in range(n)]
    odd = list(floats)
    odd[_CURVE_BLOCK + 5] = (1.0, 0.5, -math.inf)  # only the second block
    report = EvaluationReport(**{**vars(_base_report()), "curves": {
        "froc": CurvePoints(((0.0, 0.0, math.inf), *floats)),
        "object_roc": CurvePoints(tuple(odd), auc=0.5),
        "patient_roc": CurvePoints(((0.0, 1.0, float("nan")),) * n),
    }})
    assert_matches_old_writer(report, tmp_path, fmt)


def test_points_must_be_triples():
    for points in (((0.0, 0.0, 1.0), (0.5, 0.5)),  # ragged
                   np.zeros((3, 2)),  # as many values as two triples
                   [0.0, 0.0, 1.0]):  # one triple, flat
        with pytest.raises(ValueError):
            CurvePoints(points)


# --- the helpers that replace np.median, np.percentile and np.unique --------

FINITE = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, 1e16]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _check_median(values):
    arr = np.array(values, dtype=float)
    with warnings.catch_warnings():  # a mean of two huge values overflows in both
        warnings.simplefilter("ignore", RuntimeWarning)
        got, want = sorted_median(np.sort(arr)), float(np.median(arr))
        assert repr(summarize(values).median) == repr(got)
    zero_signs = {math.copysign(1.0, v) for v in values if v == 0.0}
    if got == 0.0 and len(zero_signs) == 2:
        # which of two equal zeros sits in the middle is the sort's choice
        assert got == want
    else:
        assert repr(got) == repr(want)


@pytest.mark.parametrize("values", [
    [3.0], [-0.0], [2.0, 1.0], [1.0, 2.0, 3.0, 4.0], [5.0, 1.0, 3.0],
    [1.0, 1.0, 2.0, 2.0], [0.1, 0.2], [1e308, 1.7e308], [-0.0, 0.0], [0.0, -0.0, 1.0],
    [-0.0, -0.0, 1.0], [5e-324, 5e-324, 0.0],
], ids=str)
def test_sorted_median_cases(values):
    _check_median(values)


@settings(max_examples=500, deadline=None)
@given(st.lists(FINITE, min_size=1, max_size=40) | st.lists(
    st.sampled_from([0.0, -0.0, 0.5, 1.0]), min_size=1, max_size=40))
def test_sorted_median_matches_np_median(values):
    _check_median(values)


@settings(max_examples=500, deadline=None)
@given(st.lists(FINITE, max_size=60) | st.lists(
    st.sampled_from([0.0, -0.0, 0.25, 1.0]), max_size=60))
def test_distinct_sorted_matches_np_unique(values):
    arr = np.array(values, dtype=float)
    got, want = distinct_sorted(arr), np.unique(arr)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _check_percentile(values, q):
    with warnings.catch_warnings():  # spans of huge values overflow in both
        warnings.simplefilter("ignore", RuntimeWarning)
        summary = summarize(values)
        got = summary.percentile(q)
        want = float(np.percentile(summary._sorted, q, method="linear"))
    zero_signs = {math.copysign(1.0, v) for v in values if v == 0.0}
    if got == 0.0 and len(zero_signs) == 2:
        # which of two equal zeros np.percentile's partition leaves where is its choice
        assert got == want
    else:
        assert repr(got) == repr(want)


QS = st.sampled_from([0, 0.0, 100, 100.0, 50, 5, 95, 99.9, 0.1]) | st.floats(0.0, 100.0)


@pytest.mark.parametrize("values", [
    [3.0], [-0.0], [2.0, 1.0], [1.0, 2.0, 3.0, 4.0], [0.0, -0.0, 1.0], [-0.0, -0.0],
    [1.0, 1.0, 2.0, 2.0], [0.1, 0.2, 0.7], [1e308, 1.7e308], [-1.7e308, 1.7e308],
], ids=str)
@pytest.mark.parametrize("q", [0, 25, 50, 95, 99.9, 100.0])
def test_percentile_cases(values, q):
    _check_percentile(values, q)


@settings(max_examples=500, deadline=None)
@given(st.lists(FINITE, min_size=1, max_size=40) | st.lists(
    st.sampled_from([0.0, -0.0, 0.5, 1.0]), min_size=1, max_size=40), QS)
def test_percentile_matches_np_percentile(values, q):
    _check_percentile(values, q)


# --- summarize against the numpy calls it replaced ---------------------------

def old_summarize(values) -> tuple:
    arr = np.asarray(list(values), dtype=float)
    ascending = np.sort(arr)
    n = len(ascending)
    med = float(ascending[(n - 1) // 2:n // 2 + 1].mean())
    right = arr[arr >= med] - med
    left = arr[arr <= med] - med
    return (int(arr.size), float(arr.mean()), med, float(arr.std()),
            float(np.sqrt(np.mean(left**2))), float(np.sqrt(np.mean(right**2))),
            tuple(ascending.tolist()))


PER_CV = st.builds(lambda k, v: k / v, st.integers(0, 5000), st.sampled_from([0.1, 0.35, 1.0, 3.0]))
SUMMARY_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e12, -1e12]),
    st.floats(-1e12, 1e12, allow_nan=False),
    PER_CV,
)


@settings(max_examples=500, deadline=None)
@given(st.lists(SUMMARY_VALUES, min_size=1, max_size=300)
       | st.lists(PER_CV, min_size=1, max_size=300)
       | st.lists(st.sampled_from([0.0, -0.0, 2.5, -7.0, 1e12]), min_size=1, max_size=300))
def test_summarize_keeps_the_bits_of_numpys_mean_and_std(values):
    s = summarize(values)
    fields = ("n", "mean", "median", "std", "sigma_left", "sigma_right", "_sorted")
    for field, want in zip(fields, old_summarize(values)):
        assert repr(getattr(s, field)) == repr(want), field  # repr tells 0.0 from -0.0
