"""Column ingest against the ObjectRecord row validator it replaced.

``oracle_cohort_from_rows`` and ``oracle_patient`` are the row validator
and the ``PatientRecord`` checks from before patients kept their objects as
columns: one ``ObjectRecord`` per row, validated one object at a time. They,
the row type and its label enum stay here as the reference, fed by
``csv.DictReader`` or, patient by patient in document order, by a plain
``json.loads`` of the whole document. On a valid cohort, or one with faults
in up to two patients, the column ingest must give the same cohort (same
patients, the rows' ids, scores and labels as columns, same sorted score
arrays) or the same exception with the same message, which names the first
fault in input order. The JSON reader must never call ``json.loads``, and a
document with one fault must get ``json.loads``'s own message for it.
"""

import csv
import io
import json
import math
import tracemalloc
from dataclasses import dataclass
from enum import Enum
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parasitometrics import datamodel
from parasitometrics.datamodel import (
    CohortDataset,
    GroundTruth,
    PatientRecord,
    Species,
    export_cohort_json,
    ingest_cohort,
    ingest_cohort_json,
)
from parasitometrics.errors import InputError
from parasitometrics.simulator import SimConfig, generate_cohort


class TrueLabel(Enum):
    PARASITE = "parasite"
    DISTRACTOR = "distractor"


@dataclass(frozen=True, slots=True)
class ObjectRecord:
    """One detected object: an opaque id, a detector score, and its true label."""

    object_id: str
    score: float
    true_label: TrueLabel

    def __post_init__(self):
        if not (isinstance(self.score, (int, float)) and math.isfinite(self.score)):
            raise InputError(f"object {self.object_id!r}: score must be finite")
        if not (0.0 <= self.score <= 1.0):
            raise InputError(
                f"object {self.object_id!r}: score {self.score} outside [0, 1]"
            )


def _text(value) -> str:
    return "" if value is None else str(value).strip()


def _parse_enum(enum_cls, row, key, what):
    raw = _text(row.get(key))
    try:
        return enum_cls(raw.lower())
    except ValueError:
        allowed = ", ".join(e.value for e in enum_cls)
        raise InputError(f"{what}: {key} {raw!r} not one of {{{allowed}}}") from None


def _parse_float(row, key, what):
    raw = row.get(key)
    if type(raw) is float:
        return raw
    raw = _text(raw)
    try:
        return float(raw)
    except ValueError:
        raise InputError(f"{what}: {key} {raw!r} is not numeric") from None


def oracle_patient(patient_id, ground_truth, species, true_parasitemia, examined_volume,
                   wbc_count, objects):
    """The per-object PatientRecord checks; the patient, built from ``objects``."""
    pid = patient_id
    if examined_volume <= 0 or not math.isfinite(examined_volume):
        raise InputError(f"patient {pid!r}: examined_volume must be > 0")
    if true_parasitemia < 0 or not math.isfinite(true_parasitemia):
        raise InputError(f"patient {pid!r}: true_parasitemia must be >= 0")
    if wbc_count is not None and wbc_count < 0:
        raise InputError(f"patient {pid!r}: wbc_count must be >= 0")
    if ground_truth is GroundTruth.NEGATIVE:
        if species is not Species.NONE:
            raise InputError(f"patient {pid!r}: negative patient must have species=none")
        if true_parasitemia != 0:
            raise InputError(f"patient {pid!r}: negative patient must have parasitemia 0")
        for obj in objects:
            if obj.true_label is TrueLabel.PARASITE:
                raise InputError(
                    f"patient {pid!r} is negative but owns parasite object "
                    f"{obj.object_id!r}"
                )
    else:
        if species is Species.NONE:
            raise InputError(f"patient {pid!r}: positive patient must have a species")
        if true_parasitemia <= 0:
            raise InputError(f"patient {pid!r}: positive patient must have parasitemia > 0")
    return PatientRecord(pid, ground_truth, species, true_parasitemia, examined_volume,
                         wbc_count, object_ids=[o.object_id for o in objects],
                         scores=[o.score for o in objects],
                         is_parasite=[o.true_label is TrueLabel.PARASITE for o in objects])


def oracle_cohort_from_rows(patient_rows, object_rows, cv_description, provenance):
    """(cohort, {patient_id: ObjectRecord rows}) by one ObjectRecord per row."""
    rows = {}
    for row in patient_rows:
        pid = _text(row.get("patient_id"))
        if not pid:
            raise InputError("patient with empty or missing patient_id")
        if pid in rows:
            raise InputError(f"duplicate patient_id {pid!r}")
        rows[pid] = row

    objects = {pid: [] for pid in rows}
    for raw_pid, row in object_rows:
        pid = _text(raw_pid)
        if pid not in objects:
            raise InputError(f"object row references unknown patient_id {pid!r}")
        oid = _text(row.get("object_id"))
        if not oid:
            raise InputError(f"patient {pid!r}: object with empty or missing object_id")
        what = f"patient {pid!r} object {oid!r}"
        objects[pid].append(ObjectRecord(
            object_id=oid,
            score=_parse_float(row, "score", what),
            true_label=_parse_enum(TrueLabel, row, "true_label", what),
        ))

    patients = []
    for pid, row in rows.items():
        what = f"patient {pid!r}"
        seen = set()
        for obj in objects[pid]:
            if obj.object_id in seen:
                raise InputError(f"{what}: duplicate object_id {obj.object_id!r}")
            seen.add(obj.object_id)
        wbc = _text(row.get("wbc_count"))
        try:
            wbc_count = int(wbc) if wbc else None
        except ValueError:
            raise InputError(f"{what}: wbc_count {wbc!r} is not an integer") from None
        patients.append(oracle_patient(
            pid,
            _parse_enum(GroundTruth, row, "ground_truth", what),
            _parse_enum(Species, row, "species", what),
            _parse_float(row, "true_parasitemia", what),
            _parse_float(row, "examined_volume", what),
            wbc_count,
            tuple(objects[pid]),
        ))
    cohort = CohortDataset(cv_description=cv_description, patients=tuple(patients),
                           provenance=provenance)
    return cohort, {pid: tuple(objs) for pid, objs in objects.items()}


def oracle_ingest_csv(objects_csv, patients_csv, cv_description):
    """The CSV pair read row by row into the oracle."""
    object_rows = csv.DictReader(io.StringIO(objects_csv))
    return oracle_cohort_from_rows(csv.DictReader(io.StringIO(patients_csv)),
                                   ((row["patient_id"], row) for row in object_rows),
                                   cv_description, "")


class _Object(dict):
    """A JSON object that notes whether it gives the key "patients" twice."""

    def __init__(self, pairs):
        super().__init__(pairs)
        self.patients_twice = [key for key, _ in pairs].count("patients") > 1


def oracle_ingest_json(text):
    """The JSON document read by plain ``json.loads`` into the oracle, one
    patient at a time in document order; the cohort's objects by patient."""
    try:
        doc = json.loads(text, object_pairs_hook=_Object)
    except ValueError as exc:
        raise InputError(f"JSON input: not valid JSON: {exc}") from None
    except RecursionError:
        raise InputError("JSON input: not valid JSON: nesting too deep") from None
    if isinstance(doc, dict) and doc.patients_twice:
        raise InputError("JSON input: JSON cohort gives key 'patients' twice")
    patient_docs = doc.get("patients") if isinstance(doc, dict) else None
    if not isinstance(patient_docs, list) or "cv_description" not in doc:
        raise InputError("JSON input: JSON cohort must have keys 'cv_description' and 'patients'")
    patients, objects = [], {}
    for pd in patient_docs:
        rows = pd.get("objects", []) if isinstance(pd, dict) else None
        if not isinstance(rows, list) or not all(isinstance(od, dict) for od in rows):
            raise InputError(
                "JSON input: each patient must be a JSON object with a list of objects")
        pid = _text(pd.get("patient_id"))
        if pid and pid in objects:
            raise InputError(f"duplicate patient_id {pid!r}")
        one, by_patient = oracle_cohort_from_rows(
            [pd], ((pd.get("patient_id"), od) for od in rows), "", "")
        patients += one.patients
        objects.update(by_patient)
    cohort = CohortDataset(cv_description=str(doc["cv_description"]), patients=tuple(patients),
                           provenance=str(doc.get("provenance") or ""))
    return cohort, objects


def _outcome(ingest):
    try:
        return ingest()
    except InputError as exc:
        return exc


def _assert_same_outcome(ingest, oracle):
    """``ingest()`` gives the oracle's cohort, or its exception and message."""
    got = _outcome(ingest)
    want = _outcome(oracle)
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
        return
    want, rows = want
    assert not isinstance(got, Exception), got
    assert got == want
    for p in got:
        objects = rows[p.patient_id]
        assert p.object_ids == tuple(o.object_id for o in objects)
        assert p.scores.tolist() == [o.score for o in objects]
        assert p.is_parasite.tolist() == [o.true_label is TrueLabel.PARASITE
                                          for o in objects]
        for attr, label in (("parasite_scores", TrueLabel.PARASITE),
                            ("distractor_scores", TrueLabel.DISTRACTOR)):
            expected = np.sort(np.array(
                [o.score for o in objects if o.true_label is label], dtype=float))
            assert getattr(p, attr).dtype == expected.dtype
            assert np.array_equal(getattr(p, attr), expected)


# --- cohorts: valid, then faults in up to two patients ----------------------

FAULTS = ("score-text", "score-nan", "score-out-of-range", "bad-label",
          "parasite-on-negative", "empty-id", "duplicate-id", "unknown-patient")

# Valid spellings of a value that both formats parse, and some that fail.
SCORE_TEXTS = st.sampled_from(["0", "1", "0.25", " 0.5", "-0.0", "1e-3", "\x1c0.75",
                               "0.5\x1f", " 0.9"])
LABEL_TEXTS = {True: st.sampled_from(["parasite", "Parasite", " PARASITE "]),
               False: st.sampled_from(["distractor", "Distractor ", "\tdistractor"])}
BAD_SCORES = {
    "score-text": ["abc", "", "0.5.5", True, None, [0.5], {"a": 1}],
    "score-nan": ["nan", " NaN", float("nan")],
    "score-out-of-range": ["1.5", "-0.1", "1e999", "-inf", 2, 1.0000001, 10 ** 400],
}
BAD_LABELS = ["x", "", None, 1, ["parasite"], "parasites", "PARASİTE"]


@st.composite
def cohort_rows(draw, json_values):
    """Patient dicts and (patient_id, object dict) rows, with faults in up to two patients.

    ``json_values`` also draws values a JSON document can hold but a CSV
    cell cannot (numbers, null, lists, huge integers). The object rows come
    in any order, so a patient's CSV rows interleave with the others'.
    """
    patients, objects = [], []
    for i in range(draw(st.integers(1, 4))):
        positive = draw(st.booleans())
        pid = f"p{i}"
        patients.append({
            "patient_id": draw(st.sampled_from([pid, f" {pid}"])),
            "ground_truth": draw(st.sampled_from(["pos", "POS"] if positive else ["neg", " neg"])),
            "species": draw(st.sampled_from(["pf", "pv", "Mixed"])) if positive else "none",
            "true_parasitemia": draw(st.sampled_from(["500", "0.5", "1e3"])) if positive else "0",
            "examined_volume": draw(st.sampled_from(
                ["0.5", "1", "2.5"] + ([0.5, 2] if json_values else []))),
            "wbc_count": draw(st.sampled_from(
                ["", "400", " 8"] + ([None, 400] if json_values else []))),
        })
        for j in range(draw(st.integers(0, 5))):
            parasite = positive and draw(st.booleans())
            score = draw(SCORE_TEXTS | st.floats(0, 1).map(repr))
            if json_values:
                score = draw(st.just(score) | st.floats(0, 1) | st.sampled_from([0, 1]))
            objects.append([draw(st.sampled_from([pid, f"{pid} "])), {
                "object_id": draw(st.sampled_from([f"o{j}", f" o{j}"])),
                "score": score,
                "true_label": draw(LABEL_TEXTS[parasite]),
            }])

    # each fault hits one to three objects of its patient, so that the error
    # must name the first of them, and the two patients' faults compete
    faults = draw(st.lists(st.tuples(st.sampled_from(FAULTS),
                                     st.integers(0, len(patients) - 1)),
                           max_size=2, unique_by=lambda fault: fault[1]))
    usable = (lambda v: json_values or isinstance(v, str))
    for fault, i in faults:
        mine = [row for pid, row in objects if _text(pid) == f"p{i}"]
        if not mine:
            mine = [{"object_id": "o9", "score": "0.5", "true_label": "distractor"}]
            objects.append([f"p{i}", mine[0]])
        hit = draw(st.lists(st.sampled_from(mine), min_size=1, max_size=3, unique_by=id))
        if fault == "parasite-on-negative":
            patients[i].update(ground_truth="neg", species="none", true_parasitemia="0")
            for row in mine:
                row["true_label"] = "distractor"
        for row in hit:
            if fault in BAD_SCORES:
                row["score"] = draw(st.sampled_from([v for v in BAD_SCORES[fault] if usable(v)]))
            elif fault == "bad-label":
                row["true_label"] = draw(st.sampled_from([v for v in BAD_LABELS if usable(v)]))
            elif fault == "parasite-on-negative":
                row["true_label"] = draw(LABEL_TEXTS[True])
            elif fault == "empty-id":
                row["object_id"] = draw(st.sampled_from(["", "  "] + ([None] * json_values)))
            elif fault == "duplicate-id":
                objects.append([f"p{i}", dict(row, object_id=f" {_text(row['object_id'])}")])
            elif fault == "unknown-patient":
                objects.append(["p9", dict(row)])
                break
    return patients, draw(st.permutations(objects))


def _csv_text(columns, rows, draw=None):
    """The rows as CSV; with ``draw``, also blank lines, short and long rows and
    a header name given twice, which csv.DictReader reads in its own way."""
    header = list(columns)
    lines = [[row.get(c, "") for c in columns] for row in rows]
    if draw is not None and draw(st.booleans()):
        if draw(st.booleans()):
            twice = draw(st.integers(0, len(columns) - 1))
            at = draw(st.integers(0, len(header)))
            cell = draw(st.sampled_from([None, "", "p0", "o0", "0.5", "parasite", "neg"]))
            header.insert(at, columns[twice])
            lines = [line[:at] + [line[twice] if cell is None else cell] + line[at:]
                     for line in lines]
        for line in lines:
            change = draw(st.sampled_from(["keep"] * 6 + ["short", "long"]))
            if change == "short":
                del line[draw(st.integers(1, len(header) - 1)):]
            elif change == "long":
                line += draw(st.lists(st.sampled_from(["", "x", "0.5"]), min_size=1, max_size=2))
        for _ in range(draw(st.integers(0, 2))):
            lines.insert(draw(st.integers(0, len(lines))), [])
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(lines)
    return buf.getvalue()


@settings(max_examples=300, deadline=None)
@given(cohort_rows(json_values=False), st.data())
def test_csv_ingest_matches_object_oracle(rows, data):
    patients, objects = rows
    patients_csv = _csv_text(datamodel.PATIENT_COLUMNS, patients, data.draw)
    objects_csv = _csv_text(datamodel.OBJECT_COLUMNS,
                            [dict(row, patient_id=pid) for pid, row in objects], data.draw)
    _assert_same_outcome(
        lambda: ingest_cohort(io.StringIO(objects_csv), io.StringIO(patients_csv),
                              "1 uL blood"),
        lambda: oracle_ingest_csv(objects_csv, patients_csv, "1 uL blood"))


@settings(max_examples=300, deadline=None)
@given(cohort_rows(json_values=True), st.booleans())
def test_json_ingest_matches_object_oracle(rows, int_ids):
    patients, objects = rows
    docs = {_text(p["patient_id"]): dict(p, objects=[]) for p in patients}
    for pid, row in objects:
        if _text(pid) not in docs:  # a JSON object row sits inside its patient
            continue
        if int_ids and _text(row["object_id"]):
            row = dict(row, object_id=int(_text(row["object_id"])[1:]))
        docs[_text(pid)]["objects"].append(row)
    text = json.dumps({"cv_description": "1 uL blood", "patients": list(docs.values())})
    _assert_same_outcome(lambda: ingest_cohort_json(io.StringIO(text)),
                         lambda: oracle_ingest_json(text))


# --- the JSON reader against plain json.loads -------------------------------

_OBJ = '{"object_id": %s, "score": %s, "true_label": %s}'
_PATIENT = ('{"patient_id": %s, "ground_truth": "pos", "species": %s, '
            '"true_parasitemia": 500, "examined_volume": 1.0, "wbc_count": null%s}')


def _patient(pid='"p0"', species='"pf"', objects=None, extra=""):
    body = "" if objects is None else ', "objects": [%s]' % ", ".join(objects)
    return _PATIENT % (pid, species, extra + body)


def _doc(*patients, head='"cv_description": "1 uL blood"'):
    return '{%s, "patients": [%s]}' % (head, ", ".join(patients))


_GOOD = [_OBJ % ('"o0"', "0.5", '"parasite"'), _OBJ % ('"o1"', "0.25", '"distractor"')]
_NESTED = '{"objects": [{"object_id": "x", "score": 0.5, "true_label": "parasite"}]}'
_P0, _P1 = _patient(objects=_GOOD), _patient('"p1"', objects=_GOOD[:1])

READER_CASES = {
    "valid": _doc(_patient(objects=_GOOD), _patient('"p1"', objects=_GOOD[:1])),
    "objects-dict-as-object-id": _doc(_patient(objects=[_OBJ % (_NESTED, "0.5", '"parasite"')])),
    "objects-dict-as-score": _doc(_patient(objects=[_OBJ % ('"o0"', _NESTED, '"parasite"')])),
    "objects-dict-as-label": _doc(_patient(objects=[_OBJ % ('"o0"', "0.5", _NESTED)])),
    "objects-dict-as-species": _doc(_patient(species=_NESTED, objects=_GOOD)),
    "objects-dict-as-patient-id": _doc(_patient(pid=_NESTED, objects=_GOOD)),
    "objects-dict-in-extra-patient-field": _doc(
        _patient(objects=_GOOD, extra=', "notes": [%s]' % _NESTED)),
    "objects-key-on-an-object": _doc(_patient(objects=[
        _OBJ[:-1] % ('"o0"', "0.5", '"parasite"') + ', "objects": []}'])),
    "objects-dict-as-cv-description": _doc(
        _patient(objects=_GOOD), head=f'"cv_description": {_NESTED}'),
    "objects-dict-as-provenance": _doc(
        _patient(objects=_GOOD), head=f'"cv_description": "x", "provenance": {_NESTED}'),
    "objects-key-on-the-document": _doc(
        _patient(objects=_GOOD), head='"cv_description": "x", "objects": [{}]'),
    "duplicated-patients-key": _doc(
        _patient(objects=_GOOD),
        head='"cv_description": "x", "patients": [%s]' % _patient('"q0"', objects=_GOOD)),
    "duplicated-patients-key-empty-first": _doc(
        _patient(objects=_GOOD), head='"cv_description": "x", "patients": []'),
    "escaped-patients-key": '{"cv_description": "x", "p\\u0061tients": [%s]}' % _patient(
        objects=_GOOD),
    "escaped-duplicated-patients-key": _doc(
        _patient(objects=_GOOD), head='"cv_description": "x", "p\\u0061tients": [%s]'
        % _patient('"q0"', objects=_GOOD)),
    "escaped-objects-key": _doc(_patient(extra=', "obj\\u0065cts": [%s]' % _GOOD[0])),
    "duplicated-objects-key": _doc(_patient(
        objects=_GOOD, extra=', "objects": [%s]' % _GOOD[1])),
    "no-objects-key": _doc(_patient(), _patient('"p1"', objects=_GOOD)),
    "empty-objects": _doc(_patient(objects=[]), _patient('"p1"', objects=_GOOD)),
    "objects-not-all-dicts": _doc(_patient(objects=_GOOD + ['"o2"'])),
    "int-and-text-scores": _doc(_patient(objects=[
        _OBJ % ('"o0"', "1", '"parasite"'), _OBJ % ('"o1"', "0", '"distractor"'),
        _OBJ % ('"o2"', '" 0.5"', '"distractor"'), _OBJ % ('"o3"', '"\\u001c0.75"', '"parasite"'),
    ])),
    "labels-that-need-member": _doc(_patient(objects=[
        _OBJ % ('"o0"', "0.5", '" Parasite "'), _OBJ % ('"o1"', "0.5", '"DISTRACTOR"'),
    ])),
    "bool-label": _doc(_patient(objects=[_OBJ % ('"o0"', "0.5", "true")])),
    "int-object-ids": _doc(_patient(objects=[_OBJ % ("7", "0.5", '"parasite"')])),
    "nan-score-then-bad-label": _doc(_patient(objects=[
        _OBJ % ('"o0"', "NaN", '"parasite"'), _OBJ % ('"o1"', "0.5", '"x"')])),
    "out-of-range-score-and-bad-label": _doc(_patient(objects=[
        _OBJ % ('"o0"', "1.5", '"x"')])),
    "truncated": _doc(_patient(objects=_GOOD))[:-7],
    "trailing-comma": _doc(_patient(objects=_GOOD + [""])),
    "not-json": "cv_description: x",
    "byte-order-mark": "\ufeff" + _doc(_patient(objects=_GOOD)),
    "deeply-nested": _doc(_patient(objects=_GOOD), head='"cv_description": "x", "deep": %s'
                          % ("[" * 10 ** 5 + "]" * 10 ** 5)),
    # faults between the document's top-level values, and in its shape
    "missing-colon": '{"cv_description" "x", "patients": [%s]}' % _P0,
    "missing-comma": '{"cv_description": "x" "patients": [%s]}' % _P0,
    "missing-comma-between-patients": '{"cv_description": "x", "patients": [%s %s]}' % (_P0, _P1),
    "comma-after-brace": '{, "cv_description": "x", "patients": [%s]}' % _P0,
    "number-key": _doc(_P0, head='"cv_description": "x", 7: 1'),
    "bare-key": _doc(_P0, head='"cv_description": "x", n: 1'),
    "bad-escape-in-key": _doc(_P0, head='"cv_description": "x", "\\q": 1'),
    "unterminated-key": '{"cv_description": "x", "pati',
    "trailing-comma-in-document": _doc(_P0)[:-1] + ",}",
    "trailing-comma-in-patients": '{"cv_description": "x", "patients": [%s, ]}' % _P0,
    "no-closing-bracket": '{"cv_description": "x", "patients": [%s' % _P0,
    "no-closing-brace": _doc(_P0)[:-1],
    "extra-data": _doc(_P0) + " x",
    "second-document": _doc(_P0) + "\n" + _doc(_P1),
    "empty-text": "",
    "whitespace-only": " \n\t ",
    "byte-order-mark-after-whitespace": " \ufeff" + _doc(_P0),
    "array-document": "[1]",
    "empty-object": "{}",
    "patients-not-a-list": '{"cv_description": "x", "patients": {"p0": []}}',
    "patients-not-a-list-and-malformed": '{"cv_description": "x", "patients": tru}',
    "no-cv-description": '{"patients": [%s]}' % _P0,
    "no-patients": '{"cv_description": "x", "provenance": "y"}',
    "no-patient": _doc(),
    "repeated-cv-description-and-provenance": _doc(
        _P0, head='"provenance": "a", "cv_description": "a", "cv_description": "b", '
        '"provenance": null'),
    # newlines before the fault, which the reader counts in the text it drops
    "missing-comma-on-a-later-line": '{\n  "cv_description": "x",\n  "patients": [\n    %s,'
    '\n    %s\n  ]\n  "n": 1\n}' % (_P0, _P1),
    "malformed-patient-on-a-later-line": '{\n  "cv_description": "x",\n  "patients": [\n'
    '    %s,\n    %s\n  ]\n}' % (_P0, _P1.replace("500", "5.0.0")),
}


def _streamed_outcome(text, chunk=datamodel._CHUNK, handle=None):
    """The ingest outcome at ``chunk``, which must not call json.loads."""
    with mock.patch.object(datamodel, "_CHUNK", chunk), \
            mock.patch.object(datamodel.json, "loads", wraps=json.loads) as loads:
        got = _outcome(lambda: ingest_cohort_json(handle or io.StringIO(text)))
    assert not loads.called
    return got


@pytest.mark.parametrize("text", READER_CASES.values(), ids=READER_CASES)
def test_json_reader_matches_plain_json_loads(text):
    _assert_same_outcome(lambda: _streamed_outcome(text), lambda: oracle_ingest_json(text))


# --- the JSON reader's chunk boundaries and handles --------------------------

# values that may go on in the next chunk, whitespace around every , and :,
# and a number that ends the document
BOUNDARY_CASES = {
    "scalars-and-number-at-end": '{"cv_description": "x", "t": true, "z": null, '
    '"m": -Infinity, "f": [false, NaN, Infinity, 1.5e-3, -0.0], "patients": [%s], '
    '"n": 12345}' % _patient(objects=_GOOD),
    "whitespace-around-separators": ' \n{ "cv_description" \t:\r "x" ,\n "patients" : [ %s ,'
    '\n %s ] , "n" : 12345 } \n' % (_patient(objects=_GOOD), _patient('"p1"', objects=[])),
    "patients-first-and-empty-object": '{"patients": [%s], "cv_description": "x", '
    '"provenance": {}}' % _patient(objects=_GOOD),
}


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 64), st.sampled_from(sorted(READER_CASES) + sorted(BOUNDARY_CASES)))
def test_json_reader_matches_oracle_at_any_chunk_size(chunk, name):
    text = {**READER_CASES, **BOUNDARY_CASES}[name]
    got = _streamed_outcome(text, chunk)
    _assert_same_outcome(lambda: got, lambda: oracle_ingest_json(text))


@settings(max_examples=300, deadline=None)
@given(cohort_rows(json_values=True), st.integers(1, 64),
       st.sampled_from([None, 0, 2]), st.sampled_from([", ", " ,\n ", "\t,"]),
       st.sampled_from([": ", " : ", "\r:\n"]))
def test_json_reader_streams_every_cohort_at_any_chunk_size(rows, chunk, indent, comma, colon):
    patients, objects = rows
    docs = {_text(p["patient_id"]): dict(p, objects=[]) for p in patients}
    for pid, row in objects:
        if _text(pid) in docs:
            docs[_text(pid)]["objects"].append(row)
    text = json.dumps({"cv_description": "1 uL blood", "patients": list(docs.values()),
                       "n": 12345}, indent=indent, separators=(comma, colon))
    got = _streamed_outcome(text, chunk)
    _assert_same_outcome(lambda: got, lambda: oracle_ingest_json(text))


@pytest.mark.parametrize("text, message", [
    # patient 1's bad species comes before patient 2's bad score
    (_doc(_patient(species='"x"', objects=_GOOD),
          _patient('"p1"', objects=[_OBJ % ('"o0"', '"abc"', '"parasite"')])),
     "patient 'p0': species 'x' not one of"),
    # a bad patient comes before a later syntax error
    ('{"cv_description": "x", "patients": [%s], "n": tru}' % _patient(species='"x"'),
     "patient 'p0': species 'x' not one of"),
    # a syntax error comes before a later bad patient
    ('{"cv_description": "x", "patients": [%s %s]}' % (_P0, _patient(species='"x"')),
     "not valid JSON: Expecting ',' delimiter"),
    # a patients list that is not a list comes before a later syntax error
    ('{"cv_description": "x", "patients": 3, "n": tru}',
     "JSON cohort must have keys 'cv_description' and 'patients'"),
], ids=["patient-before-later-patient", "patient-before-syntax", "syntax-before-patient",
        "shape-before-syntax"])
def test_json_reader_reports_the_first_fault_in_document_order(text, message):
    with pytest.raises(InputError, match=message):
        ingest_cohort_json(io.StringIO(text))


class _Unseekable(io.StringIO):
    """A text handle that cannot seek, as a pipe."""

    def seekable(self):
        return False

    def seek(self, *args):
        raise io.UnsupportedOperation("seek")

    def tell(self):
        raise io.UnsupportedOperation("tell")


@pytest.mark.parametrize("chunk", [7, 1 << 18])
@pytest.mark.parametrize("name", ["valid", "truncated", "objects-dict-as-species"])
def test_json_reader_handles_match_oracle(name, chunk):
    text = READER_CASES[name]
    # a handle read past a prefix is read from where it is
    prefixed = io.StringIO('{"not": "this"} ' + text)
    prefixed.read(16)
    for handle in (_Unseekable(text), prefixed):
        got = _streamed_outcome(text, chunk, handle)
        _assert_same_outcome(lambda: got, lambda: oracle_ingest_json(text))


def test_unseekable_handle_is_streamed_in_bounded_memory(tmp_path):
    # a handle that cannot seek, as a pipe, is streamed in a path's bound
    path = tmp_path / "c.json"
    export_cohort_json(generate_cohort(SimConfig(seed=0, n_negative=0, n_positive=50)), path)
    handle = _Unseekable(path.read_text())
    tracemalloc.start()
    try:
        ingest_cohort_json(handle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.0 * path.stat().st_size


def test_csv_object_with_two_faults_reports_the_oracles_first():
    # a score outside [0, 1] is found after the label is parsed, as in ObjectRecord
    patients_csv = _csv_text(datamodel.PATIENT_COLUMNS, [{
        "patient_id": "p0", "ground_truth": "pos", "species": "pf",
        "true_parasitemia": "500", "examined_volume": "1", "wbc_count": ""}])
    objects_csv = "patient_id,object_id,score,true_label\np0,o0,0.5,parasite\np0,o1,1.5,x\n"
    _assert_same_outcome(
        lambda: ingest_cohort(io.StringIO(objects_csv), io.StringIO(patients_csv), "1 uL"),
        lambda: oracle_ingest_csv(objects_csv, patients_csv, "1 uL"))
