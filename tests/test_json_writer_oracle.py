"""The cohort writers against references that spell out each field.

``cohort_to_json_doc`` is the dict that ``export_cohort_json`` used to hand
to ``json.dump(doc, fh, indent=2)``, one dict per object, and
``cohort_to_csv`` writes the CSV pair with one explicit ``csv.writer`` row
per patient and per object, as ``export_cohort`` once did. They stay here as
the references: for any cohort, the writers must produce the same text, byte
for byte, into a path or into an open text handle.
"""

import csv
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from parasitometrics.datamodel import (
    _LABELS,
    CohortDataset,
    GroundTruth,
    PatientRecord,
    Species,
    _object_columns,
    export_cohort,
    export_cohort_json,
    ingest_cohort_json,
)


def cohort_to_json_doc(cohort: CohortDataset) -> dict:
    return {
        "cv_description": cohort.cv_description,
        "provenance": cohort.provenance,
        "patients": [
            {
                "patient_id": p.patient_id,
                "ground_truth": p.ground_truth.value,
                "species": p.species.value,
                "true_parasitemia": p.true_parasitemia,
                "examined_volume": p.examined_volume,
                "wbc_count": p.wbc_count,
                "objects": [
                    {"object_id": oid, "score": score, "true_label": _LABELS[parasite]}
                    for oid, score, parasite in _object_columns(p)
                ],
            }
            for p in cohort.patients
        ],
    }


def cohort_to_csv(cohort: CohortDataset) -> tuple[str, str]:
    """(objects.csv, patients.csv) text, every field written by name."""
    objects, patients = io.StringIO(), io.StringIO()
    w = csv.writer(objects)
    w.writerow(("patient_id", "object_id", "score", "true_label"))
    for p in cohort.patients:
        w.writerows((p.patient_id, oid, repr(score), _LABELS[parasite])
                    for oid, score, parasite in _object_columns(p))
    w = csv.writer(patients)
    w.writerow(("patient_id", "ground_truth", "species", "true_parasitemia",
                "examined_volume", "wbc_count"))
    for p in cohort.patients:
        w.writerow([p.patient_id, p.ground_truth.value, p.species.value,
                    repr(p.true_parasitemia), repr(p.examined_volume),
                    "" if p.wbc_count is None else p.wbc_count])
    return objects.getvalue(), patients.getvalue()


# quotes, backslashes, non-ASCII, control characters and lone surrogates
TEXT = st.one_of(
    st.text(),
    st.text(alphabet=st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é€😀\ud800\udfff'),
            min_size=1),
)
SCORES = st.one_of(
    st.sampled_from([0.0, 1.0, 5e-324, 0.1, 0.5, -0.0]),
    st.floats(min_value=0.0, max_value=1.0),
)
POSITIVE_SPECIES = st.sampled_from([s for s in Species if s is not Species.NONE])


@st.composite
def patients(draw, pid):
    positive = draw(st.booleans())
    n = draw(st.integers(0, 5))
    return PatientRecord(
        patient_id=pid,
        ground_truth=GroundTruth.POSITIVE if positive else GroundTruth.NEGATIVE,
        species=draw(POSITIVE_SPECIES) if positive else Species.NONE,
        true_parasitemia=draw(st.one_of(
            st.sampled_from([1e-9, 1e16, 80.0]),
            st.floats(min_value=1e-9, max_value=1e16))) if positive else 0.0,
        examined_volume=draw(st.one_of(st.sampled_from([1.0, 0.35, 1e-9, 1e16]),
                                       st.floats(min_value=1e-9, max_value=1e16))),
        wbc_count=draw(st.one_of(st.none(), st.integers(0, 10**6))),
        object_ids=draw(st.lists(TEXT, min_size=n, max_size=n)),
        scores=draw(st.lists(SCORES, min_size=n, max_size=n)),
        is_parasite=(draw(st.lists(st.booleans(), min_size=n, max_size=n))
                     if positive else [False] * n),
    )


@st.composite
def cohorts(draw):
    pids = draw(st.lists(TEXT, min_size=1, max_size=4, unique=True))
    return CohortDataset(
        cv_description=draw(TEXT),
        patients=tuple(draw(patients(pid)) for pid in pids),
        provenance=draw(TEXT),
    )


@settings(max_examples=300, deadline=None)
@given(cohort=cohorts())
def test_writer_matches_json_dumps(cohort, tmp_path_factory):
    expected = json.dumps(cohort_to_json_doc(cohort), indent=2)
    buf = io.StringIO()
    export_cohort_json(cohort, buf)
    assert buf.getvalue() == expected
    path = tmp_path_factory.mktemp("json") / "cohort.json"
    export_cohort_json(cohort, path)
    assert path.read_bytes() == expected.encode("utf-8")


@settings(max_examples=300, deadline=None)
@given(cohort=cohorts())
def test_csv_writer_matches_explicit_rows(cohort, tmp_path_factory):
    # integer wbc_count, -0.0, 5e-324 and 1e16, quoted and non-ASCII ids: the
    # simulator's cohorts, which the golden digests cover, have none of them
    expected = cohort_to_csv(cohort)
    objects, patients = io.StringIO(), io.StringIO()
    export_cohort(cohort, objects, patients)
    assert (objects.getvalue(), patients.getvalue()) == expected
    out = tmp_path_factory.mktemp("csv")
    paths = out / "objects.csv", out / "patients.csv"
    try:
        want = [text.encode("utf-8") for text in expected]
    except UnicodeEncodeError:  # a lone surrogate, which no UTF-8 file holds
        with pytest.raises(UnicodeEncodeError):
            export_cohort(cohort, *paths)
        return
    export_cohort(cohort, *paths)
    assert [path.read_bytes() for path in paths] == want


def test_edge_values_round_trip(tmp_path):
    objects = dict(object_ids=['q"b\\c', "é\x01\ud800", "plain"],
                   scores=[0.0, 5e-324, 1.0], is_parasite=[True, False, True])
    cohort = CohortDataset(
        cv_description='1 uL "blood" \\ µ',
        provenance="\udfff\n",
        patients=(
            PatientRecord("p\t1", GroundTruth.POSITIVE, Species.VIVAX, 1e16, 1e-9, 7,
                          **objects),
            PatientRecord("n€", GroundTruth.NEGATIVE, Species.NONE, 0.0, 0.35, None),
        ),
    )
    path = tmp_path / "c.json"
    export_cohort_json(cohort, path)
    text = path.read_text(encoding="utf-8")
    assert text == json.dumps(cohort_to_json_doc(cohort), indent=2)
    assert text.isascii() and not text.endswith("\n")
    assert '"objects": []' in text
    assert json.loads(text) == cohort_to_json_doc(cohort)
    assert ingest_cohort_json(io.StringIO(text)).patients == cohort.patients
