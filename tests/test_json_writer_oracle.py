"""The columnar cohort-JSON writer against ``json.dumps(..., indent=2)``.

``cohort_to_json_doc`` is the dict that ``export_cohort_json`` used to hand
to ``json.dump(doc, fh, indent=2)``, one dict per object. It stays here as
the reference: for any cohort, the writer must produce the same text, byte
for byte, into a path or into an open text handle.
"""

import io
import json

from hypothesis import given, settings, strategies as st

from parasitometrics.datamodel import (
    _LABELS,
    CohortDataset,
    GroundTruth,
    PatientRecord,
    Species,
    _object_columns,
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
