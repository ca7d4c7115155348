import io
import json
import tracemalloc
from array import array
from unittest import mock
from dataclasses import replace

import numpy as np

import pytest
from hypothesis import given, strategies as st

from parasitometrics.datamodel import (
    OBJECT_COLUMNS,
    PATIENT_COLUMNS,
    CohortDataset,
    GroundTruth,
    PatientRecord,
    SerialIds,
    Species,
    export_cohort,
    export_cohort_json,
    ingest_cohort,
    counts_at,
    ingest_cohort_json,
    per_cv_counts,
)
from parasitometrics.errors import InputError
from parasitometrics.simulator import SimConfig, generate_cohort

from conftest import make_patient

PATIENTS_CSV = """patient_id,ground_truth,species,true_parasitemia,examined_volume,wbc_count
p1,pos,pf,500,0.5,400
p2,neg,none,0,1.0,
"""

OBJECTS_CSV = """patient_id,object_id,score,true_label
p1,o1,0.9,parasite
p1,o2,0.8,parasite
p1,o3,0.4,distractor
p2,o4,0.7,distractor
p2,o5,0.2,distractor
"""


def _ingest(patients=PATIENTS_CSV, objects=OBJECTS_CSV):
    return ingest_cohort(io.StringIO(objects), io.StringIO(patients), "1 uL blood")


class TestIngestion:
    def test_round_trip_identity(self):
        cohort = _ingest()
        assert len(cohort) == 2
        by_id = {p.patient_id: p for p in cohort}
        p1 = by_id["p1"]
        assert p1.ground_truth is GroundTruth.POSITIVE
        assert p1.species is Species.FALCIPARUM
        assert p1.wbc_count == 400
        assert len(p1.object_ids) == 3
        assert by_id["p2"].wbc_count is None

        obj_out, pat_out = io.StringIO(), io.StringIO()
        export_cohort(cohort, obj_out, pat_out)
        again = ingest_cohort(
            io.StringIO(obj_out.getvalue()), io.StringIO(pat_out.getvalue()), "1 uL blood"
        )
        assert again.patients == cohort.patients

    def test_json_round_trip(self):
        cohort = _ingest()
        buf = io.StringIO()
        export_cohort_json(cohort, buf)
        again = ingest_cohort_json(io.StringIO(buf.getvalue()))
        assert again.patients == cohort.patients
        assert again.cv_description == cohort.cv_description

    def test_missing_patient(self):
        objects = OBJECTS_CSV + "ghost,o6,0.5,distractor\n"
        with pytest.raises(InputError, match="unknown patient_id 'ghost'"):
            _ingest(objects=objects)

    def test_label_contradiction(self):
        objects = OBJECTS_CSV + "p2,o6,0.5,parasite\n"
        with pytest.raises(InputError, match="is negative but owns parasite object 'o6'"):
            _ingest(objects=objects)

    def test_duplicate_patient(self):
        patients = PATIENTS_CSV + "p1,pos,pf,500,0.5,\n"
        with pytest.raises(InputError, match="duplicate patient_id 'p1'"):
            _ingest(patients=patients)

    @pytest.mark.parametrize(
        "mutation",
        [
            ("score", "1.5", r"score 1.5 outside \[0, 1\]"),
            ("score", "abc", "score 'abc' is not numeric"),
        ],
    )
    def test_bad_score_rejected(self, mutation):
        _, bad, message = mutation
        objects = OBJECTS_CSV.replace("0.9", bad)
        with pytest.raises(InputError, match=message):
            _ingest(objects=objects)

    @pytest.mark.parametrize("row", ["p1,,0.5,parasite", "p1, ,0.5,parasite",
                                     "p1,o2,0.5,parasite", "p1, o2 ,0.5,parasite"])
    def test_empty_or_duplicate_object_id_rejected(self, row):
        with pytest.raises(InputError, match="object_id"):
            _ingest(objects=OBJECTS_CSV + row + "\n")

    @pytest.mark.parametrize("row, message", [
        ("p1,o6,abc,parasite", "score 'abc' is not numeric"),
        ("ghost,o6,0.5,distractor", "unknown patient_id 'ghost'"),
    ])
    def test_row_fault_before_a_file_fault_comes_first(self, row, message):
        # the next row is a CSV error (a field over csv's size limit)
        objects = OBJECTS_CSV + row + "\np1,o7," + "9" * 200_000 + ",parasite\n"
        with pytest.raises(InputError, match=message):
            _ingest(objects=objects)
        with pytest.raises(InputError, match="field larger than field limit"):
            _ingest(objects=OBJECTS_CSV + "p1,o7," + "9" * 200_000 + ",parasite\n")

    def test_non_utf8_file_rejected(self):
        with pytest.raises(InputError, match="patients file: 'utf-8' codec can't decode"):
            ingest_cohort(io.StringIO(OBJECTS_CSV),
                          io.TextIOWrapper(io.BytesIO(b"\xff\xfe\x00"), encoding="utf-8"),
                          "1 uL blood")

    def test_non_utf8_byte_is_reported_at_its_file_offset(self, tmp_path):
        # the text layer decodes the file a block at a time, and its own
        # offset counts from the start of the block; "é" is two bytes
        rows = "".join(f"p{i}é,neg,none,0,1.0,\n" for i in range(3, 2000))
        data = (PATIENTS_CSV + rows).encode() + b"\xff\n"
        (tmp_path / "p.csv").write_bytes(data)
        (tmp_path / "o.csv").write_text(OBJECTS_CSV)
        with pytest.raises(InputError) as err:
            ingest_cohort(tmp_path / "o.csv", tmp_path / "p.csv", "1 uL blood")
        assert str(err.value) == ("patients file: 'utf-8' codec can't decode byte 0xff in "
                                  f"position {len(data) - 2}: invalid start byte")

    def test_nonpositive_volume_rejected(self):
        patients = PATIENTS_CSV.replace("0.5,400", "0,400")
        with pytest.raises(InputError, match="examined_volume must be > 0"):
            _ingest(patients=patients)

    def test_missing_column_rejected(self):
        patients = PATIENTS_CSV.replace("examined_volume", "volume")
        with pytest.raises(InputError, match=r"missing column\(s\): examined_volume"):
            _ingest(patients=patients)

    def test_negative_patient_invariants(self):
        with pytest.raises(InputError, match="negative patient must have species=none"):
            PatientRecord(
                patient_id="x",
                ground_truth=GroundTruth.NEGATIVE,
                species=Species.VIVAX,
                true_parasitemia=0.0,
                examined_volume=1.0,
            )
        with pytest.raises(InputError, match="positive patient must have parasitemia > 0"):
            PatientRecord(
                patient_id="x",
                ground_truth=GroundTruth.POSITIVE,
                species=Species.VIVAX,
                true_parasitemia=0.0,
                examined_volume=1.0,
            )

    def test_empty_cohort_rejected(self):
        with pytest.raises(InputError, match="cohort must contain at least one patient"):
            CohortDataset(cv_description="x", patients=())


def _json_doc():
    buf = io.StringIO()
    export_cohort_json(_ingest(), buf)
    return json.loads(buf.getvalue())


def _ingest_json(doc):
    text = doc if isinstance(doc, str) else json.dumps(doc)
    return ingest_cohort_json(io.StringIO(text))


def _set(path, value=KeyError):
    """An edit of a JSON document: set the value at ``path``, or delete it."""
    def edit(doc):
        *head, last = path
        target = doc
        for key in head:
            target = target[key]
        if value is KeyError:
            del target[last]
        else:
            target[last] = value
    return edit


NO_OBJECT_ID = "object with empty or missing object_id"
NOT_A_PATIENT = "each patient must be a JSON object with a list of objects"
NOT_A_COHORT = "JSON cohort must have keys 'cv_description' and 'patients'"


class TestJsonIngestion:
    @pytest.mark.parametrize("edit, message", [
        (_set(("patients", 0, "objects", 0, "score"), "abc"), "score 'abc' is not numeric"),
        (_set(("patients", 0, "objects", 0, "object_id"), ""), NO_OBJECT_ID),
        (_set(("patients", 0, "objects", 0, "object_id"), None), NO_OBJECT_ID),
        (_set(("patients", 0, "objects", 0, "object_id")), NO_OBJECT_ID),
        (_set(("patients", 0, "ground_truth")), "ground_truth '' not one of"),
        (_set(("patients", 0, "objects", 1, "object_id"), "o1"), "duplicate object_id 'o1'"),
        (_set(("patients", 0, "wbc_count"), "x"), "wbc_count 'x' is not an integer"),
        (_set(("patients", 0, "wbc_count"), 400.5), "wbc_count '400.5' is not an integer"),
        (_set(("patients", 0, "true_parasitemia"), [1]),
         r"true_parasitemia '\[1\]' is not numeric"),
        (_set(("patients", 0, "objects"), None), NOT_A_PATIENT),
        (_set(("patients", 0, "objects", 0), "o1"), NOT_A_PATIENT),
        (_set(("patients", 1), []), NOT_A_PATIENT),
        (_set(("patients",), {}), NOT_A_COHORT),
        (_set(("patients", 1, "patient_id"), " p1 "), "duplicate patient_id 'p1'"),
        (_set(("patients", 1, "patient_id"), None), "patient with empty or missing patient_id"),
    ], ids=["score-abc", "object-id-empty", "object-id-null", "object-id-missing",
            "ground-truth-missing", "object-id-duplicate", "wbc-x", "wbc-fraction",
            "parasitemia-list", "objects-null", "object-not-mapping", "patient-not-mapping",
            "patients-not-list", "patient-id-duplicate-once-stripped", "patient-id-null"])
    def test_malformed_document_rejected(self, edit, message):
        doc = _json_doc()
        edit(doc)
        with pytest.raises(InputError, match=message):
            _ingest_json(doc)

    @pytest.mark.parametrize("text, message", [
        ('{"cv_description": "x", "patients": [', "^JSON input: not valid JSON: Expecting value"),
        ("[]", NOT_A_COHORT), ("3", NOT_A_COHORT), ('{"patients": []}', NOT_A_COHORT),
    ], ids=['{"cv_description": "x", "patients": [', "[]", "3", '{"patients": []}'])
    def test_bad_json_text_rejected(self, text, message):
        with pytest.raises(InputError, match=message):
            _ingest_json(text)

    def test_non_utf8_byte_is_reported_at_its_file_offset(self, tmp_path):
        # the byte is in a later chunk than the first, after a two-byte "é",
        # and a handle that starts past a prefix counts from the file's start
        path = tmp_path / "c.json"
        export_cohort_json(generate_cohort(SimConfig(seed=0, n_negative=0, n_positive=20)),
                           path)
        data = b'{"not": "this"} ' + path.read_bytes().replace(
            b'"provenance": ""', b'"provenance": "\xc3\xa9"', 1)
        at = data.index(b'"object_id": "', 600_000) + len(b'"object_id": "')
        path.write_bytes(data[:at] + b"\xff" + data[at + 1:])
        want = f"'utf-8' codec can't decode byte 0xff in position {at}: invalid start byte"
        with open(path, encoding="utf-8") as fh, \
                mock.patch.object(json, "loads", side_effect=AssertionError("json.loads")):
            fh.read(16)
            with pytest.raises(InputError) as err:
                ingest_cohort_json(fh)
        assert str(err.value) == f"JSON input: not valid JSON: {want}"

    def test_values_parse_like_csv_text(self):
        doc = _json_doc()
        doc["patients"][0].update(patient_id=" p1 ", wbc_count="400", true_parasitemia="500")
        doc["patients"][0]["objects"][0]["score"] = " 0.9"
        assert _ingest_json(doc).patients == _ingest().patients

    def test_csv_and_json_exports_ingest_equal(self, tmp_path):
        cohort = generate_cohort(SimConfig(seed=4, n_negative=3, n_positive=3))
        export_cohort(cohort, tmp_path / "o.csv", tmp_path / "p.csv")
        export_cohort_json(cohort, tmp_path / "c.json")
        from_csv = ingest_cohort(tmp_path / "o.csv", tmp_path / "p.csv", cohort.cv_description)
        from_json = ingest_cohort_json(tmp_path / "c.json")
        assert from_csv.patients == from_json.patients == cohort.patients
        # the same pair saved with a UTF-8 byte-order mark, as paths and as handles
        for name in ("o.csv", "p.csv"):
            text = (tmp_path / name).read_bytes()
            (tmp_path / f"bom-{name}").write_bytes(b"\xef\xbb\xbf" + text)
        from_bom = ingest_cohort(tmp_path / "bom-o.csv", tmp_path / "bom-p.csv", "1 uL blood")
        assert from_bom.patients == cohort.patients
        with open(tmp_path / "bom-o.csv", encoding="utf-8", newline="") as o, \
                open(tmp_path / "bom-p.csv", encoding="utf-8", newline="") as p:
            assert ingest_cohort(o, p, "1 uL blood").patients == cohort.patients

    def test_ingest_keeps_no_object_dicts(self, tmp_path):
        # the text is read a chunk at a time and each patient built as it is
        # parsed, so the peak is about a chunk, one patient's object dicts
        # and the finished patients (0.88x the file); building every
        # patient's columns before the first record took 1.34x, holding the
        # text read and its decoded str 2x, and one dict per object for the
        # whole document 3.4x
        path = tmp_path / "c.json"
        export_cohort_json(generate_cohort(SimConfig(seed=0, n_negative=0, n_positive=50)),
                           path)
        tracemalloc.start()
        try:
            ingest_cohort_json(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.0 * path.stat().st_size

    def test_ingested_cohort_keeps_its_ids_as_serial_ranges(self, tmp_path):
        # scores, masks and sorted scores are about 0.17x the file; one id
        # string per object made it 0.67x
        path = tmp_path / "c.json"
        export_cohort_json(generate_cohort(SimConfig(seed=0, n_negative=0, n_positive=50)),
                           path)
        ingest_cohort_json(path)  # warm caches outside the trace
        tracemalloc.start()
        try:
            cohort = ingest_cohort_json(path)  # noqa: F841 -- held while it is measured
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained <= 0.25 * path.stat().st_size


# each reader on the objects file's or the document's text handle, with the
# prefix of its error line for a handle
READERS = {
    "csv": (lambda fh: ingest_cohort(fh, io.StringIO(PATIENTS_CSV), "1 uL blood"),
            "objects file: "),
    "json": (ingest_cohort_json, "JSON input: not valid JSON: "),
}


def _text(reader: str) -> str:
    """A valid objects file or document of tens of KB, which a handle reads in several blocks."""
    if reader == "csv":
        return OBJECTS_CSV + "".join(f"p2,é{i},0.5,distractor\n" for i in range(2000))
    doc = _json_doc()
    doc["patients"][1]["objects"] += [{"object_id": f"é{i}", "score": 0.5,
                                       "true_label": "distractor"} for i in range(1000)]
    return json.dumps(doc, ensure_ascii=False)


class _SummingBytesIO(io.BytesIO):
    """A BytesIO that sums the bytes its read methods return."""
    returned = 0

    def read(self, size=-1):
        return self._sum(super().read(size))

    def read1(self, size=-1):
        return self._sum(super().read1(size))

    def _sum(self, data: bytes) -> bytes:
        self.returned += len(data)
        return data


@pytest.mark.parametrize("reader", READERS)
def test_bad_byte_is_placed_without_a_second_read(reader):
    # the error holds the bytes of the text layer's last read, which place it
    data = bytearray(_text(reader).encode())
    at = data.index("é1500".encode() if reader == "csv" else "é700".encode())
    data[at] = 0xff
    buffer = _SummingBytesIO(data)
    ingest, prefix = READERS[reader]
    with pytest.raises(InputError) as err:
        ingest(io.TextIOWrapper(buffer, encoding="utf-8", newline=""))
    assert str(err.value) == (f"{prefix}'utf-8' codec can't decode byte 0xff in position "
                              f"{at}: invalid start byte")
    assert buffer.returned <= len(data)


class _Pipe(io.RawIOBase):
    """A raw stream over ``data`` that, like a pipe, cannot seek or tell."""

    def __init__(self, data: bytes):
        self._data = io.BytesIO(data)

    def readable(self) -> bool:
        return True

    def readinto(self, b) -> int:
        return self._data.readinto(b)


@pytest.mark.parametrize("cut", [False, True], ids=["bad-byte", "cut-at-end"])
@pytest.mark.parametrize("reader", READERS)
def test_bad_utf8_in_a_handle_that_cannot_tell_gets_no_offset(reader, cut):
    # the codec's position counts from the start of the text layer's last
    # read, not from the input's, so none is given; a path is always placed
    data = bytearray(_text(reader).encode())
    if cut:
        data += "€".encode()[:2]
    else:
        data[data.index("é1500".encode() if reader == "csv" else "é700".encode())] = 0xff
    ingest, prefix = READERS[reader]
    with pytest.raises(InputError) as err:
        ingest(io.TextIOWrapper(io.BufferedReader(_Pipe(bytes(data))), encoding="utf-8",
                                newline=""))
    want = "bytes: unexpected end of data" if cut else "byte 0xff: invalid start byte"
    assert str(err.value) == f"{prefix}'utf-8' codec can't decode {want}"


@pytest.mark.parametrize("reader", READERS)
def test_character_cut_at_end_of_file_is_placed_by_its_bytes(tmp_path, reader):
    data = _text(reader).encode() + "€".encode()[:2]
    path = tmp_path / "cut"
    path.write_bytes(data)
    ingest, prefix = READERS[reader]
    want = (f"'utf-8' codec can't decode bytes in position {len(data) - 2}-{len(data) - 1}: "
            "unexpected end of data")
    for source, name in ((io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""),
                          prefix),
                         (path, prefix if reader == "csv" else f"{path}: not valid JSON: ")):
        with pytest.raises(InputError) as err:
            ingest(source)
        assert str(err.value) == name + want


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=5,
)
PATIENT_KEYS = ("patient_id", "ground_truth", "species", "true_parasitemia",
                "examined_volume", "wbc_count", "objects")
OBJECT_KEYS = ("object_id", "score", "true_label")


@given(
    patient=st.integers(0, 1),
    obj=st.one_of(st.none(), st.integers(0, 1)),
    key=st.data(),
    value=st.one_of(JSON_VALUES, st.just(KeyError)),
)
def test_any_json_edit_gives_cohort_or_schema_error(patient, obj, key, value):
    path = ("patients", patient) + (() if obj is None else ("objects", obj))
    name = key.draw(st.sampled_from(PATIENT_KEYS if obj is None else OBJECT_KEYS))
    doc = _json_doc()
    _set(path + (name,), value)(doc)
    try:
        _ingest_json(doc)
    except InputError:
        pass


# Other values for each column, valid or not, to put in place of a cell.
CSV_VALUES = {
    "patient_id": ["p0", "p1", " p1", ""],
    "ground_truth": ["pos", "neg", "NEG", "x"],
    "species": ["pf", "none", "PV", "x"],
    "true_parasitemia": ["0", "500", "-1", "nan", "1e999"],
    "examined_volume": ["0.5", "2", "0", "inf", "-1"],
    "wbc_count": ["", "400", " 7", "400.5", "-3", "1_000"],
    "object_id": ["o0", "o1", " o1", ""],
    "score": ["0", "1", "0.25", "1.5", "-0.0", "nan", "1e-3", "0x1p-2"],
    "true_label": ["parasite", "distractor", "Parasite", "x"],
}


def _mangled_csv(draw, columns, rows) -> str:
    """CSV text of ``rows``, then now and then a header, cell or row replaced
    and any text put anywhere (quotes, separators, newlines)."""
    header = list(columns)
    if draw(st.integers(0, 5)) == 0:
        header = draw(st.permutations(columns)
                      | st.lists(st.sampled_from(columns) | st.text(max_size=4), max_size=7))
    lines = [header]
    for row in rows:
        row = [draw(st.sampled_from(CSV_VALUES[c]) | st.text(max_size=5))
               if draw(st.integers(0, 9)) == 0 else value
               for c, value in zip(columns, row)]
        if draw(st.integers(0, 9)) == 0:
            row = draw(st.sampled_from([row[:-1], row + ["extra"]]))
        lines.append(row)
    text = "\n".join(map(",".join, lines)) + draw(st.sampled_from(["\n", "", "\r\n"]))
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.text(max_size=4)) + text[at:]
    return text


@st.composite
def csv_pairs(draw):
    """(patients, objects) CSV text: a valid cohort, then mangled."""
    positive = draw(st.lists(st.booleans(), min_size=1, max_size=4))
    patients = [[f"p{i}", "pos", "pf", "500", "0.5", "400"] if pos else
                [f"p{i}", "neg", "none", "0", "1.0", ""] for i, pos in enumerate(positive)]
    objects = []
    for j in range(draw(st.integers(0, 6))):
        i = draw(st.integers(0, len(positive) - 1))
        label = "parasite" if positive[i] and draw(st.booleans()) else "distractor"
        objects.append([f"p{i}", f"o{j}", draw(st.sampled_from(["0", "0.25", "0.9", "1"])),
                        label])
    return (_mangled_csv(draw, PATIENT_COLUMNS, patients),
            _mangled_csv(draw, OBJECT_COLUMNS, objects))


@given(texts=csv_pairs())
def test_any_csv_text_gives_cohort_or_schema_error(texts):
    try:
        _ingest(*texts)
    except InputError:
        pass


_IDS = ("p-p0", "p-p1", "p-d0")
_SCORES = (0.9, 0.25, 0.5)
_FLAGS = (True, True, False)


@pytest.mark.parametrize("object_ids, scores, is_parasite", [
    (list(_IDS), list(_SCORES), list(_FLAGS)),
    (_IDS, _SCORES, _FLAGS),
    (np.array(_IDS), np.array(_SCORES), np.array(_FLAGS)),
    (list(_IDS), array("d", _SCORES), bytearray(_FLAGS)),
    (SerialIds([("p-p", 2, 0), ("p-d", 1, 0)]), [0.9, 0.25, 0.5], [1, 1, 0]),
], ids=["list", "tuple", "ndarray", "array-bytearray", "serial-ids"])
def test_columns_in_any_form_build_the_same_record(object_ids, scores, is_parasite):
    want = make_patient("p", positive=True, parasite_scores=_SCORES[:2],
                        distractor_scores=_SCORES[2:])
    got = PatientRecord("p", GroundTruth.POSITIVE, Species.FALCIPARUM, 2.0, 1.0,
                        object_ids=object_ids, scores=scores, is_parasite=is_parasite)
    assert got == want and hash(got) == hash(want)
    assert type(got.object_ids) is (SerialIds if type(object_ids) is SerialIds else tuple)
    for column, dtype in ((got.scores, np.float64), (got.is_parasite, np.bool_)):
        assert column.dtype == dtype and not column.flags.writeable
    assert got.parasite_scores.tolist() == [0.25, 0.9]
    assert got.distractor_scores.tolist() == [0.5]


def test_replace_derives_and_validates_again():
    p = make_patient("n", distractor_scores=(0.9, 0.1))
    q = replace(p, scores=[0.3, 0.2])
    assert q.distractor_scores.tolist() == [0.2, 0.3] and not q.scores.flags.writeable
    with pytest.raises(InputError, match="'n-d1'"):
        replace(p, is_parasite=[False, True])


@pytest.mark.parametrize("truth, scores, is_parasite", [
    (GroundTruth.POSITIVE, [0.5, 0.0, 1.0, -0.0, 0.5, 0.25], [True, False, True, False, True, False]),
    (GroundTruth.POSITIVE, [0.7, -0.0, 0.7, 0.0, 0.1], [True] * 5),
    (GroundTruth.NEGATIVE, [0.3, 0.0, 0.9, -0.0, 0.3], [False] * 5),
    (GroundTruth.NEGATIVE, [], []),
], ids=["mixed", "all-parasites", "all-distractors", "no-objects"])
def test_sorted_columns_own_their_memory(truth, scores, is_parasite):
    scores, is_parasite = np.array(scores, dtype=float), np.array(is_parasite, dtype=bool)
    kept_scores, kept_flags = scores.copy(), is_parasite.copy()
    positive = truth is GroundTruth.POSITIVE
    p = PatientRecord("p", truth, Species.FALCIPARUM if positive else Species.NONE,
                      1.0 if positive else 0.0, 1.0,
                      object_ids=[f"o{i}" for i in range(len(scores))],
                      scores=scores, is_parasite=is_parasite)
    for column, mask in ((p.parasite_scores, is_parasite), (p.distractor_scores, ~is_parasite)):
        want = np.sort(scores[mask])
        assert column.dtype == want.dtype and column.tobytes() == want.tobytes()
        assert not column.flags.writeable
        for other in (p.scores, scores, is_parasite):
            assert not np.shares_memory(column, other)
    assert scores.tobytes() == kept_scores.tobytes() and scores.flags.writeable
    assert np.array_equal(is_parasite, kept_flags) and is_parasite.flags.writeable


def test_objects_are_given_only_as_columns():
    args = ("x", GroundTruth.NEGATIVE, Species.NONE, 0.0, 1.0)
    with pytest.raises(TypeError):
        PatientRecord(*args, objects=())
    with pytest.raises(TypeError):
        PatientRecord(*args, None, ())


def _tp_fp(p, C):
    return (int(counts_at([p], [C], "parasite_scores")[0, 0]),
            int(counts_at([p], [C], "distractor_scores")[0, 0]))


class TestPatientCounts:
    def test_per_cv_rescaling(self):
        # 12 distractors passing at C, volume 0.1 cV -> 120 FPs per cV
        p = make_patient("n", distractor_scores=(0.9,) * 12, volume=0.1)
        assert _tp_fp(p, 0.5) == (0, 12)
        assert per_cv_counts([p], 0.5).tolist() == [pytest.approx(120.0)]

    def test_empty_objects(self):
        p = make_patient("n", volume=1.0)
        assert _tp_fp(p, 0.3) == (0, 0)
        assert (p.n_parasite_objects, len(p.distractor_scores)) == (0, 0)
        assert per_cv_counts([p], 0.3).tolist() == [0.0]

    def test_zero_threshold_accepts_all(self):
        p = make_patient(
            "p", positive=True, parasite_scores=(0.1, 0.5, 0.9),
            distractor_scores=(0.0, 0.2, 0.4, 0.6),
        )
        assert _tp_fp(p, 0.0) == (3, 4)

    def test_inclusive_threshold(self):
        p = make_patient("p", positive=True, parasite_scores=(0.5,))
        assert _tp_fp(p, 0.5)[0] == 1

    def test_out_of_range_C(self):
        p = make_patient("n")
        with pytest.raises(InputError, match=r"score threshold C=1.5 outside \[0, 1\]"):
            counts_at([p], [1.5], "parasite_scores")
        with pytest.raises(InputError, match=r"^score threshold C=2 outside \[0, 1\]$"):
            per_cv_counts([p], 2)

    def test_n_is_tp_and_fp_per_cv_summed(self):
        # N is TP per cV plus FP per cV, each rounded: (tp + fp) / v differs in the last bit
        p = make_patient("p", positive=True, volume=0.3, parasite_scores=(0.9,),
                         distractor_scores=(0.9,) * 6)
        assert per_cv_counts([p], 0.5).tolist() == [23.333333333333332]
        assert (1 + 6) / 0.3 == 23.333333333333336


@given(
    scores=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=30),
    c1=st.floats(min_value=0.0, max_value=1.0),
    c2=st.floats(min_value=0.0, max_value=1.0),
)
def test_counts_partition_and_monotonicity(scores, c1, c2):
    n_par = len(scores) // 2
    p = make_patient(
        "p",
        positive=n_par > 0,
        parasite_scores=scores[:n_par],
        distractor_scores=scores[n_par:],
    )
    lo, hi = min(c1, c2), max(c1, c2)
    (tp_lo, tp_hi), (fp_lo, fp_hi) = (counts_at([p], [lo, hi], attr)[:, 0].tolist()
                                      for attr in ("parasite_scores", "distractor_scores"))
    assert (p.n_parasite_objects, len(p.distractor_scores)) == (n_par, len(scores) - n_par)
    for tp, fp in ((tp_lo, fp_lo), (tp_hi, fp_hi)):
        assert 0 <= tp <= n_par
        assert 0 <= fp <= len(scores) - n_par
    assert tp_lo >= tp_hi
    assert fp_lo >= fp_hi
