"""``SerialIds`` against the tuple of strings it stands for, ``compact_ids``
against ``tuple``, and the id builders that used it against the f-string
loops they replaced.

The simulator and ``easy_distractor_experiment`` used to format one id
string per object; generated patients now keep ``(prefix, count, width)``
groups. The old loops stay here as the reference: for every generated
patient, ``tuple(object_ids)`` must be the tuple they built. Ingest keeps
a patient's ids as a SerialIds when ``compact_ids`` finds them in serial
groups; whatever it returns must equal the tuple of the ids it was given.
Two tracemalloc guards keep the ids from turning back into strings.
"""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import parasitometrics.curves as curves
from parasitometrics.curves import easy_distractor_experiment
from parasitometrics.datamodel import (
    GroundTruth,
    PatientRecord,
    SerialIds,
    Species,
    compact_ids,
    export_cohort,
    export_cohort_json,
    ingest_cohort,
    ingest_cohort_json,
)
from parasitometrics.errors import InputError
from parasitometrics.simulator import (
    SimConfig,
    generate_cohort,
    paper_worked_examples,
    who56_preset,
)

from conftest import object_rows


def expected_ids(groups) -> tuple:
    return tuple(f"{prefix}{i:0{width}d}" for prefix, count, width in groups
                 for i in range(count))


PREFIXES = st.text(max_size=8) | st.text(alphabet="\"'\\%-0dé☃\x01", max_size=8)
GROUPS = st.lists(st.tuples(PREFIXES, st.integers(0, 50), st.integers(0, 6)), max_size=5)


@settings(max_examples=300, deadline=None)
@given(groups=GROUPS, other=GROUPS, data=st.data())
def test_serial_ids_read_as_the_tuple(groups, other, data):
    ids, want = SerialIds(groups), expected_ids(groups)
    n = len(want)
    assert len(ids) == n
    assert [ids[i] for i in range(-n, n)] == list(want[-n:] + want)
    if n:
        assert ids[np.int64(n - 1)] == want[-1]
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            ids[i]
    s = data.draw(st.slices(n + 2))
    assert type(ids[s]) is tuple and ids[s] == want[s]
    assert tuple(ids) == want and list(iter(ids)) == list(want)

    assert ids == want and want == ids and not ids != want
    assert ids == SerialIds(groups) and ids == SerialIds(
        [g for prefix, count, width in groups for g in ((prefix, count, width), ("", 0, 0))])
    assert ids != want + ("x",) and want + ("x",) != ids
    if n:
        changed = want[:-1] + (want[-1] + "x",)
        assert ids != changed and changed != ids
    assert ids != list(want)
    assert hash(ids) == hash(want)

    more = expected_ids(other)
    assert type(ids + more) is tuple and ids + more == want + more
    assert type(more + ids) is tuple and more + ids == more + want
    joined = ids + SerialIds(other)
    assert type(joined) is SerialIds and joined == want + more
    assert (ids == SerialIds(other)) == (want == more)


def test_patient_record_keeps_serial_ids_and_hashes_as_the_tuple():
    ids = SerialIds([("pt-p", 3, 2), ("pt-d", 2, 0)])
    args = dict(patient_id="pt", ground_truth=GroundTruth.POSITIVE,
                species=Species.VIVAX, true_parasitemia=3.0, examined_volume=1.0,
                scores=[0.9, 0.8, 0.7, 0.2, 0.1], is_parasite=[1, 1, 1, 0, 0])
    serial = PatientRecord(**args, object_ids=ids)
    listed = PatientRecord(**args, object_ids=list(expected_ids(ids.groups)))
    assert serial.object_ids is ids and type(listed.object_ids) is tuple
    assert serial == listed and hash(serial) == hash(listed)
    assert [oid for oid, _, _ in object_rows(serial)] == ["pt-p00", "pt-p01", "pt-p02",
                                                          "pt-d0", "pt-d1"]


def test_a_bad_score_is_named_by_its_serial_id():
    with pytest.raises(InputError, match="'pt-d1'"):
        PatientRecord("pt", GroundTruth.NEGATIVE, Species.NONE, 0.0, 1.0,
                      object_ids=SerialIds([("pt-d", 3, 0)]),
                      scores=[0.1, 1.5, 0.2], is_parasite=[0, 0, 0])


# --- compact_ids against tuple ----------------------------------------------

# prefixes that end in "0" or other digits, with "%", NUL and non-ASCII text;
# counts past 10**width
ID_PREFIXES = st.text(max_size=6) | st.text(alphabet="0123456789%-pé☃\x00", max_size=6)
ID_GROUPS = st.lists(st.tuples(ID_PREFIXES, st.integers(0, 120), st.integers(0, 3)),
                     max_size=4)


@settings(max_examples=500, deadline=None)
@given(groups=ID_GROUPS, edit=st.sampled_from([None, "perturb", "drop", "duplicate"]),
       data=st.data())
def test_compact_ids_equal_the_tuple(groups, edit, data):
    ids = list(expected_ids(groups))
    if edit and ids:
        i = data.draw(st.integers(0, len(ids) - 1))
        if edit == "perturb":
            ids[i] = data.draw(st.sampled_from([ids[i][:-1], ids[i] + "0", "1" + ids[i],
                                                ids[i][:-1] + "\x00"]))
        elif edit == "drop":
            del ids[i]
        else:
            ids.insert(data.draw(st.integers(0, len(ids))), ids[i])
    want = tuple(ids)
    got = compact_ids(ids, {})
    assert type(got) in (SerialIds, tuple)
    assert got == want and want == got and hash(got) == hash(want)
    assert tuple(got) == want and [got[i] for i in range(len(want))] == ids
    if type(got) is SerialIds:  # ingest skips the duplicate check for these
        assert len(set(want)) == len(want)


def test_compact_ids_do_not_read_a_nul_as_a_separator():
    # joined with NULs, these ids read as the ids "a\x000" to "a\x007", and
    # the bisection for the group's end only looks at the later ones
    ids = ["a\x000", "a", "1\x00a\x002"] + [f"a\x00{i}" for i in range(3, 8)]
    got = compact_ids(ids, {})
    assert got == tuple(ids) and list(got) == ids


ID_TAGS = st.lists(st.sampled_from(["p", "d", "hard", "easy"]), unique=True, max_size=4)


@settings(max_examples=200, deadline=None)
@given(pid=st.from_regex(r"[a-z]{1,4}[0-9]{0,4}", fullmatch=True), tags=ID_TAGS,
       data=st.data())
def test_simulator_shaped_ids_stay_serial(pid, tags, data):
    groups = [(f"{pid}-{tag}", data.draw(st.integers(1, 1200)), data.draw(st.integers(0, 6)))
              for tag in tags]
    ids = expected_ids(groups)
    got = compact_ids(list(ids), {})
    assert type(got) is SerialIds and got == ids


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_ingested_simulator_cohorts_equal_the_generated_cohort(tmp_path, fmt):
    for cohort in (generate_cohort(SimConfig(seed=5, n_negative=4, n_positive=4)),
                   generate_cohort(who56_preset(seed=0))):
        if fmt == "csv":
            export_cohort(cohort, tmp_path / "o.csv", tmp_path / "p.csv")
            ingested = ingest_cohort(tmp_path / "o.csv", tmp_path / "p.csv",
                                     cohort.cv_description)
        else:
            export_cohort_json(cohort, tmp_path / "c.json")
            ingested = ingest_cohort_json(tmp_path / "c.json")
        assert ingested.patients == cohort.patients
        assert all(type(p.object_ids) is SerialIds for p in ingested)


# --- the f-string builders the simulator used -----------------------------

def old_generated_ids(p: PatientRecord) -> tuple:
    """``generate_cohort``'s ids: parasites, then distractors, five digits each."""
    n_parasites = int(p.is_parasite.sum())
    assert not p.is_parasite[n_parasites:].any()  # parasites come first
    return tuple([f"{p.patient_id}-p{i:05d}" for i in range(n_parasites)]
                 + [f"{p.patient_id}-d{i:05d}" for i in range(len(p.scores) - n_parasites)])


@pytest.mark.parametrize("cfg", [SimConfig(seed=0), SimConfig(seed=1),
                                 who56_preset(seed=0), who56_preset(seed=1)], ids=repr)
def test_generated_ids_match_the_f_string_builder(cfg):
    for p in generate_cohort(cfg):
        assert type(p.object_ids) is SerialIds
        assert tuple(p.object_ids) == old_generated_ids(p)


def _old_uniform_ids(pid, *groups):
    return tuple(f"{pid}-{tag}{i:06d}" for tag, n in groups for i in range(n))


def test_worked_example_ids_match_the_f_string_builder():
    want = {
        "pt1": _old_uniform_ids("pt1", ("p", 50_000)),
        **{f"pt{k}": _old_uniform_ids(f"pt{k}", ("p", 300)) for k in (2, 3, 4)},
        "q1": _old_uniform_ids("q1", ("p", 10_000), ("d", 100)),
        "a1": _old_uniform_ids("a1", ("p", 1), ("hard", 50), ("easy", 49_950)),
    }
    got = {p.patient_id: p.object_ids for ex in paper_worked_examples().values()
           for p in ex["cohort"]}
    assert got.keys() == want.keys()
    for pid, ids in got.items():
        assert type(ids) is SerialIds and tuple(ids) == want[pid], pid


def _augmented_cohort(monkeypatch, cohort, n_easy):
    """The cohort that easy_distractor_experiment adds its distractors to."""
    seen = []
    roc = curves.object_roc

    def recording_roc(c):
        seen.append(c)
        return roc(c)

    monkeypatch.setattr(curves, "object_roc", recording_roc)
    easy_distractor_experiment(cohort, n_easy=n_easy, easy_score_max=0.001)
    assert seen[0] is cohort
    return seen[1]


@pytest.mark.parametrize("ingested", [False, True], ids=["generated", "ingested"])
def test_easy_distractor_ids_match_the_f_string_builder(monkeypatch, tmp_path, ingested):
    cohort = generate_cohort(SimConfig(seed=2, n_negative=2, n_positive=2))
    if ingested:
        export_cohort_json(cohort, tmp_path / "cohort.json")
        cohort = ingest_cohort_json(str(tmp_path / "cohort.json"))
    augmented = _augmented_cohort(monkeypatch, cohort, n_easy=12)
    for p, q in zip(cohort, augmented):
        assert type(q.object_ids) is SerialIds
        assert q.object_ids == tuple(p.object_ids) + tuple(
            f"{p.patient_id}-easy{k}" for k in range(12))


# --- memory guards ------------------------------------------------------------

def _traced(fn):
    """fn(), with the memory it still holds on return and its peak, in MB."""
    fn()  # warm caches and lazy imports outside the trace
    gc.collect()
    tracemalloc.start()
    try:
        result = fn()  # noqa: F841 -- held while the retained memory is read
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return current / 1e6, peak / 1e6


def test_worked_examples_traced_peak_stays_small():
    # 10.3 MB while every id was a string; about 2.6 MB as serial ranges
    _, peak = _traced(paper_worked_examples)
    assert peak <= 4.0


def test_generated_cohort_retains_little_beyond_its_scores():
    # 4.9 MB at 200 positives while every id was a string; about 1.1 MB as serial ranges
    retained, _ = _traced(lambda: generate_cohort(SimConfig(seed=0, n_negative=0,
                                                            n_positive=200)))
    assert retained <= 2.0
