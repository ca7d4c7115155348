"""Core domain types, dataset file formats, and validated ingestion.

A cohort is a set of patients; each patient owns the detector-scored objects
found in their examined sample volume. All rates downstream are normalized to
the clinically relevant unit of substrate ("cV", e.g. 1 uL of blood), and
``examined_volume`` is stored directly in cV units so that per-cV rescaling is
always ``count / examined_volume``.

File formats (CSV pair or a single JSON document) are documented in the
module-level ``ingest_cohort`` / ``export_cohort`` functions. Both go through
one validator that appends each object to its patient's columns and builds
the patients from them: fed the CSV rows as they are read, or one JSON
patient at a time as each is parsed, so a JSON file or pipe is read a chunk
at a time and neither its text nor its object dicts are held whole. It parses
a JSON value as the CSV text it would be written as (``str`` of it, stripped);
malformed input raises ``InputError`` at the first fault the reader meets.
Each patient keeps its objects as columns (ids, scores, an is-parasite mask)
and its scores sorted, so a count at a threshold is a search; ids that run
in serial ranges are kept as a ``SerialIds``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import operator
import os
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from contextlib import nullcontext
from dataclasses import dataclass, field, fields
from enum import Enum
from itertools import accumulate, chain, repeat
from json.decoder import WHITESPACE, JSONDecodeError, scanstring
from json.encoder import encode_basestring_ascii
from operator import itemgetter

import numpy as np

from .errors import InputError


class GroundTruth(Enum):
    POSITIVE = "pos"
    NEGATIVE = "neg"


class Species(Enum):
    FALCIPARUM = "pf"
    VIVAX = "pv"
    OVALE = "po"
    MALARIAE = "pm"
    KNOWLESI = "pk"
    MIXED = "mixed"
    NONE = "none"


class CalibrationMethod(Enum):
    GAUSSIAN = "gaussian"
    ROBUST = "robust"
    PERCENTILE = "percentile"


# Interior parasitemia bin edges (per cV). The bins run from 0 to inf and are
# half-open on the left: a bin (lo, hi] holds patients with lo < P <= hi.
DEFAULT_BIN_EDGES: tuple[float, ...] = (50.0, 200.0, 1000.0)


_LABELS = ("distractor", "parasite")  # indexed by is_parasite


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class SerialIds(Sequence):
    """Object ids in serial ranges, formatted only when read.

    Built from ``(prefix, count, width)`` groups, it reads as the tuple of
    ``f"{prefix}{i:0{width}d}"`` for ``i`` in ``range(count)``, group after
    group: ``len``, indexing, slices (which return a tuple), iteration,
    ``==`` and ``hash`` as that tuple's, and ``+`` with a tuple or another
    SerialIds. Generated cohorts keep their ids this way, and ingest keeps a
    patient's ids this way when ``compact_ids`` finds them in such groups.
    """

    __slots__ = ("groups", "_templates", "_ends")

    def __init__(self, groups):
        self.groups = tuple((prefix, operator.index(count), operator.index(width))
                            for prefix, count, width in groups)
        if any(count < 0 or width < 0 for _, count, width in self.groups):
            raise ValueError("serial id counts and widths must be >= 0")
        self._templates = tuple((prefix.replace("%", "%%") + f"%0{width}d", count)
                                for prefix, count, width in self.groups)
        self._ends = tuple(accumulate(count for _, count, _ in self.groups))

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(len(self))[i]))
        i = operator.index(i)
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("SerialIds index out of range")
        g = bisect_right(self._ends, i)
        return self._templates[g][0] % (i - (self._ends[g - 1] if g else 0))

    def __iter__(self):
        return chain(*[map(template.__mod__, range(count))
                       for template, count in self._templates])

    def __eq__(self, other):
        if isinstance(other, SerialIds):
            if self.groups == other.groups:
                return True
        elif not isinstance(other, tuple):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __hash__(self):
        return hash(tuple(self))

    def __add__(self, other):
        if isinstance(other, SerialIds):
            return SerialIds(self.groups + other.groups)
        if isinstance(other, tuple):
            return tuple(self) + other
        return NotImplemented

    def __radd__(self, other):
        if isinstance(other, tuple):
            return other + tuple(self)
        return NotImplemented

    def __repr__(self) -> str:
        return f"SerialIds({list(self.groups)!r})"


def compact_ids(ids: Sequence[str], digits: dict[int, list[str]]) -> SerialIds | tuple:
    """``ids`` as a SerialIds if they run in ``(prefix, count, width)`` groups
    with prefix-free prefixes (none starts another, so every id is
    distinct), else as a tuple; either way it equals ``tuple(ids)``.

    A group starts at an id that ends in "0": the prefix is that id without
    its trailing zeros, and the width is how many there are. The group runs
    for as long as the ids go on counting, and all of its ids are checked
    by one compare of their NUL-joined text, after its length. ``digits``
    caches ``f"{i:0{width}d}"`` for i = 0, 1, ... per width, never more of
    them than the ids checked; pass one dict for all the patients of a file.
    """
    groups, k, n = [], 0, len(ids)
    while k < n:
        first = ids[k]
        prefix = first.rstrip("0")
        width = len(first) - len(prefix)
        if not width or "\0" in prefix:
            return tuple(ids)
        padded = digits.setdefault(width, [])
        fmt = f"%0{width}d"
        count = 1 + bisect_left(range(1, n - k), True, key=lambda j: ids[k + j] != prefix + (
            padded[j] if j < len(padded) else fmt % j))
        text = "\0".join(ids[k:k + count])
        size, power = count * (len(prefix) + width + 1) - 1, 10 ** width
        while power < count:  # one more digit from each id from the power on
            size, power = size + count - power, power * 10
        if len(text) != size:
            return tuple(ids)
        padded.extend(fmt % i for i in range(len(padded), count))
        # the expected text has no NUL but the count - 1 separators, so equal
        # texts are equal ids
        if text != prefix + ("\0" + prefix).join(padded[:count]):
            return tuple(ids)
        groups.append((prefix, count, width))
        k += count
    prefixes = sorted(prefix for prefix, _, _ in groups)
    if any(b.startswith(a) for a, b in zip(prefixes, prefixes[1:])):
        return tuple(ids)
    return SerialIds(groups)


@dataclass(frozen=True, slots=True)
class PatientRecord:
    """One patient's ground truth, sample metadata, and scored objects.

    ``true_parasitemia`` is parasites per cV; ``examined_volume`` is the
    examined sample volume expressed in cV units (so a thick-film exam of
    0.1 uL with cV = 1 uL blood has examined_volume = 0.1).

    The objects are given as keyword-only columns in input order:
    ``object_ids`` (kept as a SerialIds if given one, else made a tuple),
    ``scores`` and the ``is_parasite`` mask (any sequence or buffer, stored
    as read-only float64 and bool arrays).
    """

    patient_id: str
    ground_truth: GroundTruth
    species: Species
    true_parasitemia: float
    examined_volume: float
    wbc_count: int | None = None
    object_ids: tuple[str, ...] | SerialIds = field(default=(), kw_only=True)
    scores: np.ndarray = field(default=(), kw_only=True, repr=False, compare=False)
    is_parasite: np.ndarray = field(default=(), kw_only=True, repr=False, compare=False)
    # ascending scores of the parasite / distractor objects, read-only
    parasite_scores: np.ndarray = field(init=False, repr=False, compare=False)
    distractor_scores: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if type(self.object_ids) is not SerialIds:
            object.__setattr__(self, "object_ids", tuple(self.object_ids))
        object.__setattr__(self, "scores", _read_only(np.array(self.scores, dtype=float)))
        object.__setattr__(self, "is_parasite",
                           _read_only(np.array(self.is_parasite, dtype=bool)))
        pid = self.patient_id
        scores, is_parasite = self.scores, self.is_parasite
        if not len(self.object_ids) == len(scores) == len(is_parasite):
            raise ValueError(f"patient {pid!r}: object columns differ in length")
        _check_scores(self.object_ids, scores)
        if self.examined_volume <= 0 or not math.isfinite(self.examined_volume):
            raise InputError(f"patient {pid!r}: examined_volume must be > 0")
        n = max(1, len(scores))  # every per-cV rate divides at most n objects by the volume
        if not math.isfinite(n / float(self.examined_volume)):
            raise InputError(f"patient {pid!r}: examined_volume {self.examined_volume!r} is "
                             f"too small: {n} / examined_volume overflows")
        if self.true_parasitemia < 0 or not math.isfinite(self.true_parasitemia):
            raise InputError(f"patient {pid!r}: true_parasitemia must be >= 0")
        if self.wbc_count is not None and self.wbc_count < 0:
            raise InputError(f"patient {pid!r}: wbc_count must be >= 0")
        if self.ground_truth is GroundTruth.NEGATIVE:
            if self.species is not Species.NONE:
                raise InputError(f"patient {pid!r}: negative patient must have species=none")
            if self.true_parasitemia != 0:
                raise InputError(f"patient {pid!r}: negative patient must have parasitemia 0")
            if is_parasite.any():
                raise InputError(
                    f"patient {pid!r} is negative but owns parasite object "
                    f"{self.object_ids[is_parasite.argmax()]!r}"
                )
        else:
            if self.species is Species.NONE:
                raise InputError(f"patient {pid!r}: positive patient must have a species")
            if self.true_parasitemia <= 0:
                raise InputError(f"patient {pid!r}: positive patient must have parasitemia > 0")
        for name, mask in (("parasite_scores", is_parasite), ("distractor_scores", ~is_parasite)):
            selected = scores[mask]  # a copy already, so sorted in place, where np.sort copies it
            selected.sort()
            object.__setattr__(self, name, _read_only(selected))

    def __eq__(self, other):
        """Field equality, with the array columns compared as whole arrays."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            all(getattr(self, f.name) == getattr(other, f.name)
                for f in fields(self) if f.compare)
            and np.array_equal(self.scores, other.scores)
            and np.array_equal(self.is_parasite, other.is_parasite)
        )

    @property
    def n_parasite_objects(self) -> int:
        return len(self.parasite_scores)


def _check_scores(object_ids, scores) -> None:
    """InputError naming the first object whose score is not in [0, 1]."""
    scores = np.asarray(scores, dtype=float)
    bad = np.flatnonzero(~((scores >= 0.0) & (scores <= 1.0)))  # NaN fails both
    if len(bad):
        oid, score = object_ids[bad[0]], float(scores[bad[0]])
        if not math.isfinite(score):
            raise InputError(f"object {oid!r}: score must be finite")
        raise InputError(f"object {oid!r}: score {score} outside [0, 1]")


def _object_columns(p: PatientRecord):
    """(object_id, score, is_parasite) of each object, as Python values."""
    return zip(p.object_ids, p.scores.tolist(), p.is_parasite.tolist())


@dataclass(frozen=True, slots=True)
class CohortDataset:
    """Validated patients sharing one clinical-volume convention, sorted by patient_id."""

    cv_description: str
    patients: tuple[PatientRecord, ...]
    provenance: str = ""

    def __post_init__(self):
        # one canonical order: sums over patients then do not depend on file order
        object.__setattr__(self, "patients", tuple(sorted(self.patients, key=lambda p: p.patient_id)))
        if not self.patients:
            raise InputError("cohort must contain at least one patient")
        for p, q in zip(self.patients, self.patients[1:]):
            if p.patient_id == q.patient_id:
                raise InputError(f"duplicate patient_id {p.patient_id!r}")

    def __iter__(self):
        return iter(self.patients)

    def __len__(self) -> int:
        return len(self.patients)

    @property
    def positives(self) -> tuple[PatientRecord, ...]:
        return tuple(p for p in self.patients if p.ground_truth is GroundTruth.POSITIVE)

    @property
    def negatives(self) -> tuple[PatientRecord, ...]:
        return tuple(p for p in self.patients if p.ground_truth is GroundTruth.NEGATIVE)


def n_at_or_above(ascending: np.ndarray, thresholds):
    """How many of the ``ascending`` values are >= each threshold (inclusive)."""
    # side="left" counts the values below a threshold, so a value equal to it passes
    return len(ascending) - np.searchsorted(ascending, thresholds, side="left")


def check_thresholds(thresholds) -> np.ndarray:
    """The score thresholds as floats; InputError naming the first outside [0, 1]."""
    t = np.asarray(thresholds, dtype=float)
    bad = np.flatnonzero(~((t >= 0.0) & (t <= 1.0)))
    if len(bad):
        raise InputError(f"score threshold C={thresholds[bad[0]]} outside [0, 1]")
    return t


def counts_at(patients, thresholds, attr: str) -> np.ndarray:
    """(threshold x patient) counts of each patient's ``attr`` scores >= each threshold."""
    t = check_thresholds(thresholds)
    return np.stack([n_at_or_above(getattr(p, attr), t) for p in patients], axis=1)


def per_cv_counts(patients, C: float) -> np.ndarray:
    """Each patient's N = TP + FP per cV at score threshold C (inclusive), the
    count that diagnoses a patient positive at N >= T. TP and FP per cV are
    each rescaled before they are summed: ``tp / v + fp / v``."""
    tp = counts_at(patients, [C], "parasite_scores")[0]
    fp = counts_at(patients, [C], "distractor_scores")[0]
    v = np.array([p.examined_volume for p in patients])
    return tp / v + fp / v


def pooled_scores(patients) -> tuple[np.ndarray, np.ndarray]:
    """The patients' parasite scores and their distractor scores, each pooled
    and sorted ascending."""
    return (np.sort(np.concatenate([p.parasite_scores for p in patients])),
            np.sort(np.concatenate([p.distractor_scores for p in patients])))


def distinct_sorted(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` for floats without NaN: one sort and the
    neighbour-inequality mask, the path np.unique takes for floats, without
    np.unique's lazy import of ``numpy.ma``."""
    ascending = np.sort(values)
    keep = np.ones(len(ascending), dtype=bool)
    keep[1:] = ascending[1:] != ascending[:-1]
    return ascending[keep]


# ---------------------------------------------------------------------------
# Ingestion / export
# ---------------------------------------------------------------------------

PATIENT_COLUMNS = (
    "patient_id",
    "ground_truth",
    "species",
    "true_parasitemia",
    "examined_volume",
    "wbc_count",
)
OBJECT_COLUMNS = ("patient_id", "object_id", "score", "true_label")
_PATIENT_VALUES = operator.attrgetter(*PATIENT_COLUMNS)


def _patient_values(p: PatientRecord) -> list:
    """``p``'s values in PATIENT_COLUMNS order, an enum as its text."""
    return [v.value if isinstance(v, Enum) else v for v in _PATIENT_VALUES(p)]


def _text(value) -> str:
    """A CSV cell or a JSON value as the stripped text that both formats parse."""
    return "" if value is None else str(value).strip()


_GROUND_TRUTHS = {e.value: e for e in GroundTruth}
_SPECIES = {e.value: e for e in Species}
_IS_PARASITE = {"parasite": True, "distractor": False}


def _member(members: dict, value, key: str, what: str):
    """The member that the lower-cased text of ``value`` names; InputError if none."""
    text = _text(value)
    try:
        return members[text.lower()]
    except KeyError:
        allowed = ", ".join(members)
        raise InputError(f"{what}: {key} {text!r} not one of {{{allowed}}}") from None


def _float(raw) -> float:
    """A JSON number, or the float that the text of ``raw`` spells; ValueError if none."""
    if type(raw) is float:  # a JSON number, which its text would parse back to
        return raw
    if type(raw) is str:
        try:
            return float(raw)
        except ValueError:  # float() strips less than str.strip() does
            pass
    return float(_text(raw))


def _parse_float(row: dict, key: str, what: str) -> float:
    try:
        return _float(row.get(key))
    except ValueError:
        raise InputError(f"{what}: {key} {_text(row.get(key))!r} is not numeric") from None


def _patient_id(row: dict, seen) -> str:
    """The patient_id text of ``row``; InputError if it is empty or in ``seen``."""
    pid = _text(row.get("patient_id"))
    if not pid:
        raise InputError("patient with empty or missing patient_id")
    if pid in seen:
        raise InputError(f"duplicate patient_id {pid!r}")
    return pid


def _add_objects(columns: dict, object_rows) -> None:
    """Each ``(patient_id, object_id, score, true_label)`` row checked and
    appended to its patient's ``(ids, scores, flags)`` in ``columns``, which
    are keyed by patient_id text; InputError names the first bad row."""
    for raw_pid, oid, score, label in object_rows:
        try:
            ids, scores, flags = columns[raw_pid]
        except (KeyError, TypeError):
            pid = _text(raw_pid)
            if pid not in columns:
                raise InputError(f"object row references unknown patient_id {pid!r}")
            ids, scores, flags = columns[pid]
        oid = oid.strip() if type(oid) is str else _text(oid)
        if not oid:
            raise InputError(
                f"patient {_text(raw_pid)!r}: object with empty or missing object_id")
        if type(score) is not float:
            try:
                score = _float(score)
            except ValueError:
                raise InputError(f"patient {_text(raw_pid)!r} object {oid!r}: "
                                 f"score {_text(score)!r} is not numeric") from None
        try:
            flag = _IS_PARASITE[label]
        except (KeyError, TypeError):
            flag = _member(_IS_PARASITE, label, "true_label",
                           f"patient {_text(raw_pid)!r} object {oid!r}")
        if not 0.0 <= score <= 1.0:  # NaN fails both
            _check_scores((oid,), (score,))
        ids.append(oid)
        scores.append(score)
        flags.append(flag)


def _patient_record(pid: str, row: dict, ids: list, scores, flags, digits: dict) -> PatientRecord:
    """The PatientRecord of a patient row and its checked object columns;
    ``digits`` as for ``compact_ids``."""
    what = f"patient {pid!r}"
    ids = compact_ids(ids, digits)
    if type(ids) is tuple and len(set(ids)) != len(ids):  # serial ids are distinct
        seen: set[str] = set()
        for oid in ids:
            if oid in seen:
                raise InputError(f"{what}: duplicate object_id {oid!r}")
            seen.add(oid)
    wbc = _text(row.get("wbc_count"))
    try:
        wbc_count = int(wbc) if wbc else None
    except ValueError:
        raise InputError(f"{what}: wbc_count {wbc!r} is not an integer") from None
    return PatientRecord(
        patient_id=pid,
        ground_truth=_member(_GROUND_TRUTHS, row.get("ground_truth"), "ground_truth", what),
        species=_member(_SPECIES, row.get("species"), "species", what),
        true_parasitemia=_parse_float(row, "true_parasitemia", what),
        examined_volume=_parse_float(row, "examined_volume", what),
        wbc_count=wbc_count,
        object_ids=ids,
        scores=scores,
        is_parasite=flags,
    )


class _Counted(io.BufferedReader):
    """A binary reader whose ``tell()`` counts the bytes ``read1`` returned, a pipe's too."""
    count = 0

    def read1(self, size=-1):
        data = super().read1(size)
        self.count += len(data)
        return data

    def tell(self) -> int:
        return self.count


def _file(src, mode: str = "r", **kwargs):
    """``src`` as a context manager: a path is opened (to read, through ``_Counted``)
    and closed on exit; an open handle is used as it is and left open."""
    if hasattr(src, "read" if mode == "r" else "write"):
        return nullcontext(src)
    if mode == "r":
        return io.TextIOWrapper(_Counted(io.FileIO(src)), encoding="utf-8", **kwargs)
    return open(src, mode, encoding="utf-8", **kwargs)


def _message(fh, exc: Exception) -> str:
    """``exc``'s message; bad UTF-8 is placed by its byte offset in the file: the
    error holds the text layer's last read, whose bytes end where ``fh.buffer``
    stands. A handle whose buffer cannot tell (a caller's over a pipe) gets no
    offset, since the codec's own counts from the start of that read."""
    if not isinstance(exc, UnicodeDecodeError):
        return str(exc)
    n = exc.end - exc.start
    what = f"byte 0x{exc.object[exc.start]:02x}" if n == 1 else "bytes"
    try:
        first = fh.buffer.tell() - len(exc.object) + exc.start
    except (AttributeError, OSError):
        pass
    else:
        what += f" in position {first}" + (f"-{first + n - 1}" if n > 1 else "")
    return f"'{exc.encoding}' codec can't decode {what}: {exc.reason}"


def _csv_rows(src, columns: Sequence[str], what: str):
    """Rows of one CSV file, a path or an open text handle, as tuples of the
    ``columns``' cells, header checked.

    A cell is read as ``csv.DictReader`` reads it: blank rows are skipped,
    extra cells ignored, a short row's missing cells are None, and a header
    name given twice means its last column. A leading byte-order mark, as
    spreadsheets write "CSV UTF-8", is skipped.
    """
    with _file(src, newline="") as fh:
        try:
            lines = iter(fh)
            reader = csv.reader(chain([next(lines, "").removeprefix("\ufeff")], lines))
            index = {name: i for i, name in enumerate(next(reader, ()))}
            missing = [c for c in columns if c not in index]
            if missing:
                raise InputError(f"{what} file missing column(s): {', '.join(missing)}")
            at = [index[c] for c in columns]
            cells, width = itemgetter(*at), max(at) + 1
            for row in reader:
                if len(row) >= width:
                    yield cells(row)
                elif row:
                    yield tuple(row[i] if i < len(row) else None for i in at)
        except (UnicodeDecodeError, csv.Error) as exc:
            raise InputError(f"{what} file: {_message(fh, exc)}") from None


def ingest_cohort(objects_file, patients_file, cv_description: str) -> CohortDataset:
    """Ingest the CSV pair into a validated CohortDataset.

    ``objects_file`` / ``patients_file`` may be paths or open text handles.
    Every object row must join to exactly one patient row, in any order,
    and object ids must be non-empty and unique within a patient. Each
    object is checked as it joins its patient's columns, so an InputError
    names the first bad row in input order, before any patient is built.
    """
    rows: dict[str, dict] = {}
    for cells in _csv_rows(patients_file, PATIENT_COLUMNS, "patients"):
        row = dict(zip(PATIENT_COLUMNS, cells))
        rows[_patient_id(row, rows)] = row
    # per patient: object ids, scores and is-parasite flags, in input order
    columns = {pid: ([], array("d"), bytearray()) for pid in rows}
    _add_objects(columns, _csv_rows(objects_file, OBJECT_COLUMNS, "objects"))
    digits: dict[int, list[str]] = {}
    provenance = patients_file if isinstance(patients_file, (str, os.PathLike)) else ""
    return CohortDataset(
        cv_description=cv_description,
        patients=tuple(_patient_record(pid, row, *columns.pop(pid), digits)
                       for pid, row in rows.items()),
        provenance=str(provenance),
    )


def _json_columns(pd) -> tuple:
    """(ids, scores, labels) of a JSON patient's ``objects``; AttributeError
    unless ``pd`` is a JSON object whose ``objects``, if given, are a list
    of JSON objects."""
    objects = pd.get("objects", [])
    if type(objects) is not list:
        raise AttributeError("objects is not a list")
    return tuple([od.get(key) for od in objects] for key in OBJECT_COLUMNS[1:])


_CHUNK = 1 << 18  # characters the JSON reader takes from its handle at a time
_DECODER = json.JSONDecoder()
_NOT_A_COHORT = "JSON cohort must have keys 'cv_description' and 'patients'"


def _key(text: str, i: int):
    """(key, end) of the JSON string at ``text[i]``; JSONDecodeError if none starts there."""
    if text.startswith('"', i):
        return scanstring(text, i + 1)
    raise JSONDecodeError("not a key", text, i)


class _JsonChunks:
    """The text that ``read(n)`` returns, taken ``_CHUNK`` characters at a
    time and dropped once it is parsed; the newlines dropped are counted
    once, so that an error can give its line in the whole document."""

    def __init__(self, read):
        self.read, self.buf, self.at, self.eof = read, "", 0, False
        # characters and newlines dropped; where the buffer's first line starts (index <= 0)
        self.dropped = self.lines = self.line_start = 0

    def _more(self) -> None:
        # a value longer than the buffer doubles it, so no text is scanned a
        # growing number of times
        chunk = self.read(max(_CHUNK, len(self.buf) - self.at))
        self.lines += self.buf.count("\n", 0, self.at)
        self.line_start = (self.buf.rfind("\n", 0, self.at) + 1 or self.line_start) - self.at
        self.dropped += self.at
        self.buf, self.at, self.eof = self.buf[self.at:] + chunk, 0, not chunk

    def peek(self) -> str:
        """The next character after whitespace, or "" at end of file."""
        while True:
            self.at = WHITESPACE.match(self.buf, self.at).end()
            if self.at < len(self.buf) or self.eof:
                return self.buf[self.at:self.at + 1]
            self._more()

    def skip(self, char: str) -> bool:
        """Whether ``char`` comes next after whitespace; if it does, it is read."""
        if self.peek() == char:
            self.at += 1
            return True
        return False

    def rest(self, state: str):
        """The rest of the document, read to its end, decoded by json after
        ``state``, a text that takes json's scanner to where this reader is:
        the value, or json's error as a ValueError that places it by line,
        column and character in the document, as ``json.loads`` would."""
        while not self.eof:
            self._more()
        try:
            if not (state or self.dropped) and self.buf.startswith("\ufeff"):
                raise JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", "", 0)
            return _DECODER.decode(state + self.buf[self.at:])
        except JSONDecodeError as exc:
            # at -1, the error is at the last character dropped, a comma
            at = self.at + exc.pos - len(state)
            line_start = self.buf.rfind("\n", 0, max(at, 0)) + 1 or self.line_start
            line = self.lines + self.buf.count("\n", 0, max(at, 0)) + 1
            raise ValueError(f"{exc.msg}: line {line} column {at - line_start + 1} "
                             f"(char {self.dropped + at})") from None

    def next(self, decode, follow: str, state: str):
        """(value, the character after it): the value at the read position,
        decoded by ``decode(text, index)`` (None if ``decode`` is None), then
        one of the ``follow`` characters after whitespace, read past.

        The whole step must fit in the buffer: a decode error, or text that
        ends before the ``follow`` character (a number such as ``12`` may go
        on in the next chunk), reads more and tries again. At end of file it
        raises json's error, as ``rest(state)`` does.
        """
        # read ahead while half a chunk is left, so that a value that fits in
        # half a chunk is parsed once
        if len(self.buf) - self.at < _CHUNK // 2 and not self.eof:
            self._more()
        while True:
            buf = self.buf
            try:
                value, i = (decode(buf, WHITESPACE.match(buf, self.at).end()) if decode
                            else (None, self.at))
                i = WHITESPACE.match(buf, i).end()
                if i < len(buf) and buf[i] in follow:
                    self.at = i + 1
                    return value, buf[i]
            except JSONDecodeError:
                pass
            if self.eof:
                self.rest(state)
                raise AssertionError(f"json took a step that the reader did not, after {state!r}")
            self._more()


def _stream_cohort_json(read, name, provenance: str | None) -> CohortDataset:
    """The cohort in the JSON text that ``read(n)`` returns, each ``patients``
    entry built into its PatientRecord as soon as it is parsed, so only one
    patient's object dicts and id strings exist at a time. ``provenance``
    None takes the document's own; ``name`` names the input in errors.
    json's own errors raise ValueError; every other fault, InputError.
    """
    text = _JsonChunks(read)
    if not text.skip("{"):  # not an object: decoded whole, for json's error or the shape's
        text.rest("")
        raise InputError(f"{name}: {_NOT_A_COHORT}")
    doc: dict = {}
    patients: dict[str, PatientRecord] | None = None
    digits: dict[int, list[str]] = {}
    # each step's state is a text that takes json's scanner to where the step starts
    end, state = text.skip("}"), "{"
    while not end:
        key, _ = text.next(_key, ":", state)
        if key != "patients":
            doc[key], sep = text.next(_DECODER.raw_decode, ",}", '{"":')
        elif patients is not None:
            raise InputError(f"{name}: JSON cohort gives key 'patients' twice")
        elif not text.skip("["):
            text.next(_DECODER.raw_decode, ",}", '{"":')
            raise InputError(f"{name}: {_NOT_A_COHORT}")
        else:
            patients = {}
            more, state = not text.skip("]"), '{"":['
            while more:
                pd, sep = text.next(_DECODER.raw_decode, ",]", state)
                try:
                    objects = _json_columns(pd)
                except AttributeError:
                    raise InputError(f"{name}: each patient must be a JSON object with a "
                                     "list of objects") from None
                pid = _patient_id(pd, patients)
                columns = ([], array("d"), bytearray())
                _add_objects({pid: columns}, zip(repeat(pd.get("patient_id")), *objects))
                patients[pid] = _patient_record(pid, pd, *columns, digits)
                more, state = sep == ",", '{"":["",'
            _, sep = text.next(None, ",}", '{"":""')
        end, state = sep == "}", '{"":"",'
    if patients is None or "cv_description" not in doc:
        raise InputError(f"{name}: {_NOT_A_COHORT}")
    if text.peek():
        text.rest("{}")  # json's "Extra data"
    return CohortDataset(
        cv_description=str(doc["cv_description"]),
        patients=tuple(patients.values()),
        provenance=str(doc.get("provenance") or "") if provenance is None else provenance,
    )


def ingest_cohort_json(source) -> CohortDataset:
    """Ingest the single-document JSON mirror of the CSV schema.

    ``{"cv_description", "provenance" (optional), "patients": [...]}``; each
    patient holds the PATIENT_COLUMNS keys and a list of ``objects``.

    The document is read ``_CHUNK`` characters at a time from a path or a
    handle, seekable or not, and each ``patients`` entry is built into its
    PatientRecord as soon as it is parsed. Each fault raises InputError when
    the reader comes to it (bad UTF-8, when its chunk is read), so the first
    in document order is reported, and one alone gets the message of a
    whole-document ``json.loads`` and validation. A repeated
    ``cv_description`` or ``provenance`` keeps its last value, as in
    ``json.loads``; a repeated ``patients`` is an error.
    """
    is_handle = hasattr(source, "read")
    name = "JSON input" if is_handle else source
    with _file(source) as fh:
        try:
            return _stream_cohort_json(fh.read, name, None if is_handle else str(source))
        except ValueError as exc:  # json's, bad UTF-8 or an integer too long to convert
            raise InputError(f"{name}: not valid JSON: {_message(fh, exc)}") from None
        except RecursionError:  # the scanner ran out of depth
            raise InputError(f"{name}: not valid JSON: nesting too deep") from None


def export_cohort(cohort: CohortDataset, objects_file, patients_file) -> None:
    """Write the cohort back to the CSV pair (inverse of ingest_cohort)."""
    with _file(patients_file, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(PATIENT_COLUMNS)
        w.writerows(map(_patient_values, cohort.patients))  # a float by repr, None as ""
    with _file(objects_file, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(OBJECT_COLUMNS)
        for p in cohort.patients:
            w.writerows((p.patient_id, oid, score, _LABELS[parasite])
                        for oid, score, parasite in _object_columns(p))


# The layout of json.dump(doc, fh, indent=2) for the cohort document, filled
# in from the columns: strings go through the encoder's own
# encode_basestring_ascii and scores through float.__repr__, as json does.
_JSON_OBJECT = ("        {\n" + ",\n".join(f'          "{key}": %s' for key in OBJECT_COLUMNS[1:])
                + "\n        }")
_JSON_LABELS = tuple(map(encode_basestring_ascii, _LABELS))


def _patient_json(p: PatientRecord) -> str:
    """One patient's entry in the ``patients`` list, indented as json.dump writes it."""
    objects = ",\n".join([
        _JSON_OBJECT % (encode_basestring_ascii(oid), float.__repr__(score),
                        _JSON_LABELS[parasite])
        for oid, score, parasite in _object_columns(p)
    ])
    header = ",\n".join(f'      "{key}": {json.dumps(value)}'
                         for key, value in zip(PATIENT_COLUMNS, _patient_values(p)))
    objects = f"[\n{objects}\n      ]" if objects else "[]"
    return f'    {{\n{header},\n      "objects": {objects}\n    }}'


def export_cohort_json(cohort: CohortDataset, dest) -> None:
    """Write the cohort as one JSON document (inverse of ingest_cohort_json).

    The bytes are those of ``json.dump(doc, dest, indent=2)``, without
    building ``doc``; one patient is formatted at a time.
    """
    with _file(dest, "w") as fh:
        fh.write(f'{{\n  "cv_description": {json.dumps(cohort.cv_description)},\n'
                 f'  "provenance": {json.dumps(cohort.provenance)},\n  "patients": [\n')
        for i, p in enumerate(cohort.patients):
            fh.write(f",\n{_patient_json(p)}" if i else _patient_json(p))
        fh.write("\n  ]\n}")
