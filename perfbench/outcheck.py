"""Output check: compare a command's outputs with values recorded at a reference commit.

Outputs (stdout plus every file in the output directory) are first turned
into one tree:

* JSON files load as-is, except that a ``per_patient`` mapping and a list of
  objects that each carry a ``name`` become row tables keyed by patient id or
  name.
* CSV files with a ``patient_id``, ``C`` or ``stratum_type`` + ``label`` column
  become row tables keyed by it; other CSV files (curve points) become an
  ordered list of rows.
* Rows whose ``status`` column is present and not ``ok`` are dropped.
* stdout becomes a row table keyed by line.
* A list longer than ``LONG_LIST`` becomes its length and a sha256 of its
  canonical JSON, so curves are compared as whole ordered lists.

A run passes when every key of the reference tree is present in the run's
tree with an identical value (same type, same ``repr``; lists of the same
length). Keys, columns and rows the reference lacks are ignored, so additive
output changes pass.

Without a reference for the seed, only the structure is checked: the
reference tree's shape (keys and value types, with row tables reduced to
their column names) must be contained in the run's shape.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

LONG_LIST = 16
ROWS = "$rows"
_ROW_KEYS = (("patient_id",), ("C",), ("stratum_type", "label"))


def _digest(items: list) -> dict:
    blob = json.dumps(items, separators=(",", ":"), sort_keys=True)
    return {"$len": len(items), "$sha256": hashlib.sha256(blob.encode()).hexdigest()}


def _shorten(node):
    """Replace long lists by their digest, recursively."""
    if isinstance(node, dict):
        return {k: _shorten(v) for k, v in node.items()}
    if isinstance(node, list):
        if len(node) > LONG_LIST:
            return _digest(node)
        return [_shorten(v) for v in node]
    return node


def _json_tree(node, key=None):
    if isinstance(node, dict):
        if key == "per_patient":
            return {ROWS: {k: _json_tree(v) for k, v in node.items()}}
        return {k: _json_tree(v, k) for k, v in node.items()}
    if isinstance(node, list):
        if node and all(isinstance(v, dict) and "name" in v for v in node):
            return {ROWS: {v["name"]: _json_tree(v) for v in node}}
        return [_json_tree(v) for v in node]
    return node


def _csv_tree(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    rows = [r for r in rows if r.get("status", "ok") == "ok"]
    columns = set(rows[0]) if rows else set()
    for key_cols in _ROW_KEYS:
        if set(key_cols) <= columns:
            return {ROWS: {"|".join(r[c] for c in key_cols): r for r in rows}}
    return rows


def output_tree(out_dir: Path, stdout: str) -> dict:
    """The normalized tree of one run's stdout and output files."""
    files = {}
    for path in sorted(p for p in Path(out_dir).rglob("*") if p.is_file()):
        name = path.relative_to(out_dir).as_posix()
        if path.suffix == ".json":
            with open(path, encoding="utf-8") as fh:
                files[name] = _json_tree(json.load(fh))
        elif path.suffix == ".csv":
            files[name] = _csv_tree(path)
        else:
            files[name] = {"$sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    return _shorten({"stdout": {ROWS: {ln: True for ln in lines}}, "files": files})


def compare(ref, act, path: str = "") -> list[str]:
    """Every difference by which ``act`` fails to contain ``ref`` (at most 20)."""
    errors: list[str] = []
    _compare(ref, act, path, errors)
    return errors[:20]


def _compare(ref, act, path, errors):
    if len(errors) >= 20:
        return
    if isinstance(ref, dict):
        if not isinstance(act, dict):
            errors.append(f"{path or '/'}: expected a mapping, found {type(act).__name__}")
            return
        for k, v in ref.items():
            if k not in act:
                errors.append(f"{path}/{k}: missing")
            else:
                _compare(v, act[k], f"{path}/{k}", errors)
    elif isinstance(ref, list):
        if not isinstance(act, list) or len(act) != len(ref):
            errors.append(f"{path or '/'}: expected a list of {len(ref)}, found {_brief(act)}")
            return
        for i, (r, a) in enumerate(zip(ref, act)):
            _compare(r, a, f"{path}/{i}", errors)
    elif type(ref) is not type(act) or repr(ref) != repr(act):
        errors.append(f"{path or '/'}: expected {_brief(ref)}, found {_brief(act)}")


def _brief(v) -> str:
    text = repr(v)
    return text if len(text) <= 80 else text[:77] + "..."


def shape(node):
    """Keys and value types of a tree; row tables keep only their column names."""
    if isinstance(node, dict):
        if "$sha256" in node:
            return "list"
        if ROWS in node:
            columns: dict = {}
            for row in node[ROWS].values():
                if isinstance(row, dict):
                    columns.update({c: "column" for c in row})
            return {ROWS: columns}
        return {k: shape(v) for k, v in node.items()}
    if isinstance(node, list):
        return "list"
    if isinstance(node, bool) or node is None:
        return type(node).__name__
    if isinstance(node, (int, float)):
        return "number"
    return type(node).__name__


class Checker:
    """Checks one workload's outputs against its recorded reference.

    ``ref_seed`` names the reference whose values must appear; with None only
    the structure of the default-seed reference is checked.
    """

    def __init__(self, ref_dir: Path, workload: str, ref_seed: int | None):
        with open(ref_dir / f"{workload}-seed0.json", encoding="utf-8") as fh:
            self.shape = shape(json.load(fh))
        self.ref_seed = ref_seed
        self.values = None
        if ref_seed is not None:
            with open(ref_dir / f"{workload}-seed{ref_seed}.json", encoding="utf-8") as fh:
                self.values = json.load(fh)

    @property
    def mode(self) -> str:
        if self.values is not None:
            return f"values of reference seed {self.ref_seed}"
        return "exit status and structure only: no reference values for this seed and scale"

    def check(self, out_dir: Path, stdout: str) -> list[str]:
        tree = output_tree(out_dir, stdout)
        if self.values is not None:
            return compare(self.values, tree)
        return compare(self.shape, shape(tree))
