"""A cohort's outputs depend on its set of patients, not on file order or format.

Each cohort is simulated at 0.35 cV, a volume that is not a power of two, so
the sums over patients (the F/S means and standard deviations, and FROC's
per-threshold mean FP rate) round differently in a different order. The same
cohort is then written four ways: the CSV pair as exported, the CSV pair with
the rows of both files shuffled, the JSON document as exported, and the JSON
document with its patients and each patient's objects shuffled. ``evaluate
--curves`` must write the same ``report.json`` bytes for all four, apart from
``provenance`` (the input file's name), and ``calibrate`` and ``tune`` must
print the same lines.
"""

import json
import random
import re
import tempfile
from pathlib import Path

from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from parasitometrics.cli import main
from parasitometrics.datamodel import export_cohort, export_cohort_json
from parasitometrics.simulator import SimConfig, generate_cohort


def _shuffled_lines(src: Path, dest: Path, rng: random.Random) -> None:
    header, *rows = src.read_text().splitlines(keepends=True)
    rng.shuffle(rows)
    dest.write_text(header + "".join(rows))


def _write_forms(cohort, d: Path, rng: random.Random) -> dict:
    """The cohort's four input forms under ``d``, as CLI input arguments."""
    export_cohort(cohort, d / "objects.csv", d / "patients.csv")
    (d / "shuffled").mkdir()
    for name in ("objects.csv", "patients.csv"):
        _shuffled_lines(d / name, d / "shuffled" / name, rng)
    export_cohort_json(cohort, d / "cohort.json")
    doc = json.loads((d / "cohort.json").read_text())
    rng.shuffle(doc["patients"])
    for patient in doc["patients"]:
        rng.shuffle(patient["objects"])
    (d / "shuffled.json").write_text(json.dumps(doc))
    cv = ["--cv", cohort.cv_description]  # a JSON document names its own
    return {
        "csv": ["--patients", str(d / "patients.csv"), "--objects", str(d / "objects.csv"), *cv],
        "shuffled csv": ["--patients", str(d / "shuffled" / "patients.csv"),
                         "--objects", str(d / "shuffled" / "objects.csv"), *cv],
        "json": ["--json", str(d / "cohort.json")],
        "shuffled json": ["--json", str(d / "shuffled.json")],
    }


def _outputs(runner, d: Path, source: list[str]) -> dict:
    """``report.json`` without its provenance line, and the stdout of
    ``calibrate`` and (for a JSON source) ``tune`` with the tuning table."""
    def run(args):
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        return result.stdout

    run(["evaluate", *source, "--C", "0.5", "--spec-target", "0.95", "--curves",
         "--out", str(d / "report")])
    report = (d / "report" / "report.json").read_text()
    got = {"report": re.sub(r'\n *"provenance": "[^"\n]*",?\n', "\n", report),
           "calibrate": run(["calibrate", *source, "--C", "0.5"])}
    if source[0] == "--json":
        got["tune"] = run(["tune", "--train-positives", source[1],
                           "--validation-negatives", source[1], "--out", str(d / "tune.csv")])
        got["tune table"] = (d / "tune.csv").read_text()
    return got


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**16), n_negative=st.integers(12, 30),
       n_positive=st.integers(2, 30), shuffle_seed=st.integers(0, 2**16))
def test_outputs_do_not_depend_on_row_order_or_file_format(seed, n_negative, n_positive,
                                                          shuffle_seed):
    cohort = generate_cohort(SimConfig(seed=seed, n_negative=n_negative,
                                       n_positive=n_positive, examined_volume=0.35))
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        forms = _write_forms(cohort, d, random.Random(shuffle_seed))
        outputs = {name: _outputs(runner, d, source) for name, source in forms.items()}
    assert outputs["csv"]["report"].count("\n") > 1000  # the curves are in the report
    for name, got in outputs.items():
        assert {k: got[k] for k in ("report", "calibrate")} == \
            {k: outputs["csv"][k] for k in ("report", "calibrate")}, name
    assert outputs["shuffled json"] == outputs["json"]
