"""Golden bytes of every file and table writer, on a cohort whose numbers are exact.

The cohort is built so that every count, sum and mean it gives is exact in
binary64: dyadic scores, every examined volume 0.5 cV (so FROC takes its
exact case), 4 negatives and 4 positives, 8 parasite objects and 8
distractors in all (so each sensitivity, specificity and rate is dyadic), and
every positive at one true parasitemia (so ``r2_linear`` and ``r2_log`` are
null and no line is fitted). What remains is correctly rounded arithmetic,
the normal quantile of the default K in the Gaussian ``tune`` table's T, and
the ``log10`` of the Bland-Altman pairs. The bytes then follow from the
writers: a float's text, quoting, line ends, key order and layout. Patient
ids hold a comma, a double quote and a carriage return, which the CSV
writers must quote.

Each command runs from a temporary directory on relative paths, so the
provenance and echoed paths are the same on every run. The digests were
recorded from the writers that formatted each value themselves, before they
handed raw values to ``csv.writer`` and ``json.dumps``.
"""

import hashlib
from pathlib import Path

import pytest
from click.testing import CliRunner

from parasitometrics.cli import main
from parasitometrics.datamodel import export_cohort, export_cohort_json

from conftest import make_cohort, make_patient

COHORT = make_cohort(
    make_patient("neg,1", volume=0.5, distractor_scores=(0.75, 0.5, 0.125)),
    make_patient('neg"2', volume=0.5, distractor_scores=(0.5, 0.25)),
    make_patient("neg\r3", volume=0.5, distractor_scores=(0.875,)),
    make_patient("neg4", volume=0.5),
    make_patient("pos,a", positive=True, parasitemia=16.0, volume=0.5,
                 parasite_scores=(1.0, 0.875, 0.625, 0.25), distractor_scores=(0.375,)),
    make_patient('pos"b', positive=True, parasitemia=16.0, volume=0.5,
                 parasite_scores=(0.75, 0.125), distractor_scores=(0.625,)),
    make_patient("pos\rc", positive=True, parasitemia=16.0, volume=0.5,
                 parasite_scores=(0.5,)),
    make_patient("posd", positive=True, parasitemia=16.0, volume=0.5,
                 parasite_scores=(0.0,), wbc_count=8000),
)

_TUNE = ["tune", "--train-positives", "in/cohort.json", "--validation-negatives",
         "in/cohort.json", "--out", "out/tune.csv"]

# each command line; every file it writes goes under out/
RUNS = {
    "evaluate-csv": ["evaluate", "--patients", "in/patients.csv", "--objects", "in/objects.csv",
                     "--C", "0.25", "--T", "4", "--curves", "--format", "csv", "--out", "out"],
    "evaluate-json": ["evaluate", "--json", "in/cohort.json", "--C", "0.5", "--T", "2",
                      "--curves", "--format", "json", "--out", "out"],
    "quant-csv": ["quant", "--json", "in/cohort.json", "--C", "0.25", "--format", "csv",
                  "--out", "out"],
    "tune": _TUNE,
    "tune-percentile": [*_TUNE, "--calib-method", "percentile"],
    "calibrate-scatter": ["calibrate", "--json", "in/cohort.json", "--C", "0.25",
                          "--method", "percentile", "--scatter-out", "out/scatter.csv"],
    "poisson-out": ["poisson", "-p", "0", "-v", "0.5", "-v", "3", "--out", "out/pmf.csv"],
    "poisson-stdout": ["poisson", "-p", "0"],
}

# the sha256 of the cohort files, and of each run's stdout and of every file it writes
COHORT_DIGESTS = {
    "cohort.json":
        "d7db912981c28188f87c27af3bd228780db1dc1ca8696a5c248d1550d179e439",
    "objects.csv":
        "e0afa5a8f7ae4bd1ba47622946a82a63c7b6a0c753c9f259dbc39870dab70762",
    "patients.csv":
        "ca44f98519d2796cc0426987d7c7876fd34d03d5bcb7da29d32b72e0daef8962",
}
DIGESTS = {
    "evaluate-csv": {
        "<stdout>":
            "f6d2f67dce3bb5b2c4f7a7cacde79c1468ec8ccdc107a32092765c79b52b3a1a",
        "curve_froc.csv":
            "3ab457fa9dbc86f0c6b498cc3c062871c97d78c4215dc4aa2940bfd360daa7f3",
        "curve_object_roc.csv":
            "8e995655ff99b94ab095438590484f21abdb36f615323520224f57257ff6738e",
        "curve_patient_roc.csv":
            "6da6e040053ae436e17d73c153037edc95ea5d25cedfab9f5080e456cb041648",
        "per_patient_fpr.csv":
            "d8905665b5ee4e70cb7edf72dffc9fc08cbd5d241201fcab419c299e64f0688c",
        "per_patient_sensitivity.csv":
            "2ddaa78732d6f418f323e3c05b27452314b57ec44a27249e210a9e442f2e9e94",
        "report.json":
            "ac54902a3ee5f1a0701ca36185029d8dd479821c99694737b88152caefd67720",
        "stratified_sensitivity.csv":
            "e9385196e4444e96ebf35b70b0937b18a589cb664d6abf381aed4111376932b9",
    },
    "evaluate-json": {
        "<stdout>":
            "2780a3adaba8e147082094e7200e7a74c9538d1aa987700ba83f2c21065be037",
        "report.json":
            "742c777997aecbae6c5e1b84613c919d4dcbc738f99260ed6257380d81271980",
    },
    "quant-csv": {
        "<stdout>":
            "f3f9c1c921fbb248b5d85f8aaea662ce7029014262799092aadf90ee1486743d",
        "bland_altman.csv":
            "213e70f3468e790afacecd522816eb120467d74a5501d22bcfcc6a2291b02144",
        "quantitation.csv":
            "3a06de41417425daf2a753cb325ec268e79a129e12694cb0115a4863abad30b7",
        "report.json":
            "a4493362c34d4d65cd47f58a58f49e4beff57a08fab1d48ef3f68d314c2dc785",
    },
    "tune": {
        "<stdout>":
            "f9eb8f2b7be6bb3de6d6d52078d72bca416483045470b8cb0dc7b217975762c1",
        "tune.csv":
            "133a4b3e83e74297c1033558467f90b12076c36b71716e855b856f2447356503",
    },
    "tune-percentile": {
        "<stdout>":
            "f9eb8f2b7be6bb3de6d6d52078d72bca416483045470b8cb0dc7b217975762c1",
        "tune.csv":
            "0cb16d2fd78cc0783033d52b2cfc1b5991814af36d61b26bb32b69213ea70cc1",
    },
    "calibrate-scatter": {
        "<stdout>":
            "5a09771cc9417427cd7c2460c18e67988b82ec379f8d581b34ada931e9c0cb81",
        # the "neg\r3" row quotes its id alone, `"neg\r3",2.0`, as Python 3.13's
        # plain csv.writer writes it
        "scatter.csv":
            "48d7238c12fb31d2cbe7c7263e0138fff047a99d1455c0fd54e9be7b6c8c5e89",
    },
    "poisson-out": {
        "<stdout>":
            "ffc4df916923440dc0d2f2aa0402e77eceaca4be2f0e79e92155db95ea3f1cc3",
        "pmf.csv":
            "82b1dee21fd3f08e68e991a89a6856a46e2b1202ac34997416c1208e517b5ebc",
    },
    "poisson-stdout": {
        "<stdout>":
            "8353c54958d47c65d70b854ff3ff4c01fc19fd99d5656f7996f6e0f087609b78",
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): _sha256(p.read_bytes())
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    """A temporary working directory holding the cohort as in/patients.csv,
    in/objects.csv and in/cohort.json."""
    monkeypatch.chdir(tmp_path)
    Path("in").mkdir()
    export_cohort(COHORT, "in/objects.csv", "in/patients.csv")
    export_cohort_json(COHORT, "in/cohort.json")
    return tmp_path


def test_cohort_files(workdir):
    assert _digests(workdir / "in") == COHORT_DIGESTS


@pytest.mark.parametrize("name", RUNS)
def test_command_output_bytes(workdir, name):
    Path("out").mkdir()
    result = CliRunner().invoke(main, RUNS[name])
    assert result.exit_code == 0, result.output
    assert {"<stdout>": _sha256(result.stdout_bytes), **_digests(workdir / "out")} == DIGESTS[name]
