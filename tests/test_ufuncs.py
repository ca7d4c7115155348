"""``parasitometrics._ufuncs``: scipy's three ufuncs and brentq, and numpy's seeded
Generator from ``load_generator()``, without scipy's or ``numpy.random``'s package import.

pytest's own process has imported scipy and ``numpy.random`` already, so an
import here takes the loader's fallbacks. Every check of the stub load
therefore runs in a fresh interpreter.
"""

import functools
import hashlib
import inspect
import json
import subprocess
import sys

import numpy as np
import pytest
import scipy.special
import scipy.stats
from click.testing import CliRunner

from conftest import src_env
from test_brent_oracle import oracle_solve_beta_a
from parasitometrics.cli import main

FAST = "scipy.special._ufuncs"
FALLBACK = "scipy.special"
ZEROS = "scipy.optimize._zeros"

_SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"
# numpy.random's package, and the stdlib modules its import pulls in up to OpenSSL
_RANDOM_MODULES = "[m for m in ('numpy.random', 'secrets', '_hashlib') if m in sys.modules]"


def _fresh(code: str, *args: str) -> list:
    """The JSON value that ``code`` prints last, run in a fresh interpreter."""
    result = subprocess.run([sys.executable, "-c", code, *args], env=src_env(),
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


@functools.cache
def _numpy_imports_random_eagerly() -> bool:
    """Whether ``import numpy`` alone loads ``numpy.random``, as numpy < 2 does."""
    return _fresh("import json, sys, numpy\nprint(json.dumps('numpy.random' in sys.modules))")


def _arguments(rng, n: int) -> tuple:
    """Arrays for betainc(a, b, x), betaincinv(a, b, x) and pdtrc(k, m): every
    combination of edge values, then ``n`` draws each."""
    edges = [0.0, 1.0, np.nan, 0.5, 1e-300, 1e-3, 1e10, np.inf, -1.0]
    grid = [g.ravel() for g in np.meshgrid(edges, edges, edges)]
    a, b = (np.concatenate([g, 10 ** rng.uniform(-3, 8, n)]) for g in grid[:2])
    x = np.concatenate([grid[2], rng.uniform(0, 1, n)])
    k = np.concatenate([grid[0], rng.integers(0, 10**6, n).astype(float),
                        [2.0**53, 1e300, -0.5, 3.5]])
    m = np.concatenate([grid[1], 10 ** rng.uniform(-3, 6, n), [1e15, 1e300, 2.0, 2.0]])
    return a, b, x, k, m


_ORACLE = f"""
import json, sys
import numpy as np
from parasitometrics import _ufuncs
from parasitometrics.errors import InputError
from parasitometrics.simulator import solve_beta_a
args = np.load(sys.argv[1])
a, b, x, k, m = (args[name] for name in "abxkm")

def shape(target, b):
    try:
        return solve_beta_a(target, b)
    except InputError:
        return np.nan

np.savez(sys.argv[2], betainc=_ufuncs.betainc(a, b, x), betaincinv=_ufuncs.betaincinv(a, b, x),
         pdtrc=_ufuncs.pdtrc(k, m),
         shape=[shape(*pair) for pair in zip(args["target"].tolist(), args["shape_b"].tolist())])
print(json.dumps([_ufuncs._special.__name__, _ufuncs._zeros.__name__, {_SCIPY_MODULES}]))
"""


def _shape_pairs(rng, n: int) -> tuple:
    """(target, b) pairs for solve_beta_a: edge targets at three shapes, then
    ``n`` draws across (0, 1) and near either end."""
    edges = [0.0, 1e-12, 1e-9, 1e-3, 0.5, 1 - 1e-12, 1.0]
    target = np.concatenate([np.repeat(edges, 3), rng.uniform(0, 1, n // 2),
                             10 ** -rng.uniform(3, 15, n // 4),
                             1 - 10 ** -rng.uniform(3, 15, n - n // 2 - n // 4)])
    b = np.concatenate([np.tile([0.2, 2.0, 20.0], len(edges)),
                        10 ** rng.uniform(np.log10(0.2), np.log10(20.0), n)])
    return target, b


@pytest.fixture(scope="module")
def oracle_run(tmp_path_factory):
    """The oracle's inputs, what it printed, and its arrays, from one fresh interpreter."""
    tmp = tmp_path_factory.mktemp("oracle")
    rng = np.random.default_rng(20261019)
    a, b, x, k, m = _arguments(rng, 50_000)
    target, shape_b = _shape_pairs(rng, 1_200)
    np.savez(tmp / "args.npz", a=a, b=b, x=x, k=k, m=m, target=target, shape_b=shape_b)
    printed = _fresh(_ORACLE, str(tmp / "args.npz"), str(tmp / "out.npz"))
    return (a, b, x, k, m, target, shape_b), printed, np.load(tmp / "out.npz")


def test_oracle_fast_path_ufuncs_equal_scipy_special_bit_for_bit(oracle_run):
    # the fast path must be taken: a change in scipy's private layout fails
    # here instead of silently costing 0.2 s a command
    (a, b, x, k, m, _, _), printed, got = oracle_run
    assert printed == [FAST, ZEROS, []]
    want = {"betainc": scipy.special.betainc(a, b, x),
            "betaincinv": scipy.special.betaincinv(a, b, x),
            "pdtrc": scipy.special.pdtrc(k, m)}
    for name, values in want.items():
        assert np.isfinite(values).sum() > 50_000 and np.isnan(values).any(), name
        np.testing.assert_array_equal(got[name].view(np.uint64), values.view(np.uint64),
                                      err_msg=name)


def test_oracle_fast_path_solve_beta_a_equals_scipy_brentq_bit_for_bit(oracle_run):
    # _zeros._brentq is private, and its argument order is not scipy's public
    # brentq's: the stub-loaded routine must give brentq's floats, and fail
    # (NaN here) exactly where brentq finds no sign change
    (*_, target, shape_b), printed, got = oracle_run
    assert printed == [FAST, ZEROS, []]

    def want(t: float, b: float) -> float:
        try:
            return oracle_solve_beta_a(t, b)
        except ValueError as exc:
            assert "different signs" in str(exc)
            return np.nan

    values = np.array([want(*pair) for pair in zip(target.tolist(), shape_b.tolist())])
    assert np.isfinite(values).sum() >= 1_000 and np.isnan(values).any()
    np.testing.assert_array_equal(got["shape"].view(np.uint64), values.view(np.uint64))


def _draws(rng) -> list:
    """Draws by every Generator method the simulator and reproduce call, scalar and sized."""
    return [*rng.uniform(0.0, 0.3, size=40), rng.uniform(1, 200), *rng.beta(3.5, 2.0, size=40),
            rng.beta(8.0, 2.0), rng.normal(50.0, 20.0), int(rng.poisson(3.7)),
            int(rng.poisson(2e4)), int(rng.choice(3, p=[0.6, 0.3, 0.1]))]


_SEEDS = [0, 1, 3, 20260826, 2**70 + 11]

_ORACLE_GENERATOR = f"""
import json, sys
from parasitometrics._ufuncs import load_generator
Generator, PCG64, SeedSequence = load_generator()
{inspect.getsource(_draws)}
spawned = [_draws(Generator(PCG64(SeedSequence(seed, spawn_key=(i,)))))
           for seed in {_SEEDS} for i in range(25)]
seeded = [_draws(Generator(PCG64(seed))) for seed in {_SEEDS}]
print(json.dumps([{_RANDOM_MODULES}, spawned, seeded]))
"""


def test_oracle_loaded_generator_draws_equal_default_rng_bit_for_bit():
    # the simulator's Generator(PCG64(SeedSequence(seed, spawn_key=(i,)))) and
    # reproduce's Generator(PCG64(seed)) are what default_rng builds from
    # those arguments; where numpy < 2 imports numpy.random eagerly, the
    # loader takes the package's classes instead
    loaded, spawned, seeded = _fresh(_ORACLE_GENERATOR)
    assert bool(loaded) == _numpy_imports_random_eagerly()
    want = [_draws(np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,))))
            for seed in _SEEDS for i in range(25)]
    assert spawned == want  # JSON round-trips every float exactly
    assert seeded == [_draws(np.random.default_rng(seed)) for seed in _SEEDS]
    assert len({json.dumps(d) for d in spawned + seeded}) == len(_SEEDS) * 26


@pytest.mark.parametrize("prelude", ["", "import secrets"], ids=["alone", "secrets-first"])
def test_numpy_random_and_secrets_import_after_the_loader(prelude):
    # the compiled modules stay loaded, so the package reuses them; unseeded
    # entropy still comes from the stdlib's SystemRandom, 128 bits of it; a
    # secrets module loaded first is used, not replaced by the stub
    code = f"""
import json, sys
{prelude}
from parasitometrics._ufuncs import load_generator
Generator, PCG64, SeedSequence = load_generator()
before = 'numpy.random' in sys.modules
import numpy.random, secrets
print(json.dumps([before, numpy.random.Generator is Generator,
                  numpy.random.PCG64 is PCG64,
                  numpy.random.SeedSequence is SeedSequence,
                  numpy.random.default_rng(5).random() == Generator(PCG64(5)).random(),
                  type(SeedSequence().entropy).__name__,
                  SeedSequence().entropy.bit_length() > 64,
                  0 <= secrets.randbits(8) < 256, len(secrets.token_hex(4)),
                  hasattr(sys.modules['numpy.random'], '__file__')]))
"""
    assert _fresh(code) == [_numpy_imports_random_eagerly(), True, True, True, True, "int",
                            True, True, 8, True]


def test_fallback_when_numpy_random_is_already_loaded():
    # the loader takes the package's classes and stubs neither it nor secrets
    code = """
import json, sys
import numpy.random
before = {name: sys.modules.get(name) for name in ('numpy.random', 'secrets')}
from parasitometrics._ufuncs import load_generator
Generator, PCG64, SeedSequence = load_generator()
print(json.dumps([Generator is numpy.random.Generator, PCG64 is numpy.random.PCG64,
                  SeedSequence is numpy.random.SeedSequence,
                  all(sys.modules.get(name) is module for name, module in before.items()),
                  hasattr(sys.modules['numpy.random'], '__file__')]))
"""
    assert _fresh(code) == [True, True, True, True, True]


def test_reproduce_import_leaves_no_scipy_module_and_loads_neither_f2py_nor_array_api():
    # a finder first on sys.meta_path sees every module looked up, removed later or not
    code = f"""
import json, sys
searched = []
class Recorder:
    @staticmethod
    def find_spec(name, path=None, target=None):
        searched.append(name)
sys.meta_path.insert(0, Recorder)
import parasitometrics.reproduce
from parasitometrics import _ufuncs
print(json.dumps([{_SCIPY_MODULES}, sorted(set(searched)), _ufuncs._special.__name__,
                  [m for m in ("subprocess", "sysconfig") if m in sys.modules]]))
"""
    left, searched, special, stdlib = _fresh(code)
    assert left == []
    assert {"scipy.special._ufuncs", ZEROS} <= set(searched)
    # scipy.optimize/__init__ imports _optimize first: it never runs
    assert "scipy.optimize._optimize" not in searched
    assert not {"numpy.f2py", "numpy.testing", "scipy._lib._array_api"} & set(searched)
    # scipy/_lib/__init__ imports _testutils, which imports subprocess and sysconfig:
    # the stub scipy._lib under which _ufuncs loads _ccallback never runs it
    assert "scipy._lib._testutils" not in searched
    assert special != FAST or stdlib == []


def test_scipy_stats_imports_after_the_loader():
    code = """
import json
import parasitometrics.reproduce
from parasitometrics import _ufuncs
import scipy.special, scipy.stats
print(json.dumps([scipy.special.betainc is _ufuncs.betainc, scipy.stats.beta(2, 4).sf(0.5),
                  float(1 - _ufuncs.betainc(2.0, 4.0, 0.5))]))
"""
    same, sf, complement = _fresh(code)
    assert same and sf == scipy.stats.beta(2, 4).sf(0.5) and complement == sf


def test_fallback_when_scipy_is_already_loaded():
    # the loader neither runs nor removes a module the caller loaded
    code = f"""
import json, sys
import scipy
before = {{name: sys.modules[name] for name in {_SCIPY_MODULES}}}
from parasitometrics import _ufuncs
print(json.dumps([_ufuncs._special.__name__, _ufuncs.pdtrc is sys.modules["scipy.special"].pdtrc,
                  _ufuncs._zeros is sys.modules["{ZEROS}"],
                  hasattr(sys.modules["scipy.optimize"], "__file__"),
                  all(sys.modules.get(name) is module for name, module in before.items())]))
"""
    assert _fresh(code) == [FALLBACK, True, True, True, True]


@pytest.mark.parametrize("patch", [
    # find_spec finds no scipy: the load raises AttributeError
    "importlib.util.find_spec = lambda name, package=None: None",
    # find_spec points at an empty directory: the load raises ImportError
    "import importlib.machinery, tempfile\n"
    "spec = importlib.machinery.ModuleSpec('scipy', None, is_package=True)\n"
    "spec.submodule_search_locations = [tempfile.mkdtemp()]\n"
    "importlib.util.find_spec = lambda name, package=None: spec",
], ids=["no-spec", "empty-directory"])
def test_fallback_when_the_stub_load_fails(patch):
    # after a failed load no stub is left behind: the fallbacks import the real
    # scipy packages and numpy.random, and numpy.random the real secrets
    code = f"""
import importlib.util, json, sys
{patch}
from parasitometrics import _ufuncs
print(json.dumps([_ufuncs._special.__name__, hasattr(sys.modules["scipy"], "__file__"),
                  _ufuncs.betainc is sys.modules["scipy.special"].betainc,
                  _ufuncs._zeros is sys.modules["{ZEROS}"],
                  hasattr(sys.modules["scipy.optimize"], "__file__"),
                  _ufuncs.load_generator()[0] is sys.modules["numpy.random"].Generator,
                  hasattr(sys.modules["numpy.random"], "__file__"),
                  hasattr(sys.modules["secrets"], "__file__")]))
"""
    assert _fresh(code) == [FALLBACK, True, True, True, True, True, True, True]


_RUN_CLI = f"""
import json, sys
from parasitometrics.cli import main
try:
    main(sys.argv[1:])
finally:
    print(json.dumps([{_SCIPY_MODULES}, {_RANDOM_MODULES}]), file=sys.stderr)
"""


def _fresh_cli(args: list, cwd) -> bytes:
    """``parasitometrics <args>``'s stdout in a fresh interpreter, which loads no scipy
    module, and neither numpy.random nor OpenSSL where ``import numpy`` does not."""
    result = subprocess.run([sys.executable, "-c", _RUN_CLI, *args], cwd=cwd, env=src_env(),
                            capture_output=True)
    assert result.returncode == 0, result.stderr
    scipy_modules, random_modules = json.loads(result.stderr.splitlines()[-1])
    assert scipy_modules == []
    assert random_modules == [] or _numpy_imports_random_eagerly()
    return result.stdout


def test_simulate_gives_the_golden_digest_through_the_fast_path(tmp_path):
    # tests/test_simulator.py's who56 digest: the patients text, then the objects text
    _fresh_cli(["simulate", "--preset", "who56", "--seed", "1", "--format", "csv",
                "--out", "out"], tmp_path)
    text = (tmp_path / "out" / "patients.csv").read_bytes() + \
        (tmp_path / "out" / "objects.csv").read_bytes()
    assert hashlib.sha256(text).hexdigest() == \
        "47b69ddf799e9066b128c9b5d23b822f85ecffda5de02de8ef4670eeebd82df7"


def test_poisson_prints_the_same_bytes_through_the_fast_path(tmp_path):
    args = ["poisson", "-p", "100", "-v", "0.01"]
    in_process = CliRunner().invoke(main, args)
    assert in_process.exit_code == 0
    assert _fresh_cli(args, tmp_path) == in_process.stdout_bytes


def test_poisson_loads_no_generator():
    # poisson calls only pdtrc: numpy's Generator is loaded by the simulator alone
    if _numpy_imports_random_eagerly():
        pytest.skip("import numpy alone loads numpy.random (numpy < 2)")
    code = """
import json, sys
from parasitometrics.cli import main
main(["poisson", "-p", "100", "-v", "0.01"], standalone_mode=False)
print(json.dumps([m for m in ("numpy.random._generator", "parasitometrics.simulator")
                  if m in sys.modules]))
"""
    assert _fresh(code) == []


def test_reproduce_paper_loads_neither_numpy_random_nor_openssl(tmp_path):
    if _numpy_imports_random_eagerly():
        pytest.skip("import numpy alone loads numpy.random (numpy < 2)")
    stdout = _fresh_cli(["reproduce-paper", "--out", "out"], tmp_path)
    assert stdout.splitlines()[-1].startswith(b"15 checks passed")
