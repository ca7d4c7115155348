"""scipy's ``betainc``, ``betaincinv``, ``pdtrc`` and ``brentq``, and numpy's seeded
``Generator`` (from ``load_generator()``, so only its callers load it), without scipy's
or ``numpy.random``'s package import.

``scipy/__init__`` and ``scipy/special/__init__`` load ``numpy.testing`` and
``numpy.f2py`` (about 0.2 s and 20 MB), and ``scipy/_lib/__init__``, reached through
``_ccallback``, loads ``subprocess`` and ``sysconfig`` for scipy's test utilities;
``numpy/random/__init__`` loads ``mtrand``, four unused bit generators and ``secrets``,
which loads OpenSSL (about 7 MB). The compiled modules are imported under stub packages
and a stub ``secrets`` whose ``randbits`` is the real one's,
``random.SystemRandom().getrandbits``. Every ``scipy`` module the import adds is removed
again, but of numpy's load only the two stubs, so a later ``import numpy.random`` has the
same ``Generator``. When ``numpy.random`` (which numpy < 2 imports eagerly) or a ``scipy``
module is loaded already, or a load fails, the whole package is imported instead.
"""

import importlib
import importlib.util
import os
import random
import sys
import types


def _stub_package(name: str) -> types.ModuleType:
    """An empty package ``name`` whose submodules load from the installed package's directory."""
    root, *rest = name.split(".")
    stub = types.ModuleType(name)
    stub.__path__ = [os.path.join(importlib.util.find_spec(root).submodule_search_locations[0],
                                  *rest)]
    return stub


def _import_under_stubs(stubs: list[types.ModuleType], names: tuple[str, ...],
                        drop: str | None = None) -> list[types.ModuleType]:
    """``names`` imported while each of ``stubs`` not loaded already stands in ``sys.modules``;
    the stubs, and every module the import adds under package ``drop``, are removed after."""
    before = set(sys.modules)
    stubs = {stub.__name__: stub for stub in stubs if stub.__name__ not in before}
    sys.modules.update(stubs)
    try:
        return [importlib.import_module(name) for name in names]
    finally:
        for name in sys.modules.keys() - before:
            if name in stubs or name.split(".")[0] == drop:
                del sys.modules[name]


def _load_scipy() -> tuple[types.ModuleType, types.ModuleType]:
    """A module holding the three ufuncs, and ``_zeros``: loaded alone, else from the packages."""
    if "scipy" not in {name.split(".")[0] for name in sys.modules}:
        try:
            stubs = ("scipy", "scipy._lib", "scipy.special", "scipy.optimize")
            return _import_under_stubs(
                [_stub_package(name) for name in stubs],
                ("scipy.special._ufuncs", "scipy.optimize._zeros"), drop="scipy")
        except (ImportError, AttributeError):
            pass
    import scipy.special
    from scipy.optimize import _zeros
    return scipy.special, _zeros


def load_generator() -> tuple[type, type, type]:
    """numpy's ``Generator``, ``PCG64`` and ``SeedSequence``: loaded alone, else from the package."""
    if "numpy.random" not in sys.modules:
        try:
            secrets = types.ModuleType("secrets")
            secrets.randbits = random.SystemRandom().getrandbits
            generator, pcg64, bit_generator = _import_under_stubs(
                [_stub_package("numpy.random"), secrets],
                ("numpy.random._generator", "numpy.random._pcg64", "numpy.random.bit_generator"))
            return generator.Generator, pcg64.PCG64, bit_generator.SeedSequence
        except (ImportError, AttributeError):
            pass
    from numpy.random import PCG64, Generator, SeedSequence
    return Generator, PCG64, SeedSequence


_special, _zeros = _load_scipy()
betainc = _special.betainc
betaincinv = _special.betaincinv
pdtrc = _special.pdtrc


def brentq(f, a: float, b: float, xtol: float, rtol: float, maxiter: int = 100) -> float:
    """A root of f in [a, b] by the C routine under ``scipy.optimize.brentq``: ValueError
    if f(a) and f(b) have the same sign, RuntimeError if ``maxiter`` steps do not converge."""
    return _zeros._brentq(f, a, b, xtol, rtol, maxiter, (), False, True)
