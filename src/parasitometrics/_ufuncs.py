"""scipy's ``betainc``, ``betaincinv``, ``pdtrc`` and ``brentq``, without scipy's package import.

``scipy/__init__`` and ``scipy/special/__init__`` load ``numpy.testing`` and
``numpy.f2py``: about 0.2 s and 20 MB; ``scipy/optimize/__init__`` costs
more. The compiled ``scipy.special._ufuncs`` and ``scipy.optimize._zeros``
need none of them, so they are imported under stub packages, and every
``scipy`` entry the import adds to ``sys.modules`` is removed again. Both are
private to scipy: when a ``scipy`` module is already loaded, or the load
fails, the whole ``scipy.special`` and ``scipy.optimize`` are imported instead.
"""

import importlib
import importlib.util
import os
import sys
import types


def _is_scipy(name: str) -> bool:
    return name == "scipy" or name.startswith("scipy.")


def _load_compiled() -> tuple[types.ModuleType, types.ModuleType]:
    """``scipy.special._ufuncs`` and ``scipy.optimize._zeros``, imported under stub packages."""
    root = importlib.util.find_spec("scipy").submodule_search_locations[0]
    before = set(sys.modules)
    try:
        for name in ("scipy", "scipy.special", "scipy.optimize"):
            stub = types.ModuleType(name)
            stub.__path__ = [os.path.join(root, *name.split(".")[1:])]
            sys.modules[name] = stub
        return (importlib.import_module("scipy.special._ufuncs"),
                importlib.import_module("scipy.optimize._zeros"))
    finally:
        for name in sys.modules.keys() - before:
            if _is_scipy(name):
                del sys.modules[name]


def _load() -> tuple[types.ModuleType, types.ModuleType]:
    """A module holding the three ufuncs, and ``_zeros``: loaded alone, else from the packages."""
    if not any(_is_scipy(name) for name in sys.modules):
        try:
            return _load_compiled()
        except (ImportError, AttributeError):
            pass
    import scipy.special
    from scipy.optimize import _zeros
    return scipy.special, _zeros


_special, _zeros = _load()
betainc = _special.betainc
betaincinv = _special.betaincinv
pdtrc = _special.pdtrc


def brentq(f, a: float, b: float, xtol: float, rtol: float, maxiter: int = 100) -> float:
    """A root of f in [a, b] by the C routine under ``scipy.optimize.brentq``: ValueError
    if f(a) and f(b) have the same sign, RuntimeError if ``maxiter`` steps do not converge."""
    return _zeros._brentq(f, a, b, xtol, rtol, maxiter, (), False, True)
