"""scipy.special's ``betainc``, ``betaincinv`` and ``pdtrc``, without scipy's package import.

``scipy/__init__`` and ``scipy/special/__init__`` load ``numpy.testing`` and
``numpy.f2py``: about 0.2 s and 20 MB. The compiled ``scipy.special._ufuncs``
needs neither, so it is imported under stub packages, and every ``scipy``
entry the import adds to ``sys.modules`` is removed again. It is private to
scipy: when a ``scipy`` module is already loaded, or the load fails, the
whole ``scipy.special`` is imported instead.
"""

import importlib
import importlib.util
import os
import sys
import types


def _is_scipy(name: str) -> bool:
    return name == "scipy" or name.startswith("scipy.")


def _load_ufuncs() -> types.ModuleType:
    """``scipy.special._ufuncs``, imported under stub ``scipy`` and ``scipy.special``."""
    root = importlib.util.find_spec("scipy").submodule_search_locations[0]
    before = set(sys.modules)
    try:
        for name, path in (("scipy", root), ("scipy.special", os.path.join(root, "special"))):
            stub = types.ModuleType(name)
            stub.__path__ = [path]
            sys.modules[name] = stub
        return importlib.import_module("scipy.special._ufuncs")
    finally:
        for name in sys.modules.keys() - before:
            if _is_scipy(name):
                del sys.modules[name]


def _load() -> types.ModuleType:
    """A module holding the three ufuncs: ``_ufuncs`` alone, else ``scipy.special``."""
    if not any(_is_scipy(name) for name in sys.modules):
        try:
            return _load_ufuncs()
        except (ImportError, AttributeError):
            pass
    import scipy.special
    return scipy.special


_special = _load()
betainc = _special.betainc
betaincinv = _special.betaincinv
pdtrc = _special.pdtrc
