"""The one place addkrig gets scipy from: three compiled modules, loaded straight from their files.

Importing scipy.linalg, scipy.optimize and scipy.special for a few compiled objects would cost each
cold start about 0.4 s and 36 MB.  The objects loaded here are scipy's own (a later scipy import
gets the same ones), but the file names are private scipy API, as the ``setulb`` signature is.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np

_SCIPY = importlib.util.find_spec("scipy")  # finds the package directory, imports nothing


def _load(package: str, name: str):
    """Extension module scipy.<package>.<name>: scipy's own if imported, else loaded from its file."""
    full = f"scipy.{package}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = _SCIPY and FileFinder(os.path.join(_SCIPY.submodule_search_locations[0], package),
                                 (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(full)
    if spec is None:
        from scipy import __version__  # ModuleNotFoundError when scipy is not installed at all
        raise ImportError(f"addkrig needs {full}, which scipy {__version__} does not have", name=full)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    del sys.modules[full]  # left there, it would stop scipy's own import setting its package's attribute
    return module


_flapack = _load("linalg", "_flapack")
dpotrf, dpotri, dpotrs, dtrtrs = _flapack.dpotrf, _flapack.dpotri, _flapack.dpotrs, _flapack.dtrtrs
setulb = _load("optimize", "_lbfgsb").setulb
erf = _load("special", "_special_ufuncs").erf


def solve_triangular(L: np.ndarray, b: np.ndarray, trans: int = 0) -> np.ndarray:
    """scipy.linalg.solve_triangular(L, b, lower=True, trans=trans, check_finite=False) bit for bit:
    scipy's dtrtrs call, which passes a C-ordered L as its transpose, upper triangular."""
    if b.size == 0:  # dtrtrs refuses an empty L, and prints that on the terminal
        return np.empty(b.shape)
    if L.flags.f_contiguous:
        x, info = dtrtrs(L, b, lower=1, trans=trans)
    else:
        x, info = dtrtrs(L.T, b, lower=0, trans=1 - trans)
    if info:
        raise np.linalg.LinAlgError(f"triangular solve failed: dtrtrs info {info}")
    return x
