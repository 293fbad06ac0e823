"""addkrig._scipy: scipy's compiled objects without scipy's Python packages.

The loaded objects must be scipy's own, in either import order, and the triangular-solve helper
must give scipy.linalg.solve_triangular's bits.  Import checks run in fresh interpreters.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import addkrig
from addkrig import _scipy
from addkrig._scipy import solve_triangular

SRC = str(Path(addkrig.__file__).parents[1])
PACKAGES = ("scipy.linalg", "scipy.optimize", "scipy.special")


def run_python(*args) -> subprocess.CompletedProcess:
    """A fresh interpreter with this checkout's src first on the path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.mark.parametrize("args", [["-c", "import addkrig"], ["-m", "addkrig.cli", "--help"]],
                         ids=["import", "cli-help"])
def test_cold_start_imports_no_scipy_package(args):
    # -X importtime lists every module the command imports, one per line of stderr.
    stderr = run_python("-X", "importtime", *args).stderr
    imported = {line.rsplit("|", 1)[-1].strip() for line in stderr.splitlines() if line.startswith("import time:")}
    assert "addkrig.kernels" in imported
    assert imported.isdisjoint(PACKAGES)


COEXISTENCE = """
import json, sys
import numpy as np
if sys.argv[1] == "scipy-first":
    import scipy.linalg, scipy.optimize, scipy.special
from addkrig import _scipy
import scipy.linalg.lapack, scipy.optimize, scipy.special
import scipy.optimize._lbfgsb
res = scipy.optimize.minimize(lambda x: float(np.sum((x - 1.0) ** 2)), np.zeros(3), method="L-BFGS-B")
print(json.dumps({
    **{name: getattr(_scipy, name) is getattr(scipy.linalg.lapack, name)
       for name in ("dpotrf", "dpotri", "dpotrs", "dtrtrs")},
    "setulb": _scipy.setulb is scipy.optimize._lbfgsb.setulb,
    "erf": _scipy.erf is scipy.special.erf,
    "_lbfgsb attribute": scipy.optimize._lbfgsb is sys.modules["scipy.optimize._lbfgsb"],
    "_flapack attribute": scipy.linalg._flapack is sys.modules["scipy.linalg._flapack"],
    "minimize": bool(res.success) and np.allclose(res.x, 1.0),
}))
"""


@pytest.mark.parametrize("order", ["addkrig-first", "scipy-first"])
def test_loaded_objects_are_scipys_own_in_either_import_order(order):
    checks = json.loads(run_python("-c", COEXISTENCE, order).stdout)
    assert checks == dict.fromkeys(checks, True)
    assert len(checks) == 9


def test_a_missing_file_names_the_module_and_the_scipy_version():
    with pytest.raises(ImportError, match=rf"scipy\.optimize\._nowhere.* scipy {scipy.__version__} ") as err:
        _scipy._load("optimize", "_nowhere")
    assert err.value.name == "scipy.optimize._nowhere"


def lower_factor(n, layout, rng):
    """A well-conditioned lower-triangular n x n matrix with junk above the diagonal, which no
    solve may read; as a C- or F-ordered array or a corner of a bigger C-ordered one."""
    a = rng.uniform(-1.0, 1.0, size=(n + 3, n + 3)) + (n + 3) * np.eye(n + 3)
    if layout == "corner":
        return a[:n, :n]
    return {"C": np.ascontiguousarray, "F": np.asfortranarray}[layout](a[:n, :n])


@pytest.mark.parametrize("n", [0, 1, 2, 30, 300])
@pytest.mark.parametrize("layout", ["C", "F", "corner"])
@pytest.mark.parametrize("trans", [0, 1])
@pytest.mark.parametrize("cols", [None, 0, 4], ids=["vector", "no-columns", "4-columns"])
def test_solve_triangular_gives_scipys_bits(n, layout, trans, cols, capfd):
    rng = np.random.default_rng(n)
    a = lower_factor(n, layout, rng)
    b = rng.normal(size=(n,) if cols is None else (n, cols))
    want = scipy.linalg.solve_triangular(a, b, trans=trans, lower=True, check_finite=False)
    got = solve_triangular(a, b, trans)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert capfd.readouterr() == ("", "")  # raw dtrtrs prints an error for an empty a


def test_solve_triangular_layouts_cover_both_branches():
    rng = np.random.default_rng(0)
    assert lower_factor(2, "corner", rng).flags.c_contiguous is False
    assert lower_factor(2, "corner", rng).flags.f_contiguous is False
    one = lower_factor(1, "corner", rng)  # a 1 x 1 slice is both
    assert one.flags.c_contiguous and one.flags.f_contiguous


@pytest.mark.parametrize("layout", ["C", "F", "corner"])
def test_solve_triangular_refuses_a_singular_factor(layout, capfd):
    a = lower_factor(5, layout, np.random.default_rng(1))
    a[2, 2] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        solve_triangular(a, np.ones(5))
    assert capfd.readouterr() == ("", "")
