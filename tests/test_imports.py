"""ratelab loads numpy and scipy's compiled LAPACK module only, at import
and at run time.

The Gaussian certificate is a series, so no scipy subpackage is needed.
The LAPACK wrappers are loaded from scipy's `_flapack` extension by path
(`ratelab._lapack`), since importing
`scipy.linalg` runs scipy's array-API set-up, which loads numpy.ma,
numpy.f2py and numpy.testing and more than doubles the start-up time of
every process that imports ratelab. Loading scipy.integrate or
scipy.special would pull in optimize and sparse with them. The check runs
in a fresh interpreter, since this test process has loaded scipy.stats
and scipy.linalg for the oracles of other tests.
"""

import json
import os
import subprocess
import sys
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import pytest
from scipy.linalg import lapack as scipy_lapack

from ratelab import _lapack

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("scipy.integrate", "scipy.special", "scipy.optimize", "scipy.sparse", "scipy.stats")
# what importing scipy.linalg loads beside itself, by way of scipy's array-API set-up
SPARED = ("numpy.ma", "numpy.f2py", "numpy.testing")
LAPACK_NAMES = ("dsytrd", "dstevd", "dormqr", "dstebz", "dpotrf", "dpotrs")

SCRIPT = """
import contextlib, io, json, sys

import numpy, scipy

bare = set(sys.modules)
added = {}

import ratelab
import ratelab.cli
from ratelab.concentration import tail_test
from ratelab.harness import ExperimentConfig, rate_sweep
from ratelab.index_functions import HolderIndex
from ratelab.mercer import NoiseSpec, build_model, power_law_source, target_from_source

added["import"] = sorted(set(sys.modules) - bare)
for d in (1, 3):
    assert NoiseSpec("gaussian", sigma=0.5).certify(build_model(b=2.0, d=d, n_trunc=8)).satisfied
model = build_model(b=2.0, n_trunc=8)
phi = HolderIndex(0.5, domain_max=model.kappa_sq)
target = target_from_source(model, phi, power_law_source(model), radius=1.0)
for kind in ("sample_error", "operator"):
    tail_test(kind, model, target, NoiseSpec("gaussian", sigma=0.5), 0.05, 32, 0.1, replicates=100)
with contextlib.redirect_stdout(io.StringIO()):
    code = ratelab.cli.main(["lower-bound", "--b", "2", "--n-trunc", "64", "--m", "16",
                             "--trials", "2"])
assert code == 0
added["tails and race"] = sorted(set(sys.modules) - bare)
rate_sweep(ExperimentConfig.from_dict({
    "model": {"b": 2.0, "N_trunc": 16},
    "phi": {"kind": "holder", "r": 0.5},
    "m_grid": [8, 16, 32, 64],
    "replicates": 2,
}))
added["sweep"] = sorted(set(sys.modules) - bare)
print(json.dumps(added))
"""


def test_no_scipy_beyond_linalg_is_loaded():
    """Neither scipy.linalg nor a heavy scipy subpackage is loaded by the import,
    both tail statistics, a lower-bound race with dense fits or a sweep across
    m = N. The import, the tails and the race also load none of the numpy
    submodules scipy.linalg's import pulls in, beyond what importing numpy
    and scipy loads by itself (numpy 1.x loads numpy.ma there). The sweep is
    not held to that: numpy 2's np.unique, which np.quantile calls, imports
    numpy.ma."""
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True, env=env, timeout=300
    )
    assert done.returncode == 0, done.stderr
    added = json.loads(done.stdout.splitlines()[-1])
    for stage, loaded in added.items():
        assert [name for name in loaded if name.startswith(HEAVY)] == [], stage
        assert "scipy.linalg" not in loaded, stage
        assert "scipy.linalg._flapack" in loaded, stage
    for stage in ("import", "tails and race"):
        assert [name for name in added[stage] if name.startswith(SPARED)] == [], stage


def test_lapack_is_the_module_scipy_linalg_reexports():
    """The functions loaded by path are scipy.linalg.lapack's, object for object,
    so every LAPACK call keeps its bits."""
    assert _lapack.lapack is not scipy_lapack
    for name in LAPACK_NAMES:
        assert getattr(_lapack.lapack, name) is getattr(scipy_lapack, name)


@pytest.mark.parametrize("contents", [None, b"not a shared library"], ids=["missing", "broken"])
def test_loader_falls_back_to_scipy_linalg(tmp_path, contents):
    """With no loadable extension in the directory, the loader returns
    scipy.linalg.lapack, whose functions are the same objects."""
    if contents is not None:
        (tmp_path / f"_flapack{EXTENSION_SUFFIXES[0]}").write_bytes(contents)
    fallback = _lapack.load(str(tmp_path))
    assert fallback is scipy_lapack
    for name in LAPACK_NAMES:
        assert getattr(fallback, name) is getattr(_lapack.lapack, name)
