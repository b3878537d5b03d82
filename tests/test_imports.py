"""ratelab loads numpy and scipy.linalg only, at import and at run time.

The Gaussian certificate is a series and the Bayes error uses math.erfc,
so no scipy subpackage beyond linalg is needed. Loading scipy.integrate
or scipy.special would pull in optimize and sparse with them, at a cost
paid by every process that imports ratelab. The check runs in a fresh
interpreter, since this test process has loaded scipy.stats for the
oracles of other tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("scipy.integrate", "scipy.special", "scipy.optimize", "scipy.sparse", "scipy.stats")

SCRIPT = """
import contextlib, io, json, sys

import ratelab
import ratelab.cli
from ratelab.concentration import tail_test
from ratelab.harness import ExperimentConfig, rate_sweep
from ratelab.index_functions import HolderIndex
from ratelab.lower_bounds import bayes_error
from ratelab.mercer import NoiseSpec, build_model, power_law_source, target_from_source

for d in (1, 3):
    assert NoiseSpec("gaussian", sigma=0.5).certify(build_model(b=2.0, d=d, n_trunc=8)).satisfied
bayes_error([0.3, 0.4], 0.5)
model = build_model(b=2.0, n_trunc=8)
phi = HolderIndex(0.5, domain_max=model.kappa_sq)
target = target_from_source(model, phi, power_law_source(model), radius=1.0)
tail_test("sample_error", model, target, NoiseSpec("gaussian", sigma=0.5), 0.05, 32, 0.1,
          replicates=100)
rate_sweep(ExperimentConfig.from_dict({
    "model": {"b": 2.0, "N_trunc": 16},
    "phi": {"kind": "holder", "r": 0.5},
    "m_grid": [8, 16, 32, 64],
    "replicates": 2,
}))
with contextlib.redirect_stdout(io.StringIO()):
    code = ratelab.cli.main(["lower-bound", "--b", "2", "--n-trunc", "64", "--m", "16",
                             "--trials", "2"])
assert code == 0
print(json.dumps(sorted(name for name in sys.modules if name.startswith("scipy."))))
"""


def test_no_scipy_beyond_linalg_is_loaded():
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True, env=env, timeout=300
    )
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert [name for name in loaded if name.startswith(HEAVY)] == []
    assert "scipy.linalg" in loaded
