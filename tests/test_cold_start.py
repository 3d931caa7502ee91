"""The serving and training import path loads no scipy (and no networkx).

``scipy.stats`` alone costs about a second of every process's start-up,
and every shard worker, router and trainer pays its import path before it
does any work.  scipy stays a dependency: the functions that call it
(``paired_t_test``, ``HeteroGraph.adjacency`` / ``normalized_adjacency``,
the meta-path helpers and the baselines) import it themselves, and their
own tests prove those imports still work.  Each check runs in a fresh
interpreter, since this one has long since imported scipy.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

FORBIDDEN = """
import sys

loaded = sorted(
    name for name in sys.modules
    if name.split(".")[0] == "networkx" or name.startswith("scipy")
)
assert not loaded, f"loaded {loaded[:8]}"
"""

IMPORTS = """
import repro.cluster
import repro.core
import repro.serve
import repro.store
import repro.datasets
import repro.__main__
"""

FIT_AND_SERVE = """
import numpy as np

from repro.cluster import ClusterRouter
from repro.core import WidenClassifier
from repro.datasets import make_acm
from repro.serve import InferenceServer

acm = make_acm(seed=0, scale=0.3)
model = WidenClassifier(seed=0, dim=16, num_wide=4, num_deep=2)
model.fit(acm.graph, acm.split.train[:30], epochs=1)
probe = acm.split.test[:12]
single = InferenceServer(model, acm.graph, seed=7).classify(probe)
with ClusterRouter.from_classifier(
    model, acm.graph, 2, transport="inline", seed=7
) as router:
    np.testing.assert_array_equal(router.classify(probe), single)
"""


def run_fresh(source):
    env = dict(
        os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1])
    )
    done = subprocess.run(
        [sys.executable, "-c", source + FORBIDDEN],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr


def test_package_imports_load_no_scipy():
    run_fresh(IMPORTS)


def test_fit_and_serve_load_no_scipy():
    run_fresh(FIT_AND_SERVE)
