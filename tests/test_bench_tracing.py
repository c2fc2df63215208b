"""The benchmark's traced run (``bench/run.py --trace 1``) installs on the
package: every function it wraps by name still exists, and restoring the
tracer puts each original back.  The untraced benchmark calls none of these
names directly, so a rename would otherwise break only the traced run.
"""

import sys
from pathlib import Path

import numpy as np
import scipy.linalg

import lcsmooth
import lcsmooth.cli  # noqa: F401  (loads every module that the tracer patches)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import run  # noqa: E402
from spans import Tracer  # noqa: E402


def test_traced_run_installs_and_restores(rng):
    owners = {"sim": lcsmooth.sim, "TerrainSpec": lcsmooth.sim.TerrainSpec,
              "dataio": lcsmooth.dataio, "frontend": lcsmooth.frontend,
              "solver": lcsmooth.solver, "metrics": lcsmooth.metrics, "linalg": scipy.linalg}
    before = {label: dict(vars(owner)) for label, owner in owners.items()}
    tracer = Tracer()
    try:
        run.install_tracing(tracer, lcsmooth)
        patched = {(label, name): value for label, owner in owners.items()
                   for name, value in vars(owner).items() if value is not before[label].get(name)}
        assert {("solver", "solve"), ("solver", "process_weight"), ("TerrainSpec", "depth"),
                ("frontend", "extract_submap"), ("metrics", "point_disparity")} <= patched.keys()
        for (label, name), wrapper in patched.items():
            assert wrapper.__wrapped__ is before[label][name]
        # the disparity counter reads the samples that the two-pass form returns
        a, b = rng.uniform(size=(50, 3)), rng.uniform(size=(60, 3))
        samples = lcsmooth.metrics.point_disparity(a, b, np.inf)
        assert tracer.counts["metrics.disparity_samples"] == len(samples) == 110
    finally:
        tracer.restore()
    for label, owner in owners.items():
        assert vars(owner).keys() == before[label].keys()
        assert all(vars(owner)[name] is value for name, value in before[label].items())
