"""Start-up cost: scipy stays out of a mapping process until it solves.

Importing scipy takes longer than a small cold map, and only the Table II
MILP, the routing LP and the sparse attribution matrices use it. Each
test runs a fresh interpreter: this process has long imported scipy.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

MAP_SCRIPT = r"""
import json, sys

import repro.cli
from repro.experiments.config import get_scale
from repro.service.engine import MappingEngine
from repro.service.jobs import (
    MapperConfig, MappingJob, TopologySpec, WorkloadSpec)

after_import = "scipy" in sys.modules
engine = MappingEngine(cache_dir=sys.argv[1])
before = set(sys.modules)
mcls = []
for spec, shape, scale in [("cg:256:D", (4, 4, 2), "paper-ci"),
                           ("cg:8:C", (2, 2, 2), "small")]:
    job = MappingJob(topology=TopologySpec(shape),
                     workload=WorkloadSpec(spec),
                     mapper=MapperConfig.from_rahtm(get_scale(scale).rahtm))
    mcls.append(engine.run_one(job).report.mcl)
print(json.dumps({
    "scipy_after_import": after_import,
    "scipy_after_maps": "scipy" in sys.modules,
    "new_modules": sorted(set(sys.modules) - before),
    "mcls": mcls,
}))
"""

# One fresh interpreter per function: each must import scipy itself.
SOLVER_SCRIPTS = {
    "solve_cluster_milp": """
from repro.commgraph import CommGraph
from repro.core.milp import solve_cluster_milp
from repro.topology import hypercube
ring = CommGraph(4, [0, 1, 2, 3], [1, 2, 3, 0], [1.0] * 4)
res = solve_cluster_milp(hypercube(2), ring, time_limit=60)
assert res.optimal and res.mcl == 1.0, res
""",
    "solve_routing_lp": """
from repro.core.milp import solve_routing_lp
from repro.topology import mesh
assert abs(solve_routing_lp(mesh(2, 2), [0], [3], [100.0]) - 50.0) < 1e-6
""",
    "CommGraph.to_matrix": """
from repro.commgraph import CommGraph
m = CommGraph(3, [0, 1], [1, 2], [4.0, 5.0]).to_matrix()
assert m.nnz == 2 and m[1, 2] == 5.0
""",
    "attribute_flows": """
from repro.observability.attribution import attribute_flows
from repro.routing import MinimalAdaptiveRouter
from repro.topology import torus
att = attribute_flows(MinimalAdaptiveRouter(torus(4, 4)), [0], [5], [8.0])
assert att.num_flows == 1 and abs(att.channel_loads().sum() - 16.0) < 1e-9
""",
    "FluidPhaseSimulator.phase_time": """
from repro.routing import MinimalAdaptiveRouter
from repro.simulator.fluid import FluidPhaseSimulator
from repro.topology import torus
sim = FluidPhaseSimulator(MinimalAdaptiveRouter(torus(4, 4)),
                          link_bandwidth=100.0)
assert abs(sim.phase_time([0], [1], [200.0]) - 2.0) < 1e-9
""",
}


def _run(script: str, *argv: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_FAULTS", None)
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_maps_neither_import_scipy_nor_new_modules(tmp_path):
    doc = json.loads(_run(MAP_SCRIPT, str(tmp_path / "cache")))
    assert not doc["scipy_after_import"]
    assert not doc["scipy_after_maps"]
    # A module first imported by a map is paid for inside map_s.
    assert doc["new_modules"] == []
    assert all(mcl > 0 for mcl in doc["mcls"])


@pytest.mark.parametrize("name", sorted(SOLVER_SCRIPTS))
def test_scipy_users_import_it_themselves(name):
    _run(SOLVER_SCRIPTS[name]
         + "import sys\nassert 'scipy' in sys.modules\n")
