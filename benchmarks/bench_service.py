"""Service-layer benchmarks: cold vs. warm engine runs, batch overhead.

Quantifies the two wins the job engine buys: parallel fan-out of the
mapper x workload grid and warm-cache reruns that skip mapper work
entirely. The warm path should be orders of magnitude faster than cold.
"""

from __future__ import annotations

import pytest

from repro.service import (
    ExecutorConfig,
    MapperConfig,
    MappingEngine,
    MappingJob,
    ResultStore,
    TopologySpec,
    WorkloadSpec,
)

MAPPER_CONFIGS = [
    MapperConfig.make("dimorder", order="ABT"),
    MapperConfig.make("dimorder", order="TAB"),
    MapperConfig.make("hilbert"),
    MapperConfig.make("rubik"),
]
WORKLOADS = ["halo2d:8x8", "ring:64", "transpose:8", "bisection:64"]


def _grid_jobs():
    return [
        MappingJob(TopologySpec((8, 8)), WorkloadSpec(workload), config)
        for workload in WORKLOADS
        for config in MAPPER_CONFIGS
    ]


def test_bench_engine_cold(benchmark):
    """Uncached serial engine pass over the 4x4 job grid."""

    def cold():
        engine = MappingEngine()
        outcomes = engine.run(_grid_jobs())
        assert all(o.ok for o in outcomes)
        return engine.stats.executed

    assert benchmark(cold) == len(WORKLOADS) * len(MAPPER_CONFIGS)


def test_bench_engine_warm(benchmark, tmp_path):
    """Warm-cache pass: every job answered from the result store."""
    cache = tmp_path / "cache"
    MappingEngine(cache_dir=cache).run(_grid_jobs())

    def warm():
        engine = MappingEngine(cache_dir=cache)
        outcomes = engine.run(_grid_jobs())
        assert all(o.result.from_cache for o in outcomes)
        return engine.stats.cache_hits

    assert benchmark(warm) == len(WORKLOADS) * len(MAPPER_CONFIGS)


@pytest.mark.parametrize("jobs", [1, 4])
def test_bench_engine_fanout(benchmark, jobs):
    """Pool fan-out vs. serial on the same uncached grid."""

    def run():
        engine = MappingEngine(executor_config=ExecutorConfig(jobs=jobs))
        outcomes = engine.run(_grid_jobs())
        assert all(o.ok for o in outcomes)

    benchmark.pedantic(run, rounds=3, iterations=1)


_STORE_PAYLOAD = {"mapping": list(range(256)), "report": {"mcl": 123.5}}


@pytest.mark.parametrize("fsync", [True, False], ids=["fsync", "nofsync"])
def test_bench_store_put_durable(benchmark, tmp_path, fsync):
    """Commit-protocol cost per put (checksum + tmp/rename, +-fsync)."""
    store = ResultStore(tmp_path / "cache", fsync=fsync)
    keys = [f"{i:02x}" * 32 for i in range(64)]

    def puts():
        for key in keys:
            store.put(key, _STORE_PAYLOAD)

    benchmark(puts)


def test_bench_store_get_verified(benchmark, tmp_path):
    """Read path: every get re-verifies the envelope's SHA-256."""
    store = ResultStore(tmp_path / "cache", fsync=False)
    keys = [f"{i:02x}" * 32 for i in range(64)]
    for key in keys:
        store.put(key, _STORE_PAYLOAD)

    def gets():
        for key in keys:
            assert store.get(key) is not None

    benchmark(gets)
