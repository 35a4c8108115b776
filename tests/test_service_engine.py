"""Engine end-to-end: caching, parallel/serial equivalence, CLI wiring."""

from dataclasses import replace

import pytest

from repro.cli import main
from repro.core.milp import clear_milp_memo
from repro.errors import ServiceError
from repro.experiments import run_comparison
from repro.experiments.config import get_scale
from repro.observability import get_registry
from repro.service import (
    MapperConfig,
    MappingEngine,
    MappingJob,
    TopologySpec,
    WorkloadSpec,
)

CHEAP_CONFIGS = [
    ("ABT", MapperConfig.make("dimorder", order="ABT")),
    ("TAB", MapperConfig.make("dimorder", order="TAB")),
    ("Hilbert", MapperConfig.make("hilbert")),
]


def _jobs(n=3):
    workloads = ["halo2d:4x4", "ring:16", "transpose:4"][:n]
    return [
        MappingJob(TopologySpec((4, 4)), WorkloadSpec(w),
                   MapperConfig.make("dimorder", order="ABT"))
        for w in workloads
    ]


# -- caching --------------------------------------------------------------------------
def test_warm_cache_executes_zero_jobs(tmp_path):
    engine = MappingEngine(cache_dir=tmp_path / "cache", jobs=1)
    cold = engine.run(_jobs())
    assert engine.stats.executed == 3
    assert engine.stats.cache_hits == 0
    assert all(o.ok and not o.result.from_cache for o in cold)

    warm_engine = MappingEngine(cache_dir=tmp_path / "cache", jobs=1)
    warm = warm_engine.run(_jobs())
    assert warm_engine.stats.cache_hits == 3
    assert warm_engine.stats.executed == 0  # zero mapper computations
    assert all(o.ok and o.result.from_cache for o in warm)
    for a, b in zip(cold, warm):
        assert a.result.report == b.result.report
        assert a.result.mapping == b.result.mapping
        assert a.result.map_seconds == b.result.map_seconds


def test_no_cache_dir_means_always_execute():
    engine = MappingEngine(jobs=1)
    engine.run(_jobs(1))
    engine.run(_jobs(1))
    assert engine.stats.executed == 2
    assert engine.stats.cache_hits == 0


def test_run_one_raises_on_failure():
    engine = MappingEngine(jobs=1, retries=0)
    bad = MappingJob(TopologySpec((4, 4)), WorkloadSpec("ring:7"),
                     MapperConfig.make("dimorder"))  # 7 tasks on 16 nodes
    with pytest.raises(ServiceError):
        engine.run_one(bad)
    assert engine.stats.failed == 1


# -- run_comparison through the engine -------------------------------------------------
def test_comparison_parallel_matches_serial_bitwise(tmp_path):
    serial = run_comparison("tiny", mapper_configs=CHEAP_CONFIGS, jobs=1)
    parallel = run_comparison("tiny", mapper_configs=CHEAP_CONFIGS, jobs=4)
    for a, b in (
        (serial.exec_seconds, parallel.exec_seconds),
        (serial.comm_seconds, parallel.comm_seconds),
        (serial.mcl, parallel.mcl),
        (serial.hop_bytes, parallel.hop_bytes),
    ):
        assert a.cells == b.cells  # bitwise-equal tables
        assert a.row_labels == b.row_labels
        assert a.col_labels == b.col_labels
    assert serial.comm_fraction == parallel.comm_fraction


def test_comparison_warm_cache_zero_computations(tmp_path):
    cache = tmp_path / "cache"
    engine_cold = MappingEngine(cache_dir=cache, jobs=2)
    cold = run_comparison("tiny", mapper_configs=CHEAP_CONFIGS,
                          engine=engine_cold)
    assert engine_cold.stats.executed == 9  # 3 benchmarks x 3 mappers
    engine_warm = MappingEngine(cache_dir=cache, jobs=2)
    warm = run_comparison("tiny", mapper_configs=CHEAP_CONFIGS,
                          engine=engine_warm)
    assert engine_warm.stats.executed == 0
    assert engine_warm.stats.cache_hits == 9
    # warm tables are bitwise-identical, including mapping times (cached)
    assert cold.exec_seconds.cells == warm.exec_seconds.cells
    assert cold.mapping_seconds.cells == warm.mapping_seconds.cells
    assert cold.comm_fraction == warm.comm_fraction


def test_comparison_matches_legacy_serial_path():
    from repro.baselines.dimorder import DimOrderMapper
    from repro.experiments.runner import MapperSpec

    legacy = run_comparison("tiny", mappers=[
        MapperSpec("ABT", lambda t: DimOrderMapper(t, "ABT")),
        MapperSpec("TAB", lambda t: DimOrderMapper(t, "TAB")),
    ])
    engine = run_comparison("tiny", mapper_configs=CHEAP_CONFIGS[:2])
    assert legacy.exec_seconds.cells == engine.exec_seconds.cells
    assert legacy.comm_seconds.cells == engine.comm_seconds.cells
    assert legacy.mcl.cells == engine.mcl.cells
    assert legacy.hop_bytes.cells == engine.hop_bytes.cells
    assert legacy.comm_fraction == engine.comm_fraction


# -- CLI wiring ------------------------------------------------------------------------
def _compare_stdout(capsys, extra):
    rc = main([
        "compare", "--topology", "4x4", "--workload", "halo2d:4x4",
        "--mappers", "default,dimorder:TAB,hilbert,rubik,rcb", *extra,
    ])
    assert rc == 0
    return capsys.readouterr().out


def test_cli_compare_jobs4_bitwise_equals_jobs1(capsys, tmp_path):
    serial = _compare_stdout(capsys, ["--jobs", "1", "--no-cache"])
    parallel = _compare_stdout(capsys, ["--jobs", "4", "--no-cache"])
    assert serial == parallel
    assert "dimorder-ABT" in serial and "hilbert" in serial


def test_cli_compare_warm_cache_identical_output(capsys, tmp_path):
    cache = str(tmp_path / "cache")
    cold = _compare_stdout(capsys, ["--cache-dir", cache])
    warm = _compare_stdout(capsys, ["--cache-dir", cache])
    assert cold == warm
    assert list((tmp_path / "cache").glob("*/*.json"))  # artifacts exist


def test_cli_map_through_engine_with_cache(capsys, tmp_path):
    cache = str(tmp_path / "cache")
    out = tmp_path / "m.npz"
    argv = ["map", "--topology", "4x4", "--workload", "halo2d:4x4:3",
            "--mapper", "dimorder:ABT", "--cache-dir", cache,
            "--out", str(out)]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert "MCL" in first and "saved" in first
    assert main(argv) == 0  # warm run, same output
    assert capsys.readouterr().out == first
    rc = main(["evaluate", "--topology", "4x4", "--workload", "halo2d:4x4:3",
               "--mapping", str(out)])
    assert rc == 0
    assert "MCL" in capsys.readouterr().out


def test_cli_compare_failure_exit_code(capsys):
    rc = main(["compare", "--topology", "4x4", "--workload", "ring:7",
               "--mappers", "default", "--no-cache"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


# -- netview payloads -----------------------------------------------------------------
def _netview_job():
    return MappingJob(TopologySpec((4, 4)), WorkloadSpec("halo2d:4x4"),
                      MapperConfig.make("dimorder", order="ABT"))


def test_netview_flag_attaches_summary():
    from repro.service import JobRuntime

    engine = MappingEngine(cache_dir=None, runtime=JobRuntime(netview=True))
    result = engine.run_one(_netview_job())
    assert result.netview is not None
    assert result.netview["kind"] == "netview_summary"
    assert result.netview["mcl"] == pytest.approx(result.report.mcl)
    assert result.netview["top"][0]["load"] == pytest.approx(
        result.report.mcl
    )


def test_netview_off_by_default():
    result = MappingEngine(cache_dir=None).run_one(_netview_job())
    assert result.netview is None


def test_netview_does_not_change_cache_key(tmp_path):
    """Runtime flags must never fork the content-addressed cache."""
    from repro.service import JobRuntime

    cache = tmp_path / "cache"
    plain = MappingEngine(cache_dir=cache).run_one(_netview_job())
    hit = MappingEngine(
        cache_dir=cache, runtime=JobRuntime(netview=True)
    ).run_one(_netview_job())
    assert hit.from_cache
    assert hit.key == plain.key


def test_netview_cache_hit_upgrades_payload_in_place(tmp_path):
    from repro.service import JobRuntime

    cache = tmp_path / "cache"
    cold = MappingEngine(cache_dir=cache).run_one(_netview_job())
    assert cold.netview is None
    upgraded = MappingEngine(
        cache_dir=cache, runtime=JobRuntime(netview=True)
    ).run_one(_netview_job())
    assert upgraded.from_cache and upgraded.netview is not None
    # The upgrade was persisted: later engines see it without the flag.
    warm = MappingEngine(cache_dir=cache).run_one(_netview_job())
    assert warm.from_cache and warm.netview is not None
    assert warm.netview == upgraded.netview


def test_netview_upgrade_skips_file_backed_workloads(tmp_path):
    """File workloads are stored by digest, not path: no upgrade, no crash."""
    from repro.commgraph import save_commgraph
    from repro.service import JobRuntime
    from repro.workloads.registry import parse_workload

    graph_file = tmp_path / "g.json"
    save_commgraph(parse_workload("halo2d:4x4"), graph_file)
    job = MappingJob(TopologySpec((4, 4)), WorkloadSpec(str(graph_file)),
                     MapperConfig.make("dimorder", order="ABT"))
    cache = tmp_path / "cache"
    MappingEngine(cache_dir=cache).run_one(job)
    hit = MappingEngine(
        cache_dir=cache, runtime=JobRuntime(netview=True)
    ).run_one(job)
    assert hit.from_cache and hit.netview is None


def test_run_comparison_collects_netviews(tmp_path):
    result = run_comparison("tiny", cache_dir=tmp_path / "cache",
                            netview=True)
    benches = set(result.mcl.row_labels)
    for (bench, label), summary in result.netviews.items():
        assert bench in benches
        assert summary["mcl"] == pytest.approx(result.mcl.get(bench, label))
    assert len(result.netviews) == len(result.mcl.row_labels) * len(
        result.mcl.col_labels
    )


def test_pooled_jobs_fold_their_counters_into_this_registry():
    """A ``--jobs 2`` engine maps in its pool's workers; their MILP
    counters still reach this process's registry (and so ``/metrics``)."""
    def job(seed):
        config = replace(get_scale("tiny").rahtm, seed=seed)
        return MappingJob(TopologySpec((4, 4)), WorkloadSpec("halo2d:8x8"),
                          MapperConfig.from_rahtm(config))

    def milp_calls():
        registry = get_registry()
        return (registry.counter("milp.solves").value
                + registry.counter("milp.memo_hits").value)

    MappingEngine(jobs=1).run_one(job(1))
    per_job = milp_calls()
    assert per_job > 0
    get_registry().reset()
    clear_milp_memo()
    engine = MappingEngine(jobs=2)
    try:
        engine.run_one(job(1))
        assert all(o.ok for o in engine.run([job(2), job(3)]))
    finally:
        engine.close()
    assert milp_calls() == 3 * per_job
    assert get_registry().counter("milp.solves").value >= per_job
