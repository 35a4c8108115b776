"""Chaos suite: fault injection x executors, crash recovery, resume.

Every test arms :mod:`repro.resilience.faultinject` points (via the
environment, which pool workers inherit) and asserts the pipeline still
produces a valid bijective mapping with the right degradation telemetry.
"""

import time
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.errors import JobTimeoutError
from repro.resilience import INJECTION_POINTS
from repro.service import (
    BatchExecutor,
    ExecutorConfig,
    JobRuntime,
    MapperConfig,
    MappingEngine,
    MappingJob,
    TopologySpec,
    WorkloadSpec,
    execute_mapping_job,
)

FAST_PARAMS = dict(beam_width=4, max_orientations=4, order_mode="identity",
                   milp_time_limit=5.0)


def _job(seed: int) -> MappingJob:
    return MappingJob(
        topology=TopologySpec((4, 4)),
        workload=WorkloadSpec("random:16:60", seed=seed),
        mapper=MapperConfig.make("rahtm", **FAST_PARAMS),
    )


def _arm(monkeypatch, tmp_path, faults: str) -> None:
    """Arm env faults with a per-test hits dir (shared across workers)."""
    monkeypatch.setenv("REPRO_FAULTS", faults)
    monkeypatch.setenv("REPRO_FAULT_HITS_DIR", str(tmp_path / "hits"))


# -- the chaos matrix -----------------------------------------------------------------
@pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "pooled"])
@pytest.mark.parametrize("point", INJECTION_POINTS)
def test_chaos_matrix_always_yields_valid_mapping(point, jobs, tmp_path,
                                                  monkeypatch):
    """Each injection point, under each executor, never sinks the batch."""
    faults = "solver-slow:2:0.05" if point == "solver-slow" else point
    _arm(monkeypatch, tmp_path, faults)
    runtime = JobRuntime(deadline_seconds=60.0,
                         checkpoint_dir=str(tmp_path / "ck"))
    engine = MappingEngine(cache_dir=str(tmp_path / "cache"),
                           runtime=runtime,
                           executor_config=ExecutorConfig(jobs=jobs))
    outcomes = engine.run([_job(0), _job(1)])
    assert all(o.ok for o in outcomes), [o.error for o in outcomes]
    for o in outcomes:
        assert o.result.mapping.is_permutation()
    if point == "solver-fail":
        # Exactly one MILP was failed (max_hits=1): one job degraded to
        # the greedy rung and reported it.
        degraded = [o for o in outcomes if o.result.degraded]
        assert len(degraded) == 1
        events = degraded[0].result.degradation
        assert any(e["action"] == "milp->greedy"
                   and e["reason"] == "solver-error" for e in events)


def test_worker_crash_rebuilds_pool_once(tmp_path, monkeypatch):
    _arm(monkeypatch, tmp_path, "worker-crash:1")
    engine = MappingEngine(executor_config=ExecutorConfig(jobs=2))
    outcomes = engine.run([_job(0), _job(1)])
    assert all(o.ok for o in outcomes), [o.error for o in outcomes]
    assert engine.executor.pool_rebuilds == 1
    # The crashed attempt was retried, not silently swallowed.
    assert any(o.attempts > 1 for o in outcomes)


def test_worker_crash_in_serial_mode_is_retried(tmp_path, monkeypatch):
    _arm(monkeypatch, tmp_path, "worker-crash:1")
    engine = MappingEngine()
    outcome = engine.run([_job(0)])[0]
    assert outcome.ok, outcome.error
    assert outcome.attempts == 2


def test_store_corrupt_artifact_self_heals(tmp_path, monkeypatch):
    _arm(monkeypatch, tmp_path, "store-corrupt:1")
    cache = str(tmp_path / "cache")
    first = MappingEngine(cache_dir=cache)
    assert first.run([_job(0)])[0].ok
    # The cached artifact was corrupted by the fault; a second engine
    # treats it as a miss, quarantines it with a report, recomputes and
    # re-caches.
    second = MappingEngine(cache_dir=cache)
    outcome = second.run([_job(0)])[0]
    assert outcome.ok
    assert not outcome.result.from_cache
    assert second.store.stats.quarantined >= 1
    assert second.stats.quarantined >= 1  # surfaced at engine level too
    assert second.store.list_quarantine()
    third = MappingEngine(cache_dir=cache)
    assert third.run([_job(0)])[0].result.from_cache


# -- executor mechanics ---------------------------------------------------------------
def _chaos_item_fn(item):
    kind, arg = item
    if kind == "sleep":
        time.sleep(arg)
        return "slept"
    if kind == "fail-once":
        marker = Path(arg)
        if not marker.exists():
            marker.write_text("attempted")
            raise RuntimeError("transient failure")
        return "recovered"
    if kind == "hang":
        time.sleep(arg)
        return "hung"
    return "ok"


def test_retry_backoff_does_not_block_harvesting(tmp_path, monkeypatch):
    """A job awaiting its retry due-time must not delay other completions."""
    # Sleep the full-jitter cap: the test reasons about the exact 1.5s
    # backoff length.
    monkeypatch.setattr(
        "repro.service.executor.full_jitter_delay",
        lambda base, attempt, token: base * 2 ** (attempt - 1),
    )
    executor = BatchExecutor(ExecutorConfig(jobs=2, retries=1, backoff=1.5))
    items = [
        ("fail-once", str(tmp_path / "marker")),
        ("sleep", 0.05),
        ("ok", None),
        ("ok", None),
    ]
    t0 = time.perf_counter()
    outcomes = executor.run(_chaos_item_fn, items)
    total = time.perf_counter() - t0
    assert all(o.ok for o in outcomes), [o.error for o in outcomes]
    assert outcomes[0].attempts == 2
    # The batch waited out the 1.5s backoff...
    assert total >= 1.4
    # ...but the healthy jobs were harvested long before it (the old
    # implementation slept the backoff inside the dispatch loop, which
    # inflated every other job's wall clock past the backoff).
    for o in outcomes[1:]:
        assert o.wall_seconds < 1.0, o

    # Second batch: the marker persists, so no retry is needed.
    outcomes = executor.run(_chaos_item_fn, items)
    assert outcomes[0].attempts == 1


def test_pool_timeout_still_enforced(tmp_path):
    executor = BatchExecutor(ExecutorConfig(jobs=2, timeout=0.3, retries=1))
    outcomes = executor.run(
        _chaos_item_fn, [("hang", 5.0), ("ok", None)]
    )
    assert outcomes[0].timed_out and not outcomes[0].ok
    assert outcomes[0].attempts == 1  # timeouts never retry
    assert JobTimeoutError.__name__ in outcomes[0].error
    assert outcomes[1].ok


# -- resume through the job layer -----------------------------------------------------
def test_killed_job_resumes_with_zero_repeat_milp_solves(tmp_path,
                                                         monkeypatch):
    import repro.core.rahtm as rahtm_mod

    job = _job(0)
    runtime = JobRuntime(checkpoint_dir=str(tmp_path / "ck"))

    real_merge = rahtm_mod.hierarchical_merge

    def exploding_merge(*args, **kwargs):
        raise RuntimeError("simulated worker kill")

    monkeypatch.setattr(rahtm_mod, "hierarchical_merge", exploding_merge)
    with pytest.raises(RuntimeError, match="simulated worker kill"):
        execute_mapping_job(job, runtime=runtime)

    monkeypatch.setattr(rahtm_mod, "hierarchical_merge", real_merge)
    payload = execute_mapping_job(job, runtime=runtime)
    assert payload["resilience"]["milp_solves"] == 0
    assert payload["resilience"]["checkpoint"]["loaded"] == ["pin"]
    assert not payload["degraded"]

    # Uninterrupted run of the same job for comparison: it does solve.
    fresh = execute_mapping_job(job, runtime=JobRuntime(
        checkpoint_dir=str(tmp_path / "ck2")))
    assert fresh["resilience"]["milp_solves"] > 0


def test_degraded_results_are_not_cached(tmp_path):
    runtime = JobRuntime(deadline_seconds=1e-6)  # expires immediately
    engine = MappingEngine(cache_dir=str(tmp_path / "cache"),
                           runtime=runtime)
    outcome = engine.run([_job(0)])[0]
    assert outcome.ok
    assert outcome.result.degraded
    assert engine.stats.degraded == 1
    assert engine.store.stats.writes == 0
    # A later unconstrained engine recomputes at full quality and caches.
    full = MappingEngine(cache_dir=str(tmp_path / "cache"))
    outcome = full.run([_job(0)])[0]
    assert not outcome.result.degraded
    assert full.store.stats.writes == 1


# -- CLI acceptance -------------------------------------------------------------------
def test_cli_deadline_on_bgq_shape_exits_zero(tmp_path, monkeypatch, capsys):
    """`repro map --deadline N` on 4x4x4x4x2 under constant solver faults
    exits 0 with a valid mapping and a reported degradation path."""
    _arm(monkeypatch, tmp_path, "solver-fail:*")
    rc = cli_main([
        "map", "--topology", "4x4x4x4x2", "--workload", "random:512:800",
        "--deadline", "5", "--beam-width", "4", "--max-orientations", "4",
        "--no-cache",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "degraded" in out
    assert "milp->greedy (solver-error)" in out


def test_cli_resume_needs_a_checkpoint_location(capsys):
    rc = cli_main([
        "map", "--topology", "4x4", "--workload", "random:16:60",
        "--resume", "--no-cache",
    ])
    assert rc == 2
    assert "--resume needs" in capsys.readouterr().err


def test_cli_deadline_degrade_reports_and_exits_zero(tmp_path, capsys):
    rc = cli_main([
        "map", "--topology", "4x4", "--workload", "random:16:60",
        "--deadline", "0.000001", "--cache-dir", str(tmp_path / "cache"),
        "--resume",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "milp->static (budget-exhausted)" in out


def test_cli_artifacts_flush_despite_injected_fault(tmp_path, monkeypatch,
                                                    capsys):
    """`--explain/--trace/--metrics` all emit artifacts when injected
    solver faults force the run down the degradation ladder."""
    import json

    _arm(monkeypatch, tmp_path, "solver-fail:*")
    explain = tmp_path / "explain.json"
    trace = tmp_path / "trace.jsonl"
    rc = cli_main([
        "map", "--topology", "4x4", "--workload", "random:16:60",
        "--deadline", "5", "--no-cache",
        "--explain", str(explain), "--trace", str(trace), "--metrics",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "degraded" in out
    doc = json.loads(explain.read_text())
    assert doc["kind"] == "netview"
    assert doc["hotspots"][0]["load"] == doc["mcl"]
    assert trace.exists() and (tmp_path / "trace.chrome.json").exists()
    rows = [json.loads(line) for line in trace.read_text().splitlines()]
    assert rows[0]["trace_schema"] == 1
    assert any(r.get("name") == "job.map" for r in rows[1:])
    assert "metric" in out  # the registry report table flushed too


def test_cli_trace_and_metrics_flush_when_run_fails(tmp_path, monkeypatch,
                                                    capsys):
    """A run that *fails* (its job timeout expires) still writes
    trace/metrics: the flush lives in a finally block, not on the success
    path."""
    trace = tmp_path / "trace.jsonl"
    rc = cli_main([
        "map", "--topology", "4x4", "--workload", "random:16:60",
        "--job-timeout", "0.000001", "--no-cache",
        "--trace", str(trace), "--metrics",
    ])
    captured = capsys.readouterr()
    assert rc == 2
    assert "JobTimeoutError" in captured.err
    assert trace.exists()
    assert "metric" in captured.out
