"""Unit tests for repro.resilience: budgets, degradation, checkpoints."""

import json

import numpy as np
import pytest

from repro.core import RAHTMConfig, RAHTMMapper
from repro.errors import (
    CheckpointError,
    ConfigError,
    DeadlineExceededError,
    SolverError,
)
from repro.resilience import (
    Budget,
    DegradationLog,
    FaultPlan,
    FaultSpec,
    MapperCheckpoint,
    injected_faults,
)
from repro.resilience.budget import MIN_SOLVER_SLICE
from repro.service import JobRuntime
from repro.service.store import ResultStore
from repro.topology import torus
from repro.workloads import random_uniform

FAST = RAHTMConfig(beam_width=4, max_orientations=4, milp_time_limit=10.0,
                   order_mode="identity", seed=0)


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


# -- Budget ---------------------------------------------------------------------------
class TestBudget:
    def test_unlimited_never_exhausts(self):
        b = Budget()
        assert b.remaining() == float("inf")
        assert not b.exhausted()
        assert not b.enforce("anywhere")

    def test_wall_clock_depletes(self):
        clock = FakeClock()
        b = Budget(wall_seconds=10.0, clock=clock)
        assert b.remaining() == pytest.approx(10.0)
        clock.advance(4.0)
        assert b.elapsed() == pytest.approx(4.0)
        assert b.remaining() == pytest.approx(6.0)
        clock.advance(7.0)
        assert b.exhausted()
        assert b.enforce("phase2") is True

    def test_fail_policy_raises(self):
        clock = FakeClock()
        b = Budget(wall_seconds=1.0, on_exhausted="fail", clock=clock)
        assert not b.enforce("phase2")
        clock.advance(2.0)
        with pytest.raises(DeadlineExceededError, match="phase2"):
            b.enforce("phase2")

    def test_solver_slice_divides_remaining(self):
        clock = FakeClock()
        b = Budget(wall_seconds=8.0, clock=clock)
        assert b.solver_slice(100.0, parts=4) == pytest.approx(2.0)
        # The configured default caps the share.
        assert b.solver_slice(1.0, parts=4) == pytest.approx(1.0)
        # No default: the share itself is the limit.
        assert b.solver_slice(None, parts=2) == pytest.approx(4.0)

    def test_solver_slice_floors_at_minimum(self):
        clock = FakeClock()
        b = Budget(wall_seconds=1.0, clock=clock)
        clock.advance(0.999)
        assert b.solver_slice(60.0, parts=8) >= MIN_SOLVER_SLICE

    def test_solver_slice_unlimited_passthrough(self):
        b = Budget()
        assert b.solver_slice(60.0, parts=3) == 60.0
        assert b.solver_slice(None, parts=3) is None

    def test_snapshot_is_json_safe(self):
        b = Budget(wall_seconds=5.0)
        snap = b.snapshot()
        json.dumps(snap)
        assert snap["wall_seconds"] == 5.0
        assert snap["on_exhausted"] == "degrade"

    def test_validation(self):
        with pytest.raises(ConfigError):
            Budget(wall_seconds=0)
        with pytest.raises(ConfigError):
            Budget(on_exhausted="panic")


# -- DegradationLog -------------------------------------------------------------------
class TestDegradationLog:
    def test_record_and_export(self):
        log = DegradationLog()
        assert not log
        log.record("phase2", "milp->greedy", "solver-error", level=3)
        log.record("phase3", "merge->first-fit", "budget-exhausted")
        assert len(log) == 2
        dicts = log.as_dicts()
        json.dumps(dicts)
        assert dicts[0]["phase"] == "phase2"
        assert dicts[0]["detail"]["level"] == 3
        assert "milp->greedy" in log.summary()


# -- RAHTMConfig validation -----------------------------------------------------------
class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"beam_width": 0},
        {"max_orientations": 0},
        {"order_mode": "chaotic"},
        {"max_orientations": -1},
        {"milp_time_limit": 0.0},
        {"milp_time_limit": -5.0},
        {"milp_rel_gap": 0.0},
        {"routing": "teleport"},
        {"refine_iterations": -1},
    ])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            RAHTMConfig(**kwargs)

    def test_none_sentinels_allowed(self):
        cfg = RAHTMConfig(max_orientations=None, milp_time_limit=None,
                          milp_rel_gap=None)
        assert cfg.milp_time_limit is None


# -- degradation ladder through the mapper --------------------------------------------
class TestDegradationLadder:
    def test_expired_budget_still_maps(self):
        clock = FakeClock()
        budget = Budget(wall_seconds=1.0, clock=clock)
        clock.advance(2.0)
        mapper = RAHTMMapper(torus(4, 4), FAST)
        mapping = mapper.map(random_uniform(16, 60, seed=0), budget=budget)
        assert mapping.is_permutation()
        actions = {e["action"] for e in mapper.stats["degradation"]}
        assert "milp->static" in actions
        assert "merge->first-fit" in actions
        # No MILP ran: every phase-2 subproblem took the static rung.
        assert all(s[0].startswith("degraded") for s in mapper.stats["milp"])

    def test_expired_budget_fail_policy_raises(self):
        clock = FakeClock()
        budget = Budget(wall_seconds=1.0, on_exhausted="fail", clock=clock)
        clock.advance(2.0)
        mapper = RAHTMMapper(torus(4, 4), FAST)
        with pytest.raises(DeadlineExceededError):
            mapper.map(random_uniform(16, 60, seed=0), budget=budget)

    def test_solver_fail_fault_degrades_to_greedy(self):
        mapper = RAHTMMapper(torus(4, 4), FAST)
        with injected_faults(FaultSpec("solver-fail", max_hits=1)):
            mapping = mapper.map(random_uniform(16, 60, seed=0))
        assert mapping.is_permutation()
        assert any(e["action"] == "milp->greedy"
                   and e["reason"] == "solver-error"
                   for e in mapper.stats["degradation"])

    def test_partitioned_topology_degrades_everywhere(self):
        # The mirror fold has no rung of its own: the half map degrades.
        clock = FakeClock()
        budget = Budget(wall_seconds=1.0, clock=clock)
        clock.advance(2.0)
        mapper = RAHTMMapper(torus(4, 4, 2), FAST)
        mapping = mapper.map(random_uniform(32, 120, seed=1), budget=budget)
        assert mapping.is_permutation()
        actions = {e["action"] for e in mapper.stats["degradation"]}
        assert {"milp->static", "merge->first-fit"} <= actions

    def test_generous_budget_changes_nothing(self):
        g = random_uniform(16, 60, seed=0)
        plain = RAHTMMapper(torus(4, 4), FAST).map(g)
        budgeted_mapper = RAHTMMapper(torus(4, 4), FAST)
        budgeted = budgeted_mapper.map(
            g, budget=Budget(wall_seconds=3600.0)
        )
        assert np.array_equal(plain.task_to_node, budgeted.task_to_node)
        assert budgeted_mapper.stats["degradation"] == []


# -- checkpoint / resume --------------------------------------------------------------
class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path)
        ck = MapperCheckpoint(store, job_key="job1")
        ck.save_assignment("pin", np.arange(8), level=2)
        loaded = MapperCheckpoint(store, job_key="job1")
        arr = loaded.load_assignment("pin", expect_len=8)
        assert np.array_equal(arr, np.arange(8))
        assert loaded.stats()["loaded"] == ["pin"]

    def test_keys_do_not_leak_between_jobs(self, tmp_path):
        store = ResultStore(tmp_path)
        MapperCheckpoint(store, job_key="jobA").save_assignment(
            "pin", np.arange(4))
        other = MapperCheckpoint(store, job_key="jobB")
        assert other.load_assignment("pin") is None

    def test_resume_disabled_never_loads(self, tmp_path):
        store = ResultStore(tmp_path)
        MapperCheckpoint(store, job_key="j").save_assignment(
            "pin", np.arange(4))
        cold = MapperCheckpoint(store, job_key="j", resume=False)
        assert cold.load_assignment("pin") is None

    def test_wrong_length_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        MapperCheckpoint(store, job_key="j").save_assignment(
            "pin", np.arange(4))
        ck = MapperCheckpoint(store, job_key="j")
        assert ck.load_assignment("pin", expect_len=16) is None

    def test_clear_evicts_all_stages(self, tmp_path):
        store = ResultStore(tmp_path)
        ck = MapperCheckpoint(store, job_key="j")
        ck.save_assignment("pin", np.arange(4))
        ck.save_assignment("merge", np.arange(4))
        assert ck.clear() == 2
        assert MapperCheckpoint(store, job_key="j").load("pin") is None

    def test_empty_job_key_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            MapperCheckpoint(ResultStore(tmp_path), job_key="")

    def test_torn_write_recovers_on_resume(self, tmp_path):
        store = ResultStore(tmp_path)
        ck = MapperCheckpoint(store, job_key="j")
        with injected_faults(FaultSpec("checkpoint-torn-write", max_hits=1)):
            ck.save_assignment("pin", np.arange(8))
        # The artifact exists but is truncated JSON.
        assert store.path_for(ck.key_for("pin")).exists()
        fresh = MapperCheckpoint(store, job_key="j")
        assert fresh.load_assignment("pin") is None
        # Torn checkpoints are quarantined (with a report), not dropped.
        assert store.stats.quarantined >= 1
        # A clean rewrite then round-trips.
        fresh.save_assignment("pin", np.arange(8))
        assert np.array_equal(
            MapperCheckpoint(store, job_key="j").load_assignment("pin"),
            np.arange(8),
        )


class TestMapperResume:
    def test_killed_run_resumes_with_zero_milp_solves(self, tmp_path,
                                                      monkeypatch):
        g = random_uniform(16, 60, seed=0)
        store = ResultStore(tmp_path)

        # First run dies after phase 2 checkpointed (merge explodes).
        import repro.core.rahtm as rahtm_mod

        real_merge = rahtm_mod.hierarchical_merge

        def exploding_merge(*args, **kwargs):
            raise RuntimeError("simulated kill")

        monkeypatch.setattr(rahtm_mod, "hierarchical_merge", exploding_merge)
        mapper = RAHTMMapper(torus(4, 4), FAST)
        ck = MapperCheckpoint(store, job_key="resume-test")
        with pytest.raises(RuntimeError, match="simulated kill"):
            mapper.map(g, checkpoint=ck)
        assert ck.stats()["saved"] == ["pin"]
        assert len(mapper.stats["milp"]) > 0  # the pin really solved MILPs

        # Second run resumes: phase 2 is skipped entirely.
        monkeypatch.setattr(rahtm_mod, "hierarchical_merge", real_merge)
        resumed = RAHTMMapper(torus(4, 4), FAST)
        ck2 = MapperCheckpoint(store, job_key="resume-test")
        mapping = resumed.map(g, checkpoint=ck2)
        assert mapping.is_permutation()
        assert "milp" not in resumed.stats  # zero repeat MILP solves
        assert resumed.stats["checkpoint"]["loaded"] == ["pin"]

    def test_resumed_result_matches_uninterrupted(self, tmp_path):
        g = random_uniform(16, 60, seed=0)
        plain = RAHTMMapper(torus(4, 4), FAST).map(g)

        store = ResultStore(tmp_path)
        ck = MapperCheckpoint(store, job_key="same")
        # Seed the pin checkpoint by a full run, then force a reload path.
        first = RAHTMMapper(torus(4, 4), FAST)
        first.map(g, checkpoint=ck)  # clears its checkpoints on success
        ck2 = MapperCheckpoint(store, job_key="same")
        again = RAHTMMapper(torus(4, 4), FAST).map(g, checkpoint=ck2)
        assert np.array_equal(plain.task_to_node, again.task_to_node)

    def test_mirrored_topology_resumes_with_zero_milp_solves(self, tmp_path,
                                                             monkeypatch):
        topo = torus(4, 4, 2)
        g = random_uniform(32, 120, seed=1)
        plain = RAHTMMapper(topo, FAST).map(g)
        store = ResultStore(tmp_path)

        import repro.core.rahtm as rahtm_mod

        real_merge = rahtm_mod.hierarchical_merge

        def exploding_merge(*args, **kwargs):
            raise RuntimeError("simulated kill")

        monkeypatch.setattr(rahtm_mod, "hierarchical_merge", exploding_merge)
        ck = MapperCheckpoint(store, job_key="mirror")
        with pytest.raises(RuntimeError, match="simulated kill"):
            RAHTMMapper(topo, FAST).map(g, checkpoint=ck)
        assert ck.stats()["saved"] == ["pin"]

        monkeypatch.setattr(rahtm_mod, "hierarchical_merge", real_merge)
        resumed = RAHTMMapper(topo, FAST)
        mapping = resumed.map(
            g, checkpoint=MapperCheckpoint(store, job_key="mirror"))
        assert "milp" not in resumed.stats  # zero repeat MILP solves
        assert resumed.stats["checkpoint"]["loaded"] == ["pin"]
        assert np.array_equal(plain.task_to_node, mapping.task_to_node)
        assert len(store) == 0

    def test_success_clears_checkpoints(self, tmp_path):
        store = ResultStore(tmp_path)
        ck = MapperCheckpoint(store, job_key="done")
        mapper = RAHTMMapper(torus(4, 4), FAST)
        mapper.map(random_uniform(16, 60, seed=0), checkpoint=ck)
        assert len(store) == 0


# -- fault plan mechanics -------------------------------------------------------------
class TestFaultPlan:
    def test_max_hits_bounds_firing(self):
        plan = FaultPlan([FaultSpec("solver-fail", max_hits=2)])
        assert plan.claim("solver-fail") is not None
        assert plan.claim("solver-fail") is not None
        assert plan.claim("solver-fail") is None
        assert plan.claim("solver-slow") is None  # unarmed point

    def test_shared_hits_dir_claims_once(self, tmp_path):
        plan_a = FaultPlan([FaultSpec("solver-fail", max_hits=1)],
                           hits_dir=tmp_path)
        plan_b = FaultPlan([FaultSpec("solver-fail", max_hits=1)],
                           hits_dir=tmp_path)
        assert plan_a.claim("solver-fail") is not None
        # A different process (modelled by a second plan) sees it consumed.
        assert plan_b.claim("solver-fail") is None

    def test_from_env_parsing(self):
        plan = FaultPlan.from_env({
            "REPRO_FAULTS": "solver-fail,worker-crash:3,solver-slow:*:0.2",
            "REPRO_FAULT_SEED": "7",
        })
        assert plan.specs["solver-fail"].max_hits == 1
        assert plan.specs["worker-crash"].max_hits == 3
        assert plan.specs["solver-slow"].max_hits is None
        assert plan.specs["solver-slow"].delay == 0.2
        assert plan.seed == 7

    def test_from_env_empty(self):
        assert FaultPlan.from_env({}) is None

    def test_unknown_point_rejected(self):
        with pytest.raises(ConfigError):
            FaultSpec("disk-melt")

    def test_injected_faults_restores_previous_plan(self):
        from repro.resilience import faultinject

        with injected_faults(FaultSpec("solver-fail")):
            assert faultinject._active() is not None
            with pytest.raises(SolverError):
                faultinject.inject("solver-fail")


# -- store corruption self-heals ------------------------------------------------------
class TestStoreCorruption:
    def test_corrupt_put_is_a_miss_then_quarantined(self, tmp_path):
        store = ResultStore(tmp_path)
        with injected_faults(FaultSpec("store-corrupt", max_hits=1)):
            store.put("ab" * 32, {"schema": 1, "x": 1})
        # File exists but does not parse: get treats it as a miss and
        # moves the evidence into quarantine.
        assert store.get("ab" * 32) is None
        assert store.stats.quarantined == 1
        assert store.list_quarantine()
        # Rewritten cleanly, it round-trips.
        store.put("ab" * 32, {"schema": 1, "x": 1})
        assert store.get("ab" * 32)["x"] == 1


# -- JobRuntime -----------------------------------------------------------------------
class TestJobRuntime:
    def test_validation(self):
        with pytest.raises(ConfigError):
            JobRuntime(deadline_seconds=0)
        with pytest.raises(ConfigError):
            JobRuntime(on_deadline="explode")

    def test_inactive_by_default(self):
        rt = JobRuntime()
        assert not rt.active
        assert rt.budget() is None
        assert rt.checkpoint("key") is None

    def test_builders(self, tmp_path):
        rt = JobRuntime(deadline_seconds=5.0, on_deadline="fail",
                        checkpoint_dir=str(tmp_path))
        assert rt.active
        b = rt.budget()
        assert b.wall_seconds == 5.0
        assert b.on_exhausted == "fail"
        ck = rt.checkpoint("somejobkey")
        assert ck is not None and ck.resume

    def test_runtime_never_touches_cache_key(self):
        from repro.service import (
            MapperConfig,
            MappingJob,
            TopologySpec,
            WorkloadSpec,
        )

        job = MappingJob(
            topology=TopologySpec((4, 4)),
            workload=WorkloadSpec("random:16:60"),
            mapper=MapperConfig.make("rahtm"),
        )
        # The runtime is engine state, not job state: the job spec has no
        # slot for it, so the key cannot depend on it.
        assert "deadline" not in json.dumps(job.payload())
        assert job.cache_key() == job.cache_key()
