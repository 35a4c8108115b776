"""Tests for the claims checker, mapping serialization, and report-all."""

import numpy as np
import pytest

from repro.errors import MappingError
from repro.experiments.claims import ClaimResult, check_claims
from repro.experiments.report import Table
from repro.experiments.runner import ComparisonResult
from repro.experiments.config import get_scale
from repro.mapping import Mapping, load_mapping, save_mapping
from repro.topology import torus


def synthetic_comparison(rahtm_comm=0.8, rahtm_exec=0.9, perm_cg=1.4):
    """Hand-built ComparisonResult with controllable shapes."""
    scale = get_scale("tiny")
    exec_t = Table("exec")
    comm_t = Table("comm")
    cols = ["DEF", "P1", "P2", "RAHTM"]
    for b in ("BT", "SP", "CG"):
        for c in cols:
            base = 10.0
            if c == "RAHTM":
                e, m = base * rahtm_exec, base * rahtm_comm
            elif c == "P1":
                e = base * (perm_cg if b == "CG" else 1.02)
                m = e
            elif c == "P2":
                e = base * (1.1 if b == "BT" else 0.99)
                m = e
            else:
                e = m = base
            exec_t.set(b, c, e)
            comm_t.set(b, c, m)
    return ComparisonResult(
        scale=scale, exec_seconds=exec_t, comm_seconds=comm_t,
        mcl=Table("mcl"), hop_bytes=Table("hb"),
        mapping_seconds=Table("map"),
    )


def test_claims_all_pass_on_paper_shape():
    result = synthetic_comparison()
    claims = check_claims(result)
    assert len(claims) == 6
    assert all(c.holds for c in claims), "\n".join(map(str, claims))


def test_claims_fail_when_rahtm_regresses():
    result = synthetic_comparison(rahtm_comm=1.1, rahtm_exec=1.05)
    claims = check_claims(result)
    holds = {c.claim: c.holds for c in claims}
    assert not holds["RAHTM improves mean execution time (paper -9%)"]
    assert not any(
        h for c, h in holds.items() if "communication time" in c
    )


def test_per_benchmark_claim_fails_on_a_tie():
    result = synthetic_comparison()
    result.comm_seconds.set("SP", "RAHTM", 10.0)  # exactly the default's
    holds = {c.claim: c.holds for c in check_claims(result)}
    assert not holds["RAHTM improves communication on every benchmark"]
    assert holds[
        "RAHTM improves mean communication time substantially (paper -20%)"
    ]


def test_claims_fail_when_permutations_uniformly_help():
    result = synthetic_comparison(perm_cg=0.9)
    claims = check_claims(result)
    nonuni = [c for c in claims if "non-uniform" in c.claim][0]
    # P1 now helps CG and barely hurts others (1.02) -> still hurts some
    assert nonuni.holds  # BT/SP at 1.02 still regress under P1
    assert "PASS" in str(nonuni)


def test_claim_result_str():
    c = ClaimResult("x", False, "why")
    assert str(c) == "[FAIL] x — why"


# -- serialization ---------------------------------------------------------------
def test_save_load_mapping_roundtrip(tmp_path):
    topo = torus(4, 4)
    mapping = Mapping(topo, np.random.default_rng(0).permutation(16))
    path = tmp_path / "m.npz"
    save_mapping(path, mapping)
    loaded = load_mapping(path)
    assert np.array_equal(loaded.task_to_node, mapping.task_to_node)
    assert loaded.topology.shape == (4, 4)
    # with explicit topology
    loaded2 = load_mapping(path, topo)
    assert loaded2.topology is topo


def test_load_mapping_shape_mismatch(tmp_path):
    topo = torus(4, 4)
    mapping = Mapping.identity(topo)
    path = tmp_path / "m.npz"
    save_mapping(path, mapping)
    with pytest.raises(MappingError):
        load_mapping(path, torus(2, 8))


def test_save_mapping_requires_shape(tmp_path):
    from repro.extensions import FatTree

    ft = FatTree(2, 2)
    mapping = Mapping(ft, np.arange(4))
    with pytest.raises(MappingError):
        save_mapping(tmp_path / "m.npz", mapping)


# -- report generator ---------------------------------------------------------------
def test_report_all_light_sections(tmp_path):
    from repro.experiments.report_all import generate_report, main

    report = generate_report("tiny", include=("fig1", "fig234"))
    assert "# RAHTM reproduction report" in report
    assert "Figure 1" in report and "Figures 2-4" in report
    out = tmp_path / "r.md"
    rc = main(["--scale", "tiny", "--sections", "fig1", "--out", str(out)])
    assert rc == 0
    assert "Figure 1" in out.read_text()