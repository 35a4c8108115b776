"""Netview tests: hotspot reports, artifacts, diffs, CLI explain."""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.errors import ReproError
from repro.mapping import Mapping
from repro.metrics import evaluate_mapping
from repro.observability import (
    build_netview,
    diff_mappings,
    gini,
    load_stats,
    netview_summary,
)
from repro.routing import MinimalAdaptiveRouter
from repro.topology import CartesianTopology, torus
from repro.workloads import halo2d, random_uniform


@pytest.fixture
def setup44():
    t = torus(4, 4)
    return t, MinimalAdaptiveRouter(t), Mapping.identity(t), halo2d(4, 4, 3.0)


# -- stats ----------------------------------------------------------------------------
def test_gini_uniform_is_zero():
    assert gini(np.full(10, 7.0)) == pytest.approx(0.0, abs=1e-12)


def test_gini_concentrated_approaches_one():
    x = np.zeros(1000)
    x[0] = 5.0
    assert gini(x) > 0.99


def test_load_stats_empty():
    s = load_stats(np.zeros(8), np.zeros(8, dtype=bool))
    assert s.mcl == 0.0 and s.num_channels == 0


def test_load_stats_basic(setup44):
    t, r, m, g = setup44
    loads = r.link_loads(*m.network_flows(g))
    s = load_stats(loads, t.channel_valid)
    assert s.mcl == pytest.approx(3.0)
    assert s.num_channels == t.num_channels
    assert s.imbalance == pytest.approx(s.mcl / s.mean)
    assert s.p50 <= s.p95 <= s.p99 <= s.mcl


# -- NetView --------------------------------------------------------------------------
def test_build_netview_mcl_matches_report(setup44):
    t, r, m, g = setup44
    view = build_netview(r, m, g)
    report = evaluate_mapping(r, m, g)
    assert view.mcl == pytest.approx(report.mcl)
    assert view.hotspots[0].load == pytest.approx(report.mcl)
    assert view.max_residual <= 1e-9 * max(report.mcl, 1.0)


def test_netview_hotspot_flows_sum_to_load(setup44):
    t, r, m, g = setup44
    view = build_netview(r, m, g, flows_per_link=100)
    for h in view.hotspots:
        total = sum(f.contribution for f in h.flows)
        assert total == pytest.approx(h.load, rel=1e-9)
        for f in h.flows:
            assert 0.0 < f.share <= 1.0 + 1e-12


def test_netview_task_pairs_name_real_edges(setup44):
    t, r, m, g = setup44
    view = build_netview(r, m, g)
    top_flow = view.hotspots[0].flows[0]
    assert top_flow.task_pairs, "identity mapping: node flow = task flow"
    for src_task, dst_task, vol in top_flow.task_pairs:
        assert m.task_to_node[src_task] == top_flow.src_node
        assert m.task_to_node[dst_task] == top_flow.dst_node
        assert vol > 0


def test_netview_saturation_agrees_on_balanced_halo(setup44):
    t, r, m, g = setup44
    view = build_netview(r, m, g, saturation=True)
    sat = view.saturation
    assert sat is not None
    assert sat.agrees
    assert sat.bottleneck_utilization == pytest.approx(1.0, rel=1e-6)
    assert sat.mcl_seconds == pytest.approx(view.mcl / sat.link_bandwidth)


def test_netview_json_roundtrip(tmp_path, setup44):
    t, r, m, g = setup44
    view = build_netview(r, m, g, saturation=True)
    path = view.write_json(tmp_path / "view.json")
    doc = json.loads(path.read_text())
    assert doc["kind"] == "netview" and doc["schema"] == 1
    assert doc["mcl"] == pytest.approx(view.mcl)
    assert doc["stats"] == asdict(view.stats)
    assert [h["link"]["slot"] for h in doc["hotspots"]] == \
        [h.link.slot for h in view.hotspots]
    assert [h["load"] for h in doc["hotspots"]] == \
        [h.load for h in view.hotspots]
    assert [[f["contribution"] for f in h["flows"]]
            for h in doc["hotspots"]] == \
        [[f.contribution for f in h.flows] for h in view.hotspots]
    sat = doc["saturation"]
    assert sat["bottleneck"]["slot"] == view.saturation.bottleneck.slot
    assert sat["bottleneck_utilization"] == \
        view.saturation.bottleneck_utilization
    assert sat["agrees"] == view.saturation.agrees


def test_netview_summary_is_compact(setup44):
    t, r, m, g = setup44
    summary = netview_summary(r, m, g)
    assert summary["kind"] == "netview_summary"
    assert summary["mcl"] == pytest.approx(3.0)
    assert len(summary["top"]) <= 3
    assert summary["top"][0]["load"] == pytest.approx(summary["mcl"])
    # must stay payload-sized: a few hundred bytes, not a full netview
    assert len(json.dumps(summary)) < 2000


def test_netview_idle_network(setup44):
    t, r, m, _ = setup44
    from repro.commgraph import CommGraph

    empty = CommGraph.from_edges(t.num_nodes, [(0, 0, 5.0)])
    view = build_netview(r, m, empty)
    assert view.mcl == 0.0
    assert view.hotspots == []


# -- diffs ----------------------------------------------------------------------------
def test_diff_identical_mappings_is_null(setup44):
    t, r, m, g = setup44
    d = diff_mappings(r, g, m, m)
    assert d.delta_mcl == 0.0
    assert d.moved_load == 0.0
    assert d.tasks_moved == 0
    assert d.hotspots_entered == [] and d.hotspots_left == []
    assert d.top_deltas == []


def test_diff_detects_swap(setup44):
    t, r, m, g = setup44
    perm = np.arange(t.num_nodes)
    perm[[0, 5]] = perm[[5, 0]]
    m2 = Mapping(t, perm)
    d = diff_mappings(r, g, m, m2, label_a="identity", label_b="swapped")
    assert d.tasks_moved == 2
    assert {tuple(x) for x in d.moved_tasks} == {(0, 0, 5), (5, 5, 0)}
    assert d.moved_load > 0
    assert d.mcl_a == pytest.approx(3.0)
    assert d.top_deltas and "label" in d.top_deltas[0]["link"]
    assert "identity -> swapped" in d.summary_line()


def test_diff_carries_phase_seconds(setup44, tmp_path):
    t, r, m, g = setup44
    d = diff_mappings(
        r, g, m, m,
        phase_seconds_a={"phase2-milp": 1.5},
        phase_seconds_b={"phase2-milp": 0.5},
    )
    doc = json.loads(d.write_json(tmp_path / "d.json").read_text())
    assert doc["kind"] == "mapping_diff"
    assert doc["phase_seconds"]["a"]["phase2-milp"] == 1.5
    assert doc["phase_seconds"]["b"]["phase2-milp"] == 0.5


def test_diff_rejects_mismatched_mappings(setup44):
    t, r, m, g = setup44
    other = Mapping.identity(torus(2, 8))
    with pytest.raises(ReproError):
        diff_mappings(r, g, m, other)


# -- CLI ------------------------------------------------------------------------------
def test_cli_explain_bgq_artifact_top_hotspot_is_mcl(tmp_path, capsys):
    """Acceptance: `repro explain` on the BG/Q shape writes an artifact
    whose top hotspot equals the reported MCL, plus a text heatmap."""
    out = tmp_path / "explain.json"
    rc = cli_main([
        "explain", "--topology", "4x4x4x4x2", "--workload", "cg:512:C",
        "--mapper", "default", "--no-cache", "--out", str(out),
    ])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "netview:" in stdout
    assert "egress load heatmap" in stdout
    assert "channel load histogram" in stdout
    doc = json.loads(out.read_text())
    assert doc["kind"] == "netview"
    assert doc["hotspots"][0]["load"] == pytest.approx(doc["mcl"], rel=1e-9)
    t = CartesianTopology((4, 4, 4, 4, 2), wrap=True)
    r = MinimalAdaptiveRouter(t)
    from repro.workloads.registry import parse_workload

    g = parse_workload("cg:512:C")
    report = evaluate_mapping(r, Mapping.identity(t), g)
    assert doc["mcl"] == pytest.approx(report.mcl, rel=1e-9)


def test_cli_explain_saved_mapping(tmp_path, capsys):
    mapping_file = tmp_path / "m.npz"
    rc = cli_main([
        "map", "--topology", "4x4", "--workload", "halo2d:4x4",
        "--mapper", "default", "--no-cache", "--out", str(mapping_file),
    ])
    assert rc == 0
    rc = cli_main([
        "explain", "--topology", "4x4", "--workload", "halo2d:4x4",
        "--mapping", str(mapping_file), "--saturation",
    ])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "mapping file" in stdout
    assert "saturation" in stdout


def test_cli_map_explain_flag(tmp_path, capsys):
    out = tmp_path / "map_explain.json"
    rc = cli_main([
        "map", "--topology", "4x4", "--workload", "halo2d:4x4",
        "--mapper", "default", "--no-cache", "--explain", str(out),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "netview"
    assert "explain artifact written" in capsys.readouterr().out


def test_cli_compare_explain_flag_writes_netviews_and_diffs(tmp_path, capsys):
    out = tmp_path / "cmp_explain.json"
    rc = cli_main([
        "compare", "--topology", "4x4", "--workload", "halo2d:4x4",
        "--mappers", "default,hilbert", "--no-cache",
        "--explain", str(out),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "compare_explain"
    assert len(doc["netviews"]) == 2
    (diff,) = doc["diffs"]
    labels = list(doc["netviews"])
    assert diff["label_a"] == labels[0] and diff["label_b"] == labels[1]
    assert "MCL" in capsys.readouterr().out
