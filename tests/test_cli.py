"""CLI tests (in-process main() invocations)."""

import numpy as np
import pytest

from repro.cli import build_mapper, main, parse_topology, parse_workload
from repro.errors import ConfigError


def test_parse_topology():
    t = parse_topology("4x4x2")
    assert t.shape == (4, 4, 2)
    assert all(t.wrap)
    m = parse_topology("3x3", mesh=True)
    assert not any(m.wrap)
    with pytest.raises(ConfigError):
        parse_topology("4xfour")


@pytest.mark.parametrize("spec,tasks", [
    ("cg:64:W", 64),
    ("bt:16:A", 16),
    ("sp:16", 16),
    ("halo2d:4x4:2.5", 16),
    ("halo3d:2x2x2", 8),
    ("random:10:30", 10),
    ("butterfly:8", 8),
    ("transpose:3", 9),
    ("ring:6", 6),
    ("bisection:8", 8),
    ("fft:3x4:2", 12),
    ("wavefront:3x3", 9),
    ("stencil27:2x2x2", 8),
    ("collective:allgather-ring:8", 8),
    ("amr:8", 8),
])
def test_parse_workload_specs(spec, tasks):
    g = parse_workload(spec)
    assert g.num_tasks == tasks
    assert g.num_edges > 0


def test_parse_workload_errors():
    with pytest.raises(ConfigError):
        parse_workload("warp:10")
    with pytest.raises(ConfigError):
        parse_workload("cg:notanumber")


def test_parse_workload_file_roundtrip(tmp_path, capsys):
    out = tmp_path / "w.npz"
    assert main(["workload", "--spec", "halo2d:4x4", "--out", str(out)]) == 0
    g = parse_workload(str(out))
    assert g.num_tasks == 16


def test_cli_map_and_evaluate(tmp_path, capsys):
    out = tmp_path / "mapping.npz"
    rc = main([
        "map", "--topology", "4x4", "--workload", "halo2d:4x4:3",
        "--mapper", "dimorder:ABT", "--out", str(out),
    ])
    assert rc == 0
    text = capsys.readouterr().out
    assert "MCL" in text and "saved" in text
    rc = main([
        "evaluate", "--topology", "4x4", "--workload", "halo2d:4x4:3",
        "--mapping", str(out),
    ])
    assert rc == 0
    assert "MCL" in capsys.readouterr().out


@pytest.mark.parametrize("flag", [
    ["--deadline", "5"], ["--beam-width", "4"], ["--jobs", "2"],
    ["--no-cache"], ["--trace", "t.jsonl"], ["--metrics"],
], ids=lambda flag: flag[0].lstrip("-"))
def test_cli_evaluate_refuses_flags_it_would_ignore(capsys, flag):
    """``evaluate`` scores a saved mapping: it takes the target and the
    mapping, not the mapper tunables or the engine options."""
    rc = main(["evaluate", "--topology", "4x4", "--workload", "ring:16",
               "--mapping", "m.npz", *flag])
    assert rc == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_map_rahtm_small(capsys):
    rc = main([
        "map", "--topology", "4x4", "--workload", "halo2d:4x4:3",
        "--mapper", "rahtm", "--beam-width", "4", "--max-orientations", "4",
        "--milp-time-limit", "10",
    ])
    assert rc == 0
    assert "RAHTM" in capsys.readouterr().out


def test_cli_map_default_searches_every_cube_orientation(capsys):
    """The default orientation cap covers all 48 orientations of a 2x2x2
    block, so the answer on 4x4x4 does not hang on which tied phase-2
    optimum a 24-orientation sample happens to reach."""
    rc = main(["map", "--topology", "4x4x4", "--workload", "bt:256:C",
               "--no-cache"])
    assert rc == 0
    assert "MCL=1.28e+06 " in capsys.readouterr().out


def test_cli_compare(capsys):
    rc = main([
        "compare", "--topology", "4x4", "--workload", "ring:16",
        "--mappers", "default,random", "--anneal-iters", "100",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "dimorder-ABT" in out and "random" in out


def test_cli_experiment_fig1(capsys):
    rc = main(["experiment", "fig1"])
    assert rc == 0
    assert "Figure 1" in capsys.readouterr().out


def test_cli_experiment_unknown(capsys):
    rc = main(["experiment", "fig99"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_cli_mapping_topology_mismatch(tmp_path, capsys):
    out = tmp_path / "m.npz"
    main(["map", "--topology", "4x4", "--workload", "ring:16",
          "--mapper", "random", "--out", str(out)])
    rc = main(["evaluate", "--topology", "2x8", "--workload", "ring:16",
               "--mapping", str(out)])
    assert rc == 2


def test_build_mapper_specs():
    topo = parse_topology("4x4")

    class Args:
        beam_width = 4
        max_orientations = 4
        milp_time_limit = 5.0
        milp_gap = 0.05
        reposition = False
        refine = 0
        seed = 0
        anneal_iters = 10

    for spec in ("rahtm", "default", "dimorder:TAB", "hilbert", "rubik",
                 "rcb", "anneal-hopbytes", "anneal-mcl", "random"):
        mapper = build_mapper(spec, topo, Args())
        assert hasattr(mapper, "map")
    with pytest.raises(ConfigError):
        build_mapper("quantum", topo, Args())
