"""Smoke-run the lightweight example scripts (heavy ones are exercised by
their underlying experiment modules elsewhere)."""

import logging
import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, argv=()):
    old_argv = sys.argv
    sys.argv = [name, *argv]
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = old_argv


def test_routing_aware_vs_hopbytes(capsys):
    run_example("routing_aware_vs_hopbytes.py")
    out = capsys.readouterr().out
    assert "hop-bytes-optimal" in out
    assert "MCL-optimal" in out


def test_other_topologies(capsys):
    run_example("other_topologies.py")
    out = capsys.readouterr().out
    assert "fat-tree" in out and "dragonfly" in out


@pytest.mark.slow
def test_inspect_mapping(capsys):
    run_example("inspect_mapping.py")
    out = capsys.readouterr().out
    assert "RAHTM" in out and "channel load histogram" in out


@pytest.mark.slow
def test_collectives_extension(capsys):
    run_example("collectives_extension.py")
    out = capsys.readouterr().out
    assert "allreduce-recursive-doubling" in out


def test_quickstart(capsys):
    run_example("quickstart.py")
    out = capsys.readouterr().out
    assert "mapping quality (lower is better):" in out
    assert "RAHTM phase timing:" in out


def test_bgq_mapfile_writes_and_verifies_the_mapfile(tmp_path, capsys):
    mapfile = tmp_path / "cg.map"
    run_example("bgq_mapfile.py", [str(mapfile)])
    out = capsys.readouterr().out
    assert "512-rank mapfile" in out and "verified the round-trip" in out
    lines = mapfile.read_text().split("\n")
    assert len([line for line in lines if line.strip()]) == 512


def test_nas_benchmarks(capsys):
    # The example turns on console logging; put the package logger back
    # so its handler does not outlive this test's captured stderr.
    logger = logging.getLogger("repro")
    handlers, level = list(logger.handlers), logger.level
    try:
        run_example("nas_benchmarks.py")
    finally:
        logger.handlers[:] = handlers
        logger.setLevel(level)
    out = capsys.readouterr().out
    assert "offline mapping time (s)" in out
    assert "RAHTM mean execution-time change:" in out
