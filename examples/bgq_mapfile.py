#!/usr/bin/env python
"""Produce a BG/Q mapfile for a NAS CG run — the paper's deliverable.

RAHTM is an offline tool: its output is a mapfile the BG/Q MPI runtime
consumes on every subsequent run. This example profiles CG through the
virtual-MPI recorder (the IPM stand-in), maps it with RAHTM onto a small
BG/Q partition, writes the mapfile, and reads it back to verify.

Run:  python examples/bgq_mapfile.py [output_path]
"""

import sys

from repro import RAHTMConfig, RAHTMMapper, evaluate_mapping
from repro.baselines import DimOrderMapper
from repro.mapping import read_mapfile, write_mapfile
from repro.profile import VirtualMPI, profile_commgraph
from repro.routing import MinimalAdaptiveRouter
from repro.topology import BGQTopology
from repro.workloads import nas_cg


def main() -> None:
    out_path = sys.argv[1] if len(sys.argv) > 1 else "cg_rahtm.map"
    # A small BG/Q sub-partition: 4x4x4x2x2 nodes, 2 tasks per node. The
    # arity-2 D/E dimensions exercise RAHTM's mirror fold: it folds E, then
    # D, maps the 4x4x4 quarter and mirrors each matched partner back.
    bgq = BGQTopology(shape=(4, 4, 4, 2, 2), tasks_per_node=2)
    print(f"platform: {bgq}")

    # 1. "Profile" the application: replay CG's traffic through the
    #    virtual-MPI recorder and aggregate it IPM-style.
    reference = nas_cg(bgq.num_tasks, "W")
    vm = VirtualMPI(bgq.num_tasks)
    for s, d, v in zip(reference.srcs, reference.dsts, reference.vols):
        vm.send(int(s), int(d), float(v))
    graph, ipm = profile_commgraph(vm)
    print()
    print(ipm.banner())

    # 2. Map offline with RAHTM.
    config = RAHTMConfig(beam_width=16, max_orientations=16,
                         milp_time_limit=20.0, seed=0)
    mapping = RAHTMMapper(bgq, config).map(graph)
    router = MinimalAdaptiveRouter(bgq.network)
    print(f"\nRAHTM:   {evaluate_mapping(router, mapping, graph)}")
    default = DimOrderMapper(bgq, "ABCDET").map(graph)
    print(f"ABCDET:  {evaluate_mapping(router, default, graph)}")

    # 3. Emit the mapfile the MPI runtime would consume, and verify it.
    write_mapfile(out_path, mapping, bgq)
    recovered = read_mapfile(out_path, bgq)
    assert (recovered.task_to_node == mapping.task_to_node).all()
    print(f"\nwrote {mapping.num_tasks}-rank mapfile to {out_path!r} "
          "(A B C D E T per line) and verified the round-trip")


if __name__ == "__main__":
    main()
