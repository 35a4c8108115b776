"""Host speed probe: a fixed pure-Python task, timed in CPU seconds.

The reference machine's speed drifts: the same CPU-bound code runs up to
twice as long for tens of seconds at a time, in CPU time as well as wall
time, because the host's other tenants share its cores. Each run
therefore starts this module as a side process (:class:`SpeedProbe`),
which times :func:`task` every ``PERIOD_S`` in its own thread CPU time
and appends one line per timing to a file. The run scales its
end-to-end times by ``REFERENCE_S`` over the median probe time, which
reports them at the reference machine's quiet-period speed.

CPU time, unlike wall time, does not grow while the probe waits for a
CPU, so the program's own load does not move it: with both CPUs of the
reference machine kept busy, the probe's wall time doubled and its CPU
time did not. The task is a pure-Python loop over a few objects, so the
program's memory traffic barely reaches it. It costs about 2% of one
CPU.

Run as ``python speed.py OUT`` it is the side process; it exits when
signalled or when the process that started it has gone.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: CPU seconds :func:`task` takes on the reference machine in a quiet period.
REFERENCE_S = 0.004
#: Seconds between two timings of :func:`task`.
PERIOD_S = 0.2


def task() -> int:
    total = 0
    for i in range(60_000):
        total += i * i
    return total


class SpeedProbe:
    """The probe process for the duration of a ``with`` block."""

    def __init__(self, path: Path):
        self.path = path

    def __enter__(self) -> SpeedProbe:
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__)), str(self.path)],
            stdout=subprocess.DEVNULL)
        return self

    def __exit__(self, *exc) -> None:
        self.proc.terminate()
        self.proc.wait()

    def factor(self) -> float:
        """``REFERENCE_S`` over the median probe time: above 1 when the
        machine ran faster than in the quiet period."""
        with open(self.path) as fh:
            # A line cut short by the stop signal has no newline yet.
            times = [float(line) for line in fh if line.endswith("\n")]
        if not times:
            raise RuntimeError("the speed probe recorded nothing")
        return REFERENCE_S / statistics.median(times)


def main(out: str) -> int:
    parent = os.getppid()
    with open(out, "w") as fh:
        while os.getppid() == parent:
            start = time.thread_time()
            task()
            fh.write(f"{time.thread_time() - start!r}\n")
            fh.flush()
            time.sleep(PERIOD_S)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
