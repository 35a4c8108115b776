"""Submit adapters: how a coordinator launches fleet workers.

The cluster-tools shape: a *spawner* turns "give me a worker against
this cache dir" into a concrete launch mechanism and hands back a
:class:`WorkerHandle` for liveness checks and teardown.

Three working implementations share the shape:

- :class:`SubprocessSpawner` — local ``python -m repro.cli worker DIR``
  subprocesses, one per fleet slot, stdout/stderr teed into
  ``board/workers/*.log`` for postmortems.
- :class:`SshSpawner` — the same worker on a remote host, dispatched
  through a :class:`~repro.distributed.transport.SshTransport`. The
  local ssh client process proxies liveness and carries the remote log
  home; the remote pid is recovered from a marker line the launch
  script prints (``::repro-worker-pid N``) so SIGTERM/SIGKILL
  escalation reaches the *worker*, not just the ssh client.
- :class:`SlurmSpawner` — ``srun`` submission reusing the identical
  remote command contract; srun forwards signals and proxies exit
  status itself, so the plain local handle suffices.

:func:`build_spawner` maps a :class:`HostSpec` (``[kind:]name[*slots]``
strings accepted) onto the right adapter — this is what
``DistributedConfig.hosts`` feeds through.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import re
import signal
import shlex
import subprocess
import sys
from pathlib import Path

from repro.distributed.board import JobBoard
from repro.distributed.transport import LocalTransport, SshTransport, Transport
from repro.utils.logconf import get_logger

__all__ = [
    "WorkerHandle", "RemoteWorkerHandle", "SubprocessSpawner",
    "SshSpawner", "SlurmSpawner", "HostSpec", "build_spawner",
    "PID_MARKER", "worker_argv",
]

log = get_logger("distributed.spawn")

_spawn_seq = itertools.count(1)

#: Marker line a transport-launched worker script prints before exec'ing
#: the worker, so the handle can address signals to the remote pid.
PID_MARKER = "::repro-worker-pid"


class WorkerHandle:
    """One launched worker process: liveness, termination, log path."""

    def __init__(self, process: subprocess.Popen, label: str,
                 log_path: Path | None = None, host: str = "local"):
        self.process = process
        self.label = label
        self.log_path = log_path
        self.host = host

    @property
    def pid(self) -> int:
        return self.process.pid

    def alive(self) -> bool:
        return self.process.poll() is None

    def terminate(self) -> None:
        """Ask the worker to finish its current job and exit."""
        if self.alive():
            try:
                self.process.send_signal(signal.SIGTERM)
            except OSError:  # pragma: no cover - already gone
                pass

    def stop(self, timeout: float = 5.0) -> int | None:
        """SIGTERM, wait, escalate to SIGKILL; returns the exit code."""
        self.terminate()
        try:
            return self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            log.warning("worker %s ignored SIGTERM for %.1fs; killing",
                        self.label, timeout)
            self.process.kill()
            try:
                return self.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:  # pragma: no cover
                return None


class RemoteWorkerHandle(WorkerHandle):
    """A worker behind a transport: the local process is only a proxy.

    SIGTERM/SIGKILL on the local ssh client would orphan the remote
    worker mid-lease; signals must travel through the transport to the
    remote pid, which the launch script printed as a ``::repro-worker-pid``
    marker into the teed log. Local signalling remains the fallback for
    a transport that never got far enough to print the marker.
    """

    def __init__(self, process: subprocess.Popen, label: str,
                 transport: Transport, log_path: Path | None = None):
        super().__init__(process, label, log_path=log_path,
                         host=transport.host)
        self.transport = transport
        self._remote_pid: int | None = None

    def remote_pid(self) -> int | None:
        """Pid of the worker on the remote host, parsed from its log."""
        if self._remote_pid is None and self.log_path is not None:
            try:
                text = self.log_path.read_text(errors="replace")
            except OSError:
                return None
            match = re.search(rf"^{re.escape(PID_MARKER)} (\d+)\s*$",
                              text, re.MULTILINE)
            if match:
                self._remote_pid = int(match.group(1))
        return self._remote_pid

    def _signal_remote(self, sig: int) -> bool:
        pid = self.remote_pid()
        if pid is None:
            return False
        return self.transport.run(f"kill -{int(sig)} {pid}")

    def terminate(self) -> None:
        if not self.alive():
            return
        if not self._signal_remote(signal.SIGTERM):
            super().terminate()

    def stop(self, timeout: float = 5.0) -> int | None:
        self.terminate()
        try:
            return self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            log.warning("remote worker %s ignored SIGTERM for %.1fs; "
                        "killing", self.label, timeout)
            self._signal_remote(signal.SIGKILL)
            self.process.kill()
            try:
                return self.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:  # pragma: no cover
                return None


def worker_argv(python: str, cache_dir: str, poll: float,
                idle_exit: float | None, worker_id: str | None,
                host_label: str | None) -> list[str]:
    """The ``repro worker`` command line every spawner launches."""
    argv = [python, "-m", "repro.cli", "worker", cache_dir,
            "--poll", f"{poll:.6g}"]
    if idle_exit is not None:
        argv += ["--idle-exit", f"{float(idle_exit):.6g}"]
    if worker_id:
        argv += ["--id", worker_id]
    if host_label:
        argv += ["--host-label", host_label]
    return argv


def _prepare_env(extra: dict) -> dict:
    env = dict(os.environ)
    env.update(extra)
    # The child runs from the cache directory, so a relative
    # PYTHONPATH (the uninstalled `PYTHONPATH=src` invocation CI
    # uses) must be absolutized against *our* cwd or the worker
    # dies on `import repro` before it can even log why.
    if env.get("PYTHONPATH"):
        env["PYTHONPATH"] = os.pathsep.join(
            os.path.abspath(p) if p else p
            for p in env["PYTHONPATH"].split(os.pathsep))
    return env


def _launch(argv: list[str], cache_dir: Path, label: str,
            env: dict) -> tuple[subprocess.Popen, Path]:
    """Start one worker-carrying process with its log teed to the board."""
    board = JobBoard.under_cache(cache_dir)
    board.ensure_dirs()
    log_path = board.workers_dir / f"{label}.log"
    log_file = open(log_path, "ab")
    try:
        process = subprocess.Popen(
            argv,
            stdout=log_file,
            stderr=subprocess.STDOUT,
            env=_prepare_env(env),
            cwd=str(cache_dir),
        )
    finally:
        log_file.close()
    return process, log_path


class SubprocessSpawner:
    """Launch fleet workers as local subprocesses of this interpreter."""

    def __init__(self, cache_dir, poll: float = 0.05,
                 idle_exit: float | None = 300.0,
                 env: dict | None = None,
                 host_label: str | None = None):
        # Resolved eagerly: the child runs *from* the cache directory, so
        # a relative path handed to the command line would make the
        # worker look for the board inside itself.
        self.cache_dir = Path(cache_dir).resolve()
        self.poll = float(poll)
        self.idle_exit = idle_exit
        self.env = dict(env or {})
        self.host_label = host_label

    def command(self, worker_id: str | None = None) -> list[str]:
        return worker_argv(sys.executable, str(self.cache_dir), self.poll,
                           self.idle_exit, worker_id, self.host_label)

    def spawn(self, worker_id: str | None = None) -> WorkerHandle:
        label = worker_id or f"spawn-{os.getpid()}-{next(_spawn_seq)}"
        process, log_path = _launch(self.command(worker_id),
                                    self.cache_dir, label, self.env)
        log.info("spawned fleet worker %s (pid %d, log %s)", label,
                 process.pid, log_path)
        return WorkerHandle(process, label, log_path=log_path,
                            host=self.host_label or "local")


class SshSpawner:
    """Launch fleet workers on a remote host over SSH.

    The cache directory must be a shared mount path valid on the remote
    host. The launch travels as one remote shell command: exported env
    (fault plans ride this in tests), the pid marker, then ``exec`` into
    the worker so the printed pid *is* the worker's pid. The local ssh
    client is the liveness proxy and log pipe; :class:`RemoteWorkerHandle`
    routes signal escalation back through the transport.
    """

    def __init__(self, host: str, cache_dir, python: str = "python3",
                 poll: float = 0.05, idle_exit: float | None = 300.0,
                 ssh_options: tuple = ("-o", "BatchMode=yes"),
                 env: dict | None = None, ssh_command=None):
        self.host = host
        self.cache_dir = str(cache_dir)
        self.python = python
        self.poll = float(poll)
        self.idle_exit = idle_exit
        self.ssh_options = tuple(ssh_options)
        self.env = dict(env or {})
        self.transport = SshTransport(host, ssh_command=ssh_command,
                                      options=self.ssh_options)

    def remote_command(self, worker_id: str | None = None) -> list[str]:
        """The worker argv as it runs on the remote host."""
        return worker_argv(self.python, self.cache_dir, self.poll,
                           self.idle_exit, worker_id, self.host)

    def command(self, worker_id: str | None = None) -> list[str]:
        return ["ssh", *self.ssh_options, self.host,
                *self.remote_command(worker_id)]

    def _launch_script(self, worker_id: str | None) -> str:
        parts = [
            f"export {key}={shlex.quote(str(value))}"
            for key, value in sorted(self.env.items())
        ]
        parts.append(f'echo "{PID_MARKER} $$"')
        parts.append("exec " + shlex.join(self.remote_command(worker_id)))
        return "; ".join(parts)

    def spawn(self, worker_id: str | None = None) -> RemoteWorkerHandle:
        label = worker_id or f"{self.host}-{os.getpid()}-{next(_spawn_seq)}"
        argv = self.transport.launch_argv(self._launch_script(worker_id))
        # Env rides inside the remote script, not the local process env
        # — ssh does not forward arbitrary variables.
        process, log_path = _launch(argv, Path(self.cache_dir).resolve(),
                                    label, env={})
        log.info("spawned remote fleet worker %s on %s (local pid %d, "
                 "log %s)", label, self.host, process.pid, log_path)
        return RemoteWorkerHandle(process, label, self.transport,
                                  log_path=log_path)


class SlurmSpawner:
    """Launch fleet workers as SLURM job steps via ``srun``.

    Reuses the exact remote command contract of :class:`SshSpawner`.
    ``srun`` itself forwards SIGTERM/SIGKILL to the step and mirrors its
    exit status, so the plain local :class:`WorkerHandle` is the right
    supervisor — no remote-pid bookkeeping needed. The worker's own
    ``gethostname()`` labels its claims with the allocated node.
    """

    def __init__(self, cache_dir, python: str = "python3",
                 poll: float = 0.05, idle_exit: float | None = 300.0,
                 partition: str | None = None,
                 srun_options: tuple = (), env: dict | None = None):
        self.cache_dir = str(cache_dir)
        self.python = python
        self.poll = float(poll)
        self.idle_exit = idle_exit
        self.partition = partition
        self.srun_options = tuple(srun_options)
        self.env = dict(env or {})

    def remote_command(self, worker_id: str | None = None) -> list[str]:
        # No host label: the worker's own gethostname() names the node.
        return worker_argv(self.python, self.cache_dir, self.poll,
                           self.idle_exit, worker_id, None)

    def command(self, worker_id: str | None = None) -> list[str]:
        cmd = ["srun", "--nodes=1", "--ntasks=1", "--unbuffered"]
        if self.partition:
            cmd += ["--partition", self.partition]
        cmd += [*self.srun_options, *self.remote_command(worker_id)]
        return cmd

    def spawn(self, worker_id: str | None = None) -> WorkerHandle:
        label = worker_id or f"slurm-{os.getpid()}-{next(_spawn_seq)}"
        process, log_path = _launch(self.command(worker_id),
                                    Path(self.cache_dir).resolve(),
                                    label, self.env)
        log.info("spawned slurm fleet worker %s (srun pid %d, log %s)",
                 label, process.pid, log_path)
        return WorkerHandle(process, label, log_path=log_path, host="slurm")


@dataclasses.dataclass(frozen=True)
class HostSpec:
    """One fleet host: where workers run and how many.

    Parsed from ``[kind:]name[*slots]`` — ``"local*2"``, ``"ssh:node7"``,
    ``"node7*4"`` (bare names default to ssh unless the name is
    ``local``), ``"slurm:gpu*8"`` (the name becomes the partition,
    ``-`` meaning the cluster default).
    """

    name: str
    slots: int = 1
    kind: str = "ssh"
    python: str = "python3"

    KINDS = ("local", "ssh", "slurm")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown host kind {self.kind!r} "
                             f"(expected one of {self.KINDS})")
        if self.slots < 1:
            raise ValueError(f"host {self.name!r}: slots must be >= 1, "
                             f"got {self.slots}")

    @classmethod
    def parse(cls, spec) -> "HostSpec":
        if isinstance(spec, cls):
            return spec
        text = str(spec).strip()
        kind = None
        if ":" in text:
            kind, text = text.split(":", 1)
            kind = kind.strip().lower()
        slots = 1
        if "*" in text:
            text, raw_slots = text.rsplit("*", 1)
            try:
                slots = int(raw_slots)
            except ValueError:
                raise ValueError(
                    f"host spec {spec!r}: slot count {raw_slots!r} is not "
                    "an integer") from None
        name = text.strip()
        if not name:
            raise ValueError(f"host spec {spec!r} has no host name")
        if kind is None:
            kind = "local" if name == "local" else "ssh"
        return cls(name=name, slots=slots, kind=kind)


def build_spawner(spec: HostSpec, cache_dir, *, poll: float = 0.05,
                  idle_exit: float | None = 300.0,
                  env: dict | None = None, python: str | None = None):
    """Instantiate the submit adapter a :class:`HostSpec` calls for."""
    python = python or spec.python
    if spec.kind == "local":
        return SubprocessSpawner(
            cache_dir, poll=poll, idle_exit=idle_exit, env=env,
            host_label=spec.name if spec.name != "local" else None)
    if spec.kind == "ssh":
        return SshSpawner(spec.name, cache_dir, python=python, poll=poll,
                          idle_exit=idle_exit, env=env)
    if spec.kind == "slurm":
        partition = None if spec.name in ("-", "default") else spec.name
        return SlurmSpawner(cache_dir, python=python, poll=poll,
                            idle_exit=idle_exit, partition=partition,
                            env=env)
    raise ValueError(f"unknown host kind {spec.kind!r}")  # pragma: no cover
