"""Executor supervision: the batch ledger, circuit breaker and backoff.

:class:`~repro.service.executor.BatchExecutor` settles every batch
through one :class:`BatchLedger`. The ledger is the single place a
:class:`JobOutcome` is made: it emits ``queued`` for every item,
``started`` per attempt and exactly one ``finished`` per item (the first
outcome recorded wins), counts worker deaths per item and poisons an
item at the threshold.

Infrastructure failures (a worker segfaulting takes its whole process
pool down) are different from job failures: retrying into a broken
substrate just burns pool rebuilds. :class:`CircuitBreaker` implements
the classic three-state machine over *consecutive* infrastructure
failures:

- **closed** — healthy; failures increment a consecutive counter, any
  success resets it;
- **open** — ``threshold`` consecutive failures seen; further work is
  refused (``allow()`` is False) until ``cooldown`` seconds pass;
- **half-open** — cooldown elapsed; exactly one probe is let through.
  Its success closes the circuit, its failure re-opens it (and restarts
  the cooldown).

:func:`full_jitter_delay` is the AWS-style "full jitter" backoff: the
k-th retry sleeps ``uniform(0, base * 2**(k-1))``. A deterministic
``backoff * 2**(k-1)`` schedule makes parallel CI shards retry in
lockstep and thunder-herd whatever they all depend on; jitter decorrelates
them. The draw is seeded from the job's own identity (cache key), so a
given (job, attempt) pair always sleeps the same amount — chaos runs
stay reproducible.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

from repro.utils.logconf import get_logger

__all__ = ["BatchLedger", "CircuitBreaker", "JobOutcome",
           "full_jitter_delay", "jitter_token"]

log = get_logger("service.supervision")


@dataclass
class JobOutcome:
    """What happened to one item of a batch."""

    index: int
    item: object
    result: object | None
    error: str | None
    attempts: int
    wall_seconds: float
    timed_out: bool = False
    poisoned: bool = False
    drained: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None


class BatchLedger:
    """Outcomes and lifecycle events of one batch.

    ``attempts`` counts the ``started`` events of each item and the wall
    clock runs from its first start. ``deaths`` counts the worker deaths
    charged to each item since it last survived one.
    """

    def __init__(self, items, emit, poison_threshold: int):
        self.items = list(items)
        self.outcomes: list[JobOutcome | None] = [None] * len(self.items)
        self.attempts = [0] * len(self.items)
        self._emit = emit
        self._starts: list[float | None] = [None] * len(self.items)
        self.deaths: dict[int, int] = {}
        self._poison_threshold = poison_threshold
        for index, item in enumerate(self.items):
            emit("queued", index=index, item=item)

    def start(self, index: int) -> None:
        """Record (and announce) one attempt at ``index``."""
        self.attempts[index] += 1
        if self._starts[index] is None:
            self._starts[index] = time.perf_counter()
        self._emit("started", index=index, item=self.items[index],
                   attempt=self.attempts[index])

    def finish(self, index: int, result=None, error: str | None = None, *,
               timed_out: bool = False, poisoned: bool = False,
               drained: bool = False) -> None:
        """Settle ``index``; a second outcome for it is ignored."""
        if self.outcomes[index] is not None:
            return
        attempts = self.attempts[index]
        start = self._starts[index]
        wall_seconds = 0.0 if start is None else time.perf_counter() - start
        self.outcomes[index] = JobOutcome(
            index, self.items[index], result, error, attempts, wall_seconds,
            timed_out=timed_out, poisoned=poisoned, drained=drained)
        self._emit("finished", index=index, item=self.items[index],
                   attempts=attempts, wall_seconds=wall_seconds, error=error,
                   timed_out=timed_out, poisoned=poisoned, drained=drained)

    def finish_rest(self, error: str, **flags) -> None:
        """Settle every item still without an outcome with ``error``."""
        for index, outcome in enumerate(self.outcomes):
            if outcome is None:
                self.finish(index, None, error, **flags)

    def charge_death(self, index: int, cause: str) -> bool:
        """Charge a worker death to ``index``; True once it is poisoned."""
        deaths = self.deaths[index] = self.deaths.get(index, 0) + 1
        if deaths < self._poison_threshold:
            return False
        log.error("job %d is poison (%d worker deaths); quarantining",
                  index, deaths)
        self._emit("poisoned", index=index, item=self.items[index],
                   deaths=deaths, error=cause)
        self.finish(index, None,
                    f"poison job: worker died {deaths} time(s) running it "
                    f"(last: {cause}); quarantined", poisoned=True)
        return True

    def survived(self, index: int) -> None:
        """The worker returned from ``index``: its death count restarts."""
        self.deaths.pop(index, None)


class CircuitBreaker:
    """Consecutive-failure circuit breaker with a half-open probe."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(self, threshold: int = 3, cooldown: float = 30.0,
                 clock=time.monotonic):
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if cooldown < 0:
            raise ValueError("cooldown must be >= 0")
        self.threshold = threshold
        self.cooldown = cooldown
        self._clock = clock
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self.opened_at: float | None = None
        #: Times the breaker transitioned into OPEN (monotonic count).
        self.times_opened = 0

    def record_failure(self) -> bool:
        """Count one infrastructure failure; True when this opens it."""
        self.consecutive_failures += 1
        if self.state == self.HALF_OPEN:
            # The probe failed: straight back to open, cooldown restarts.
            self._open()
            return True
        if self.state == self.CLOSED \
                and self.consecutive_failures >= self.threshold:
            self._open()
            return True
        return False

    def record_success(self) -> None:
        """Any success proves the substrate healthy again."""
        self.consecutive_failures = 0
        self.state = self.CLOSED
        self.opened_at = None

    def allow(self) -> bool:
        """May the caller attempt (or rebuild) now?

        In the open state this flips to half-open once the cooldown has
        elapsed, admitting a single probe; while that probe is out,
        further calls are refused.
        """
        if self.state == self.CLOSED:
            return True
        if self.state == self.OPEN:
            if self._clock() - self.opened_at >= self.cooldown:
                self.state = self.HALF_OPEN
                return True
            return False
        return False  # half-open: one probe already out

    def _open(self) -> None:
        self.state = self.OPEN
        self.opened_at = self._clock()
        self.times_opened += 1

    def snapshot(self) -> dict:
        return {
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "times_opened": self.times_opened,
        }


def jitter_token(item: object) -> str:
    """A stable per-job identity to seed jitter from.

    Content-addressed jobs use their cache key; anything else falls
    back to ``repr`` (stable for the value-like tuples/strings batches
    are made of).
    """
    cache_key = getattr(item, "cache_key", None)
    if callable(cache_key):
        try:
            return str(cache_key())
        except Exception:
            pass
    return repr(item)


def full_jitter_delay(base: float, attempt: int, token: str) -> float:
    """Full-jitter backoff before retry ``attempt`` (1-based failures).

    Deterministic in ``(base, attempt, token)``: the fraction of the
    exponential cap comes from a SHA-256 over the token and attempt, so
    reruns sleep identically while distinct jobs decorrelate.
    """
    cap = base * (2 ** max(attempt - 1, 0))
    if cap <= 0:
        return 0.0
    digest = hashlib.sha256(f"{token}#{attempt}".encode()).digest()
    fraction = int.from_bytes(digest[:8], "big") / 2**64
    return cap * fraction
