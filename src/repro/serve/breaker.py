"""The index-quarantine circuit breaker.

Fail-closed persistence means a corrupt artifact raises on *every* open —
and keeps raising until someone repairs or rebuilds it.  Retrying such an
index on every request burns the whole retry budget per query.  The
breaker turns that into the classic three-state machine:

``CLOSED``
    normal operation; consecutive failures are counted, success resets;
``OPEN``
    after ``failure_threshold`` consecutive failures the dependency is
    quarantined — callers fail fast (no I/O at all) until ``cooldown``
    seconds of virtual-or-real time pass;
``HALF_OPEN``
    after the cooldown exactly one probe is let through; success closes
    the circuit, failure re-opens it and re-arms the cooldown.

The clock is injectable, so the fault suite drives cooldowns with a
:class:`~repro.testing.faults.VirtualClock` instead of sleeping.  A clock
that jumps *backwards* (skew) re-arms the cooldown from the new time
rather than dividing by a negative interval — the breaker stays safe, just
conservative, under skew.
"""

from __future__ import annotations

import enum
import threading
import time
from typing import Callable

from repro.obs.logging import get_logger, log_event
from repro.obs.registry import is_enabled
from repro.serve.metrics import CIRCUIT_STATE, CIRCUIT_TRANSITIONS

_LOG = get_logger("serve.breaker")


class CircuitState(enum.Enum):
    """The three breaker states, with their ``circuit_state`` gauge values."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


_GAUGE_VALUE = {
    CircuitState.CLOSED: 0.0,
    CircuitState.OPEN: 1.0,
    CircuitState.HALF_OPEN: 2.0,
}


class CircuitBreaker:
    """Thread-safe three-state breaker guarding one named dependency."""

    def __init__(
        self,
        name: str = "index",
        *,
        failure_threshold: int = 3,
        cooldown: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if cooldown < 0:
            raise ValueError(f"cooldown must be >= 0, got {cooldown}")
        self.name = name
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CircuitState.CLOSED
        self._consecutive_failures = 0
        self._opened_at: float | None = None
        self._probe_in_flight = False
        if is_enabled():
            CIRCUIT_STATE.labels(name=name).set(0.0)

    @property
    def state(self) -> CircuitState:
        return self._state

    def _transition(self, to: CircuitState) -> None:
        # callers hold self._lock
        self._state = to
        if is_enabled():
            CIRCUIT_STATE.labels(name=self.name).set(_GAUGE_VALUE[to])
            CIRCUIT_TRANSITIONS.labels(name=self.name, to=to.value).inc()
        log_event(_LOG, "circuit.transition", breaker=self.name, to=to.value)

    def allow(self) -> bool:
        """May the caller attempt the guarded operation right now?

        ``OPEN`` answers ``False`` until the cooldown elapses, then flips
        to ``HALF_OPEN`` and admits exactly one probe; further callers are
        rejected until that probe reports back via
        :meth:`record_success` / :meth:`record_failure`.
        """
        with self._lock:
            if self._state is CircuitState.CLOSED:
                return True
            if self._state is CircuitState.OPEN:
                elapsed = self._clock() - (self._opened_at or 0.0)
                if elapsed < 0:  # backwards skew: re-arm from the new time
                    self._opened_at = self._clock()
                    return False
                if elapsed < self.cooldown:
                    return False
                self._transition(CircuitState.HALF_OPEN)
                self._probe_in_flight = True
                return True
            # HALF_OPEN: one probe at a time
            if self._probe_in_flight:
                return False
            self._probe_in_flight = True
            return True

    def retry_after(self) -> float | None:
        """Seconds until the next probe is admitted (``None`` if not open)."""
        with self._lock:
            if self._state is not CircuitState.OPEN or self._opened_at is None:
                return None
            return max(0.0, self.cooldown - (self._clock() - self._opened_at))

    def abandon_probe(self) -> None:
        """Return an admitted half-open probe slot unused.

        For callers that won an ``allow()`` but then discovered the work
        was already being done elsewhere — neither a success nor a
        failure happened, so neither should be recorded.
        """
        with self._lock:
            self._probe_in_flight = False

    def record_success(self) -> None:
        """The guarded operation worked: close the circuit."""
        with self._lock:
            self._consecutive_failures = 0
            self._probe_in_flight = False
            if self._state is not CircuitState.CLOSED:
                self._transition(CircuitState.CLOSED)

    def record_failure(self) -> None:
        """The guarded operation failed: count towards / re-arm quarantine."""
        with self._lock:
            self._probe_in_flight = False
            if self._state is CircuitState.HALF_OPEN:
                self._opened_at = self._clock()
                self._transition(CircuitState.OPEN)
                return
            self._consecutive_failures += 1
            if (
                self._state is CircuitState.CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._opened_at = self._clock()
                self._transition(CircuitState.OPEN)

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker({self.name!r}, state={self._state.value}, "
            f"failures={self._consecutive_failures}/{self.failure_threshold})"
        )
