"""Discrete-event simulation engine.

The engine is a binary heap of ``(time, seq, fn, args)`` tuples.
Everything else in the simulator (links, switches, transports, workload
generators) schedules callbacks on a single :class:`Scheduler`.

Why a tuple heap: ``heapq`` compares tuples in C, and a ``(time, seq)``
prefix that is unique per entry means a comparison never reaches ``fn``.
A push or pop is O(log n), but every step of it runs in C, so it costs
less than the handful of Python bytecodes a bucketed calendar spends on
index maths, insertion and window upkeep for each event.

Design notes
------------
* Time is a float, in **seconds** of simulated time.
* Events scheduled for the same timestamp fire in FIFO order of scheduling
  (a monotonically increasing sequence number breaks ties), which makes
  runs fully deterministic.  The total order is exactly ``(time, seq)`` —
  identical to the reference engine in ``repro.sim.engine_heap`` (kept as
  an A/A oracle; select it with ``REPRO_ENGINE=heap`` via
  :func:`make_scheduler`), so identical seeds produce bit-identical
  results.
* The heap entry is the handle.  :meth:`Scheduler.cancel` records the
  entry's sequence number in a dead map and the run loop drops dead
  entries as it pops them; cancelling an entry whose ``(time, seq)`` has
  already been dispatched (or whose turn the clock has passed) is a
  no-op.  A live count of dead entries still in the heap keeps
  :attr:`pending` O(1).
* Run-loop hooks (:meth:`add_hook`, the watchdog) share one countdown:
  the loop compares its processed count against the next count at which
  any hook, the ``max_events`` budget or a profiler sample is due, so the
  per-event cost does not grow with the number of hooks.
* Observability (:attr:`profiler`) costs nothing when off: the profiled
  run loops are separate code paths selected once per :meth:`run`, never
  a per-event branch.
"""

from __future__ import annotations

import os
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Any, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.profiler import SchedulerProfiler

__all__ = [
    "Scheduler",
    "SimulationError",
    "LivelockError",
    "ResourceError",
    "DEFAULT_MAX_PENDING_EVENTS",
    "make_scheduler",
]

# Upper bound on the pending-event heap before a run is declared runaway.
# Five million entries is roughly half a gigabyte of event tuples — far
# beyond anything a healthy scenario schedules (the biggest full-scale
# sweeps stay under a few hundred thousand pending events), but
# comfortably below the point where the OOM killer takes out the worker
# process without leaving a diagnostic behind.
DEFAULT_MAX_PENDING_EVENTS = 5_000_000

# Run-loop sentinels: an unset horizon/budget becomes a value no event can
# exceed, so the per-event bound checks are single comparisons.
_INF = float("inf")
_NO_LIMIT = 1 << 62

# Popped dead entries stay in the dead map (so a second cancel through a
# stale handle stays a no-op) until the clock passes them; the map is
# pruned once it holds this many more entries than the heap has dead ones.
_PRUNE_SLACK = 256


class SimulationError(RuntimeError):
    """Raised on scheduler misuse (e.g. scheduling into the past)."""


class ResourceError(SimulationError):
    """The simulation exceeded a resource budget (event-queue pressure).

    Raised by :meth:`Scheduler.schedule_at` when the pending-event heap
    grows past ``max_pending_events``.  A run that schedules events faster
    than it can consume them (a feedback loop amplifying packets, a
    workload generator stuck re-arming itself) would otherwise grow the
    heap until the kernel OOM-kills the worker — losing the traceback and
    surfacing as an inscrutable crash.  Aborting deterministically keeps
    the failure inside the run, where the experiment executor can record
    it (and, with a journal attached, write a replay bundle).
    """


class LivelockError(SimulationError):
    """The simulation stopped making progress.

    Raised by runtime guards (see :mod:`repro.faults.watchdog`) when events
    keep processing without simulated time advancing, or when a packet's
    hop count explodes past any TTL-derived bound.  Both conditions mean a
    bug (a zero-delay event loop, a forwarding cycle that skips the TTL
    decrement) that would otherwise spin or silently corrupt results.
    """


class Scheduler:
    """Single-threaded discrete-event scheduler (tuple-heap backed).

    Usage::

        sched = Scheduler()
        handle = sched.schedule(1e-3, callback, arg1, arg2)
        sched.cancel(handle)  # optional
        sched.run(until=1.0)
    """

    __slots__ = ("now", "_heap", "_dead", "_ndead", "_prune_at", "_seq", "_seq_floor",
                 "_now_seq", "_events_processed", "_events_elided", "_running",
                 "watchdog", "watchdog_interval_events", "_cap", "profiler", "_hooks")

    def __init__(self, max_pending_events: Optional[int] = DEFAULT_MAX_PENDING_EVENTS) -> None:
        self.now: float = 0.0
        # Pending entries, ``(time, seq, fn, args)``; the entry is the handle.
        self._heap: list[tuple] = []
        # Cancelled sequence numbers -> their event time.  Holds every
        # cancelled entry still in the heap (``_ndead`` of them) plus
        # popped ones not yet behind the clock (see cancel/_prune).
        self._dead: dict[int, float] = {}
        self._ndead: int = 0
        self._prune_at: int = _PRUNE_SLACK
        self._seq: int = 0
        # Sequence numbers below this were issued before the last reset:
        # their handles are void.
        self._seq_floor: int = 0
        # Sequence number of the most recently dispatched event: together
        # with ``now`` it pins the scheduler's position in the (time, seq)
        # total order — everything at or before it has had its turn —
        # which is what lets ports elide events whose turn has provably
        # passed (see repro.net.link.Port._settle_tx) and makes cancelling
        # a dispatched handle a no-op.
        self._now_seq: int = -1
        self._events_processed: int = 0
        # Events whose execution was elided as a no-op by the port layer
        # but which the reference engine would have dispatched; counted so
        # ``events_processed`` stays engine-independent.
        self._events_elided: int = 0
        self._running: bool = False
        # Event-queue pressure guard: ``None`` (or 0) disables it.
        # Stored as the ``_cap`` sentinel (see max_pending_events property)
        # so the hot schedule paths test it with a single comparison.
        self.max_pending_events = max_pending_events
        # Optional progress guard: ``watchdog(self)`` is invoked from the
        # run loop every ``watchdog_interval_events`` processed events.  It
        # must run *inside* the loop (not as a scheduled event) because a
        # livelocked simulation never reaches a later timestamp, so a
        # scheduled check would never fire.
        self.watchdog: Optional[Callable[["Scheduler"], None]] = None
        self.watchdog_interval_events: int = 100_000
        # Generic run-loop hooks (see add_hook): fired like the watchdog,
        # every ``interval`` processed events, from inside the loop.  Used
        # by the observability layer (heartbeats, occupancy sampling) so
        # instrumentation never perturbs the event heap itself.
        self._hooks: list[tuple[Callable[["Scheduler"], None], int]] = []
        # Opt-in per-callback wall-time profiling (repro.obs.profiler).
        # ``None`` selects the plain run loop; the disabled state costs
        # nothing per event.
        self.profiler: Optional["SchedulerProfiler"] = None

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    # The entry points below repeat the same few lines rather than
    # delegating: they are the hottest calls in the simulator and each
    # intermediate Python call costs a measurable fraction of an event.
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> tuple:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        time = self.now + delay
        heap = self._heap
        if len(heap) >= self._cap:
            self._overpressure(fn, time)
        seq = self._seq
        self._seq = seq + 1
        entry = (time, seq, fn, args)
        heappush(heap, entry)
        return entry

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> tuple:
        """Schedule ``fn(*args)`` at absolute simulated ``time``."""
        if time < self.now:
            raise SimulationError(f"cannot schedule into the past: {time} < {self.now}")
        heap = self._heap
        if len(heap) >= self._cap:
            self._overpressure(fn, time)
        seq = self._seq
        self._seq = seq + 1
        entry = (time, seq, fn, args)
        heappush(heap, entry)
        return entry

    # Fire-and-forget callers (link transmit and delivery events) use this
    # name.  It is the same function, kept so that tools wrapping each
    # scheduling entry point by name keep seeing those inserts.
    schedule_once = schedule

    def _overpressure(self, fn: Callable[..., Any], time: float) -> None:
        raise ResourceError(
            f"event queue exceeded {self.max_pending_events} pending events at "
            f"t={self.now:.9f}s ({self._events_processed} processed) while scheduling "
            f"{getattr(fn, '__qualname__', fn)} for t={time:.9f}s — runaway scheduling "
            f"loop aborted before the process runs out of memory"
        )

    def reserve_seq(self) -> int:
        """Claim the next sequence number *without* inserting an event.

        This is the elision primitive: a caller that knows an event would
        be a no-op (see ``Port._tx_next``) reserves its place in the
        ``(time, seq)`` total order so every later event keeps the exact
        sequence number it would have had under the reference engine, then
        either settles the reservation once its turn has passed or
        materializes it via :meth:`schedule_reserved`.
        """
        seq = self._seq
        self._seq = seq + 1
        return seq

    def schedule_reserved(self, time: float, seq: int, fn: Callable[..., Any],
                          *args: Any) -> tuple:
        """Materialize a previously :meth:`reserve_seq`-ed event at its
        original ``(time, seq)`` position.  Used when the condition that
        justified eliding the event stops holding (e.g. a packet arrives
        behind an in-progress transmission)."""
        if time < self.now:
            raise SimulationError(f"cannot schedule into the past: {time} < {self.now}")
        entry = (time, seq, fn, args)
        heappush(self._heap, entry)
        return entry

    def cancel(self, handle: Optional[tuple]) -> None:
        """Cancel a scheduled event by its handle (no-op on ``None``, on a
        handle already cancelled, and on one whose turn has passed)."""
        if handle is None:
            return
        time = handle[0]
        seq = handle[1]
        dead = self._dead
        if seq in dead or seq < self._seq_floor:
            return
        now = self.now
        if time < now or (time == now and seq <= self._now_seq):
            return  # dispatched already (or discarded behind the clock)
        dead[seq] = time
        self._ndead += 1
        if len(dead) >= self._prune_at:
            self._prune()

    def _prune(self) -> None:
        """Forget popped dead entries the clock has passed: the position
        check in :meth:`cancel` covers them.  Mutates the map in place —
        a running loop holds it in a local."""
        dead = self._dead
        now = self.now
        now_seq = self._now_seq
        for seq in [s for s, t in dead.items() if t < now or (t == now and s <= now_seq)]:
            del dead[seq]
        self._prune_at = 2 * len(dead) + _PRUNE_SLACK

    # ------------------------------------------------------------------
    # run-loop hooks
    # ------------------------------------------------------------------
    def add_hook(self, fn: Callable[["Scheduler"], None], interval_events: int) -> tuple:
        """Invoke ``fn(self)`` from the run loop every ``interval_events``
        processed events.

        Unlike a scheduled event, a hook fires on *event-count* cadence, so
        it never perturbs the event heap (identical seeds stay
        bit-identical with hooks installed) and it keeps firing even when
        simulated time is stuck — the property the livelock watchdog relies
        on.  Returns an opaque handle for :meth:`remove_hook`.
        """
        if interval_events < 1:
            raise SimulationError("hook interval must be at least one event")
        handle = (fn, interval_events)
        self._hooks.append(handle)
        return handle

    def remove_hook(self, handle: tuple) -> None:
        """Detach a hook registered with :meth:`add_hook` (no-op if absent)."""
        try:
            self._hooks.remove(handle)
        except ValueError:
            pass

    def _hook_states(self) -> list[list]:
        """Per-run hook state ``[due, interval, fn]``, in registration
        order; ``due`` counts processed events from the start of the run.

        The legacy ``watchdog`` attribute participates as the first hook;
        an interval below one fires it after every event.
        """
        states = []
        if self.watchdog is not None:
            interval = max(1, self.watchdog_interval_events)
            states.append([interval, interval, self.watchdog])
        for fn, interval in self._hooks:
            states.append([interval, interval, fn])
        return states

    def _fire_hooks(self, hooks: list[list], processed: int) -> int:
        """Fire, in registration order, every hook due at ``processed``
        events into the run, and return the next count at which any hook
        is due.  This is the merged countdown's slow path: the run loops
        call it only when ``processed`` reaches that count, so hooks fire
        at exactly the counts a per-hook countdown would give."""
        due = _NO_LIMIT
        for state in hooks:
            if state[0] <= processed:
                state[0] = processed + state[1]
                state[2](self)
            if state[0] < due:
                due = state[0]
        return due

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run events until the heap drains, ``until`` is passed, or
        ``max_events`` have been processed.  Returns events processed.
        """
        if self._running:
            raise SimulationError("scheduler is already running (re-entrant run())")
        self._running = True
        try:
            profiler = self.profiler
            if profiler is None:
                processed = self._run_plain(until, max_events)
            else:
                profiler.bind(self)  # charges elided tx-dones (repro.obs.profiler)
                if profiler.sample_stride > 1:
                    processed = self._run_profiled_sampled(until, max_events)
                else:
                    processed = self._run_profiled(until, max_events)
        finally:
            self._running = False
        if max_events is None or processed < max_events:
            # The loop stopped because it drained or passed the horizon:
            # every event ordered at or before (now, any seq) has been
            # dispatched, so the order position advances to the last
            # sequence number issued so far.  Elided reservations at
            # exactly ``until`` rely on this (see Port._settle_tx); a
            # handle issued later still sorts after the position.
            self._now_seq = self._seq - 1
            if until is not None and self.now < until:
                # Advance the clock to the requested horizon even if dry.
                self.now = until
        return processed

    def _run_plain(self, until: Optional[float], max_events: Optional[int]) -> int:
        heap = self._heap
        dead = self._dead
        pop = heappop
        # Sentinels turn the per-event "is a bound set?" double checks
        # into single comparisons.
        horizon = _INF if until is None else until
        limit = _NO_LIMIT if max_events is None else max_events
        hooks = self._hook_states()
        due = self._fire_hooks(hooks, 0)  # fires nothing (every due count is >= 1)
        # ``stop`` is the next processed count that needs the slow path
        # (a hook or the event budget), so the per-event check is one
        # integer comparison however many hooks are installed.
        stop = due if due < limit else limit
        processed = 0
        base = self._events_processed
        try:
            while heap:
                entry = pop(heap)
                time, seq, fn, args = entry
                if time > horizon:
                    heappush(heap, entry)
                    break
                if seq in dead:
                    self._ndead -= 1
                    continue
                self.now = time
                self._now_seq = seq
                fn(*args)
                processed += 1
                if processed >= stop:
                    if processed >= due:
                        self._events_processed = base + processed
                        due = self._fire_hooks(hooks, processed)
                    if processed >= limit:
                        break
                    stop = due if due < limit else limit
        finally:
            self._events_processed = base + processed
        return processed

    def _run_profiled_sampled(self, until: Optional[float], max_events: Optional[int]) -> int:
        """The default profiled loop: sampled attribution (see
        :class:`repro.obs.profiler.SchedulerProfiler`).

        The clock is read once per window of ``[stride, 2*stride)``
        events; the whole window — its event count and wall time — is
        charged to the category of the event that closed it.  Totals stay
        exact because windows partition the event stream (the trailing
        partial window is flushed on exit, charged to the last *executed*
        event — a peeked-but-not-run or cancelled event never takes the
        charge); the per-category split is statistical.  Window lengths
        are jittered by a deterministic LCG so a periodic event pattern
        (links alternating tx/deliver) cannot alias with the sampling
        grid and skew the split.  A window's end joins the merged
        countdown, so the per-event cost is the plain loop's single
        comparison.  Hook/watchdog time is excluded by advancing the
        window start past it.
        """
        from time import perf_counter

        profiler = self.profiler
        slot_of = profiler._by_fn.get
        slot_for = profiler._slot_for
        stride = profiler.sample_stride
        rng = 0x2545F491  # fixed seed: profiles are deterministic across runs
        heap = self._heap
        dead = self._dead
        pop = heappop
        horizon = _INF if until is None else until
        limit = _NO_LIMIT if max_events is None else max_events
        hooks = self._hook_states()
        due = self._fire_hooks(hooks, 0)
        opened = 0  # processed count at which the current window opened
        closes = stride
        stop = min(due, limit, closes)
        processed = 0
        base = self._events_processed
        done_fn = None  # last *executed* callback, for the leftover flush
        last = perf_counter()
        try:
            while heap:
                entry = pop(heap)
                time, seq, fn, args = entry
                if time > horizon:
                    heappush(heap, entry)
                    break
                if seq in dead:
                    self._ndead -= 1
                    continue
                self.now = time
                self._now_seq = seq
                fn(*args)
                processed += 1
                done_fn = fn
                if processed >= stop:
                    if processed >= closes:
                        now_wall = perf_counter()
                        key = getattr(fn, "__func__", fn)
                        slot = slot_of(key)
                        if slot is None:
                            slot = slot_for(key, fn)
                        slot[0] += processed - opened
                        slot[1] += now_wall - last
                        last = now_wall
                        rng = (rng * 1103515245 + 12345) & 0xFFFFFFFF
                        opened = processed
                        closes = processed + stride + (rng >> 16) % stride
                    if processed >= due:
                        self._events_processed = base + processed
                        hook_started = perf_counter()
                        due = self._fire_hooks(hooks, processed)
                        last += perf_counter() - hook_started
                    if processed >= limit:
                        break
                    stop = due if due < limit else limit
                    if closes < stop:
                        stop = closes
        finally:
            self._events_processed = base + processed
            leftover = processed - opened
            if leftover > 0:
                key = getattr(done_fn, "__func__", done_fn)
                slot = slot_of(key)
                if slot is None:
                    slot = slot_for(key, done_fn)
                slot[0] += leftover
                slot[1] += perf_counter() - last
        return processed

    def _run_profiled(self, until: Optional[float], max_events: Optional[int]) -> int:
        """The exact-attribution profiled loop (``sample_stride=1``).

        Kept as a separate loop (rather than per-event branches in the
        plain one) so profiling costs exactly nothing when off.  Wall time
        is attributed per callback *category*; one clock read per event —
        each event is charged from the previous event's end, so dispatch
        overhead lands in the category of the event that incurred it.
        Hook time is excluded by resetting the window start after hooks
        fire — only then, so the wall time between ordinary events keeps
        accumulating into their categories and the category totals sum to
        the loop's wall time.

        The attribution is inlined rather than a profiler method call —
        at sub-microsecond event granularity the call overhead alone is a
        measurable fraction of the budget.  The memo keys by the
        underlying function (``__func__``) because bound methods are
        usually fresh objects per schedule; the slow path
        (:meth:`SchedulerProfiler._slot_for`) only runs once per distinct
        callback.
        """
        from time import perf_counter

        profiler = self.profiler
        slot_of = profiler._by_fn.get
        slot_for = profiler._slot_for
        heap = self._heap
        dead = self._dead
        pop = heappop
        horizon = _INF if until is None else until
        limit = _NO_LIMIT if max_events is None else max_events
        hooks = self._hook_states()
        due = self._fire_hooks(hooks, 0)
        stop = due if due < limit else limit
        processed = 0
        base = self._events_processed
        last = perf_counter()
        try:
            while heap:
                entry = pop(heap)
                time, seq, fn, args = entry
                if time > horizon:
                    heappush(heap, entry)
                    break
                if seq in dead:
                    self._ndead -= 1
                    continue
                self.now = time
                self._now_seq = seq
                fn(*args)
                now_wall = perf_counter()
                key = getattr(fn, "__func__", fn)
                slot = slot_of(key)
                if slot is None:
                    slot = slot_for(key, fn)
                slot[0] += 1
                slot[1] += now_wall - last
                last = now_wall
                processed += 1
                if processed >= stop:
                    if processed >= due:
                        self._events_processed = base + processed
                        due = self._fire_hooks(hooks, processed)
                        # Do not charge hook time to the next event.
                        last = perf_counter()
                    if processed >= limit:
                        break
                    stop = due if due < limit else limit
        finally:
            self._events_processed = base + processed
        return processed

    def step(self) -> bool:
        """Process a single event.  Returns ``False`` when idle."""
        heap = self._heap
        dead = self._dead
        while heap:
            time, seq, fn, args = heappop(heap)
            if seq in dead:
                self._ndead -= 1
                continue
            self.now = time
            self._now_seq = seq
            fn(*args)
            self._events_processed += 1
            return True
        return False

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next pending event, or ``None`` if idle."""
        heap = self._heap
        dead = self._dead
        # Consume dead entries in passing, as the reference engine does.
        while heap and heap[0][1] in dead:
            heappop(heap)
            self._ndead -= 1
        return heap[0][0] if heap else None

    @property
    def max_pending_events(self) -> Optional[int]:
        """Event-queue pressure bound; ``None`` means unbounded.

        Backed by the ``_cap`` sentinel (unbounded stores ``_NO_LIMIT``)
        so the schedule hot paths test the bound with a single integer
        comparison instead of a None check plus a second attribute load.
        """
        return None if self._cap == _NO_LIMIT else self._cap

    @max_pending_events.setter
    def max_pending_events(self, value: Optional[int]) -> None:
        # ``None`` and 0 both mean "disabled", matching the historical
        # ``max_pending_events or None`` normalization.
        self._cap = value or _NO_LIMIT

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued.

        O(1): the dead entries still in the heap are counted as they are
        cancelled and popped, so pollers (watchdog, heartbeat, guards) can
        read this every few thousand events for free.
        """
        return len(self._heap) - self._ndead

    @property
    def events_processed(self) -> int:
        """Total events executed over the scheduler's lifetime, including
        events whose dispatch was elided as a provable no-op (the count a
        reference engine dispatching every event would report)."""
        return self._events_processed + self._events_elided

    def reset(self) -> None:
        """Drop all pending events and rewind the clock to zero.

        The sequence counter keeps counting, so a handle issued before the
        reset can never alias one issued after it: cancelling it is a
        no-op.
        """
        self._heap.clear()
        self._dead.clear()
        self._ndead = 0
        self._prune_at = _PRUNE_SLACK
        self._seq_floor = self._seq
        self.now = 0.0
        self._now_seq = -1
        self._events_processed = 0
        self._events_elided = 0


def make_scheduler(max_pending_events: Optional[int] = DEFAULT_MAX_PENDING_EVENTS,
                   engine: Optional[str] = None):
    """Build a scheduler, selecting the engine implementation.

    ``engine`` is ``"calendar"`` (the default :class:`Scheduler`; the name
    predates the tuple heap and is kept so existing invocations keep
    working) or ``"heap"`` (the reference engine); when ``None`` the
    ``REPRO_ENGINE`` environment variable decides.  The choice is an
    environment knob rather than a :class:`~repro.experiments.scenarios.Scenario`
    field on purpose: both engines produce bit-identical results, so the
    engine is not part of a scenario's identity — putting it in the
    scenario would change the canonical scenario JSON and invalidate every
    content-addressed run-journal key for no observable difference.
    """
    if engine is None:
        engine = os.environ.get("REPRO_ENGINE", "calendar")
    if engine in ("", "calendar"):
        return Scheduler(max_pending_events=max_pending_events)
    if engine == "heap":
        from repro.sim.engine_heap import HeapScheduler

        return HeapScheduler(max_pending_events=max_pending_events)
    raise ValueError(f"unknown engine {engine!r}; known: calendar, heap")
