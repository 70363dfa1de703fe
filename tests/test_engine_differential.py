"""Differential tests: the default engine against the reference heap engine.

Both engines run the same random program — schedules with equal-time
ties, reserved sequence numbers, cancels before and after firing (and
twice), three hooks with co-prime intervals that schedule and cancel
from inside the run loop, the watchdog, horizons that land exactly on event times,
``max_events`` budgets followed by a resume, and resets.  They must
produce identical ``(time, seq, callback)`` dispatch traces, identical
hook-fire event counts, and equal ``pending`` after every step.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import engine
from repro.sim.engine import Scheduler
from repro.sim.engine_heap import HeapScheduler

# A coarse grid of delays: equal-time ties are the common case.
DELAYS = (0.0, 0.0, 1e-6, 2e-6, 5e-6, 1e-3)
HOOK_INTERVALS = (2, 3, 5)


def _time_of(handle) -> float:
    return handle[0] if isinstance(handle, tuple) else handle.time


class Program:
    """Interprets one program on one engine and records what happened."""

    def __init__(self, sched, hooks: bool, watchdog_every=None) -> None:
        self.sched = sched
        self.trace: list[tuple] = []
        self.handles: list = []
        self.labels = 0
        if hooks:
            for i, interval in enumerate(HOOK_INTERVALS):
                sched.add_hook(lambda s, i=i: self._hook(i), interval)
        if watchdog_every is not None:
            # An interval below one means "after every event".
            sched.watchdog = lambda s: self.trace.append(("watchdog", s.events_processed))
            sched.watchdog_interval_events = watchdog_every

    # -- event side ----------------------------------------------------
    def _label(self) -> int:
        self.labels += 1
        return self.labels

    def _fire(self, label: int) -> None:
        sched = self.sched
        self.trace.append(("fire", sched.now, sched._now_seq, label))
        # Children per event stay well below one (hooks included), so
        # every run drains.
        rng = random.Random(label)
        roll = rng.random()
        if roll < 0.3:
            self.schedule(rng.randrange(3), rng.choice(DELAYS))
        elif roll < 0.55:
            self.cancel(rng.choice((-1, -2, rng.randrange(1 << 16))))
        elif roll < 0.6:
            self.reserve(rng.choice(DELAYS), rng.randrange(3))

    def _hook(self, i: int) -> None:
        sched = self.sched
        count = sched.events_processed
        self.trace.append(("hook", i, count, sched.now, sched.pending))
        rng = random.Random(f"{i}/{count}")
        if rng.random() < 0.25:
            self.schedule(rng.randrange(3), rng.choice(DELAYS))
        self.cancel(rng.randrange(1 << 16))

    # -- operations ----------------------------------------------------
    def schedule(self, how: int, delay: float) -> None:
        sched = self.sched
        label = self._label()
        if how == 0:
            handle = sched.schedule(delay, self._fire, label)
        elif how == 1:
            handle = sched.schedule_at(sched.now + delay, self._fire, label)
        else:
            handle = sched.schedule_once(delay, self._fire, label)
        self.handles.append(handle)

    def reserve(self, delay: float, ties: int) -> None:
        """Reserve a sequence number, schedule ``ties`` events at the same
        time after it, then materialize the reservation: it must still
        fire first among them."""
        sched = self.sched
        seq = sched.reserve_seq()
        time = sched.now + delay
        for _ in range(ties):
            self.handles.append(sched.schedule_at(time, self._fire, self._label()))
        self.handles.append(sched.schedule_reserved(time, seq, self._fire, self._label()))

    def cancel(self, index: int) -> None:
        """Cancel a handle; negative indices count back from the newest."""
        if self.handles:
            self.sched.cancel(self.handles[index % len(self.handles)])

    def step(self, op: tuple) -> None:
        sched = self.sched
        kind = op[0]
        result = None
        if kind == "schedule":
            self.schedule(op[1], op[2])
        elif kind == "reserve":
            self.reserve(op[1], op[2])
        elif kind == "cancel":
            self.cancel(op[1])
        elif kind == "cancel_twice":
            self.cancel(op[1])
            self.cancel(op[1])
        elif kind == "run_until_event":
            # Land the horizon exactly on a (possibly fired) event's time.
            if self.handles:
                until = max(sched.now, _time_of(self.handles[op[1] % len(self.handles)]))
                result = sched.run(until=until)
        elif kind == "run_until":
            result = sched.run(until=sched.now + op[1])
        elif kind == "run_max":
            result = sched.run(max_events=op[1])
        elif kind == "run":
            result = sched.run()
        elif kind == "step":
            result = sched.step()
        elif kind == "peek":
            result = sched.peek_time()
        elif kind == "reset":
            sched.reset()
        self.trace.append(("after", kind, result, sched.now, sched.pending,
                           sched.events_processed))


def _execute(make_sched, program: list[tuple], hooks: bool, watchdog_every=None) -> list[tuple]:
    interp = Program(make_sched(), hooks, watchdog_every)
    for op in program:
        interp.step(op)
    interp.step(("run",))  # drain whatever is left
    return interp.trace


_ops = st.one_of(
    st.tuples(st.just("schedule"), st.integers(0, 2), st.sampled_from(DELAYS)),
    st.tuples(st.just("reserve"), st.sampled_from(DELAYS), st.integers(0, 3)),
    st.tuples(st.just("cancel"), st.integers(-4, 1 << 16)),
    st.tuples(st.just("cancel_twice"), st.integers(-4, 1 << 16)),
    st.tuples(st.just("run_until_event"), st.integers(0, 1 << 16)),
    st.tuples(st.just("run_until"), st.sampled_from(DELAYS)),
    st.tuples(st.just("run_max"), st.integers(1, 8)),
    st.tuples(st.just("run")),
    st.tuples(st.just("step")),
    st.tuples(st.just("peek")),
    st.tuples(st.just("reset")),
)


class TestDifferential:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_ops, max_size=60), st.booleans(), st.sampled_from([None, 0, 4]))
    def test_random_programs_match_heap_oracle(self, program, hooks, watchdog_every):
        assert (_execute(Scheduler, program, hooks, watchdog_every)
                == _execute(HeapScheduler, program, hooks, watchdog_every))

    def test_long_cancel_heavy_program_matches_heap_oracle(self, monkeypatch):
        # Thousands of dead entries are popped; a tiny prune slack makes
        # the dead map prune itself many times mid-run.
        monkeypatch.setattr(engine, "_PRUNE_SLACK", 2)
        rng = random.Random(20240611)
        program = []
        for _ in range(6000):
            roll = rng.random()
            if roll < 0.45:
                program.append(("schedule", rng.randrange(3), rng.choice(DELAYS)))
            elif roll < 0.75:
                program.append(("cancel", rng.randrange(-4, 1 << 16)))
            elif roll < 0.8:
                program.append(("cancel_twice", rng.choice((-1, -2, rng.randrange(1 << 16)))))
            elif roll < 0.85:
                program.append(("reserve", rng.choice(DELAYS), rng.randrange(4)))
            elif roll < 0.9:
                program.append(("run_max", rng.randrange(1, 40)))
            elif roll < 0.95:
                program.append(("run_until_event", rng.randrange(1 << 16)))
            elif roll < 0.999:
                program.append(("peek",))
            else:
                program.append(("reset",))
        trace = _execute(Scheduler, program, hooks=True)
        assert trace == _execute(HeapScheduler, program, hooks=True)
        assert sum(1 for entry in trace if entry[0] == "fire") > 1000
