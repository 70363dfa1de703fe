"""Instrumentation the benchmark installs around the simulator from outside.

Nothing here edits the program: every hook is a class-level wrapper
around a public entry point, installed before any network is built and
removed afterwards.  Ports cache bound methods at construction time
(``Port._peer_receive``, host endpoint registrations), so wrapping after
the build would miss them; that is why both recorders install first.

:class:`PhaseClock`
    Times the phases of every ``run_scenario`` call (build, FIB, arming,
    run loop, collection) and audits the built ``Network``'s packet
    ledger.  It is cheap (a handful of clock reads per run) and is
    installed on every run, timed or traced.

:class:`LayerTrace`
    Charges host time to simulator layers with a span stack: every
    wrapped entry point and every scheduled callback opens a span, and
    a span's *self* time is its duration minus the time of the spans it
    contains.  So ``Switch.receive`` pays for forwarding, not for the
    ``Port.send`` it calls, and a delivery callback pays for the link,
    not for the switch it hands the packet to.  The self times of all
    layers add up to the traced run loop.  Spans are only recorded while
    ``Network.run`` is on the stack.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

import repro.net.cioq  # noqa: F401  (defines a Switch subclass the trace must see)
from repro.experiments import parallel as parallel_mod
from repro.experiments import runner as runner_mod
from repro.experiments.runner import result_to_dict
from repro.experiments.scenarios import Scenario
from repro.net import queues as queues_mod
from repro.net.audit import conservation_report
from repro.net.host import Host
from repro.net.link import Port
from repro.net.network import Network
from repro.net.switch import Switch
from repro.obs.profiler import profile_category
from repro.sim.engine import Scheduler
from repro.transport.tcp import TcpReceiver, TcpSender

# Fields of a result that are wall times or instrumentation payloads; the
# rest is what the simulation computed (bench_engine_speed's definition).
_NOT_CANONICAL = ("wall_seconds", "run_loop_seconds", "profile", "collector")


def digest_of(payload) -> str:
    """SHA-256 of a JSON-able value, independent of dict order."""
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def canonical_digest(result) -> str:
    """Digest of a result's simulated outputs, minus host-time fields."""
    payload = result_to_dict(result, include_scenario=False)
    for name in _NOT_CANONICAL:
        payload.pop(name, None)
    return digest_of(payload)


class Patches:
    """Replace class or module attributes and put the originals back."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, name: str, make: Callable[[Callable], Callable]) -> None:
        original = vars(owner)[name]
        setattr(owner, name, make(original))
        self._undo.append((owner, name, original))

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def timed_by(add: Callable[[float], None]) -> Callable[[Callable], Callable]:
    """A :meth:`Patches.wrap` maker that reports each call's host seconds."""
    def make(original):
        def timed(*args, **kwargs):
            started = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                add(perf_counter() - started)
        return timed
    return make


def _classes_defining(bases, name: str) -> list[type]:
    """``bases`` and all their subclasses that define ``name`` themselves."""
    seen: list[type] = []
    todo = list(bases)
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.append(cls)
        todo.extend(cls.__subclasses__())
    return [cls for cls in seen if name in vars(cls)]


# ----------------------------------------------------------------------
# phases of one run_scenario call
# ----------------------------------------------------------------------
class PhaseClock:
    """Per-run phase times and output checks, gathered across processes.

    ``run_scenario`` is the unit: the benchmark calls :meth:`run_scenario`
    directly for a single scenario, and :meth:`install` also points the
    sweep executor's ``run_scenario`` at it, so grid cells run through the
    same clock in the serial path and in forked workers.  A worker cannot
    hand its record back through the executor, so records made in another
    process are appended to ``sink_dir/<pid>.jsonl`` and read back by
    :meth:`take`.
    """

    def __init__(self, sink_dir: Path) -> None:
        self.records: list[dict] = []
        self.sink_dir = sink_dir
        sink_dir.mkdir(parents=True, exist_ok=True)
        self._pid = os.getpid()
        self._open: Optional[dict] = None

    def install(self, patches: Patches) -> "PhaseClock":
        patches.wrap(Scenario, "build_topology", self._timed("topo_s"))
        patches.wrap(Network, "_install_fibs", self._timed("fib_s"))
        patches.wrap(Scenario, "build_network", self._timed("build_s"))
        patches.wrap(Network, "run", self._run_loop)
        patches.wrap(parallel_mod, "run_scenario", lambda _original: self.run_scenario)
        return self

    def _timed(self, key: str):
        def add(seconds: float) -> None:
            if self._open is not None:
                self._open[key] += seconds
        return timed_by(add)

    def _run_loop(self, original):
        def run(network, *args, **kwargs):
            record = self._open
            if record is None:
                return original(network, *args, **kwargs)
            record["network"] = network
            record["run_entry"] = perf_counter()
            try:
                return original(network, *args, **kwargs)
            finally:
                record["run_exit"] = perf_counter()
        return run

    def run_scenario(self, scenario: Scenario, **kwargs):
        """``runner.run_scenario`` with its phases timed and its packets audited."""
        record = {"name": scenario.name, "seed": scenario.seed,
                  "topo_s": 0.0, "fib_s": 0.0, "build_s": 0.0}
        self._open = record
        started = perf_counter()
        try:
            result = runner_mod.run_scenario(scenario, **kwargs)
        finally:
            self._open = None
        finished = perf_counter()
        network = record.pop("network")
        ledger = conservation_report(network)
        run_entry, run_exit = record.pop("run_entry"), record.pop("run_exit")
        record.update(
            wall_s=finished - started,
            setup_s=run_entry - started,
            net_build_s=record["build_s"] - record["topo_s"] - record["fib_s"],
            arm_s=run_entry - started - record["build_s"],
            run_s=run_exit - run_entry,
            collect_s=finished - run_exit,
            leaked=ledger.leaked,
            data_sent=ledger.data_sent,
            data_delivered=ledger.data_delivered,
        )
        self.records.append(record)
        if os.getpid() != self._pid:
            with open(self.sink_dir / f"{os.getpid()}.jsonl", "a") as fh:
                fh.write(json.dumps(record) + "\n")
        return result

    def take(self) -> list[dict]:
        """Records since the last call, this process's and forked workers'."""
        records, self.records = self.records, []
        for path in sorted(self.sink_dir.glob("*.jsonl")):
            records.extend(json.loads(line) for line in path.read_text().splitlines())
            path.unlink()
        return records


# ----------------------------------------------------------------------
# per-layer self time
# ----------------------------------------------------------------------
ENGINE = "sim.engine"

# Scheduled-callback categories (repro.obs.profiler.profile_category) ->
# the layer whose code the callback is.
_CATEGORY_LAYER = {
    "link.deliver": "net.link",
    "link.tx": "net.link",
    "pfc": "net.link",
    "switch.forward": "net.switch",
    "transport.timer": "transport",
    "workload.arm": "workload",
    "faults": "faults",
    "obs": "obs",
}
# "other" callbacks and hooks fall back to their module.
_MODULE_LAYER = (("repro.control", "control"),)

LAYERS = (ENGINE, "net.link", "net.switch", "net.queues", "net.host", "transport",
          "workload", "net.network", "faults", "control", "obs", "other")


def _callback_layer(fn) -> tuple[str, str]:
    """(layer, span name) of a scheduled callback or run-loop hook."""
    category = profile_category(fn)
    layer = _CATEGORY_LAYER.get(category)
    if layer is None:
        module = getattr(getattr(fn, "__func__", fn), "__module__", "") or ""
        layer = next((lay for prefix, lay in _MODULE_LAYER if module.startswith(prefix)), "other")
    return layer, "cb." + category


class LayerTrace:
    """Span-stack self time per layer, plus call counts per entry point."""

    def __init__(self, pending_every: int = 1024) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.admitted = 0
        self.run_loop_s = 0.0
        self.pending_peak = 0
        self.pending_every = pending_every
        # One entry per open span: the time its child spans took so far.
        # Empty outside Network.run, which is how wrappers know to stay out.
        self._stack: list[float] = []
        # Name of the innermost open span: a subclass method calling the
        # same entry point through super() stays inside the outer span.
        # Names are compared by identity, so each is created once.
        self._top: list[Optional[str]] = [None]
        # Callback function -> (layer, span name), memoized per function.
        self._layer_memo: dict[object, tuple[str, str]] = {}

    # -- span primitive -------------------------------------------------
    def _traced(self, layer: str, name: str, fn, count_true: bool = False):
        stack, top = self._stack, self._top
        self_s, calls, incl_s = self.self_s, self.calls, self.incl_s
        trace = self

        def span(*args, **kwargs):
            if not stack or top[0] is name:
                return fn(*args, **kwargs)
            outer = top[0]
            top[0] = name
            stack.append(0.0)
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                inner = stack.pop()
                stack[-1] += elapsed
                self_s[layer] += elapsed - inner
                incl_s[name] += elapsed
                calls[name] += 1
                top[0] = outer
            if count_true and result:
                trace.admitted += 1
            return result

        return span

    def _callback(self, fn):
        """Wrap a scheduled callback or hook in a span of its own layer."""
        key = getattr(fn, "__func__", fn)
        entry = self._layer_memo.get(key)
        if entry is None:
            entry = self._layer_memo[key] = _callback_layer(fn)
        wrapped = self._traced(*entry, fn)
        # SchedulerProfiler keys its category memo on ``__func__``; pointing
        # it at the real callback keeps profiled runs categorized as before.
        wrapped.__func__ = key
        return wrapped

    # -- installation ---------------------------------------------------
    def install(self, patches: Patches) -> "LayerTrace":
        entry_points = [
            ([Switch], "receive", "net.switch", "switch.receive"),
            ([Switch], "detour_candidates", "net.switch", "switch.detour_candidates"),
            ([Port], "send", "net.link", "link.send"),
            ([Host], "receive", "net.host", "host.receive"),
            ([TcpSender], "on_ack", "transport", "transport.on_ack"),
            ([TcpReceiver], "on_data", "transport", "transport.on_data"),
            ([Network], "start_flow", "net.network", "network.start_flow"),
        ]
        queue_classes = [cls for cls in vars(queues_mod).values()
                         if isinstance(cls, type) and "enqueue" in vars(cls)]
        for owners, method, layer, name in entry_points:
            for cls in _classes_defining(owners, method):
                patches.wrap(cls, method, lambda fn, l=layer, n=name: self._traced(l, n, fn))
        for cls in _classes_defining(queue_classes, "enqueue"):
            patches.wrap(cls, "enqueue", lambda fn: self._traced(
                "net.queues", "queue.enqueue", fn, count_true=True))
        for cls in _classes_defining(queue_classes, "dequeue"):
            patches.wrap(cls, "dequeue", lambda fn: self._traced("net.queues", "queue.dequeue", fn))
        for method in ("schedule", "schedule_at", "schedule_once"):
            patches.wrap(Scheduler, method, self._schedule_wrapper(fn_index=1))
        patches.wrap(Scheduler, "schedule_reserved", self._schedule_wrapper(fn_index=2))
        self._add_hook_unwrapped = vars(Scheduler)["add_hook"]
        patches.wrap(Scheduler, "add_hook", self._add_hook_wrapper)
        patches.wrap(Network, "run", self._root)
        return self

    def _schedule_wrapper(self, fn_index: int):
        """Scheduling is engine work; the scheduled callback gets a span."""
        callback = self._callback

        def make(original):
            traced = self._traced(ENGINE, "engine." + original.__name__, original)

            def schedule(sched, *args):
                args = list(args)
                args[fn_index] = callback(args[fn_index])
                return traced(sched, *args)

            return schedule

        return make

    def _add_hook_wrapper(self, original):
        def add_hook(sched, fn, interval_events):
            return original(sched, self._callback(fn), interval_events)
        return add_hook

    def _root(self, original):
        """Network.run: the traced run loop, charged to the engine."""
        stack, self_s = self._stack, self.self_s

        def run(network, *args, **kwargs):
            scheduler = network.scheduler
            # The sampler is trace overhead, not a layer: it stays unwrapped
            # and its few clock-free reads land in the engine's self time.
            hook = self._add_hook_unwrapped(scheduler, self._sample_pending, self.pending_every)
            stack.append(0.0)
            started = perf_counter()
            try:
                return original(network, *args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                inner = stack.pop()
                self_s[ENGINE] += elapsed - inner
                self.run_loop_s += elapsed
                scheduler.remove_hook(hook)

        return run

    def _sample_pending(self, scheduler) -> None:
        pending = scheduler.pending
        if pending > self.pending_peak:
            self.pending_peak = pending
