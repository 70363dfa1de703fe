"""Hop budget: executed CPython bytecodes per logical event, per function.

Not a paper figure: a noise-free gate on the cost of the forwarding
pipeline.  Wall-clock A/B on a shared machine spreads by 5-25 %, so a
change that adds a handful of bytecodes to every hop cannot be seen by a
timing check.  An executed-instruction count can: the simulator is
deterministic, so the same cell executes the same instructions on every
run, under any ``PYTHONHASHSEED``, on any machine with the same CPython
minor version.

Method.  ``Network.run`` is wrapped from outside the program; while it
runs, ``sys.settrace`` installs a tracer on every new Python frame with
``f_trace_opcodes`` on and line events off, and counts ``opcode`` events
per code object.  Only Python bytecodes are counted (work done inside C
functions such as ``heapq.heappush`` is not), which is the part of the
cost a Python-level change can move.  The count is divided by the run's
*logical* event count (dispatched events plus elided tx-dones, the
engine-independent ``events_processed``).

Cells (fixed seeds; the storm cell runs with the observability of the
benchmark's ``storm-grid`` workload — profiler, trace file, occupancy
sampling, spans — except the heartbeat, whose wall-clock cadence would
make the count vary):

* ``incast-dibs-k8`` — fig07 DIBS incast on the K=8 fat-tree, 0.02 s of
  traffic plus a 0.1 s drain;
* ``incast-pfabric-k8`` — the same under pFabric with 0.01 s of traffic
  (its retransmission storms grow fast with overlapping queries);
* ``storm-dibs-static`` — the flap-storm DIBS cell without the
  controller, 0.6 s of traffic plus the storm's 2 s drain.

``BENCH_hop_budget.json`` holds, per cell, the logical event count and
the ``before`` and ``after`` arms of the change that last moved the
budget.  ``--check`` fails if a cell now executes more bytecodes than
its committed ``after`` count, or if its event count changed (then the
cell simulates something else and must be re-recorded).  On a CPython
minor version other than the recorded one it reports and skips: the
bytecode of one version says nothing about another's.

Usage::

    python benchmarks/bench_hop_budget.py                 # report
    python benchmarks/bench_hop_budget.py --check         # gate
    python benchmarks/bench_hop_budget.py --record after  # re-record
    python benchmarks/bench_hop_budget.py --cells storm-dibs-static

Each K=8 cell takes roughly 15-40 s traced.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from repro.experiments import PAPER_DEFAULTS
from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import flap_storm
from repro.net.network import Network

import common

BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_hop_budget.json"

# Functions at or above this many bytecodes per event are listed one by
# one in the report and the JSON; the rest are summed into "(rest)".
_LIST_FLOOR = 0.5


def _cells(work: Path) -> dict:
    obs = work / "obs"
    return {
        "incast-dibs-k8": PAPER_DEFAULTS.with_overrides(
            name="incast-dibs-k8", scheme="dibs", duration_s=0.02, drain_s=0.1, seed=3),
        "incast-pfabric-k8": PAPER_DEFAULTS.with_overrides(
            name="incast-pfabric-k8", scheme="pfabric", duration_s=0.01, drain_s=0.1,
            seed=3),
        # No heartbeat: it emits on a wall-clock cadence, so the bytecodes
        # it executes vary from run to run.
        "storm-dibs-static": flap_storm(
            "dibs", name="storm-dibs-static", controller=False, duration_s=0.6, seed=7,
            profile=True, trace_file=str(obs / "storm.trace.jsonl"),
            trace_occupancy_interval_s=0.05, span_sample_rate=0.02),
    }


CELL_NAMES = tuple(_cells(Path(".")))


def _function_name(code) -> str:
    path = Path(code.co_filename)
    parts = path.with_suffix("").parts
    module = ".".join(parts[parts.index("repro"):]) if "repro" in parts else path.name
    return f"{module}:{getattr(code, 'co_qualname', code.co_name)}"


def count_cell(scenario) -> dict:
    """Run ``scenario`` and count the bytecodes executed inside ``Network.run``."""
    counts: dict = {}  # code object -> [executed opcodes]
    tracers: dict = {}  # code object -> its local trace function

    def local_for(code):
        slot = counts[code] = [0]

        def local(frame, event, arg):
            if event == "opcode":
                slot[0] += 1
            return local

        tracers[code] = local
        return local

    def on_call(frame, event, arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        code = frame.f_code
        return tracers.get(code) or local_for(code)

    original = Network.run

    def traced_run(network, *args, **kwargs):
        sys.settrace(on_call)
        try:
            return original(network, *args, **kwargs)
        finally:
            sys.settrace(None)

    Network.run = traced_run
    started = perf_counter()
    try:
        result = run_scenario(scenario)
    finally:
        Network.run = original
    wall = perf_counter() - started
    events = result.events
    by_function: dict[str, int] = {}
    for code, slot in counts.items():
        name = _function_name(code)
        by_function[name] = by_function.get(name, 0) + slot[0]
    total = sum(by_function.values())
    return {"events": events, "ops": total, "ops_per_event": round(total / events, 2),
            "by_function": _per_event(by_function, events), "traced_wall_s": round(wall, 1)}


def _per_event(by_function: dict, events: int) -> dict:
    listed, rest = {}, 0
    for name, ops in sorted(by_function.items(), key=lambda kv: (-kv[1], kv[0])):
        if ops / events >= _LIST_FLOOR:
            listed[name] = round(ops / events, 2)
        else:
            rest += ops
    listed["(rest)"] = round(rest / events, 2)
    return listed


def _python_minor() -> str:
    return f"{sys.version_info.major}.{sys.version_info.minor}"


def format_report(live: dict, baseline: dict) -> str:
    lines = [f"hop budget (CPython {_python_minor()}): executed bytecodes per logical event"]
    for name, cell in live.items():
        committed = baseline.get("cells", {}).get(name, {})
        before = committed.get("before", {})
        after = committed.get("after", {})
        lines.append("")
        lines.append(
            f"{name}: {cell['events']:,} events, {cell['ops']:,} ops, "
            f"{cell['ops_per_event']:.1f} ops/event  (traced {cell['traced_wall_s']} s)")
        if before:
            lines.append(f"  committed before {before['ops_per_event']:.1f}, "
                         f"after {after.get('ops_per_event', float('nan')):.1f}")
        header = f"  {'function':<58} {'live':>7} {'before':>7}"
        lines.append(header)
        ref = before.get("by_function", {})
        for fn, per_event in cell["by_function"].items():
            old = ref.get(fn)
            old_text = f"{old:>7.1f}" if old is not None else f"{'-':>7}"
            lines.append(f"  {fn:<58} {per_event:>7.1f} {old_text}")
    return "\n".join(lines)


def check(live: dict, baseline: dict) -> list[str]:
    """Failures of ``live`` against the committed ``after`` counts."""
    failures = []
    for name, cell in live.items():
        after = baseline.get("cells", {}).get(name, {}).get("after")
        if after is None:
            failures.append(f"{name}: no committed count (run --record after)")
            continue
        if cell["events"] != baseline["cells"][name]["events"]:
            failures.append(
                f"{name}: {cell['events']} events, committed {baseline['cells'][name]['events']}"
                " — the cell simulates something else; re-record it")
        elif cell["ops"] > after["ops"]:
            failures.append(
                f"{name}: {cell['ops']:,} ops ({cell['ops_per_event']:.1f}/event) exceeds the "
                f"committed {after['ops']:,} ({after['ops_per_event']:.1f}/event)")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cells", default=",".join(CELL_NAMES),
                        help=f"comma-separated subset of {', '.join(CELL_NAMES)}")
    parser.add_argument("--check", action="store_true",
                        help="fail if a cell exceeds its committed bytecode count")
    parser.add_argument("--record", choices=("before", "after"),
                        help="write the live counts into BENCH_hop_budget.json as this arm")
    args = parser.parse_args()
    names = [name for name in args.cells.split(",") if name]
    unknown = set(names) - set(CELL_NAMES)
    if unknown:
        parser.error(f"unknown cells: {sorted(unknown)}")
    baseline = json.loads(BASELINE_PATH.read_text()) if BASELINE_PATH.exists() else {}
    same_python = baseline.get("python") == _python_minor()
    if args.check and not same_python:
        print(f"hop budget recorded on CPython {baseline.get('python')}, running "
              f"{_python_minor()}: bytecode counts are not comparable; skipping the gate")
        args.check = False

    with tempfile.TemporaryDirectory(prefix="hop-budget-") as tmp:
        work = Path(tmp)
        (work / "obs").mkdir()
        cells = _cells(work)
        live = {name: count_cell(cells[name]) for name in names}

    report = format_report(live, baseline)
    print(report)
    common.save_table("bench_hop_budget", report)
    if args.record:
        if baseline and not same_python:
            parser.error("the committed counts are from another CPython; re-record both arms")
        baseline["python"] = _python_minor()
        cells_out = baseline.setdefault("cells", {})
        for name, cell in live.items():
            entry = cells_out.setdefault(name, {})
            if entry.get("events", cell["events"]) != cell["events"]:
                parser.error(f"{name}: {cell['events']} events, the other arm has "
                             f"{entry['events']}; both arms must simulate the same run")
            entry["events"] = cell["events"]
            entry[args.record] = {key: cell[key] for key in ("ops", "ops_per_event", "by_function")}
        BASELINE_PATH.write_text(json.dumps(baseline, indent=2) + "\n")
        print(f"\nrecorded the {args.record} arm in {BASELINE_PATH.name}")
    if args.check:
        failures = check(live, baseline)
        for failure in failures:
            print(f"FAIL {failure}")
        if failures:
            return 1
        print("\nhop budget ok: every cell within its committed bytecode count")
    return 0


if __name__ == "__main__":
    sys.exit(main())
