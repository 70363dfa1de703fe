"""Host-time benchmark of the DIBS simulator.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload incast-dibs-k8 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload storm-grid --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --smoke --workload storm-grid --seed 0 --seconds 1 --trace 1

Each measurement (a *unit*, see workloads.py) runs in a fresh Python
process, so no unit inherits another's allocator state or wrappers.  The
parent repeats units until ``--seconds`` is used up and reports medians.
Between units it times a fixed probe workload (probe.py) and scales each
unit's host times by the probe, so that the host's drifting speed does
not read as a change of the simulator; unscaled values are printed too.
With ``--trace 0`` it times untraced units and prints the end-to-end
metrics; with ``--trace 1`` it alternates an untraced and a traced unit
and prints the per-layer metrics (unscaled).  Every unit's outputs are
checked (see METHODOLOGY.md); the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The benchmark refuses to run (exit 2, no result) when ``REPRO_ENGINE`` or
``REPRO_ELIDE_TX`` is set, since either silently swaps the engine or the
transmit path, or when the simulator's source tree is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from probe import PROBE_REF_S, probe_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"
GUARDED_ENV = ("REPRO_ENGINE", "REPRO_ELIDE_TX")
RUN_LIMIT_S = 170.0  # a run must end within 180 s, children included

END_TO_END = {  # name -> unit
    "events_per_s": "1/s",
    "wall_us_per_event": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}
# Scaled by the host-speed probe before they are reported (see probe.py).
HOST_TIME_METRICS = ("events_per_s", "wall_us_per_event", "setup_s")


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="K=4 and a few ms of traffic: every path and check in seconds")
    parser.add_argument("--child", choices=("timed", "traced"), help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _refusal() -> str | None:
    for name in GUARDED_ENV:
        if name in os.environ:
            return (f"{name} is set; it swaps the engine or transmit path without "
                    f"any result recording it. Unset it to benchmark the shipped default.")
    if not (SRC / "repro" / "__init__.py").is_file():
        return f"simulator source not found at {SRC / 'repro'}; run from a full checkout"
    return None


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------
def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or "unknown"


def _tree_hash(tree: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(tree.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(tree).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args, params: dict) -> dict:
    return {
        "git_commit": _git_commit(),
        "src_repro_sha256": _tree_hash(SRC / "repro"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "params": params,
    }


# ----------------------------------------------------------------------
# child: one unit in this process
# ----------------------------------------------------------------------
def _child(args) -> int:
    from workloads import run_unit

    WORK_ROOT.mkdir(exist_ok=True)
    try:
        record = run_unit(args.workload, args.seed, args.child == "traced",
                          args.smoke, WORK_ROOT)
    except Exception as exc:  # reported to the parent, which counts the failure
        record = {"error": f"{type(exc).__name__}: {exc}", "traceback": traceback.format_exc()}
    record["mode"] = args.child
    print(json.dumps(record))
    return 0


def _spawn(args, mode: str, budget_s: float) -> dict:
    """Run one unit in a fresh interpreter; its process group dies with it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", mode,
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(budget_s, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"mode": mode, "error": f"unit exceeded its {budget_s:.0f}s budget"}
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"mode": mode, "error": f"unit exited {proc.returncode}: {err.strip()[-2000:]}"}


# ----------------------------------------------------------------------
# parent: repeat, check, aggregate
# ----------------------------------------------------------------------
def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _collect_units(args) -> list[dict]:
    modes = ("timed", "traced") if args.trace else ("timed",)
    min_rounds = 1 if args.trace else 2
    started = time.perf_counter()
    units: list[dict] = []
    rounds: list[float] = []
    before = probe_seconds()
    while True:
        round_started = time.perf_counter()
        for mode in modes:
            budget = RUN_LIMIT_S - (time.perf_counter() - started)
            unit = _spawn(args, mode, budget)
            after = probe_seconds()
            unit["probe_s"] = (before + after) / 2
            before = after
            units.append(unit)
        rounds.append(time.perf_counter() - round_started)
        elapsed = time.perf_counter() - started
        if len(rounds) >= min_rounds and elapsed + _median(rounds) > args.seconds:
            return units
        if elapsed + _median(rounds) > RUN_LIMIT_S:
            return units


def _failures(units: list[dict]) -> list[str]:
    """One reason per failed unit; marks each unit with ``failed``."""
    digests = Counter(u["digest"] for u in units if "error" not in u)
    reference = digests.most_common(1)[0][0] if digests else None
    reasons = []
    for i, unit in enumerate(units):
        why = []
        if "error" in unit:
            why.append(unit["error"])
        else:
            why.extend(f"check {name} failed" for name, ok in unit["checks"].items() if not ok)
            if unit["digest"] != reference:
                why.append(f"{unit['mode']} digest differs from the other repeats")
        unit["failed"] = bool(why)
        reasons.extend(f"unit {i} ({unit['mode']}): {reason}" for reason in why)
    return reasons


def end_to_end(timed: list[dict], attempted: int, failed: int, scaled: bool = True) -> dict:
    """Medians over the timed units; host times scaled to the probe's
    reference speed unless ``scaled`` is false (see probe.py)."""
    def slowdown(unit: dict) -> float:
        return unit["probe_s"] / PROBE_REF_S if scaled else 1.0

    return {
        "events_per_s": _median(u["events_per_s"] * slowdown(u) for u in timed),
        "wall_us_per_event": _median(
            1e6 * u["wall_s"] / u["events"] / slowdown(u) for u in timed),
        "setup_s": _median(u["setup_s"] / slowdown(u) for u in timed),
        "peak_rss_mb": _median(u["peak_rss_mb"] for u in timed),
        "ok_ratio": 1.0 - failed / attempted,
    }


def _layer_metrics(unit: dict) -> dict:
    layers, counts = unit["layers"], unit["counts"]
    self_s, calls, incl_s = layers["self_s"], layers["calls"], layers["incl_s"]
    receives = calls.get("switch.receive", 0)
    enqueues = calls.get("queue.enqueue", 0)
    metrics = {f"{layer}.self_s": self_s[layer] for layer in
               ("sim.engine", "net.link", "net.switch", "net.queues", "net.host",
                "transport", "workload", "faults", "control", "obs")}
    metrics.update({
        "sim.engine.schedule_calls": sum(n for name, n in calls.items()
                                         if name.startswith("engine.")),
        "sim.engine.pending_peak": layers["pending_peak"],
        "net.link.send_calls": calls.get("link.send", 0),
        "net.link.tx_calls": calls.get("cb.link.tx", 0),
        "net.link.deliver_calls": calls.get("cb.link.deliver", 0),
        "net.switch.receive_calls": receives,
        "net.switch.detour_s": incl_s.get("switch.detour_candidates", 0.0),
        "net.switch.detours": counts["detours"],
        "net.switch.detour_ratio": counts["detours"] / receives if receives else 0.0,
        "net.queues.enqueue_calls": enqueues,
        "net.queues.dequeue_calls": calls.get("queue.dequeue", 0),
        "net.queues.admit_ratio": layers["admitted"] / enqueues if enqueues else 1.0,
        "net.queues.drops": counts["queue_drops"],
        "net.queues.ecn_marks": counts["ecn_marks"],
        "transport.ack_calls": calls.get("transport.on_ack", 0),
        "transport.data_calls": calls.get("transport.on_data", 0),
        "transport.timer_calls": calls.get("cb.transport.timer", 0),
        "transport.retransmits": counts["retransmits"],
        "transport.goodput_ratio": unit["goodput_ratio"],
        "workload.flows_started": calls.get("network.start_flow", 0),
        "net.network.start_flow_s": self_s["net.network"],
        "faults.applied": counts["faults_applied"],
        "control.ticks": counts["controller_ticks"],
        "obs.trace_bytes": counts.get("trace_bytes", 0),
        "other.self_s": self_s["other"],
        "trace.overhead_ratio": layers["run_loop_s"] / layers["untraced_run_s"],
    })
    return metrics


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", ".speedup")):
        return "ratio"
    return "bytes" if name.endswith("_bytes") else "count"


_PHASE_METRICS = {"topo.build_s": "topo_s", "routing.fib_s": "fib_s",
                  "net.network.build_s": "net_build_s", "workload.arm_s": "arm_s",
                  "metrics.collect_s": "collect_s"}
_EXECUTOR_METRICS = {
    "experiments.parallel.speedup": "speedup",
    "experiments.parallel.idle_tail_s": "idle_tail_s",
    "experiments.journal.record_s": "record_s",
    "experiments.journal.lookup_s": "lookup_s",
    "experiments.journal.resume_s": "resume_s",
    "experiments.journal.hit_ratio": "hit_ratio",
}


def per_layer(timed: list[dict], traced: list[dict]) -> dict:
    """Trace metrics from the traced units, the rest from the untraced ones.

    Workloads that do not run the sweep executor report its metrics as 0.
    """
    per_unit = [_layer_metrics(unit) for unit in traced]
    metrics = {name: _median(m[name] for m in per_unit) for name in per_unit[0]}
    for name, key in _PHASE_METRICS.items():
        metrics[name] = _median(u["phases"][key] for u in timed)
    for name, key in _EXECUTOR_METRICS.items():
        metrics[name] = _median((u["parallel"] or {}).get(key, 0.0) for u in timed)
    return metrics


def _measure(args) -> int:
    from workloads import WORKLOADS, workload_params

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    print("provenance: " + json.dumps(
        provenance(args, workload_params(args.workload, args.seed, args.smoke)), sort_keys=True))
    units = _collect_units(args)
    reasons = _failures(units)
    # Units that ran to the end are timed even when a check failed: the
    # failure shows in ``correct``, ``failed`` and ``ok_ratio``.
    ran = [u for u in units if "error" not in u]
    timed = [u for u in ran if u["mode"] == "timed"]
    traced = [u for u in ran if u["mode"] == "traced"]
    attempted, failed = len(units), sum(u["failed"] for u in units)
    for i, unit in enumerate(units):
        status = "FAILED" if unit["failed"] else "ok"
        if "error" in unit:
            print(f"unit {i} {unit['mode']}: {status}")
        else:
            print(f"unit {i} {unit['mode']}: {status} wall_s={unit['wall_s']:.4f} "
                  f"events={unit['events']} setup_s={unit['setup_s']:.4f}")
    for reason in reasons:
        print("failure: " + reason)
    checks: dict[str, bool] = {}
    for unit in units:
        for name, passed in unit.get("checks", {}).items():
            checks[name] = checks.get(name, True) and passed
    print("checks (all units): " + json.dumps(checks, sort_keys=True))
    if ran:
        print("checked outputs: " + json.dumps(ran[0]["outputs"], sort_keys=True))
    e2e = end_to_end(timed, attempted, failed) if timed else {}
    if timed:
        print(f"wall_s = {_median(u['wall_s'] for u in timed):.6f} s "
              f"(unscaled; the simulated work depends on the seed, so it is not gated)")
        print(f"probe_s = {_median(u['probe_s'] for u in units):.6f} s "
              f"(reference {PROBE_REF_S} s)")
        for name, value in end_to_end(timed, attempted, failed, scaled=False).items():
            if name in HOST_TIME_METRICS:
                print(f"unscaled {name} = {value:.6f} {END_TO_END[name]}")
    print(f"fail_ratio = {failed / attempted:.6f} ratio ({failed}/{attempted} units)")
    for name, value in e2e.items():
        print(f"{name} = {value:.6f} {END_TO_END[name]}")
    if args.trace:
        layer = per_layer(timed, traced) if timed and traced else {}
        for name, value in layer.items():
            print(f"{name} = {value:.6f} {_layer_unit(name)}")
        metrics = {name: {"value": value, "unit": _layer_unit(name)}
                   for name, value in layer.items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END[name]} for name, value in e2e.items()}
    print(json.dumps({"correct": failed == 0 and bool(timed), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    refusal = _refusal()
    if refusal is not None:
        print(f"refusing to run: {refusal}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.child:
        return _child(args)
    return _measure(args)


if __name__ == "__main__":
    sys.exit(main())
