"""The benchmark's workloads and the unit of work each one times.

A *unit* is what one measurement covers, always from an empty network
through the drain:

* ``incast-dibs-k8`` / ``incast-pfabric-k8`` — one scenario through
  ``run_scenario`` on the paper's K=8 fat-tree (128 hosts);
* ``storm-grid`` — a cold ``run_grid`` over flap-storm cells on two
  workers with a fresh journal and observability on, then the same grid
  again with ``resume=True``.

``run_unit`` executes one unit in the calling process and returns a
plain-dict record: host times, the simulated outputs that are checked
rather than gated, the output checks, and (traced units) the per-layer
trace.  METHODOLOGY.md says why each workload is here.
"""

from __future__ import annotations

import resource
import shutil
import statistics
import tempfile
from pathlib import Path
from time import perf_counter

from repro.experiments import PAPER_DEFAULTS, SCALED_DEFAULTS
from repro.experiments.journal import RunJournal
from repro.experiments.parallel import RunTelemetry, run_grid
from repro.experiments.scenarios import flap_storm

from instrument import (LAYERS, LayerTrace, Patches, PhaseClock, canonical_digest, digest_of,
                        timed_by)

WORKLOADS = ("incast-dibs-k8", "incast-pfabric-k8", "storm-grid")

# Simulated time is fixed by these parameters; the seed picks the traffic.
# pFabric stops arrivals at 0.01 s: its retransmission storms grow faster
# than linearly with overlapping queries (see METHODOLOGY.md).
_INCAST = {
    "incast-dibs-k8": PAPER_DEFAULTS.with_overrides(
        name="incast-dibs-k8", scheme="dibs", duration_s=0.05, drain_s=0.3),
    "incast-pfabric-k8": PAPER_DEFAULTS.with_overrides(
        name="incast-pfabric-k8", scheme="pfabric", duration_s=0.01, drain_s=0.3),
}
# Smoke mode: the same pipelines at K=4 (16 hosts) and a few ms of traffic.
_INCAST_SMOKE = {
    name: SCALED_DEFAULTS.with_overrides(
        name=name, scheme=base.scheme, qps=400.0, duration_s=0.01, drain_s=0.05)
    for name, base in _INCAST.items()
}

STORM_SCHEMES = ("dibs", "dctcp")
STORM_WORKERS = 2
STORM_SEEDS_PER_CELL = 2

# Drops a queue made (the switch counts a refused enqueue as overflow).
_QUEUE_DROPS = ("overflow", "pfabric_evictions", "host_nic", "ingress_overflow")


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0  # ru_maxrss is in KiB on Linux


def storm_cells(work: Path, smoke: bool) -> dict:
    """flap_storm cells: {dibs, dctcp} x controller {off, on}, obs on."""
    overrides = {"duration_s": 0.2, "drain_s": 0.3} if smoke else {}
    cells = {}
    for scheme in STORM_SCHEMES:
        for controller in (False, True):
            name = f"storm-{scheme}-{'ctl' if controller else 'static'}"
            cells[name] = flap_storm(
                scheme,
                name=name,
                controller=controller,
                profile=True,
                heartbeat_interval_s=0.25,
                heartbeat_path=str(work / "obs" / f"{name}-{{seed}}.heartbeat.jsonl"),
                trace_file=str(work / "obs" / f"{name}-{{seed}}.trace.jsonl"),
                trace_occupancy_interval_s=0.05,
                span_sample_rate=0.02,
                **overrides,
            )
    return cells


def workload_params(workload: str, seed: int, smoke: bool) -> dict:
    """What the unit simulates, for the provenance record."""
    if workload == "storm-grid":
        cells = storm_cells(Path("."), smoke)
        cell = next(iter(cells.values()))
        return {"cells": list(cells),
                "seeds": list(range(seed, seed + STORM_SEEDS_PER_CELL)),
                "workers": STORM_WORKERS, "topology": cell.topology,
                "duration_s": cell.duration_s, "drain_s": cell.drain_s,
                "link_flap_rate": cell.link_flap_rate}
    scenario = (_INCAST_SMOKE if smoke else _INCAST)[workload]
    return {"scheme": scenario.scheme, "k": scenario.k, "qps": scenario.qps,
            "incast_degree": scenario.incast_degree, "buffer_pkts": scenario.buffer_pkts,
            "duration_s": scenario.duration_s, "drain_s": scenario.drain_s, "seed": seed}


def run_unit(workload: str, seed: int, traced: bool, smoke: bool, work_root: Path) -> dict:
    """Run one unit of ``workload`` in this process and describe it.

    A traced unit runs the same unit twice in this process: untraced
    first, as the baseline for the trace's overhead and its digest, then
    with the layer trace installed.  The record describes the traced pass.
    """
    work = Path(tempfile.mkdtemp(prefix="unit-", dir=work_root))
    patches = Patches()
    try:
        clock = PhaseClock(sink_dir=work / "phases").install(patches)
        record = _one_pass(clock, workload, seed, smoke, work / "untraced", serial=traced)
        if traced:
            baseline = record
            trace = LayerTrace().install(patches)
            record = _one_pass(clock, workload, seed, smoke, work / "traced", serial=True)
            record["layers"] = layers = _layer_record(trace)
            layers["untraced_run_s"] = baseline["run_s"]
            record["checks"]["baseline_digest_equal"] = baseline["digest"] == record["digest"]
            record["checks"]["self_times_add_up"] = abs(
                sum(layers["self_s"].values()) - layers["run_loop_s"]
            ) <= 1e-9 * layers["run_loop_s"]
            record["checks"].update(
                {f"baseline_{name}": ok for name, ok in baseline["checks"].items()})
        record["peak_rss_mb"] = _peak_rss_mb()
        return record
    finally:
        patches.restore()
        shutil.rmtree(work, ignore_errors=True)


def _one_pass(clock: PhaseClock, workload: str, seed: int, smoke: bool, work: Path,
              serial: bool) -> dict:
    """One unit's simulations plus the phase records they left."""
    (work / "obs").mkdir(parents=True)
    if workload == "storm-grid":
        record = _storm_unit(seed, smoke, work, serial)
    else:
        record = _incast_unit(clock, workload, seed, smoke)
    runs = clock.take()
    record["checks"]["no_leak"] = all(run["leaked"] == 0 for run in runs)
    record["phases"] = {
        key: sum(run[key] for run in runs)
        for key in ("topo_s", "fib_s", "net_build_s", "arm_s", "run_s", "collect_s")
    }
    record["setup_s"] = statistics.median(run["setup_s"] for run in runs)
    record["run_s"] = record["phases"]["run_s"]
    sent = sum(run["data_sent"] for run in runs)
    record["goodput_ratio"] = sum(run["data_delivered"] for run in runs) / sent if sent else 0.0
    return record


def _outputs(result) -> dict:
    return {
        "events": result.events,
        "qct_p99_ms": result.qct_p99_ms,
        "bg_fct_p99_ms": result.bg_fct_p99_ms,
        "drops": result.total_drops,
        "detours": result.detours,
    }


_SIM_COUNTS = ("detours", "queue_drops", "ecn_marks", "retransmits",
               "faults_applied", "controller_ticks")


def _sim_counts(result) -> dict:
    """Counters the layer metrics need that the simulator already keeps."""
    return {
        "detours": result.detours,
        "queue_drops": sum(result.drops.get(key, 0) for key in _QUEUE_DROPS),
        "ecn_marks": result.ecn_marks,
        "retransmits": result.retransmits,
        "faults_applied": sum(result.faults_applied.values()),
        "controller_ticks": result.controller_stats.get("ticks", 0),
    }


def _incast_unit(clock: PhaseClock, workload: str, seed: int, smoke: bool) -> dict:
    scenario = (_INCAST_SMOKE if smoke else _INCAST)[workload].with_overrides(seed=seed)
    result = clock.run_scenario(scenario)
    run = clock.records[-1]
    return {
        "digest": canonical_digest(result),
        "events": result.events,
        "wall_s": run["wall_s"],
        "events_per_s": result.events / run["run_s"],
        "outputs": _outputs(result),
        "counts": _sim_counts(result),
        "checks": {},
        "parallel": None,
    }


def _grid_digest(results: dict) -> str:
    return digest_of({key: canonical_digest(result) for key, result in results.items()})


def _journal_round_trip(cells: dict, seeds: tuple, telemetry: RunTelemetry, work: Path):
    """Cold grid on the workers with a fresh journal, then the resume pass."""
    seconds = {"record_success": 0.0, "lookup": 0.0}
    patches = Patches()
    for method in seconds:
        def add(elapsed: float, method: str = method) -> None:
            seconds[method] += elapsed
        patches.wrap(RunJournal, method, timed_by(add))
    try:
        journal = RunJournal(work / "journal")
        started = perf_counter()
        cold = run_grid(cells, seeds=seeds, workers=STORM_WORKERS,
                        telemetry=telemetry, journal=journal)
        cold_s = perf_counter() - started
        resumed_telemetry = RunTelemetry()
        started = perf_counter()
        resumed = run_grid(cells, seeds=seeds, workers=STORM_WORKERS,
                           telemetry=resumed_telemetry, journal=journal, resume=True)
        resume_s = perf_counter() - started
    finally:
        patches.restore()
    parallel = {
        "speedup": telemetry.speedup,
        "idle_tail_s": telemetry.wall_seconds - telemetry.run_seconds / STORM_WORKERS,
        "record_s": seconds["record_success"],
        "lookup_s": seconds["lookup"],
        "resume_s": resume_s,
        "hit_ratio": resumed_telemetry.cells_resumed / resumed_telemetry.runs_total,
    }
    return cold, cold_s, resumed, parallel


def _storm_unit(seed: int, smoke: bool, work: Path, serial: bool) -> dict:
    cells = storm_cells(work, smoke)
    seeds = tuple(range(seed, seed + STORM_SEEDS_PER_CELL))
    telemetry = RunTelemetry()
    checks = {}
    if serial:
        # Traced units: one process, so every wrapper's counts land in
        # this process's trace, and the untraced baseline matches it.
        started = perf_counter()
        cold = run_grid(cells, seeds=seeds, workers=1, telemetry=telemetry)
        wall = perf_counter() - started
        parallel = None
    else:
        cold, wall, resumed, parallel = _journal_round_trip(cells, seeds, telemetry, work)
        wall += parallel["resume_s"]
        checks["journal_all_hits"] = parallel["hit_ratio"] == 1.0
        checks["resume_digest_equal"] = _grid_digest(resumed) == _grid_digest(cold)
    checks["all_runs_ok"] = telemetry.runs_failed == 0 and len(cold) == len(cells)
    per_cell = [_sim_counts(result) for result in cold.values()]
    counts = {key: sum(cell[key] for cell in per_cell) for key in _SIM_COUNTS}
    counts["trace_bytes"] = sum(
        path.stat().st_size for path in (work / "obs").glob("*.trace.jsonl"))
    return {
        "digest": _grid_digest(cold),
        "events": sum(result.events for result in cold.values()),
        "wall_s": wall,
        "events_per_s": telemetry.events_per_second,
        "outputs": {key: _outputs(result) for key, result in cold.items()},
        "counts": counts,
        "checks": checks,
        "parallel": parallel,
    }


def _layer_record(trace: LayerTrace) -> dict:
    return {
        "self_s": {layer: trace.self_s.get(layer, 0.0) for layer in LAYERS},
        "run_loop_s": trace.run_loop_s,
        "calls": dict(trace.calls),
        "incl_s": dict(trace.incl_s),
        "admitted": trace.admitted,
        "pending_peak": trace.pending_peak,
    }
