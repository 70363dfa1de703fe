"""The artifact registry must stay in sync with the bench directory."""

import importlib
import importlib.util
import sys

import pytest

from repro.experiments.registry import ARTIFACTS, benchmarks_dir


def load_bench(name):
    bench_dir = str(benchmarks_dir())
    if bench_dir not in sys.path:
        sys.path.insert(0, bench_dir)  # benches do `import common`
    path = benchmarks_dir() / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"benchcheck.{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestRegistryConsistency:
    def test_every_registered_bench_file_exists(self):
        for artifact in ARTIFACTS:
            if not artifact.bench:
                continue
            path = benchmarks_dir() / f"{artifact.bench}.py"
            assert path.exists(), f"{artifact.artifact} points at missing {path.name}"

    def test_every_bench_file_is_registered(self):
        registered = {a.bench for a in ARTIFACTS if a.bench}
        on_disk = {
            p.stem
            for p in benchmarks_dir().glob("bench_*.py")
            # Substrate-health benches (engine throughput/speed gates,
            # observability overhead gates, job-server service levels,
            # the per-hop bytecode budget) are not paper artifacts.
            if p.stem
            not in {
                "bench_engine_throughput",
                "bench_engine_speed",
                "bench_hop_budget",
                "bench_obs_overhead",
                "bench_server",
            }
        }
        assert on_disk == registered, (
            f"unregistered: {sorted(on_disk - registered)}; "
            f"stale: {sorted(registered - on_disk)}"
        )

    def test_every_referenced_module_imports(self):
        for artifact in ARTIFACTS:
            for module in artifact.modules:
                importlib.import_module(module)

    @pytest.mark.parametrize(
        "bench", sorted({a.bench for a in ARTIFACTS if a.bench})
    )
    def test_bench_exposes_run_entry_point(self, bench):
        module = load_bench(bench)
        if bench == "bench_detour_decision":
            # Pure pytest-benchmark file: its tests are the entry point.
            assert hasattr(module, "test_forward_path_cost")
            return
        assert callable(getattr(module, "run", None)), f"{bench} lacks run()"
        assert hasattr(module, "NAME")

    def test_all_major_figures_present(self):
        names = {a.artifact for a in ARTIFACTS}
        for fig in ("Figure 6", "Figure 7", "Figure 14", "Figure 16"):
            assert fig in names

    def test_claims_are_nonempty(self):
        assert all(a.claim for a in ARTIFACTS)
