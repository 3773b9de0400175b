"""Self-test of the benchmark: its checks can fail and its trace misses nothing.

Run from the repository root:  python3 -m pytest bench -q
"""

import json
import os
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import mflq  # noqa: E402
from mflq import linalg  # noqa: E402

import harness  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, count_mismatches, layer_metrics, package_modules  # noqa: E402


@pytest.fixture(scope="module")
def workdir():
    path = ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def only(wl, label):
    wl.entries = [e for e in wl.entries if e.label == label]
    assert len(wl.entries) == 1
    wl.min_passes = 1
    return wl


def run_once(wl, tracer=None):
    return harness.run_loop(wl, 0.0, tracer).samples


def solve_mix(workdir, label):
    wl = workloads.SolveMix(0, workdir)
    wl.set_up()
    return only(wl, label)


def test_true_reference_passes(workdir):
    (s,) = run_once(solve_mix(workdir, "value scalar_classic"))
    assert s.error is None


def test_wrong_reference_counts_as_failed(workdir):
    wl = solve_mix(workdir, "value scalar_classic")
    wl.expected["scalar_classic"]["value"] = 0.6
    (s,) = run_once(wl)
    assert s.error is not None and "value" in s.error


def test_wrong_flag_counts_as_failed(workdir):
    wl = solve_mix(workdir, "solve example31")
    wl.expected["example31"]["regular"] = True
    (s,) = run_once(wl)
    assert s.error is not None and "regular" in s.error


def test_refusal_with_its_exit_code_passes(workdir):
    wl = workloads.VerifySuites(0, workdir)
    wl.set_up()
    (s,) = run_once(only(wl, "verify example31 --suite battery"))
    assert s.error is None


def test_wrong_exit_code_counts_as_failed(workdir):
    wl = workloads.VerifySuites(0, workdir)
    wl.set_up()
    wl = only(wl, "verify example31 --suite battery")
    wl.entries[0].want_code = 0
    (s,) = run_once(wl)
    assert s.error is not None and "exit code" in s.error


def test_raising_operation_counts_as_failed(workdir):
    wl = solve_mix(workdir, "value scalar_classic")
    wl.docs["scalar_classic"] = (workdir / "missing.json",) + wl.docs["scalar_classic"][1:]
    (s,) = run_once(wl)
    assert s.error is not None


def test_every_public_function_is_wrapped_at_every_binding():
    tracer = Tracer(mflq)
    tracer.install()
    try:
        assert tracer.unwrapped_bindings() == []
        # spot checks of names imported into other modules, under aliases too
        from mflq import cli, synthesis, verify
        for fn in (synthesis.integrate_gre, verify.integrate_gre, cli.integrate_gre,
                   cli.strategy_value, mflq.integrate_gre, linalg.pinv):
            assert getattr(fn, "__bench_traced__", False)
        # a binding made after installation is reported, not silently missed
        original = tracer._originals["linalg.pinv"]
        verify.pinv = original
        try:
            assert tracer.unwrapped_bindings() == ["mflq.verify.pinv still binds linalg.pinv"]
        finally:
            del verify.pinv
    finally:
        tracer.uninstall()
    for mod in package_modules(mflq):
        for val in vars(mod).values():
            assert not getattr(val, "__bench_traced__", False)


@pytest.fixture(scope="module")
def traced_run(workdir):
    """Two passes of one traced operation."""
    wl = solve_mix(workdir, "solve scalar_classic")
    wl.min_passes = 2
    tracer = Tracer(mflq)
    tracer.install()
    try:
        samples = harness.run_loop(wl, 0.0, tracer).samples
    finally:
        tracer.uninstall()
    return tracer.op_summaries(), samples, wl.entries


def test_repeated_operation_counts_identically(traced_run):
    ops, samples, entries = traced_run
    assert len(samples) == 2
    assert count_mismatches(ops, samples, entries) == []
    metrics = layer_metrics(ops, samples)
    assert metrics["synthesis.synthesize.calls"] == (1, "count")
    assert metrics["per_synthesis.pinv"][0] == metrics["linalg.pinv.calls"][0] > 0
    assert metrics["cli.main.self_cal"][0] > 0.0


def test_metric_names_match_benchmark_json(traced_run):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    ops, samples, _ = traced_run
    per_layer = set(layer_metrics(ops, samples)) | {"traced.pass_cal"}
    assert per_layer == {m["name"] for m in spec["per_layer"]}
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "pass_cal", "peak_rss_mb"}
