"""mflq benchmark: three workloads, end-to-end metrics and a layer trace.

Run one workload (the last line of stdout is the JSON result):

    python3 bench/run.py --workload solve-mix --seed 0 --seconds 25 --trace 0

``--trace 1`` wraps mflq's public functions from outside and reports
per-layer self times and counts instead of the end-to-end metrics.
``--workload all`` runs every workload in its own fresh process and prints
each metric by name, unit and sample count; with ``--trace 1`` it also runs
each workload traced twice, reports the tracing overhead and fails if the
two traced runs count differently.  See bench/README.md.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# One caller, one BLAS thread: the host has 2 cores and the solver's work is
# per-node Python overhead, so more threads add noise and no speed.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

# Claims of a speed-up must also hold on this seed, which is not used while
# a change is written or tuned.
HELD_OUT_SEED = 104729
WORKLOAD_NAMES = ("solve-mix", "monte-carlo", "verify-suites")
SUBPROCESS_TIMEOUT = 900


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def env_info(np, seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def emit(line=""):
    print(f"# {line}" if line else "#", flush=True)


def metric(name, value, unit, samples):
    emit(f"metric {name} = {value:.6g} {unit} (n={samples})")
    return {"value": value, "unit": unit}


def run_one(args):
    if not (SRC / "mflq" / "__init__.py").is_file():
        print(f"bench: no mflq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import mflq
    import_s = time.perf_counter() - _T_START
    import harness
    import workloads
    from tracer import Tracer, layer_metrics, count_mismatches

    emit("env " + json.dumps(env_info(np, args.seed), sort_keys=True))
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = None
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        # each set-up is bracketed by calibrations, like every operation
        cals = [harness.calibrate()]
        setup_times, setup_cal = [], []
        for _ in range(wl.setup_repeats):
            t0 = time.perf_counter()
            wl.set_up()
            setup_times.append(time.perf_counter() - t0)
            cals.append(harness.calibrate())
            setup_cal.append(setup_times[-1] / (0.5 * (cals[-2] + cals[-1])))
        emit(f"set-up {import_s:.4f} s imports + median "
             f"{statistics.median(setup_times):.4f} s (uncalibrated)")
        t0 = time.perf_counter()
        wl.prepare()
        emit(f"references {time.perf_counter() - t0:.3f} s (untimed)")
        run_failures = []
        if args.trace:
            tracer = Tracer(mflq)
            tracer.install()
            run_failures += [f"not traced: {b}" for b in tracer.unwrapped_bindings()]
        loop = harness.run_loop(wl, args.seconds, tracer)
        if tracer is not None:
            tracer.uninstall()
        run_failures += wl.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    samples = loop.samples
    for s in samples:
        if s.error:
            emit(f"FAIL op {wl.entries[s.entry].label} (pass {s.pass_index}): {s.error}")
    for i, e in enumerate(wl.entries):
        mine = [s for s in samples if s.entry == i]
        emit(f"entry {e.label}: n={len(mine)} "
             f"median {statistics.median(s.seconds for s in mine):.4f} s "
             f"{statistics.median(s.cal for s in mine):.3f} cal")
    failed = sum(1 for s in samples if s.error)
    emit(f"loop {loop.elapsed:.2f} s, {len(samples)} ops, {loop.passes} whole passes, "
         f"failed_ratio {failed / len(samples):.4g} ({failed}/{len(samples)})")
    emit(f"pass_s = {harness.pass_total(samples, 'seconds'):.6g} s "
         f"(uncalibrated, n={len(samples)})")
    pass_cal = harness.pass_total(samples, "cal")

    if args.trace:
        ops = tracer.op_summaries()
        run_failures += count_mismatches(ops, samples, wl.entries)
        metrics = {
            name: metric(name, value, unit, len(samples))
            for name, (value, unit) in layer_metrics(ops, samples).items()
        }
        metrics["traced.pass_cal"] = metric("traced.pass_cal", pass_cal, "cal",
                                            len(samples))
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}"
        labels = {op: wl.entries[s.entry].label for op, s in enumerate(samples)}
        tracer.write_spans(out_dir / f"spans-{stem}.csv.gz", labels)
        summary = {
            "env": env_info(np, args.seed),
            "workload": args.workload,
            "metrics": metrics,
            "wait_s": {name: 0.0 for name in tracer.names},
        }
        (out_dir / f"trace-{stem}.json").write_text(
            json.dumps(summary, indent=1, sort_keys=True), encoding="utf-8")
        emit(f"spans and summary written to {out_dir.relative_to(ROOT)}/")
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": metric(
                "setup_s",
                harness.CAL_REF_S * (import_s / cals[0] + statistics.median(setup_cal)),
                "s", len(setup_times)),
            "pass_cal": metric("pass_cal", pass_cal, "cal", len(samples)),
            "peak_rss_mb": metric("peak_rss_mb", peak_mb, "MB", 1),
        }
    for f in run_failures:
        emit(f"FAIL run: {f}")
    result = {
        "correct": failed == 0 and not run_failures,
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


def run_child(workload, args, trace):
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(f"  {line}")
    if proc.returncode != 0 or not lines:
        print(proc.stderr, file=sys.stderr)
        raise SystemExit(f"{workload}: exit code {proc.returncode}")
    return json.loads(lines[-1])


def run_all(args):
    """Every workload in its own fresh process, one after the other."""
    ok = True
    table = []
    for name in WORKLOAD_NAMES:
        print(f"== {name} (trace 0)", flush=True)
        res = run_child(name, args, 0)
        ok &= res["correct"]
        table.append((name, res))
        if args.trace:
            traced = []
            for k in (1, 2):
                print(f"== {name} (trace 1, run {k})", flush=True)
                traced.append(run_child(name, args, 1))
                ok &= traced[-1]["correct"]
            counts = [{m: v["value"] for m, v in t["metrics"].items()
                       if v["unit"] == "count"} for t in traced]
            if counts[0] != counts[1]:
                ok = False
                diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
                print(f"FAIL {name}: the two traced runs count differently: {diff}")
            base = res["metrics"]["pass_cal"]["value"]
            over = traced[0]["metrics"]["traced.pass_cal"]["value"] - base
            print(f"   {name}: tracing overhead {over:.4g} cal per pass "
                  f"({100.0 * over / base:.3g}% of {base:.4g})")
    print("== end-to-end metrics (trace 0)")
    for name, res in table:
        ratio = res["failed"] / res["attempted"]
        print(f"   {name}: failed_ratio {ratio:.4g} "
              f"({res['failed']}/{res['attempted']} ops), correct {res['correct']}")
        for m, v in res["metrics"].items():
            print(f"   {name}: {m} = {v['value']:.6g} {v['unit']}")
    print(json.dumps({"correct": ok, "workloads": {n: r for n, r in table}},
                     sort_keys=True))
    return 0 if ok else 1


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
