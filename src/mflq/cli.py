"""Command-line front end.

Subcommands: ``solve`` (full synthesis report), ``regularity`` (condition
scan), ``value`` (cost of the synthesized strategy from a given law),
``simulate`` (Monte Carlo under a chosen strategy), ``verify`` (independent
cross-check suites), and ``example`` (emit a built-in problem document).

Reports are JSON on standard output with sorted keys, so a fixed command
line and seed produce byte-identical bytes.  ``--csv <dir>`` additionally
writes a time series (columns: time, then row-major entries of the two
Riccati matrices, the two gains, and the state mean).  Exit codes: 0
success, 2 validation failure, 3 numerical failure (finite escape), 4
verification suite failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import os
import sys
from typing import Optional

import numpy as np

from . import docio, sim
from .errors import FiniteEscapeError, ValidationError
from .presets import PRESET_NAMES, get_preset
from .problem import (
    ControlSpec,
    InitialLaw,
    MatrixPath,
    NoiseAffinePath,
    ProblemData,
    sample_path,
    strip_inhomogeneous,
)
from .riccati import DEFAULT_REG_TOL, assess_regularity, integrate_gre
from .synthesis import ClosedLoopSolution, closed_loop, synthesize
from .synthesis import value as strategy_value
from .verify import (
    classical_degeneration,
    completion_check,
    lower_bound_battery,
    qp_oracle,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_VERIFICATION = 4

QP_DEFAULT_INTERVALS = 2000
QP_DEFAULT_TOL = 1e-3
COMPLETION_REL_TOL = 1e-2


def _jsonable(obj):
    """Reduce a report object to JSON-encodable types.

    Non-finite floats become strings, since the emitter refuses NaN tokens.
    """
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return f if np.isfinite(f) else repr(f)
    return obj


def _print_report(report: dict):
    sys.stdout.write(docio.dumps(_jsonable(report)))


def _read_problem(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError([f"{path}: {exc.strerror or exc}"]) from exc
    return docio.load_problem(docio.load_document(text))


def _parse_floats(text: str, where: str) -> list:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValidationError([f"{where}: expected comma-separated numbers"])


def _resolve_law(args, doc_law: Optional[InitialLaw], n: int,
                 required: bool) -> Optional[InitialLaw]:
    """Initial law from the document, overridden by --law key=values flags."""
    overrides = getattr(args, "law", None) or []
    if not overrides:
        if doc_law is None and required:
            raise ValidationError(
                ["initial law: the document has none; pass --law mean=..."]
            )
        return doc_law
    if doc_law is not None:
        mean = np.array(doc_law.mean)
        bl = np.array(doc_law.brownian_load)
        il = np.array(doc_law.indep_load)
    else:
        mean = np.zeros(n)
        bl = np.zeros(n)
        il = np.zeros((n, n))
    for item in overrides:
        key, sep, val = item.partition("=")
        if not sep:
            raise ValidationError(
                [f"--law {item!r}: expected key=value"]
            )
        vals = _parse_floats(val, f"--law {key}")
        if key in ("mean", "brownian_load"):
            if len(vals) == 1:
                vec = np.full(n, vals[0])
            elif len(vals) == n:
                vec = np.array(vals)
            else:
                raise ValidationError(
                    [f"--law {key}: expected 1 or {n} entries, got {len(vals)}"]
                )
            if key == "mean":
                mean = vec
            else:
                bl = vec
        elif key == "indep_load":
            if len(vals) == 1:
                il = vals[0] * np.eye(n)
            elif len(vals) == n * n:
                il = np.array(vals).reshape(n, n)
            else:
                raise ValidationError(
                    [f"--law indep_load: expected 1 or {n * n} entries, "
                     f"got {len(vals)}"]
                )
        else:
            raise ValidationError(
                [f"--law {key}: unknown field (mean, brownian_load, "
                 "indep_load)"]
            )
    return InitialLaw(mean, bl, il)


def _law_dict(law: InitialLaw) -> dict:
    return {
        "mean": law.mean,
        "brownian_load": law.brownian_load,
        "indep_load": law.indep_load,
    }


def _condition_dicts(report) -> list:
    return [
        {
            "name": c.name,
            "passed": c.passed,
            "worst_node": c.worst_node,
            "worst_value": c.worst_value,
            "tolerance": c.tolerance,
        }
        for c in report.conditions
    ]


def _write_timeseries(dirpath: str, sol: ClosedLoopSolution,
                      EX: np.ndarray):
    """CSV with one row per node of the synthesis grid."""
    os.makedirs(dirpath, exist_ok=True)
    n, m = sol.problem.n, sol.problem.m
    gre = sol.gre
    header = ["time"]
    header += [f"P_{i}_{j}" for i in range(n) for j in range(n)]
    header += [f"P_mean_{i}_{j}" for i in range(n) for j in range(n)]
    header += [f"gain_dev_{i}_{j}" for i in range(m) for j in range(n)]
    header += [f"gain_mean_{i}_{j}" for i in range(m) for j in range(n)]
    header += [f"EX_{i}" for i in range(n)]
    target = os.path.join(dirpath, "timeseries.csv")
    with open(target, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for k, t in enumerate(sol.grid.nodes):
            row = [repr(float(t))]
            for block in (gre.P[k], gre.P_mean[k], gre.gain_dev[k],
                          gre.gain_mean[k], EX[k]):
                row += [repr(float(v)) for v in np.ravel(block)]
            writer.writerow(row)


def _mean_for_csv(p: ProblemData, sol: ClosedLoopSolution,
                  law: Optional[InitialLaw],
                  spec: Optional[ControlSpec] = None) -> np.ndarray:
    m0 = law.mean if law is not None else np.zeros(p.n)
    use = spec if spec is not None else sol.strategy
    EX, _ = sim.mean_ode(p, use, m0, n_steps=sol.grid.n_steps)
    return EX


def _maybe_csv(args, p, sol, law, spec=None):
    if getattr(args, "csv", None):
        _write_timeseries(args.csv, sol, _mean_for_csv(p, sol, law, spec))


# ---------------------------------------------------------------------------
# subcommands


def cmd_solve(args) -> int:
    p, doc_law = _read_problem(args.file)
    sol = synthesize(p, n_steps=args.steps)
    grid = sol.grid
    if args.at:
        times = _parse_floats(args.at, "--at")
    else:
        times = [grid.t0, 0.5 * (grid.t0 + grid.tT), grid.tT]
    spec = sol.strategy
    paths = {
        "P": MatrixPath.sampled(grid, sol.gre.P),
        "P_mean": MatrixPath.sampled(grid, sol.gre.P_mean),
        "gain_dev": spec.feedback,
        "mean_feedback": spec.mean_feedback,
        "offset_const": spec.offset.const_part,
        "offset_noise": spec.offset.noise_part,
    }
    # sample_path raises ValueError for a time outside the horizon
    stacks = {name: sample_path(path, times) for name, path in paths.items()}
    stacks["gain_mean"] = stacks["gain_dev"] + stacks.pop("mean_feedback")
    samples = [
        {"time": t, **{name: values[j] for name, values in stacks.items()}}
        for j, t in enumerate(times)
    ]

    corr = sol.affine.corrections
    report = {
        "command": "solve",
        "dims": {"n": p.n, "m": p.m},
        "horizon": {"t": grid.t0, "T": grid.tT, "steps": grid.n_steps},
        "regular": sol.regular,
        "feasible": sol.feasible,
        "solvable": sol.solvable,
        "conditions": _condition_dicts(sol.gre.report),
        "corrections": {
            "feasible": corr.feasible,
            "worst_dev_node": corr.worst_dev_node,
            "worst_dev_residual": corr.worst_dev_residual,
            "worst_mean_node": corr.worst_mean_node,
            "worst_mean_residual": corr.worst_mean_residual,
            "tolerance": corr.tol,
        },
        "samples": samples,
    }
    _print_report(report)
    _maybe_csv(args, p, sol, doc_law)
    return EXIT_OK


def _check_tolerance(value: Optional[float], flag: str) -> None:
    """Refuse a tolerance that is negative or not finite; None is the default."""
    if value is not None and not (np.isfinite(value) and value >= 0.0):
        raise ValidationError(
            [f"{flag} must be a finite non-negative number, got {value}"]
        )


def cmd_regularity(args) -> int:
    _check_tolerance(args.tol, "--tol")
    p, doc_law = _read_problem(args.file)
    gre = integrate_gre(p, n_steps=args.steps)
    # Built before the report, so an escape in the adjoints prints none.
    sol = closed_loop(p, gre) if getattr(args, "csv", None) else None
    rep = (
        gre.report
        if args.tol is None
        else assess_regularity(gre, tol=args.tol)
    )
    report = {
        "command": "regularity",
        "regular": rep.regular,
        "n_steps": rep.n_steps,
        "tolerance": rep.tol,
        "conditions": _condition_dicts(rep),
        "failing": [c.name for c in rep.conditions if not c.passed],
        "rank_dev": {"min": int(rep.dev_rank.min()),
                     "max": int(rep.dev_rank.max())},
        "rank_mean": {"min": int(rep.mean_rank.min()),
                      "max": int(rep.mean_rank.max())},
        "near_cutoff_dev": list(rep.near_cutoff_dev),
        "near_cutoff_mean": list(rep.near_cutoff_mean),
    }
    _print_report(report)
    _maybe_csv(args, p, sol, doc_law)
    return EXIT_OK


def cmd_value(args) -> int:
    p, doc_law = _read_problem(args.file)
    law = _resolve_law(args, doc_law, p.n, required=True)
    sol = synthesize(p, n_steps=args.steps)
    v = strategy_value(sol, law)
    report = {
        "command": "value",
        "time": sol.grid.t0,
        "value": v,
        "valid": sol.solvable,
        "label": "optimal value" if sol.solvable else "weak value candidate",
        "regular": sol.regular,
        "feasible": sol.feasible,
        "law": _law_dict(law),
    }
    _print_report(report)
    _maybe_csv(args, p, sol, law)
    return EXIT_OK


def _load_strategy_arg(args, p: ProblemData):
    choice = args.strategy
    if choice == "optimal":
        sol = synthesize(p, n_steps=args.solver_steps)
        return sol.strategy, "optimal", sol
    if choice == "zero":
        return ControlSpec.zero(p.n, p.m), "zero", None
    try:
        with open(choice, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(
            [f"--strategy {choice}: {exc.strerror or exc}"]
        ) from exc
    doc = docio.load_document(text)
    spec = docio.load_strategy(doc, p.n, p.m, p.horizon)
    return spec, f"file:{choice}", None


def cmd_simulate(args) -> int:
    p, doc_law = _read_problem(args.file)
    law = _resolve_law(args, doc_law, p.n, required=True)
    spec, label, sol = _load_strategy_arg(args, p)
    n_steps = p.horizon.n_steps if args.steps is None else args.steps
    rep = sim.simulate(p, spec, law, args.paths, n_steps, args.seed)
    report = {
        "command": "simulate",
        "strategy": label,
        "cost_mean": rep.cost_mean,
        "cost_stderr": rep.cost_stderr,
        "n_paths": rep.n_paths,
        "n_steps": rep.n_steps,
        "seed": rep.seed,
        "mean_gap": rep.mean_gap,
        "terminal_mean": rep.terminal_mean,
        "law": _law_dict(law),
    }
    _print_report(report)
    if getattr(args, "csv", None):
        if sol is None:
            sol = synthesize(p, n_steps=args.solver_steps)
        _maybe_csv(args, p, sol, law, spec)
    return EXIT_OK


def _check_dict(c) -> dict:
    return {
        "name": c.name,
        "passed": c.passed,
        "discrepancy": c.discrepancy,
        "tolerance": c.tolerance,
        "metadata": c.metadata,
    }


def _suite_qp(args, p, doc_law, solution):
    law = _resolve_law(args, doc_law, p.n, required=False)
    try:
        from .verify import _require_noiseless
        _require_noiseless(p)
    except ValueError as exc:
        return None, str(exc)
    if law is None:
        return None, "no initial law in the document and no --law given"
    if np.any(law.brownian_load != 0.0) or np.any(law.indep_load != 0.0):
        return None, "the oracle needs a deterministic initial state"
    v = strategy_value(solution(), law)
    res = qp_oracle(p, law.mean, K=args.qp_intervals)
    tol = max(args.qp_tol, args.qp_tol * abs(v))
    gap = abs(res.cost - v) if res.cost is not None else float("inf")
    passed = res.status == "ok" and gap <= tol
    return {
        "passed": passed,
        "checks": [{
            "name": "qp_matches_value",
            "passed": passed,
            "discrepancy": gap,
            "tolerance": tol,
            "metadata": {
                "status": res.status,
                "oracle_cost": res.cost,
                "value": v,
                "n_intervals": res.n_intervals,
            },
        }],
    }, None


def _suite_completion(args, p, sweep):
    core = strip_inhomogeneous(p)
    gre = sweep()  # the Riccati pair never reads the inhomogeneities
    if not gre.report.regular:
        return None, "the quadratic core is not regular"
    m, n = p.m, p.n
    probe = ControlSpec(
        feedback=MatrixPath.constant(np.full((m, n), 0.1)),
        mean_feedback=MatrixPath.constant(np.full((m, n), 0.05)),
        offset=NoiseAffinePath.of(np.full(m, 0.5), np.full(m, 0.25)),
    )
    res = completion_check(
        core, gre, probe, n_paths=args.paths, n_steps=args.steps,
        seed=args.seed,
    )
    # Below three standard errors of the paired difference the gap is
    # indistinguishable from sampling noise, so only a larger gap can
    # count against the relative tolerance.
    passed = (
        res.rel_gap <= COMPLETION_REL_TOL
        or res.gap <= 3.0 * res.gap_stderr
    )
    return {
        "passed": passed,
        "checks": [{
            "name": "completed_square_identity",
            "passed": passed,
            "discrepancy": res.rel_gap,
            "tolerance": COMPLETION_REL_TOL,
            "metadata": {
                "lhs": res.lhs,
                "rhs": res.rhs,
                "gap": res.gap,
                "lhs_stderr": res.lhs_stderr,
                "gap_stderr": res.gap_stderr,
                "n_paths": res.n_paths,
                "n_steps": res.n_steps,
                "seed": res.seed,
            },
        }],
    }, None


def _suite_battery(args, p, doc_law, solution):
    law = _resolve_law(args, doc_law, p.n, required=False)
    if law is None:
        law = InitialLaw.deterministic(np.zeros(p.n))
    sol = solution()
    if not sol.solvable:
        return None, "problem is not closed-loop solvable; the value is " \
                     "not a certified lower bound"
    rep = lower_bound_battery(
        p, sol, law, n_controls=args.controls, n_paths=args.paths,
        seed=args.seed, n_steps=args.steps,
    )
    return {
        "passed": rep.passed,
        "checks": [_check_dict(c) for c in rep.checks],
    }, None


def _suite_degeneration(args, p, sweep):
    if p.has_mean_terms:
        return None, "mean-coupling coefficients are nonzero"
    rep = classical_degeneration(p, sweep())
    return {
        "passed": rep.passed,
        "checks": [_check_dict(c) for c in rep.checks],
    }, None


def cmd_verify(args) -> int:
    _check_tolerance(args.qp_tol, "--qp-tol")
    p, doc_law = _read_problem(args.file)
    wanted = (
        ["qp", "completion", "battery", "degeneration"]
        if args.suite == "all"
        else [args.suite]
    )
    # One Riccati sweep for every suite and one synthesis on it for qp and
    # battery, built on first use: refused suites pay for neither.
    sweep = functools.cache(lambda: integrate_gre(p))
    solution = functools.cache(lambda: closed_loop(p, sweep()))
    suites = {}
    skipped = {}
    for name in wanted:
        if name == "qp":
            result, reason = _suite_qp(args, p, doc_law, solution)
        elif name == "completion":
            result, reason = _suite_completion(args, p, sweep)
        elif name == "battery":
            result, reason = _suite_battery(args, p, doc_law, solution)
        else:
            result, reason = _suite_degeneration(args, p, sweep)
        if result is None:
            if args.suite != "all":
                raise ValidationError([f"suite {name}: {reason}"])
            skipped[name] = reason
        else:
            suites[name] = result

    passed = all(s["passed"] for s in suites.values()) if suites else True
    report = {
        "command": "verify",
        "suite": args.suite,
        "suites": suites,
        "skipped": skipped,
        "passed": passed,
    }
    _print_report(report)
    return EXIT_OK if passed else EXIT_VERIFICATION


def cmd_example(args) -> int:
    p, law = get_preset(
        args.name, seed=args.seed, n=args.n, m=args.m, n_steps=args.steps
    )
    text = docio.dumps(docio.emit_problem(p, law))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring


def _add_csv(sp):
    sp.add_argument("--csv", metavar="DIR",
                    help="also write a node-by-node CSV time series here")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mflq",
        description="Mean-field linear-quadratic control: solve, verify, "
                    "simulate.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="synthesize and report the strategy")
    sp.add_argument("file")
    sp.add_argument("--steps", type=int, default=None,
                    help="override the solver grid resolution")
    sp.add_argument("--at", default="",
                    help="comma-separated report times (default: ends and "
                         "midpoint)")
    _add_csv(sp)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("regularity", help="scan the solvability conditions")
    sp.add_argument("file")
    sp.add_argument("--steps", type=int, default=None)
    sp.add_argument("--tol", type=float, default=None,
                    help=f"condition tolerance (default {DEFAULT_REG_TOL})")
    _add_csv(sp)
    sp.set_defaults(func=cmd_regularity)

    sp = sub.add_parser("value", help="optimal cost from an initial law")
    sp.add_argument("file")
    sp.add_argument("--law", action="append", metavar="KEY=VALUES",
                    help="override law fields: mean, brownian_load, "
                         "indep_load (comma-separated, scalar broadcasts)")
    sp.add_argument("--steps", type=int, default=None)
    _add_csv(sp)
    sp.set_defaults(func=cmd_value)

    sp = sub.add_parser("simulate", help="Monte Carlo cost of a strategy")
    sp.add_argument("file")
    sp.add_argument("--paths", type=int, default=10000)
    sp.add_argument("--steps", type=int, default=None,
                    help="simulation steps (default: the document grid)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--strategy", default="optimal",
                    help="'optimal', 'zero', or a strategy document path")
    sp.add_argument("--solver-steps", type=int, default=None,
                    help="grid for synthesizing the optimal strategy")
    sp.add_argument("--law", action="append", metavar="KEY=VALUES")
    _add_csv(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("verify", help="run independent cross-checks")
    sp.add_argument("file")
    sp.add_argument("--suite", default="all",
                    choices=["all", "qp", "completion", "battery",
                             "degeneration"])
    sp.add_argument("--paths", type=int, default=20000)
    sp.add_argument("--steps", type=int, default=200,
                    help="simulation steps for the statistical suites")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--controls", type=int, default=20,
                    help="strategies sampled by the battery")
    sp.add_argument("--qp-intervals", type=int, default=QP_DEFAULT_INTERVALS)
    sp.add_argument("--qp-tol", type=float, default=QP_DEFAULT_TOL)
    sp.add_argument("--law", action="append", metavar="KEY=VALUES")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("example", help="emit a built-in problem document")
    sp.add_argument("name", choices=list(PRESET_NAMES))
    sp.add_argument("--out", default=None, help="write here instead of stdout")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--m", type=int, default=2)
    sp.add_argument("--steps", type=int, default=None)
    sp.set_defaults(func=cmd_example)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FiniteEscapeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValidationError as exc:
        for line in exc.violations:
            print(f"invalid: {line}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
