"""Command-line front end.

Subcommands: ``solve`` (full synthesis report), ``regularity`` (condition
scan), ``value`` (cost of the synthesized strategy from a given law),
``simulate`` (Monte Carlo under a chosen strategy), ``verify`` (independent
cross-check suites), and ``example`` (emit a built-in problem document).

Reports are JSON on standard output with sorted keys, so a fixed command
line and seed produce byte-identical bytes.  Result records (regularity
conditions, verification checks, the initial law) appear under their own
field names.  ``verify`` runs its suites from one table, ``_SUITES``.
``--csv <dir>`` additionally writes a time series (columns: time, then
row-major entries of the two Riccati matrices, the two gains, and the
state mean; for ``simulate``, the simulated strategy's gains and mean
only).  Exit codes: 0 success, 2 validation failure, 3 numerical
failure (finite escape), 4 verification suite failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
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
from .synthesis import closed_loop, synthesize
from .synthesis import value as strategy_value
from .verify import (
    CheckResult,
    VerificationReport,
    _require_noiseless,
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

    A dataclass instance becomes {field name: value}.  Non-finite floats
    become strings, since the emitter refuses NaN tokens.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
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


def _read_text(path: str, where: str) -> str:
    """The text of the file at path; a file that cannot be read is refused
    under ``where``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValidationError([f"{where}: {exc.strerror or exc}"]) from exc


def _read_problem(path: str):
    return docio.load_problem(docio.load_document(_read_text(path, path)))


def _parse_floats(text: str, where: str) -> list:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValidationError([f"{where}: expected comma-separated numbers"])


def _resolve_law(args, doc_law: Optional[InitialLaw], n: int,
                 required: bool) -> Optional[InitialLaw]:
    """Initial law from the document, overridden by --law key=values flags.

    Each key names an InitialLaw field.  One value fills the field: a vector
    of it, or it times the identity for indep_load; otherwise the flag gives
    every entry, row-major for indep_load.
    """
    overrides = getattr(args, "law", None) or []
    if not overrides:
        if doc_law is None and required:
            raise ValidationError(
                ["initial law: the document has none; pass --law mean=..."]
            )
        return doc_law
    if doc_law is None:
        doc_law = InitialLaw.deterministic(np.zeros(n))
    fields = dataclasses.asdict(doc_law)
    for item in overrides:
        key, sep, val = item.partition("=")
        if not sep:
            raise ValidationError(
                [f"--law {item!r}: expected key=value"]
            )
        vals = _parse_floats(val, f"--law {key}")
        if key not in fields:
            raise ValidationError(
                [f"--law {key}: unknown field ({', '.join(fields)})"]
            )
        square = key == "indep_load"
        size = n * n if square else n
        if len(vals) == 1:
            fields[key] = vals[0] * np.eye(n) if square else np.full(n, vals[0])
        elif len(vals) == size:
            fields[key] = np.reshape(vals, (n, n) if square else n)
        else:
            raise ValidationError(
                [f"--law {key}: expected 1 or {size} entries, got {len(vals)}"]
            )
    return InitialLaw(**fields)


def _write_timeseries(dirpath: str, times: np.ndarray, columns: dict):
    """CSV with one row per time: ``columns`` maps a name to a stack with
    one block per time, written row-major as name_i or name_i_j."""
    os.makedirs(dirpath, exist_ok=True)
    header = ["time"]
    for name, stack in columns.items():
        header += ["_".join(map(str, (name, *at)))
                   for at in np.ndindex(stack.shape[1:])]
    target = os.path.join(dirpath, "timeseries.csv")
    with open(target, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for k, t in enumerate(times):
            row = [repr(float(t))]
            for stack in columns.values():
                row += [repr(float(v)) for v in np.ravel(stack[k])]
            writer.writerow(row)


def _maybe_csv(args, p, sol, law):
    if getattr(args, "csv", None):
        m0 = law.mean if law is not None else np.zeros(p.n)
        EX, _ = sim.mean_ode(p, sol.strategy, m0, n_steps=sol.grid.n_steps)
        gre = sol.gre
        _write_timeseries(args.csv, sol.grid.nodes, {
            "P": gre.P, "P_mean": gre.P_mean, "gain_dev": gre.gain_dev,
            "gain_mean": gre.gain_mean, "EX": EX,
        })


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
    dev, mean = corr.conditions
    report = {
        "command": "solve",
        "dims": {"n": p.n, "m": p.m},
        "horizon": {"t": grid.t0, "T": grid.tT, "steps": grid.n_steps},
        "regular": sol.regular,
        "feasible": sol.feasible,
        "solvable": sol.solvable,
        "conditions": sol.gre.report.conditions,
        "corrections": {
            "feasible": corr.feasible,
            "worst_dev_node": dev.worst_node,
            "worst_dev_residual": dev.worst_value,
            "worst_mean_node": mean.worst_node,
            "worst_mean_residual": mean.worst_value,
            "tolerance": dev.tolerance,
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
        "conditions": rep.conditions,
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
        "law": law,
    }
    _print_report(report)
    _maybe_csv(args, p, sol, law)
    return EXIT_OK


def _load_strategy_arg(args, p: ProblemData):
    choice = args.strategy
    if choice == "optimal":
        return synthesize(p, n_steps=args.solver_steps).strategy, "optimal"
    if choice == "zero":
        return ControlSpec.zero(p.n, p.m), "zero"
    doc = docio.load_document(_read_text(choice, f"--strategy {choice}"))
    spec = docio.load_strategy(doc, p.n, p.m, p.horizon)
    return spec, f"file:{choice}"


def cmd_simulate(args) -> int:
    # One path's standard error is 0, the value a deterministic problem
    # reports, so a one-path estimate would read as exact.
    if args.paths < 2:
        raise ValueError(f"simulate needs n_paths >= 2, got {args.paths}")
    p, doc_law = _read_problem(args.file)
    law = _resolve_law(args, doc_law, p.n, required=True)
    spec, label = _load_strategy_arg(args, p)
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
        "law": law,
    }
    _print_report(report)
    if getattr(args, "csv", None):
        nodes = p.horizon.with_steps(rep.n_steps).nodes
        fb = sample_path(spec.feedback, nodes)
        _write_timeseries(args.csv, nodes, {
            "gain_dev": fb,
            "gain_mean": fb + sample_path(spec.mean_feedback, nodes),
            "EX": rep.mean_path,
        })
    return EXIT_OK


# Each suite takes (args, p, doc_law, sweep, solution) and returns its
# VerificationReport, or the reason it does not apply to the problem.


def _suite_qp(args, p, doc_law, sweep, solution):
    law = _resolve_law(args, doc_law, p.n, required=False)
    try:
        _require_noiseless(p)
    except ValueError as exc:
        return str(exc)
    if law is None:
        return "no initial law in the document and no --law given"
    if np.any(law.brownian_load != 0.0) or np.any(law.indep_load != 0.0):
        return "the oracle needs a deterministic initial state"
    v = strategy_value(solution(), law)
    res = qp_oracle(p, law.mean, K=args.qp_intervals)
    tol = max(args.qp_tol, args.qp_tol * abs(v))
    gap = abs(res.cost - v) if res.cost is not None else float("inf")
    return VerificationReport((CheckResult(
        name="qp_matches_value", passed=res.status == "ok" and gap <= tol,
        discrepancy=gap, tolerance=tol,
        metadata={
            "status": res.status,
            "oracle_cost": res.cost,
            "value": v,
            "n_intervals": res.n_intervals,
        },
    ),))


def _suite_completion(args, p, doc_law, sweep, solution):
    core = strip_inhomogeneous(p)
    gre = sweep()  # the Riccati pair never reads the inhomogeneities
    if not gre.report.regular:
        return "the quadratic core is not regular"
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
    return VerificationReport((CheckResult(
        name="completed_square_identity", passed=passed,
        discrepancy=res.rel_gap, tolerance=COMPLETION_REL_TOL,
        metadata={
            f.name: getattr(res, f.name) for f in dataclasses.fields(res)
            if f.name != "rel_gap"  # already the check's discrepancy
        },
    ),))


def _suite_battery(args, p, doc_law, sweep, solution):
    law = _resolve_law(args, doc_law, p.n, required=False)
    if law is None:
        law = InitialLaw.deterministic(np.zeros(p.n))
    sol = solution()
    if not sol.solvable:
        return "problem is not closed-loop solvable; the value is " \
               "not a certified lower bound"
    return lower_bound_battery(
        p, sol, law, n_controls=args.controls, n_paths=args.paths,
        seed=args.seed, n_steps=args.steps,
    )


def _suite_degeneration(args, p, doc_law, sweep, solution):
    if p.has_mean_terms:
        return "mean-coupling coefficients are nonzero"
    return classical_degeneration(p, sweep())


_SUITES = {
    "qp": _suite_qp,
    "completion": _suite_completion,
    "battery": _suite_battery,
    "degeneration": _suite_degeneration,
}


def cmd_verify(args) -> int:
    _check_tolerance(args.qp_tol, "--qp-tol")
    p, doc_law = _read_problem(args.file)
    wanted = list(_SUITES) if args.suite == "all" else [args.suite]
    # One Riccati sweep for every suite and one synthesis on it for qp and
    # battery, built on first use: refused suites pay for neither.
    sweep = functools.cache(lambda: integrate_gre(p))
    solution = functools.cache(lambda: closed_loop(p, sweep()))
    suites = {}
    skipped = {}
    for name in wanted:
        rep = _SUITES[name](args, p, doc_law, sweep, solution)
        if isinstance(rep, str):
            if args.suite != "all":
                raise ValidationError([f"suite {name}: {rep}"])
            skipped[name] = rep
        else:
            suites[name] = {"passed": rep.passed, "checks": rep.checks}

    passed = all(s["passed"] for s in suites.values())
    report = {
        "command": "verify",
        "suite": args.suite,
        "suites": suites,
        "skipped": skipped,
        "passed": passed,
        # passed with no suite run backs no verdict; say so on its own key
        "vacuous": not suites,
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
    sp.add_argument("--suite", default="all", choices=["all", *_SUITES])
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
