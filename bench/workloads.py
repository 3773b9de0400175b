"""The three workloads: solve-mix, monte-carlo and verify-suites.

Each workload builds its inputs from the run seed in ``set_up`` (timed, and
repeated so that its median can be reported), computes what its checks
compare against in ``prepare`` (untimed), and then runs one entry at a time:
``execute`` is the timed operation, ``check`` judges its output and raises
``CheckFailed``.  ``finish`` returns failures that only show across a whole
run.  The program receives only the generated documents and arguments.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from mflq import cli, docio, moments, presets, sim, synthesis
from harness import CheckFailed

VARIANTS = {
    "meanfield": dict(with_bars=True, inhomogeneous=True),
    "homogeneous": dict(with_bars=True, inhomogeneous=False),
    "nobars": dict(with_bars=False, inhomogeneous=True),
}
# solve-mix documents: (n, m, variant, command).  The seed changes only the
# coefficients, so every run does the same amount of work.
SOLVE_MIX = (
    (1, 1, "meanfield", "solve"),
    (2, 2, "homogeneous", "value"),
    (6, 3, "nobars", "solve"),
    (10, 5, "meanfield", "value"),
)
# Checks against a reference solved on a grid this many times finer.  The
# tolerance scale 1 + |x| follows the solver's own slack convention, so a
# value near zero is not held to a relative bound its discretization error
# cannot meet.
REF_FACTOR = 4
REF_RTOL = 1e-6
EXACT_TOL = 1e-9
# Closed forms: scalar_classic has P(t0) = value = 0.5 from x = 1;
# example31 has the weak value candidate 2 x^2 = 2 from x = 1.
CLASSIC_EXACT = 0.5
EXAMPLE31_VALUE = 2.0

MC_SIZES = ((2, 2), (6, 3))
MC_PATHS = 40_000   # three Philox chunks of up to 16384 paths
MC_STEPS = 150
REPRO_RTOL = 1e-12

VERIFY_PATHS = 2000
VERIFY_CONTROLS = 5
# The battery's "optimal attains value" check is a 3-stderr test, which a
# correct program fails for about 0.3% of Monte Carlo draws.  Its mean-field
# instance and Monte Carlo seed are therefore fixed (and pass); every other
# verify-suites input follows the run seed.
BATTERY_INSTANCE_SEED = 1
BATTERY_SUITE_SEED = 0
STATIONARITY_TOL = 1e-6
MOMENT_RTOL = 1e-6


def derive_seed(seed: int, index: int) -> int:
    """Instance seed number ``index`` of a run seed (a non-negative int)."""
    return (seed * 16 + index) % 2**63


def run_cli(argv):
    """``mflq <argv>`` in process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def write_document(path: Path, p, law):
    """Write a problem document and parse it back, as the CLI would."""
    text = docio.dumps(docio.emit_problem(p, law))
    path.write_text(text, encoding="utf-8")
    return docio.load_problem(docio.load_document(text))


def close(got, want, tol: float, what: str):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    gap = float(np.linalg.norm(got - want))
    if not gap <= tol:
        raise CheckFailed(f"{what}: got {got.tolist()}, want {want.tolist()} "
                          f"(gap {gap:.3e} > {tol:.1e})")


def expect(got, want, what: str):
    if got != want:
        raise CheckFailed(f"{what}: got {got!r}, want {want!r}")


@dataclass
class Entry:
    label: str
    doc: str = ""
    command: str = ""
    suite: str = ""
    want_code: int = 0


class Workload:
    name = ""
    kernel = "python"   # calibration kernel, see harness.KERNELS
    min_passes = 1
    setup_repeats = 3

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.docs = {}
        self.entries = []

    def set_up(self):
        raise NotImplementedError

    def _add_doc(self, name, p, law):
        """Write one problem document; keep (path, problem, law) under name."""
        path = self.workdir / f"{name}.json"
        self.docs[name] = (path, *write_document(path, p, law))

    def prepare(self):
        """Untimed work the checks need."""

    def execute(self, entry, pass_index):
        raise NotImplementedError

    def check(self, entry, pass_index, output):
        raise NotImplementedError

    def finish(self) -> list:
        return []


class SolveMix(Workload):
    """In-process ``mflq solve`` and ``mflq value`` at the default grid."""

    name = "solve-mix"

    def set_up(self):
        self.docs = {}      # name -> (path, problem, law)
        self.expected = {}  # name -> dict of flags and analytic numbers
        entries = []
        for j, (n, m, variant, command) in enumerate(SOLVE_MIX):
            name = f"rs-{n}x{m}-{variant}"
            p, law = presets.random_spd(
                derive_seed(self.seed, j), n=n, m=m, **VARIANTS[variant]
            )
            self._add_doc(name, p, law)
            self.expected[name] = {"regular": True, "solvable": True}
            entries.append(Entry(f"{command} {name}", doc=name, command=command))
        self._add_doc("scalar_classic", *presets.scalar_classic())
        self.expected["scalar_classic"] = {
            "regular": True, "solvable": True,
            "P0": [[CLASSIC_EXACT]], "value": CLASSIC_EXACT, "tol": EXACT_TOL,
        }
        self._add_doc("example31", *presets.example31())
        self.expected["example31"] = {
            "regular": False, "solvable": False,
            "value": EXAMPLE31_VALUE, "tol": EXACT_TOL,
        }
        for name in ("scalar_classic", "example31"):
            for command in ("solve", "value"):
                entries.append(Entry(f"{command} {name}", doc=name, command=command))
        self.entries = entries

    def prepare(self):
        for name, (_, p, law) in self.docs.items():
            if "value" in self.expected[name]:
                continue
            sol = synthesis.synthesize(p, n_steps=REF_FACTOR * p.horizon.n_steps)
            scale = 1.0 + float(np.linalg.norm(sol.gre.P[0]))
            v = synthesis.value(sol, law)
            self.expected[name].update(
                P0=sol.gre.P[0], value=v, tol=REF_RTOL * scale,
                value_tol=REF_RTOL * (1.0 + abs(v)),
            )

    def execute(self, entry, pass_index):
        return run_cli([entry.command, str(self.docs[entry.doc][0])])

    def check(self, entry, pass_index, output):
        code, out, err = output
        expect(code, 0, f"exit code (stderr {err.strip()!r})")
        rep = json.loads(out)
        want = self.expected[entry.doc]
        expect(rep["regular"], want["regular"], "regular")
        if entry.command == "solve":
            expect(rep["solvable"], want["solvable"], "solvable")
            first = rep["samples"][0]
            expect(first["time"], self.docs[entry.doc][1].horizon.t0, "first time")
            if "P0" in want:
                close(first["P"], want["P0"], want["tol"], "P(t0)")
        else:
            expect(rep["valid"], want["solvable"], "valid")
            close(rep["value"], want["value"],
                  want.get("value_tol", want["tol"]), "value")


class MonteCarlo(Workload):
    """A few large ``sim.simulate`` calls of the synthesized strategy."""

    name = "monte-carlo"
    kernel = "array"
    min_passes = 2   # passes 2k and 2k+1 share Monte Carlo seeds

    def set_up(self):
        self.docs = {}
        self.instances = []
        for j, (n, m) in enumerate(MC_SIZES):
            name = f"rs-{n}x{m}"
            self._add_doc(
                name, *presets.random_spd(derive_seed(self.seed, j), n=n, m=m))
            _, p, law = self.docs[name]
            sol = synthesis.synthesize(p)
            self.instances.append((p, law, sol, synthesis.value(sol, law)))
        self.entries = [Entry(f"simulate rs-{n}x{m}") for n, m in MC_SIZES]
        self.first = {}
        self.compared = 0

    def sim_seed(self, pass_index):
        return derive_seed(self.seed, 1000 + pass_index // 2)

    def execute(self, entry, pass_index):
        p, law, sol, _ = self.instances[self.entries.index(entry)]
        return sim.simulate(p, sol.strategy, law, MC_PATHS, MC_STEPS,
                            self.sim_seed(pass_index))

    def check(self, entry, pass_index, rep):
        i = self.entries.index(entry)
        p, _, _, v = self.instances[i]
        # Euler-Maruyama has a first-order weak bias; allow one step's worth
        # of it on the scale of the value.
        bias = p.horizon.span / MC_STEPS * (1.0 + abs(v))
        gap = abs(rep.cost_mean - v)
        if not gap <= 3.0 * rep.cost_stderr + bias:
            raise CheckFailed(
                f"cost {rep.cost_mean:.6g} vs value {v:.6g}: gap {gap:.3e} > "
                f"3 x stderr {rep.cost_stderr:.3e} + bias allowance {bias:.3e}"
            )
        key = (i, self.sim_seed(pass_index))
        if key not in self.first:
            self.first[key] = rep
            return
        self.compared += 1
        ref = self.first[key]
        for what in ("cost_mean", "cost_stderr"):
            a, b = getattr(rep, what), getattr(ref, what)
            if not abs(a - b) <= REPRO_RTOL * abs(b):
                raise CheckFailed(f"{what} {a!r} differs from {b!r} with the same seed")

    def finish(self):
        if self.compared == 0:
            return ["no simulate call was repeated with the same seed"]
        return []


class VerifySuites(Workload):
    """One cross-check per operation: the CLI suites plus the moment check."""

    name = "verify-suites"
    min_passes = 2   # every report is compared with its repeat

    def set_up(self):
        self.docs = {}
        seeds = [derive_seed(self.seed, j) for j in range(3)]
        self._add_doc("classic", *presets.scalar_classic())
        self._add_doc("meanfield", *presets.random_spd(seeds[0]))
        self._add_doc("battery", *presets.random_spd(BATTERY_INSTANCE_SEED))
        self._add_doc("nobars", *presets.random_spd(seeds[1], **VARIANTS["nobars"]))
        self._add_doc("example31", *presets.example31())
        self._add_doc("homogeneous",
                      *presets.random_spd(seeds[2], **VARIANTS["homogeneous"]))
        plan = [
            ("classic", "qp", 0), ("classic", "completion", 0),
            ("classic", "battery", 0), ("classic", "degeneration", 0),
            ("meanfield", "completion", 0), ("battery", "battery", 0),
            ("nobars", "degeneration", 0), ("example31", "battery", 2),
        ]
        self.entries = [
            Entry(f"verify {doc} --suite {suite}", doc=doc, suite=suite,
                  want_code=code)
            for doc, suite, code in plan
        ]
        self.entries.append(Entry("moments homogeneous", doc="homogeneous"))
        self.first = {}

    def execute(self, entry, pass_index):
        path, p, law = self.docs[entry.doc]
        if not entry.suite:
            return self._moment_check(p, law)
        suite_seed = (BATTERY_SUITE_SEED if entry.doc == "battery"
                      else derive_seed(self.seed, 8))
        return run_cli([
            "verify", str(path), "--suite", entry.suite,
            "--paths", str(VERIFY_PATHS), "--controls", str(VERIFY_CONTROLS),
            "--seed", str(suite_seed),
        ])

    @staticmethod
    def _moment_check(p, law):
        sol = synthesis.synthesize(p)
        fb = sol.gre.gain_dev
        mf = sol.gre.gain_mean - sol.gre.gain_dev
        X0 = law.second_moment(p.horizon.t0)
        Y0 = np.outer(law.mean, law.mean)
        residual = moments.stationarity_residual(p, fb, mf, X0, Y0)
        mp = moments.propagate_moments(p, fb, mf, X0, Y0)
        cost = moments.homogeneous_cost(p, fb, mf, mp)
        return residual, cost, synthesis.value(sol, law)

    def check(self, entry, pass_index, output):
        i = self.entries.index(entry)
        if entry.suite:
            code, out, err = output
            expect(code, entry.want_code, f"exit code (stderr {err.strip()!r})")
            if code == 0:
                rep = json.loads(out)
                expect(rep["passed"], True, "passed")
                for name, suite in rep["suites"].items():
                    expect(suite["passed"], True, f"suite {name} passed")
                    for c in suite["checks"]:
                        expect(c["passed"], True, f"check {c['name']} passed")
            else:
                expect(out, "", "stdout of a refused suite")
            output = out.encode()
        else:
            residual, cost, v = output
            if not residual <= STATIONARITY_TOL:
                raise CheckFailed(f"stationarity residual {residual:.3e} > "
                                  f"{STATIONARITY_TOL:.0e}")
            close(cost, v, MOMENT_RTOL * (1.0 + abs(v)), "moment cost vs value")
        if i not in self.first:
            self.first[i] = output
        elif output != self.first[i]:
            raise CheckFailed("output differs from this entry's first run")


WORKLOADS = {w.name: w for w in (SolveMix, MonteCarlo, VerifySuites)}
