"""Acceptance gate: eleven end-to-end criteria, one test each.

Run with ``pytest -v`` to get one pass/fail line per criterion.  The
criteria combine the two analytic presets (where every target number is
known in closed form), seeded families of well-posed random instances,
and reproducibility of the command-line reports.  Tolerances are fixed
constants; nothing here is computed from the code under test.
"""

import json

import numpy as np

from mflq.cli import main
from mflq.moments import (
    homogeneous_cost,
    propagate_moments,
    stationarity_residual,
)
from mflq.presets import (
    example31,
    example31_null_control,
    random_spd,
    scalar_classic,
)
from mflq.problem import (
    ControlSpec,
    InitialLaw,
    MatrixPath,
    NoiseAffinePath,
)
from mflq.riccati import integrate_gre
from mflq.synthesis import synthesize, value
from mflq import sim
from mflq.verify import completion_check, lower_bound_battery, qp_oracle
from test_linalg import range_residual


def test_criterion_01_mean_field_example_not_closed_loop_solvable():
    """The mean-field example admits Riccati matrices but no regular gains:
    the deviation input weight vanishes identically while its cross term is
    one, so the range condition fails at every node with residual 1/2."""
    p, _ = example31()
    gre = integrate_gre(p)
    rep = gre.report

    assert rep.regular is False
    assert not rep.condition("range_dev").passed
    for k in range(gre.grid.n_steps + 1):
        assert range_residual(gre.cross_term[k], gre.input_weight[k]) == 0.5

    assert np.max(np.abs(gre.P - 1.0)) <= 1e-12
    assert np.max(np.abs(gre.P_mean - 2.0)) <= 1e-12


def test_criterion_02_weak_value_candidate_and_exact_zero_strategy_cost():
    """Even without solvability the candidate value is 2 x^2 from a point
    start, and the zero strategy's Monte Carlo cost is exactly 2 at x = 1
    (the paths are constant, so the estimator has no noise at all)."""
    p, _ = example31()
    sol = synthesize(p)
    assert not sol.solvable
    for x in (0.0, 1.0, -3.0):
        v = value(sol, InitialLaw.deterministic([x]))
        assert abs(v - 2.0 * x * x) <= 1e-12

    rep = sim.simulate(
        p, ControlSpec.zero(1, 1), InitialLaw.deterministic(1.0),
        n_paths=1000, n_steps=100, seed=0,
    )
    assert rep.cost_mean == 2.0
    assert rep.cost_stderr == 0.0


def test_criterion_03_adapted_control_reaching_zero_terminal_state():
    """From the Brownian-riding initial state, freezing the same Brownian
    sample in the control drives every path linearly to zero at the
    terminal time; the simulated cost vanishes to round-off."""
    t = 0.5
    p, _ = example31(t=t)
    spec = example31_null_control(t=t)
    law = InitialLaw(
        mean=np.zeros(1),
        brownian_load=np.ones(1),
        indep_load=np.zeros((1, 1)),
    )
    rep = sim.simulate(p, spec, law, n_paths=10_000, n_steps=200, seed=1)
    assert rep.cost_mean <= 1e-10


def test_criterion_04_scalar_riccati_against_closed_form():
    """P(s) = 1/(2-s): the integrator must hit it to 1e-8 at 1000 steps,
    the value from x = 1 is 1/2, and the closed-loop simulation lands on
    1/2 with zero spread (the problem is deterministic)."""
    p, law = scalar_classic(n_steps=1000)
    sol = synthesize(p)

    exact = 1.0 / (2.0 - sol.grid.nodes)
    assert np.max(np.abs(sol.gre.P[:, 0, 0] - exact)) <= 1e-8
    assert abs(value(sol, law) - 0.5) <= 1e-8

    rep = sim.simulate(p, sol.strategy, law, n_paths=100, n_steps=1000,
                       seed=0)
    assert abs(rep.cost_mean - 0.5) <= 1e-3
    assert rep.cost_stderr == 0.0


def test_criterion_05_quadratic_program_oracle_agreement():
    """The dense quadratic program reproduces the value to 1e-3 at 2000
    intervals.  On this instance the optimal control is constant in time,
    so the rectangle-rule discretisation is exact and both gaps sit at
    solver precision; doubling K must not regress the gap, and the halving
    clause is enforced down to a 1e-12 floor."""
    p, law = scalar_classic(n_steps=1000)
    res_k = qp_oracle(p, law.mean, K=2000)
    res_2k = qp_oracle(p, law.mean, K=4000)
    assert res_k.status == "ok" and res_2k.status == "ok"

    gap_k = abs(res_k.cost - 0.5)
    gap_2k = abs(res_2k.cost - 0.5)
    assert gap_k <= 1e-3
    assert gap_2k <= max(gap_k / 1.5, 1e-12)


def test_criterion_06_no_mean_coupling_collapses_the_channels():
    """With every bar coefficient zero the two Riccati channels integrate
    the same right-hand side, so the matrices must coincide."""
    worst = 0.0
    for seed in range(20):
        p, _ = random_spd(seed, with_bars=False, n_steps=300)
        gre = integrate_gre(p)
        worst = max(worst, float(np.max(np.abs(gre.P_mean - gre.P))))
    assert worst <= 1e-10


def test_criterion_07_synthesized_gains_are_stationary():
    """Finite-difference cost gradients vanish at the synthesized gains and
    are order one a fixed distance away, instance by instance."""
    for seed in range(10):
        p, law = random_spd(seed, n=2, m=2, inhomogeneous=False,
                            n_steps=300)
        sol = synthesize(p)
        X0 = law.second_moment(p.horizon.t0)
        Y0 = np.outer(law.mean, law.mean)
        fb = sol.gre.gain_dev
        mf = sol.gre.gain_mean - sol.gre.gain_dev

        at_opt = stationarity_residual(p, fb, mf, X0, Y0)
        assert at_opt <= 1e-4
        away = stationarity_residual(p, fb + 0.5, mf + 0.5, X0, Y0)
        assert away >= 1e-2


def test_criterion_08_completed_square_identity():
    """Deterministic side: constant control u = 1 from zero state costs
    exactly 2, and both sides of the identity agree to quadrature accuracy.
    Noisy side: on a mean-field instance with multiplicative noise and a
    random noise-affine control, common random numbers resolve the identity
    to within one percent at 1e5 paths."""
    p, _ = scalar_classic()
    gre = integrate_gre(p)
    spec = ControlSpec(
        feedback=MatrixPath.constant(np.zeros((1, 1))),
        mean_feedback=MatrixPath.constant(np.zeros((1, 1))),
        offset=NoiseAffinePath.of([1.0], [0.0]),
    )
    res = completion_check(p, gre, spec, n_paths=8, n_steps=2000, seed=0)
    assert abs(res.lhs - 2.0) <= 1e-6
    assert abs(res.rhs - 2.0) <= 1e-6

    p2, _ = random_spd(3, n_steps=300, inhomogeneous=False)
    gre2 = integrate_gre(p2)
    rng = np.random.default_rng(5)
    spec2 = ControlSpec(
        feedback=MatrixPath.constant(rng.uniform(-0.4, 0.1, (2, 2))),
        mean_feedback=MatrixPath.constant(rng.uniform(-0.2, 0.2, (2, 2))),
        offset=NoiseAffinePath.of(
            rng.uniform(-0.5, 0.5, 2), rng.uniform(-0.3, 0.3, 2)
        ),
    )
    res2 = completion_check(p2, gre2, spec2, n_paths=100_000, n_steps=200,
                            seed=9)
    assert res2.rel_gap <= 0.01


def test_criterion_09_no_control_undercuts_the_value():
    """One hundred randomly perturbed strategies per instance: none may
    cost less than the value minus three standard errors, and the
    synthesized strategy must land within three standard errors of it."""
    for seed in range(5):
        p, law = random_spd(seed, n_steps=300)
        sol = synthesize(p)
        rep = lower_bound_battery(
            p, sol, law, n_controls=100, n_paths=1000, seed=seed + 100,
            n_steps=150,
        )
        lb = rep.check("lower_bound")
        assert lb.passed
        assert lb.metadata["violations"] == []
        assert rep.check("optimal_attains_value").passed


def test_criterion_10_moment_propagation_matches_monte_carlo():
    """On homogeneous instances the deterministic moment ODEs price any
    stable gain pair; the Monte Carlo estimate must agree within three
    standard errors."""
    rng = np.random.default_rng(7)
    for seed in range(5):
        p, law = random_spd(seed, inhomogeneous=False, n_steps=300)
        fb = rng.uniform(-0.6, 0.2, (2, 2)) - 0.8 * np.eye(2)
        mf = rng.uniform(-0.3, 0.3, (2, 2))

        X0 = law.second_moment(p.horizon.t0)
        Y0 = np.outer(law.mean, law.mean)
        mp = propagate_moments(p, fb, mf, X0, Y0, n_steps=600)
        predicted = homogeneous_cost(p, fb, mf, mp)

        spec = ControlSpec(
            feedback=MatrixPath.constant(fb),
            mean_feedback=MatrixPath.constant(mf),
            offset=NoiseAffinePath.zero(2),
        )
        rep = sim.simulate(p, spec, law, n_paths=10_000, n_steps=600,
                           seed=seed + 50)
        assert abs(predicted - rep.cost_mean) <= 3.0 * rep.cost_stderr


def test_criterion_11_reports_are_byte_identical(capsys, tmp_path):
    """Repeating a simulate or verify command with the same seed must
    reproduce the report byte for byte."""
    doc = tmp_path / "instance.json"
    assert main(["example", "random_spd", "--seed", "4",
                 "--out", str(doc)]) == 0
    capsys.readouterr()

    sim_argv = ["simulate", str(doc), "--paths", "2000", "--steps", "100",
                "--seed", "7"]
    assert main(sim_argv) == 0
    first = capsys.readouterr().out
    assert main(sim_argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["cost_stderr"] > 0.0

    ver_argv = ["verify", str(doc), "--suite", "battery", "--controls", "5",
                "--paths", "300", "--steps", "100", "--seed", "1"]
    code1 = main(ver_argv)
    out1 = capsys.readouterr().out
    code2 = main(ver_argv)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2
