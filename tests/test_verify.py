"""Independent oracles and cross-check suites.

The QP oracle is validated against problems whose optimum is known in
closed form; its first-order convergence is itself an assertion, since the
halving pattern is what distinguishes a consistent discretisation from a
lucky match.  The completion, battery, and degeneration suites are checked
both for passing on sound inputs and for failing when fed a wrong value.
"""

import numpy as np
import pytest

from mflq import sim, verify
from mflq.presets import example31, random_spd, scalar_classic
from mflq.problem import (
    ControlSpec,
    InitialLaw,
    MatrixPath,
    NoiseAffinePath,
    TimeGrid,
    make_problem,
)
from mflq.riccati import integrate_gre
from mflq.synthesis import synthesize, value
from mflq.verify import (
    classical_degeneration,
    completion_check,
    lower_bound_battery,
    qp_oracle,
)


def test_qp_oracle_on_classic():
    p, _ = scalar_classic()
    res = qp_oracle(p, [1.0], 2000)
    assert res.status == "ok"
    assert res.cost == pytest.approx(0.5, abs=1e-3)
    assert res.control.shape == (2000, 1)


def test_qp_oracle_first_order_convergence():
    """Flat Riccati fixture (Q = R = G = 1): the continuous optimum is x^2
    exactly, and the left-endpoint discretisation must approach it at first
    order, with the error halving as K doubles."""
    g = TimeGrid(0.0, 1.0, 100)
    p = make_problem(1, 1, g, B=1.0, Q=1.0, R=1.0, G=1.0)
    gaps = []
    for K in (100, 200, 400):
        res = qp_oracle(p, [1.0], K)
        assert res.status == "ok"
        gaps.append(abs(res.cost - 1.0))
    assert gaps[0] < 0.01
    assert 1.8 < gaps[0] / gaps[1] < 2.2
    assert 1.8 < gaps[1] / gaps[2] < 2.2


def test_qp_oracle_singular_hessian():
    # no control penalty and no state cost at all: every control is optimal
    g = TimeGrid(0.0, 1.0, 20)
    p = make_problem(1, 1, g, B=1.0)
    res = qp_oracle(p, [1.0], 50)
    assert res.status == "singular"
    assert res.cost == pytest.approx(0.0, abs=1e-12)


def test_qp_oracle_unbounded():
    g = TimeGrid(0.0, 1.0, 20)
    p = make_problem(1, 1, g, B=1.0, R=-1.0)
    res = qp_oracle(p, [1.0], 50)
    assert res.status == "unbounded"
    assert res.cost is None
    assert res.control is None


def test_qp_oracle_refuses_a_misshaped_initial_state():
    p, _ = scalar_classic(n_steps=20)
    with pytest.raises(ValueError, match=r"initial state must have shape \(1,\)"):
        qp_oracle(p, [1.0, 2.0], 10)


def test_qp_oracle_rejects_noise():
    p, _ = example31()
    with pytest.raises(ValueError, match="D_bar"):
        qp_oracle(p, [1.0], 10)


def test_completion_identity_deterministic():
    """Constant control u = 1 from zero state is deterministic here, so the
    identity holds to quadrature accuracy with a handful of paths."""
    p, _ = scalar_classic()
    gre = integrate_gre(p)
    spec = ControlSpec(
        feedback=MatrixPath.constant(np.zeros((1, 1))),
        mean_feedback=MatrixPath.constant(np.zeros((1, 1))),
        offset=NoiseAffinePath.of([1.0], [0.0]),
    )
    res = completion_check(p, gre, spec, n_paths=8, n_steps=500, seed=1)
    assert res.lhs == pytest.approx(2.0, abs=1e-4)
    assert res.rhs == pytest.approx(2.0, abs=1e-4)
    assert res.gap < 1e-5
    assert res.gap_stderr == 0.0


def test_completion_identity_noisy():
    p, _ = random_spd(3, n_steps=300, inhomogeneous=False)
    gre = integrate_gre(p)
    rng = np.random.default_rng(5)
    spec = ControlSpec(
        feedback=MatrixPath.constant(rng.uniform(-0.4, 0.1, (2, 2))),
        mean_feedback=MatrixPath.constant(rng.uniform(-0.2, 0.2, (2, 2))),
        offset=NoiseAffinePath.of(
            rng.uniform(-0.5, 0.5, 2), rng.uniform(-0.3, 0.3, 2)
        ),
    )
    res = completion_check(p, gre, spec, n_paths=20000, n_steps=200, seed=9)
    # with common random numbers the paired gap resolves far below either
    # side's own noise
    assert res.gap <= max(3.0 * res.gap_stderr, 0.01 * max(1.0, abs(res.lhs)))
    assert res.lhs > 0.0


def test_completion_same_seed_is_identical():
    p, _ = scalar_classic(n_steps=200)
    gre = integrate_gre(p)
    spec = ControlSpec(
        feedback=MatrixPath.constant(np.zeros((1, 1))),
        mean_feedback=MatrixPath.constant(np.zeros((1, 1))),
        offset=NoiseAffinePath.of([0.5], [0.25]),
    )
    r1 = completion_check(p, gre, spec, n_paths=300, n_steps=200, seed=4)
    r2 = completion_check(p, gre, spec, n_paths=300, n_steps=200, seed=4)
    assert (r1.lhs, r1.rhs, r1.gap_stderr) == (r2.lhs, r2.rhs, r2.gap_stderr)


def test_completion_solves_the_mean_ode_once(monkeypatch):
    """The identity's mean terms reuse the mean path the simulation solved."""
    integrations = []
    original = sim.linear_rk4

    def counting(*args, **kwargs):
        integrations.append(args[6])
        return original(*args, **kwargs)

    monkeypatch.setattr(sim, "linear_rk4", counting)
    p, _ = scalar_classic(n_steps=50)
    spec = ControlSpec(
        feedback=MatrixPath.constant([[-0.5]]),
        mean_feedback=MatrixPath.constant([[0.2]]),
        offset=NoiseAffinePath.of([0.5], [0.25]),
    )
    completion_check(p, integrate_gre(p), spec, n_paths=16, n_steps=50, seed=0)
    assert integrations == ["state mean"]


def test_completion_requires_homogeneous_and_regular():
    g = TimeGrid(0.0, 1.0, 50)
    inhom = make_problem(1, 1, g, B=1.0, R=1.0, G=1.0, b=(0.2, 0.0))
    zero = ControlSpec.zero(1, 1)
    with pytest.raises(ValueError, match="homogeneous"):
        completion_check(inhom, integrate_gre(inhom), zero, 4, 50, 0)
    p31, _ = example31(n_steps=100)
    with pytest.raises(ValueError, match="regular"):
        completion_check(p31, integrate_gre(p31), zero, 4, 100, 0)


def test_battery_passes_on_solvable_problem():
    p, law = scalar_classic(n_steps=400)
    sol = synthesize(p)
    rep = lower_bound_battery(p, sol, law, n_controls=10, n_paths=200, seed=2)
    assert rep.passed
    assert rep.check("lower_bound").discrepancy == 0.0
    assert rep.check("optimal_attains_value").passed


def test_battery_flags_inflated_value(monkeypatch):
    p, law = scalar_classic(n_steps=400)
    sol = synthesize(p)
    v = value(sol, law)
    monkeypatch.setattr(verify, "value", lambda sol, law: v + 10.0)
    rep = lower_bound_battery(p, sol, law, n_controls=10, n_paths=200, seed=2)
    assert not rep.passed
    assert not rep.check("optimal_attains_value").passed


def test_battery_prices_the_optimum_as_simulate_does():
    """The optimum runs in the battery's batch on the paths of seed: its
    cost and stderr are bitwise those of simulate alone at that seed."""
    p, law = random_spd(1, n_steps=50)
    sol = synthesize(p)
    rep = lower_bound_battery(p, sol, law, n_controls=3, n_paths=300, seed=4,
                              n_steps=40)
    alone = sim.simulate(p, sol.strategy, law, 300, 40, 4)
    meta = rep.check("optimal_attains_value").metadata
    assert (meta["optimal_cost"], meta["optimal_stderr"]) == (
        alone.cost_mean, alone.cost_stderr)


def test_battery_opens_one_stream_per_chunk(monkeypatch):
    """The battery draws its paths once for all its strategies: n controls
    over N paths open ceil(N / CHUNK) Philox streams, not (n + 1) times
    that."""
    p, law = scalar_classic(n_steps=50)
    sol = synthesize(p)
    opened = []
    chunk_rng = sim._chunk_rng

    def counted(seed, chunk_index):
        opened.append((seed, chunk_index))
        return chunk_rng(seed, chunk_index)

    monkeypatch.setattr(sim, "_chunk_rng", counted)
    n_paths = 2 * sim.CHUNK + 5
    lower_bound_battery(p, sol, law, n_controls=4, n_paths=n_paths, seed=6,
                        n_steps=10)
    assert sorted(opened) == [(6, 0), (6, 1), (6, 2)]


def test_battery_requires_solvable():
    p, law = example31(n_steps=200)
    sol = synthesize(p)
    with pytest.raises(ValueError, match="solvable"):
        lower_bound_battery(p, sol, law, n_controls=2, n_paths=50, seed=0)


@pytest.mark.parametrize("n_controls", [0, -3])
def test_battery_requires_a_control(n_controls):
    """With no sampled strategy the lower bound would pass with nothing
    checked."""
    p, law = scalar_classic(n_steps=50)
    sol = synthesize(p)
    with pytest.raises(ValueError, match="n_controls"):
        lower_bound_battery(p, sol, law, n_controls=n_controls, n_paths=50,
                            seed=0)


@pytest.mark.parametrize("n_paths", [1, 0])
def test_one_path_checks_are_refused(n_paths):
    """One path's sample standard error is 0, so the 3-stderr bands of the
    battery and of the completion suite would collapse to a point and fail
    a sound strategy; both checks refuse fewer than two paths."""
    p, law = random_spd(1, n_steps=50)
    sol = synthesize(p)
    with pytest.raises(ValueError, match="n_paths >= 2"):
        lower_bound_battery(p, sol, law, n_controls=2, n_paths=n_paths, seed=0)
    core, _ = scalar_classic(n_steps=50)
    with pytest.raises(ValueError, match="n_paths >= 2"):
        completion_check(core, integrate_gre(core), ControlSpec.zero(1, 1),
                         n_paths=n_paths, n_steps=50, seed=0)


@pytest.mark.parametrize("seed", [-1, 2**64 - 3])
def test_battery_refuses_seeds_outside_the_key_range(seed):
    """The battery keys strategy i with seed + 1 + i, so seed + n_controls
    must stay below 2**64 as well."""
    p, law = scalar_classic(n_steps=50)
    sol = synthesize(p)
    with pytest.raises(ValueError, match="seed"):
        lower_bound_battery(p, sol, law, n_controls=3, n_paths=20, seed=seed)


def test_degeneration_exact_without_bars():
    """Zero mean coupling routes both channels through the same arithmetic,
    so the discrepancy is exactly zero, not merely small."""
    for seed in (0, 1, 2):
        p, _ = random_spd(seed, n_steps=200, with_bars=False)
        rep = classical_degeneration(p, integrate_gre(p))
        assert rep.passed
        assert rep.check("riccati_matrices_coincide").discrepancy == 0.0
        assert rep.check("gains_coincide").discrepancy == 0.0


def test_degeneration_rejects_mean_coupling():
    p, _ = random_spd(0, n_steps=100, with_bars=True)
    with pytest.raises(ValueError, match="mean-coupling"):
        classical_degeneration(p, integrate_gre(p))
