"""Monte Carlo engine: reproducibility, chunking, and exact scenarios."""

import numpy as np
import pytest

from mflq.errors import FiniteEscapeError, ValidationError
from mflq.presets import example31, example31_null_control, scalar_classic
from mflq.problem import (
    ControlSpec,
    InitialLaw,
    MatrixPath,
    NoiseAffinePath,
    TimeGrid,
    make_problem,
)
from mflq.sim import CHUNK, estimate_cost, mean_ode, simulate
from mflq.synthesis import synthesize


def noisy_classic(n_steps=200):
    g = TimeGrid(0.0, 1.0, n_steps)
    return make_problem(1, 1, g, B=1.0, R=1.0, G=1.0, sigma=(1.0, 0.0))


def test_same_seed_bitwise_reproducible():
    p = noisy_classic()
    law = InitialLaw.deterministic([1.0])
    sol = synthesize(p)
    a = simulate(p, sol.strategy, law, n_paths=500, n_steps=200, seed=7,
                 keep_costs=True)
    b = simulate(p, sol.strategy, law, n_paths=500, n_steps=200, seed=7,
                 keep_costs=True)
    assert a.cost_mean == b.cost_mean
    assert a.cost_stderr == b.cost_stderr
    np.testing.assert_array_equal(a.per_path_costs, b.per_path_costs)
    c = simulate(p, sol.strategy, law, n_paths=500, n_steps=200, seed=8)
    assert c.cost_mean != a.cost_mean


def test_path_draws_do_not_depend_on_batch_size():
    """Counter-based streams are keyed by chunk, so the first paths of a
    larger run coincide with a smaller run path-for-path."""
    p = noisy_classic(100)
    law = InitialLaw.deterministic([1.0])
    sol = synthesize(p)
    small = simulate(p, sol.strategy, law, n_paths=CHUNK, n_steps=100, seed=3,
                     keep_costs=True)
    big = simulate(p, sol.strategy, law, n_paths=CHUNK + 7, n_steps=100, seed=3,
                   keep_costs=True)
    np.testing.assert_array_equal(
        big.per_path_costs[:CHUNK], small.per_path_costs
    )


def test_deterministic_problem_has_zero_stderr():
    # no diffusion, point initial law: every path is the mean path
    p, law = scalar_classic(n_steps=300)
    sol = synthesize(p)
    rep = simulate(p, sol.strategy, law, n_paths=50, n_steps=300, seed=0)
    assert rep.cost_stderr == 0.0
    assert rep.cost_mean == pytest.approx(0.5, abs=1e-6)
    # the gap against the exact mean is pure forward-Euler bias here
    assert rep.mean_gap < 1e-5


def test_mean_ode_matches_closed_form():
    p, _ = scalar_classic(n_steps=1000)
    sol = synthesize(p)
    EX, EU = mean_ode(p, sol.strategy, [1.0])
    s = np.linspace(0.0, 1.0, 1001)
    np.testing.assert_allclose(EX[:, 0], (2.0 - s) / 2.0, atol=1e-7)
    np.testing.assert_allclose(EU[:, 0], -0.5 * np.ones_like(s), atol=1e-7)


def test_diverging_strategy_raises_finite_escape():
    """A feedback of 900 makes the state mean grow like exp(900 s).

    RK4 multiplies it by about 48 per step at h = 0.005, so the mean
    crosses the blow-up threshold at node 8; the cost must not come back
    as NaN.
    """
    p, law = scalar_classic(n_steps=200)
    spec = ControlSpec(
        feedback=MatrixPath.constant([[900.0]]),
        mean_feedback=MatrixPath.constant([[0.0]]),
        offset=NoiseAffinePath.zero((1,)),
    )
    for run in (
        lambda: mean_ode(p, spec, law.mean),
        lambda: simulate(p, spec, law, n_paths=16, n_steps=200, seed=0),
    ):
        with pytest.raises(FiniteEscapeError) as info:
            run()
        assert info.value.quantity == "state mean"
        assert info.value.node == 8
        assert info.value.time == pytest.approx(0.04)


def test_sample_mean_tracks_exact_mean():
    p, law = example31()
    sol = synthesize(p)
    rep = simulate(p, sol.strategy, law, n_paths=4000, n_steps=150, seed=11)
    # the report's mean_path is the ODE mean; the sampled average should
    # agree within Monte Carlo resolution
    assert rep.mean_path.shape == rep.sample_mean_path.shape
    assert rep.mean_gap < 0.05


def test_null_control_cost_is_exact_on_example():
    """Zero control freezes the example's state at its initial value (the
    drift and diffusion act only through the control), so the cost is the
    terminal weight (G + G_bar) x^2 = 2 for a point start at x = 1."""
    p, law = example31()
    zero = ControlSpec.zero(1, 1)
    rep = simulate(p, zero, law, n_paths=2000, n_steps=100, seed=5)
    assert rep.cost_mean == pytest.approx(2.0, abs=1e-12)
    assert rep.cost_stderr == 0.0


def test_adapted_null_strategy_reaches_zero_terminal_state():
    """From the Brownian-loaded initial state xi = W(t), the example's
    distinguished open-loop control (frozen at the entry time, sharing the
    same Brownian draw as the initial state) steers every path linearly to
    zero, so the terminal state and the cost vanish pathwise."""
    t = 0.5
    p, _ = example31(t=t)
    law = InitialLaw(
        mean=np.zeros(1),
        brownian_load=np.array([1.0]),
        indep_load=np.zeros((1, 1)),
    )
    spec = example31_null_control(t, 1.0)
    rep = simulate(p, spec, law, n_paths=3000, n_steps=200, seed=13)
    assert abs(rep.terminal_mean[0]) < 1e-13
    assert rep.terminal_second_moment[0, 0] < 1e-26
    assert abs(rep.cost_mean) < 1e-25


def test_estimate_cost_on_hand_built_paths():
    """Constant control u = 1 from x = 0 under dX = u ds: X(s) = s on every
    path, and the cost x(1)^2 + mean terms is computed from the recorded
    ensemble alone."""
    g = TimeGrid(0.0, 1.0, 2000)
    p = make_problem(1, 1, g, B=1.0, R=1.0, G=1.0)
    K = g.n_steps
    times = g.nodes
    X = np.broadcast_to(times, (4, K + 1))[..., None]
    U = np.ones((4, K + 1, 1))
    mean, stderr = estimate_cost(times, X, U, p)
    # integral of u^2 is 1, terminal is 1
    assert mean == pytest.approx(2.0, abs=1e-12)
    assert stderr == 0.0


def test_estimate_cost_validates_shapes():
    g = TimeGrid(0.0, 1.0, 10)
    p = make_problem(1, 1, g, B=1.0, R=1.0, G=1.0)
    with pytest.raises(ValidationError):
        estimate_cost(g.nodes, np.zeros((2, 5, 1)), np.zeros((2, 11, 1)), p)


@pytest.mark.parametrize("riding", [
    {"q": (0.0, 0.5)}, {"rho": (0.0, 0.5)}, {"g": (0.0, 0.5)},
])
def test_estimate_cost_refuses_brownian_riding_costs(riding):
    """Recorded paths carry no Brownian values, so the q1, rho1 and g1 terms
    cannot be priced; they used to be dropped without a word."""
    g = TimeGrid(0.0, 1.0, 10)
    p = make_problem(1, 1, g, B=1.0, R=1.0, G=1.0, **riding)
    X = np.zeros((2, 11, 1))
    with pytest.raises(ValidationError, match="Brownian"):
        estimate_cost(g.nodes, X, X, p)


def test_simulate_validates_inputs():
    p, law = scalar_classic(n_steps=50)
    sol = synthesize(p)
    with pytest.raises(ValidationError):
        simulate(p, sol.strategy, law, n_paths=0, n_steps=50, seed=0)
    with pytest.raises(ValidationError):
        bad_law = InitialLaw.deterministic([1.0, 2.0])
        simulate(p, sol.strategy, bad_law, n_paths=10, n_steps=50, seed=0)


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1])
def test_simulate_refuses_seeds_outside_the_key_range(seed):
    """The seed is one unsigned 64-bit key word; outside [0, 2**64) it would
    alias another seed's draws."""
    p, law = scalar_classic(n_steps=20)
    spec = ControlSpec.zero(1, 1)
    with pytest.raises(ValidationError, match="seed"):
        simulate(p, spec, law, n_paths=10, n_steps=20, seed=seed)
    top = simulate(p, spec, law, n_paths=10, n_steps=20, seed=2**64 - 1)
    assert top.seed == 2**64 - 1


def test_frozen_offset_uses_entry_time_brownian_value():
    """A pure-offset control with the noise part frozen at the entry time
    applies u = W(t0) throughout; started from zero state with dX = u ds the
    terminal state is X(T) = W(t0) * span, and with G = 1 the expected cost
    is span^2 * t0 on average."""
    t0 = 0.25
    g = TimeGrid(t0, 1.25, 100)
    p = make_problem(1, 1, g, B=1.0, G=1.0)
    law = InitialLaw.deterministic([0.0])
    spec = ControlSpec(
        feedback=MatrixPath.constant(np.zeros((1, 1))),
        mean_feedback=MatrixPath.constant(np.zeros((1, 1))),
        offset=NoiseAffinePath.of([0.0], [1.0], frozen_at_start=True),
    )
    rep = simulate(p, spec, law, n_paths=200000, n_steps=100, seed=21)
    assert rep.cost_mean == pytest.approx(t0, rel=0.05)
    # and the unfrozen variant integrates the running Brownian value instead
    spec_run = ControlSpec(
        feedback=MatrixPath.constant(np.zeros((1, 1))),
        mean_feedback=MatrixPath.constant(np.zeros((1, 1))),
        offset=NoiseAffinePath.of([0.0], [1.0]),
    )
    rep_run = simulate(p, spec_run, law, n_paths=200000, n_steps=100, seed=21)
    # E[(int_t0^T W ds)^2] > E[(W(t0) span)^2] for this horizon
    assert rep_run.cost_mean > rep.cost_mean
