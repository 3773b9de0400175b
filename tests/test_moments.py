"""Moment propagation and gain-cost evaluation against hand integrals."""

import numpy as np
import pytest

from mflq.errors import FiniteEscapeError, ValidationError
from mflq.moments import (
    batch_cost,
    homogeneous_cost,
    propagate_moments,
    stationarity_residual,
)
from mflq.problem import TimeGrid, make_problem
from mflq.synthesis import synthesize


def classic(n_steps=1000):
    g = TimeGrid(0.0, 1.0, n_steps)
    return make_problem(1, 1, g, B=1.0, R=1.0, G=1.0)


def test_second_moment_under_optimal_feedback():
    """Closed loop dX = 2 Theta X ds with Theta = -1/(2-s) gives
    E[X(s)^2] = x^2 (2-s)^2 / 4 from a point start.

    The gain is handed over as node samples, so the propagator sees its
    piecewise-linear interpolant; that caps the match at second order in the
    step (about 1e-7 here), well above the RK4's own error.
    """
    p = classic()
    sol = synthesize(p)
    x = 1.5
    mp = propagate_moments(p, sol.strategy.feedback, 0.0, [[x * x]], [[x * x]])
    s = mp.grid.nodes
    exact = x * x * (2.0 - s) ** 2 / 4.0
    np.testing.assert_allclose(mp.second[:, 0, 0], exact, atol=5e-7)
    # deterministic dynamics: the mean outer product follows the same path
    np.testing.assert_allclose(mp.mean_outer, mp.second, atol=1e-12)


def test_cost_of_constant_optimal_gain():
    """With Q = R = G = 1 the Riccati solution is flat (P = 1), the optimal
    gain is the constant -1, and the optimal cost is x^2.  A constant gain
    sidesteps interpolation, leaving the trapezoid quadrature of the running
    cost as the only error source."""
    g = TimeGrid(0.0, 1.0, 1000)
    p = make_problem(1, 1, g, B=1.0, Q=1.0, R=1.0, G=1.0)
    x = 1.3
    mp = propagate_moments(p, -1.0, 0.0, [[x * x]], [[x * x]])
    assert mp.second[-1, 0, 0] == pytest.approx(x * x * np.exp(-2.0), abs=1e-12)
    cost = homogeneous_cost(p, -1.0, 0.0, mp)
    assert cost == pytest.approx(x * x, abs=1e-5)


def test_hand_computed_cost_with_mean_weight():
    """Zero control, zero drift: both moments freeze, and every cost weight
    integrates against a constant.

    X0 = x^2 + v (point mass variance v), Y0 = x^2:
      cost = Q X0 + Q_bar Y0 + G X0 + G_bar Y0   on a unit horizon.
    """
    g = TimeGrid(0.0, 1.0, 100)
    p = make_problem(1, 1, g, Q=0.3, Q_bar=0.7, R=1.0, G=1.0, G_bar=0.5)
    x2, v = 1.44, 0.25
    mp = propagate_moments(p, 0.0, 0.0, [[x2 + v]], [[x2]])
    np.testing.assert_array_equal(mp.second[-1], [[x2 + v]])
    np.testing.assert_array_equal(mp.mean_outer[-1], [[x2]])
    cost = homogeneous_cost(p, 0.0, 0.0, mp)
    exact = 0.3 * (x2 + v) + 0.7 * x2 + 1.0 * (x2 + v) + 0.5 * x2
    assert cost == pytest.approx(exact, abs=1e-12)


def test_multiplicative_noise_feeds_only_second_moment():
    # dX = c^2 X from the diffusion C X dW; the mean is untouched
    c = 0.8
    g = TimeGrid(0.0, 1.0, 400)
    p = make_problem(1, 1, g, C=c, R=1.0, G=1.0)
    mp = propagate_moments(p, 0.0, 0.0, [[2.0]], [[1.0]])
    assert mp.second[-1, 0, 0] == pytest.approx(2.0 * np.exp(c * c), rel=1e-10)
    assert np.all(mp.mean_outer[:, 0, 0] == 1.0)


def test_batch_cost_matches_single_evaluations():
    p = classic(300)
    sol = synthesize(p)
    K = sol.grid.n_steps
    base = np.broadcast_to(sol.gre.gain_dev, (3, K + 1, 1, 1)).copy()
    base[1] += 0.1
    base[2] -= 0.2
    zeros = np.zeros_like(base)
    X0 = [[1.0]]
    costs = batch_cost(p, base, zeros, X0, X0)
    singles = []
    for i in range(3):
        mp = propagate_moments(p, base[i], zeros[i], X0, X0)
        singles.append(homogeneous_cost(p, base[i], zeros[i], mp))
    np.testing.assert_allclose(costs, singles, atol=1e-12)
    # the unbumped gain is the optimum
    assert costs[0] < costs[1]
    assert costs[0] < costs[2]


def test_stationarity_flat_at_optimum_steep_away():
    p = classic(400)
    sol = synthesize(p)
    X0 = [[1.0]]
    at_opt = stationarity_residual(
        p, sol.gre.gain_dev, np.zeros_like(sol.gre.gain_dev), X0, X0
    )
    assert at_opt < 1e-6
    bumped = sol.gre.gain_dev + 0.5
    away = stationarity_residual(
        p, bumped, np.zeros_like(bumped), X0, X0
    )
    assert away > 0.1


def test_requires_centered_dynamics():
    g = TimeGrid(0.0, 1.0, 50)
    p = make_problem(1, 1, g, R=1.0, G=1.0, b=(0.5, 0.0))
    with pytest.raises(ValueError, match="inhomogeneities"):
        propagate_moments(p, 0.0, 0.0, [[1.0]], [[1.0]])


def test_cost_requires_fully_homogeneous():
    g = TimeGrid(0.0, 1.0, 50)
    p = make_problem(1, 1, g, R=1.0, G=1.0, g0=[0.5])
    mp = propagate_moments(p, 0.0, 0.0, [[1.0]], [[1.0]])
    with pytest.raises(ValueError, match="homogeneous"):
        homogeneous_cost(p, 0.0, 0.0, mp)


def test_moment_escape_is_reported_at_the_crossing_node():
    """Uncontrolled multiplicative noise C = 6 grows E[X^2] like exp(36 s).

    From a unit start the Frobenius norm of the channel pair (covariance,
    mean outer product) crosses the blow-up threshold between nodes 153
    and 154 of a 200-step grid on [0, 1].
    """
    p = make_problem(1, 1, TimeGrid(0.0, 1.0, 200), C=6.0, R=1.0, G=1.0)
    zero = np.zeros((1, 201, 1, 1))
    for run in (
        lambda: propagate_moments(p, 0.0, 0.0, [[1.0]], [[1.0]]),
        lambda: batch_cost(p, zero, zero, [[1.0]], [[1.0]]),
    ):
        with pytest.raises(FiniteEscapeError) as info:
            run()
        assert info.value.quantity == "moment trajectory"
        assert info.value.node == 154
        assert info.value.time == pytest.approx(0.77)


def test_gain_shape_is_validated():
    p = classic(50)
    with pytest.raises(ValueError, match="cannot interpret gain"):
        propagate_moments(p, np.zeros((2, 3)), 0.0, [[1.0]], [[1.0]])


def test_non_finite_gain_is_refused():
    p = classic(50)
    gain = np.zeros((51, 1, 1))
    gain[7] = np.nan
    with pytest.raises(ValidationError, match="non-finite"):
        propagate_moments(p, gain, 0.0, [[1.0]], [[1.0]])


@pytest.mark.parametrize("argument", ["feedbacks", "mean_feedbacks"])
def test_batch_cost_names_a_non_finite_gain(argument):
    """A NaN gain is a bad input, not a moment trajectory that escaped."""
    p = classic(50)
    gains = {"feedbacks": np.zeros((3, 51, 1, 1)),
             "mean_feedbacks": np.zeros((3, 51, 1, 1))}
    gains[argument][1, 7] = np.nan
    with pytest.raises(ValidationError, match=f"^{argument}: contains non-finite"):
        batch_cost(p, gains["feedbacks"], gains["mean_feedbacks"], [[1.0]], [[1.0]])


@pytest.mark.parametrize("argument", ["feedback", "mean_feedback"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_single_gain_functions_name_a_non_finite_gain(argument, bad):
    p = classic(50)
    X0 = [[1.0]]
    mp = propagate_moments(p, 0.0, 0.0, X0, X0)
    for gain in (bad, np.full((1, 1), bad), np.full((51, 1, 1), bad)):
        gains = {"feedback": 0.0, "mean_feedback": 0.0, argument: gain}
        for run in (
            lambda: propagate_moments(p, **gains, X0=X0, Y0=X0),
            lambda: homogeneous_cost(p, **gains, mp=mp),
            lambda: stationarity_residual(p, **gains, X0=X0, Y0=X0),
        ):
            with pytest.raises(ValidationError,
                               match=f"^{argument}: contains non-finite"):
                run()


def test_batch_cost_refuses_unequal_batches():
    p = classic(50)
    X0 = [[1.0]]
    with pytest.raises(ValueError, match="equal size"):
        batch_cost(p, np.zeros((3, 51, 1, 1)), np.zeros((2, 51, 1, 1)), X0, X0)


def test_single_gain_functions_reject_a_batch():
    """A (B, K+1, m, n) stack is batch_cost's form only; the single-gain
    functions used to take it and return member 0's path, member 0's cost or
    a residual mixing every member.  batch_cost takes nothing else."""
    p = classic(50)
    batch = -np.ones((5, 51, 1, 1))
    batch[0] = 0.0
    zero = np.zeros_like(batch)
    X0 = [[1.0]]
    mp = propagate_moments(p, 0.0, 0.0, X0, X0)
    for run in (
        lambda: propagate_moments(p, batch, zero, X0, X0),
        lambda: homogeneous_cost(p, batch, zero, mp),
        lambda: stationarity_residual(p, batch, zero, X0, X0),
        lambda: batch_cost(p, batch[0], zero[0], X0, X0),
        lambda: batch_cost(p, 0.0, 0.0, X0, X0),
    ):
        with pytest.raises(ValueError, match="cannot interpret gain"):
            run()
