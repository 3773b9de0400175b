"""Riccati integration against closed forms and structural invariants."""

import numpy as np
import pytest

from mflq.errors import FiniteEscapeError, ValidationError
from mflq.problem import _CHANNEL_NAMES, TimeGrid, _channel_maps, make_problem
from mflq.riccati import (
    _block_builder,
    _stage_rate,
    _sym,
    assess_regularity,
    integrate_gre,
)
from mflq.presets import example31, scalar_classic


def gre_rhs(P, P_mean, s, p):
    """Coupled Riccati right-hand sides (dP/ds, dP_mean/ds) at time s,
    from the stage the sweep runs, on a workspace of its own."""
    Y = np.stack((np.asarray(P, dtype=float), np.asarray(P_mean, dtype=float)))
    samples = {
        name: getattr(p, name).at(s)
        for base in _CHANNEL_NAMES
        for name in (base, base + "_bar")
    }
    N = p.n + p.m
    rate = _stage_rate(_channel_maps(samples), *_block_builder((2, N, N), p.n))
    dY = _sym(rate(Y, 0))
    return dY[0], dY[1]


def classic_problem(n_steps=1000):
    # dX = u ds on [0, 1], cost integral u^2 plus terminal x^2.
    g = TimeGrid(0.0, 1.0, n_steps)
    return make_problem(1, 1, g, B=1.0, R=1.0, G=1.0)


def test_classic_scalar_matches_closed_form():
    """dP/ds = -P^2 with P(1)=1 solves to P(s) = 1/(2-s)."""
    p = classic_problem()
    sol = integrate_gre(p)
    exact = 1.0 / (2.0 - sol.grid.nodes)
    err = np.max(np.abs(sol.P[:, 0, 0] - exact))
    assert err < 1e-12


def test_classic_gain_is_minus_p():
    p = classic_problem()
    sol = integrate_gre(p)
    np.testing.assert_allclose(sol.gain_dev[:, 0, 0], -sol.P[:, 0, 0], atol=1e-14)
    for W, gain, cross in (
        (sol.input_weight, sol.gain_dev, sol.cross_term),
        (sol.input_weight_mean, sol.gain_mean, sol.cross_term_mean),
    ):
        assert np.max(np.linalg.norm(W @ gain + cross, axis=(1, 2))) < 1e-14
    assert sol.gain_dev[0, 0, 0] == pytest.approx(-0.5, abs=1e-12)


def test_rk4_fourth_order_on_classic():
    exact0 = 0.5
    errs = []
    for k in (50, 100):
        sol = integrate_gre(classic_problem(k))
        errs.append(abs(sol.P[0, 0, 0] - exact0))
    # halving the step should cut the error by about 2^4
    assert errs[0] / errs[1] > 8.0


def test_channels_identical_without_mean_coupling():
    """With every mean-coupling coefficient zero the two channels integrate
    the same equation through the same arithmetic, so the arrays match
    bitwise, not just to rounding."""
    p, _ = scalar_classic(n_steps=500)
    sol = integrate_gre(p)
    assert np.array_equal(sol.P, sol.P_mean)
    assert np.array_equal(sol.gain_dev, sol.gain_mean)


def test_rhs_pair_couples_mean_channel_to_p():
    g = TimeGrid(0.0, 1.0, 10)
    p = make_problem(1, 1, g, B=1.0, D=1.0, B_bar=0.5, R=1.0, G=1.0)
    dP, dPm = gre_rhs(np.array([[2.0]]), np.array([[3.0]]), 0.5, p)
    # dev channel: -(Q + PA + A'P + C'PC) + (PB + C'PD + S')(R + D'PD)^{-1}(...)
    # with A=C=Q=S=0: dP = (PB)(R+D'P D)^{-1}(B'P) = 4/3
    assert dP[0, 0] == pytest.approx(4.0 / 3.0)
    # mean channel uses B+B_bar in the cross term but keeps P inside the
    # weight: cross = (B+Bb)'Pm = 4.5, weight = R + D'PD = 3
    assert dPm[0, 0] == pytest.approx(4.5 ** 2 / 3.0)


def test_terminal_values_are_weights():
    g = TimeGrid(0.0, 1.0, 100)
    p = make_problem(2, 1, g, R=1.0, G=np.diag([1.0, 2.0]),
                     G_bar=np.diag([0.5, 0.5]))
    sol = integrate_gre(p)
    np.testing.assert_array_equal(sol.P[-1], np.diag([1.0, 2.0]))
    np.testing.assert_array_equal(sol.P_mean[-1], np.diag([1.5, 2.5]))


def test_time_dependent_weights_enter_rhs():
    # Q(s) ramps linearly; compare against a dense reference integration.
    g = TimeGrid(0.0, 1.0, 200)
    ramp = np.linspace(0.0, 1.0, g.n_steps + 1).reshape(-1, 1, 1)
    from mflq.problem import MatrixPath

    p = make_problem(1, 1, g, B=1.0, R=1.0, G=1.0,
                     Q=MatrixPath.sampled(g, ramp))
    sol = integrate_gre(p)
    fine = integrate_gre(
        make_problem(1, 1, g.with_steps(3200), B=1.0, R=1.0, G=1.0,
                     Q=MatrixPath.sampled(g, ramp))
    )
    assert abs(sol.P[0, 0, 0] - fine.P[0, 0, 0]) < 1e-9


def test_example31_riccati_is_exact():
    """The example's Riccati pair is constant (P=1, doubled for the mean
    channel), and the RK4 increments vanish identically, so the integrator
    reproduces it without drift."""
    p, _ = example31(n_steps=400)
    sol = integrate_gre(p)
    assert np.all(sol.P == 1.0)
    assert np.all(sol.P_mean == 2.0)
    # Control enters the diffusion only through the mean channel here; the
    # deviation weight R + D'PD is identically zero.
    assert np.all(sol.input_weight == 0.0)
    assert np.all(sol.report.dev_rank == 0)


def test_example31_regularity_fails_only_range_dev():
    p, _ = example31(n_steps=400)
    sol = integrate_gre(p)
    rep = assess_regularity(sol)
    failing = [c.name for c in rep.conditions if not c.passed]
    assert failing == ["range_dev"]
    cond = {c.name: c for c in rep.conditions}
    # cross term is the unit vector against a zero weight: residual 0.5 at
    # every node by the 1/(1+||N||) normalisation
    assert cond["range_dev"].worst_value == 0.5
    assert not rep.regular


def test_regular_problem_passes_all_conditions():
    p, _ = scalar_classic(n_steps=500)
    sol = integrate_gre(p)
    rep = assess_regularity(sol)
    assert rep.regular
    assert all(c.passed for c in rep.conditions)
    names = [c.name for c in rep.conditions]
    assert names == [
        "psd_dev", "psd_mean", "range_dev", "range_mean",
        "l2_gain_dev", "l2_gain_mean",
    ]


def test_finite_escape_raises():
    # R = -1 makes the quadratic term attract: dP/ds = -(P^2 + 1) backward
    # from G = 10 escapes before reaching the left endpoint.
    g = TimeGrid(0.0, 1.0, 400)
    p = make_problem(1, 1, g, B=1.0, Q=1.0, R=-1.0, G=10.0)
    with pytest.raises(FiniteEscapeError) as exc:
        integrate_gre(p)
    err = exc.value
    assert err.norm > 1e12 or not np.isfinite(err.norm)
    assert 0.0 < err.time < 1.0


@pytest.mark.parametrize("coeffs, quantity", [
    (dict(B=1.0, Q=1.0, R=-1.0, G=10.0), "deviation Riccati matrix"),
    # R + R_bar = -1 and G + G_bar = 10: only the mean channel escapes
    (dict(B=1.0, Q=1.0, R=1.0, R_bar=-2.0, G=1.0, G_bar=9.0), "mean Riccati matrix"),
])
def test_finite_escape_report_is_pinned(coeffs, quantity):
    """The escaping channel is named, with the first node past the
    threshold, its time and the norm reached there."""
    p = make_problem(1, 1, TimeGrid(0.0, 1.0, 400), **coeffs)
    with pytest.raises(FiniteEscapeError) as exc:
        integrate_gre(p)
    err = exc.value
    assert err.quantity == quantity
    assert err.node == 359
    assert err.time == pytest.approx(0.8975, abs=1e-12)
    assert err.norm == pytest.approx(2.8536e18, rel=1e-4)


def test_report_attached_by_default():
    p, _ = scalar_classic(n_steps=100)
    sol = integrate_gre(p)
    assert sol.report is not None
    assert sol.report.n_steps == 100


@pytest.mark.parametrize("R", [[[1.0, 1.0], [0.0, 1.0]], [[1.0, 0.0], [1.0, 1.0]]])
def test_asymmetric_weight_is_refused(R):
    """The stages factor each input weight from one triangle, so an
    asymmetric R would give a regular solution whose value from
    x0 = (1, 0.5), 1.3628 or 1.9194, hangs on the triangle holding the entry."""
    eye = np.eye(2)
    with pytest.raises(ValidationError) as info:
        make_problem(2, 2, TimeGrid(0.0, 1.0, 200), A=0.1 * eye, B=eye,
                     Q=eye, R=R, G=eye)
    assert [v.split(":")[0] for v in info.value.violations] == ["R"]
