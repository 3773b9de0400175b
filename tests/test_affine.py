"""Adjoint offset ODEs checked against hand-integrated scalar solutions.

The workhorse fixture is the scalar problem dX = u ds, cost u^2 + x(1)^2,
whose Riccati solution is P(s) = 1/(2-s) and closed-loop drift -P.  For a
constant drift inhomogeneity b0 the mean adjoint solves

    d eta_bar / ds = P eta_bar - P b0,   eta_bar(1) = 0,

which integrates (via the factor 2-s) to eta_bar(s) = b0 (1-s)/(2-s).  The
same equation governs the noise coefficient of the pathwise adjoint when the
inhomogeneity rides on the Brownian value instead.
"""

import json

import numpy as np
import pytest

from mflq import affine, docio
from mflq.affine import compute_corrections, solve_affine
from mflq.cli import main
from mflq.presets import random_spd
from mflq.problem import TimeGrid, make_problem
from mflq.riccati import DEFAULT_REG_TOL, ConditionVerdict, integrate_gre
from mflq.synthesis import synthesize


def classic(n_steps=1000, **extra):
    g = TimeGrid(0.0, 1.0, n_steps)
    return make_problem(1, 1, g, B=1.0, R=1.0, G=1.0, **extra)


def test_homogeneous_adjoints_vanish():
    p = classic(200)
    sol = integrate_gre(p)
    aff = solve_affine(p, sol)
    assert np.all(aff.adjoint_noise == 0.0)
    assert np.all(aff.adjoint_mean == 0.0)
    assert np.all(aff.corrections.corr_noise == 0.0)
    assert np.all(aff.corrections.corr_mean == 0.0)
    assert aff.feasible


def test_terminal_values_of_adjoints():
    p = classic(100, g0=[0.3], g1=[0.7], g_bar=[0.1])
    aff = solve_affine(p, integrate_gre(p))
    assert aff.adjoint_noise[-1, 0] == 0.7
    assert aff.adjoint_mean[-1, 0] == pytest.approx(0.4)


def test_constant_drift_inhomogeneity_closed_form():
    b0 = 0.8
    p = classic(1000, b=(b0, 0.0))
    aff = solve_affine(p, integrate_gre(p))
    s = aff.grid.nodes
    assert np.all(aff.adjoint_noise == 0.0)
    np.testing.assert_allclose(
        aff.adjoint_mean[:, 0], b0 * (1 - s) / (2 - s), atol=1e-12
    )


def test_noise_riding_drift_moves_only_noise_channel():
    b1 = -0.6
    p = classic(1000, b=(0.0, b1))
    aff = solve_affine(p, integrate_gre(p))
    s = aff.grid.nodes
    np.testing.assert_allclose(
        aff.adjoint_noise[:, 0], b1 * (1 - s) / (2 - s), atol=1e-12
    )
    # carrier P sigma0 + eta1 enters the mean equation only through C and D,
    # both zero here, so the mean adjoint stays flat
    assert np.max(np.abs(aff.adjoint_mean)) < 1e-14


def test_corrections_solve_weighted_offsets():
    b0 = 0.8
    p = classic(1000, b=(b0, 0.0))
    sol = integrate_gre(p)
    aff = solve_affine(p, sol)
    # input weight is identically 1, B is 1: the mean offset is -eta_bar
    np.testing.assert_allclose(
        aff.corrections.corr_mean[:, 0], -aff.adjoint_mean[:, 0], atol=1e-14
    )
    assert np.all(aff.corrections.corr_noise == 0.0)
    assert aff.feasible
    assert aff.corrections.conditions[1].worst_value < 1e-12


def test_infeasible_offset_detected():
    """Zero input weight with a nonzero adjoint target cannot be attained.

    With R = 0 and D = 0 the weight vanishes at every node while (backward)
    dP/ds = -Q keeps P finite, so the Riccati stage succeeds; the offset
    stage must then flag the range failure instead of silently returning the
    pseudo-inverse solve.
    """
    g = TimeGrid(0.0, 1.0, 500)
    p = make_problem(1, 1, g, B=1.0, Q=1.0, R=0.0, G=1.0, b=(0.0, 1.0))
    sol = integrate_gre(p)
    assert np.all(sol.input_weight == 0.0)
    aff = solve_affine(p, sol)
    assert not aff.feasible
    dev = aff.corrections.conditions[0]
    assert dev.worst_node == 0
    # eta1(0) = 1.5 exactly (RK4 integrates the linear-in-time rhs exactly),
    # and the normalised residual against a zero weight is 1.5/2.5
    assert dev.worst_value == pytest.approx(0.6, abs=1e-12)


def test_offset_range_constraints_are_condition_verdicts(capsys, tmp_path):
    """The offsets' range constraints are recorded as the regularity report
    records the Riccati conditions, and ``mflq solve`` reads its
    corrections block off those verdicts."""
    g = TimeGrid(0.0, 1.0, 500)
    p = make_problem(1, 1, g, B=1.0, Q=1.0, R=0.0, G=1.0, b=(0.0, 1.0))
    corr = solve_affine(p, integrate_gre(p)).corrections
    dev, mean = corr.conditions
    assert isinstance(dev, ConditionVerdict) and isinstance(mean, ConditionVerdict)
    assert (dev.name, mean.name) == ("offset_range_dev", "offset_range_mean")
    assert dev.tolerance == mean.tolerance == DEFAULT_REG_TOL
    assert (dev.passed, mean.passed) == (False, True)
    assert corr.feasible == all(c.passed for c in corr.conditions)

    doc = tmp_path / "infeasible.json"
    doc.write_text(docio.dumps(docio.emit_problem(p)))
    assert main(["solve", str(doc)]) == 0
    block = json.loads(capsys.readouterr().out)["corrections"]
    assert block == {
        "feasible": False,
        "worst_dev_node": dev.worst_node,
        "worst_dev_residual": dev.worst_value,
        "worst_mean_node": mean.worst_node,
        "worst_mean_residual": mean.worst_value,
        "tolerance": DEFAULT_REG_TOL,
    }


def test_compute_corrections_matches_solve_affine():
    p = classic(300, b=(0.2, 0.1), sigma=(0.3, 0.0), q=(0.05, 0.0), rho=(0.1, 0.0))
    sol = integrate_gre(p)
    packed = solve_affine(p, sol)
    direct = compute_corrections(sol, packed.adjoint_noise, packed.adjoint_mean)
    np.testing.assert_array_equal(direct.corr_noise, packed.corrections.corr_noise)
    np.testing.assert_array_equal(direct.corr_mean, packed.corrections.corr_mean)


def test_synthesis_builds_the_noise_adjoint_ode_twice(monkeypatch):
    """One build at the nodes and one at the midpoints serve the noise
    adjoint and the mean adjoint's midpoints; the synthesized adjoints and
    offsets are bitwise those of ``solve_affine`` and of
    ``compute_corrections`` run on its adjoints."""
    p, _ = random_spd(2, n=3, m=2, n_steps=120)
    sol = integrate_gre(p)
    builds = []
    build = affine._noise_ode

    def counted(*args):
        builds.append(len(args[2]))  # P at the nodes or at the midpoints
        return build(*args)

    monkeypatch.setattr(affine, "_noise_ode", counted)
    synth = synthesize(p).affine
    assert builds == [121, 120]
    aff = solve_affine(p, sol)
    direct = compute_corrections(sol, aff.adjoint_noise, aff.adjoint_mean)
    np.testing.assert_array_equal(synth.adjoint_noise, aff.adjoint_noise)
    np.testing.assert_array_equal(synth.adjoint_mean, aff.adjoint_mean)
    np.testing.assert_array_equal(aff.corrections.corr_noise, direct.corr_noise)
    np.testing.assert_array_equal(aff.corrections.corr_mean, direct.corr_mean)
