"""End-to-end synthesis and value checks against independent answers.

Closed forms cover the scalar benchmark (value x^2/2), additive noise
(certainty equivalence shifts the value by the integrated P), and initial
laws with Brownian or independent loading.  A dense quadratic program over
discretised controls supplies the independent answer in the genuinely
mean-field, inhomogeneous case.
"""

import dataclasses
import importlib
import pkgutil

import numpy as np
import pytest

import mflq
from mflq import affine, linalg, problem, riccati
from mflq.errors import FiniteEscapeError, ValidationError
from mflq.linalg import _sym
from mflq.presets import example31, random_spd, scalar_classic
from mflq.problem import InitialLaw, TimeGrid, make_problem
from mflq.quadrature import _run_slices
from mflq.riccati import dense_midpoints, integrate_gre
from mflq.sim import simulate
from mflq.synthesis import synthesize, value
from mflq.verify import qp_oracle
from test_nodewise_reference import time_varying_problem
from test_riccati_workspace import allocating_hamiltonian


def test_scalar_classic_value():
    p, law = scalar_classic()
    sol = synthesize(p)
    assert sol.regular and sol.feasible and sol.solvable
    assert value(sol, law) == pytest.approx(0.5, abs=1e-12)
    law3 = InitialLaw.deterministic([3.0])
    assert value(sol, law3) == pytest.approx(4.5, abs=1e-11)


def test_value_names_a_mismatched_initial_law():
    """A law of the wrong dimension used to end in numpy's matmul error."""
    p, _ = random_spd(0, n_steps=50)
    sol = synthesize(p)
    with pytest.raises(ValidationError, match="initial law dimension 1 does "
                       "not match state dimension 2"):
        value(sol, InitialLaw.deterministic([1.0]))


def test_strategy_mean_feedback_vanishes_without_bars():
    p, _ = scalar_classic(n_steps=300)
    sol = synthesize(p)
    assert np.all(sol.strategy.mean_feedback.values == 0.0)
    assert np.all(sol.strategy.offset.const_part.values == 0.0)
    assert np.all(sol.strategy.offset.noise_part.values == 0.0)


def test_certainty_equivalence_with_additive_noise():
    """Additive noise leaves gains untouched and adds the integral of P:
    value = x^2/2 + ln 2 here.  The integral rides the trapezoid rule, so
    the tolerance reflects its second-order error, not the solver's."""
    g = TimeGrid(0.0, 1.0, 1000)
    p = make_problem(1, 1, g, B=1.0, R=1.0, G=1.0, sigma=(1.0, 0.0))
    sol = synthesize(p)
    x = 1.3
    v = value(sol, InitialLaw.deterministic([x]))
    assert v == pytest.approx(x * x / 2 + np.log(2.0), abs=1e-6)
    # the noise does not disturb regularity
    assert sol.solvable


def test_initial_law_second_moments_enter_exactly():
    # Horizon starting at t0 = 0.5: the Brownian load has variance t0 at
    # entry.  P(t0) = 1/(1 + horizon span) = 0.5 by the classic closed form.
    g = TimeGrid(0.5, 1.5, 800)
    p = make_problem(1, 1, g, B=1.0, R=1.0, G=1.0)
    sol = synthesize(p)
    law = InitialLaw(
        mean=np.array([0.6]),
        brownian_load=np.array([0.8]),
        indep_load=np.array([[0.3]]),
    )
    second = 0.6 ** 2 + 0.5 * 0.8 ** 2 + 0.3 ** 2
    assert value(sol, law) == pytest.approx(0.5 * second, abs=1e-11)


def test_unsolvable_problem_still_reports_candidate_value():
    p, law = example31()
    sol = synthesize(p)
    assert not sol.regular
    assert not sol.solvable
    # weak value candidate: 2 x^2 from the doubled mean-channel matrix
    assert value(sol, law) == pytest.approx(2.0, abs=1e-13)
    assert value(sol, InitialLaw.deterministic([3.0])) == pytest.approx(18.0, abs=1e-12)


def test_value_on_full_mean_field_problem_matches_discrete_optimum():
    """Bars, cross weights and every inhomogeneity switched on (but no
    noise, so state and mean coincide): the discretised quadratic program
    converges to the synthesized value at first order, and halving the step
    should halve the gap."""
    rng = np.random.default_rng(11)
    n, m = 2, 2
    g = TimeGrid(0.0, 1.0, 800)
    U = lambda shape: rng.uniform(-0.5, 0.5, size=shape)
    M1 = U((n, n))
    M2 = U((n, n))
    p = make_problem(
        n, m, g,
        A=0.4 * U((n, n)), A_bar=0.2 * U((n, n)),
        B=0.4 * U((n, m)), B_bar=0.2 * U((n, m)),
        Q=0.3 * (M1 @ M1.T) + 0.4 * np.eye(n), Q_bar=0.2 * (M2 @ M2.T),
        S=0.1 * U((m, n)), S_bar=0.05 * U((m, n)),
        R=1.1 * np.eye(m), R_bar=0.15 * np.eye(m),
        G=0.3 * np.eye(n), G_bar=0.1 * np.eye(n),
        b=(0.25 * U((n,)), np.zeros(n)),
        q=(0.2 * U((n,)), np.zeros(n)),
        rho=(0.15 * U((m,)), np.zeros(m)),
        q_bar=0.1 * U((n,)),
        g0=0.2 * U((n,)), g_bar=0.1 * U((n,)),
    )
    x0 = 0.7 * U((n,))
    sol = synthesize(p)
    assert sol.solvable
    v = value(sol, InitialLaw.deterministic(x0))

    gap1 = abs(qp_oracle(p, x0, 1000).cost - v)
    gap2 = abs(qp_oracle(p, x0, 2000).cost - v)
    assert gap2 < 2e-5
    assert 1.5 < gap1 / gap2 < 2.5


def test_step_override_changes_grid():
    p, _ = scalar_classic(n_steps=500)
    sol = synthesize(p, n_steps=123)
    assert sol.grid.n_steps == 123
    assert sol.gre.P.shape == (124, 1, 1)


def test_synthesis_factorization_counts(monkeypatch):
    """One batched eigh per RK4 stage plus a few per grid, and nothing else.

    Eigh calls are counted at the seam ``linalg._eigh``.  The sweep factors
    both channels' input weights together once per stage (4K calls); the
    nodal gain pass, the dense-output gains and the RHS at node 0 add three.  A per-node factorization loop would multiply these
    counts by the grid size.
    """
    K = 200
    p, _ = random_spd(0, n=2, m=2, n_steps=K)
    counts = {"svd": 0, "eigvalsh": 0, "eigh": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in ("svd", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    monkeypatch.setattr(linalg, "_eigh", counting("eigh", linalg._eigh))
    sol = synthesize(p)
    assert sol.solvable
    assert counts["svd"] == 0
    assert counts["eigvalsh"] == 0
    assert 0 < counts["eigh"] <= 4 * K + 8


def test_synthesis_factors_each_weight_once_per_node(monkeypatch):
    """12K + 2 symmetric weights pass through the eigh seam in one synthesis.

    Four RK4 stages per step factor both channels (8K), the nodal gain pass
    factors the 2(K+1) nodal weights once, and the dense-output gains the
    2K midpoint weights; the nodal derivatives of the dense output reuse
    the nodal eigenpairs instead of factoring those weights again.
    """
    K = 200
    p, _ = random_spd(0, n=2, m=2, n_steps=K)
    factored = []
    original = linalg._eigh

    def counting(a, *args, **kwargs):
        factored.append(int(np.prod(np.shape(a)[:-2], dtype=int)))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(linalg, "_eigh", counting)
    synthesize(p)
    assert sum(factored) == 12 * K + 2


@pytest.mark.parametrize("K", [200, 1000])
def test_rank_rule_runs_once_per_factorization_and_stage(K, monkeypatch):
    """Workspaces of the rank rule, counted at ``linalg._inverse_builder``:
    one for each of the sweep's node and midpoint stages and one for the
    nodal factorization make 3 per ``integrate_gre``, and the midpoint
    factorization makes 4 per synthesis, at any K.  The gains, the nodal
    rate, the regularity report and the offsets read the factorization's
    decision instead of running the rule again."""
    p, _ = random_spd(0, n=2, m=2, n_steps=K)
    entries = []
    original = linalg._inverse_builder

    def counting(shape):
        entries.append(shape)
        return original(shape)

    monkeypatch.setattr(linalg, "_inverse_builder", counting)
    gre = integrate_gre(p)
    assert len(entries) == 3
    entries.clear()
    affine.solve_affine(p, gre)
    assert len(entries) == 1
    entries.clear()
    synthesize(p)
    assert len(entries) == 4


def rebuilt_dense_midpoints(sol):
    """The dense output with nodal derivatives from a fresh build of the
    nodal Hamiltonian blocks, each run's allocated afresh, factored by the
    node pass's eigenpairs."""
    n = sol.P.shape[-1]
    inv, V = sol.factor.inv, sol.factor.eigvecs
    Y = np.stack((sol.P, sol.P_mean), axis=1)
    deriv = np.empty_like(Y)
    for run in _run_slices(len(Y)):
        Z = allocating_hamiltonian(Y[run], riccati._at(sol.table.node_maps, run))
        deriv[run] = _sym(riccati._rate(Z[..., :n, :n], Z[..., n:, :n],
                                        inv[run], V[run]))
    Y_mid = riccati.hermite_midpoints(Y, deriv, sol.grid.h)
    _, _, gain, _ = riccati._gains(Y_mid, sol.table.mid_maps)
    return riccati.MidpointData(P=Y_mid[:, 0], P_mean=Y_mid[:, 1],
                                gain_dev=gain[:, 0], gain_mean=gain[:, 1])


def test_dense_output_reads_the_nodal_rate_of_the_node_pass(monkeypatch):
    """The dense output's nodal derivatives are the rate the node pass kept.

    At K = 1000 a synthesis builds the Hamiltonian blocks in 8 batched runs
    of at most 256 points (4 over the nodes, 4 over the midpoints), not 12,
    counted as the batched calls of the block fills, and the midpoint data
    and every synthesis output are bitwise those of a dense output that
    builds the nodal blocks again.
    """
    p, law = random_spd(0, n=6, m=3)
    assert p.horizon.n_steps == 1000
    batched = []
    builder = riccati._block_builder

    def counting(shape, n):
        Z, fill = builder(shape, n)

        def counted(Y, *maps):
            batched.append(Y.ndim == 4)
            return fill(Y, *maps)

        return Z, counted

    monkeypatch.setattr(riccati, "_block_builder", counting)
    sol = synthesize(p)
    assert sum(batched) == 8
    monkeypatch.undo()

    mids, ref_mids = dense_midpoints(sol.gre), rebuilt_dense_midpoints(sol.gre)
    for field in ("P", "P_mean", "gain_dev", "gain_mean"):
        np.testing.assert_array_equal(getattr(mids, field), getattr(ref_mids, field))
    monkeypatch.setattr(affine, "dense_midpoints", rebuilt_dense_midpoints)
    ref = synthesize(p)
    for name in ("adjoint_noise", "adjoint_mean"):
        np.testing.assert_array_equal(getattr(sol.affine, name),
                                      getattr(ref.affine, name))
    for name in ("corr_noise", "corr_mean"):
        np.testing.assert_array_equal(getattr(sol.affine.corrections, name),
                                      getattr(ref.affine.corrections, name))
    for path in ("feedback", "mean_feedback"):
        np.testing.assert_array_equal(getattr(sol.strategy, path).values,
                                      getattr(ref.strategy, path).values)
    for part in ("const_part", "noise_part"):
        np.testing.assert_array_equal(getattr(sol.strategy.offset, part).values,
                                      getattr(ref.strategy.offset, part).values)
    assert (sol.solvable, value(sol, law)) == (ref.solvable, value(ref, law))


def test_dense_output_refuses_a_solution_without_the_nodal_rate():
    p, _ = scalar_classic(n_steps=20)
    sol = dataclasses.replace(integrate_gre(p), rate=None)
    with pytest.raises(ValueError, match="nodal rate"):
        dense_midpoints(sol)


def test_synthesis_builds_channel_maps_once_per_point_set(monkeypatch):
    """The coefficient table builds its node maps and its midpoint maps once.

    The sweep, the dense output, both adjoints and the offsets all read the
    maps the table keeps, so a synthesis makes two builds: one for the
    nodes and one for the midpoints.
    """
    builds = []
    original = problem._channel_maps

    def counting(samples):
        builds.append(samples)
        return original(samples)

    monkeypatch.setattr(problem, "_channel_maps", counting)
    sol = synthesize(time_varying_problem())
    assert len(builds) == 2
    assert builds[0] is sol.gre.table.node and builds[1] is sol.gre.table.mid


def test_sampled_coefficients_are_tabulated_once_per_grid(monkeypatch):
    """Each sampled coefficient path is laid out on a grid exactly once.

    Every module binding of the two sampling functions is wrapped, and a
    call is counted when its path is one of the problem's sampled
    coefficients; a ``sample_path`` call made by ``nodes_and_midpoints``
    belongs to that tabulation and is not counted again.
    """
    p = time_varying_problem()
    sampled = {"A": p.A, "R": p.R, "b0": p.b.const_part}
    counts = dict.fromkeys(sampled, 0)
    depth = [0]

    def counting(fn):
        def wrapper(path, *args, **kwargs):
            if depth[0] == 0:
                for name, coeff in sampled.items():
                    counts[name] += path is coeff
            depth[0] += 1
            try:
                return fn(path, *args, **kwargs)
            finally:
                depth[0] -= 1

        return wrapper

    modules = [mflq] + [
        importlib.import_module(f"mflq.{info.name}")
        for info in pkgutil.iter_modules(mflq.__path__)
    ]
    for fn in (problem.nodes_and_midpoints, problem.sample_path):
        wrapped = counting(fn)
        for mod in modules:
            if getattr(mod, fn.__name__, None) is fn:
                monkeypatch.setattr(mod, fn.__name__, wrapped)

    law = InitialLaw.deterministic([1.0, -0.5])
    sol = synthesize(p)
    value(sol, law)
    assert counts == {"A": 1, "R": 1, "b0": 1}

    counts.update(dict.fromkeys(sampled, 0))
    simulate(p, sol.strategy, law, n_paths=64, n_steps=50, seed=0)
    assert counts == {"A": 1, "R": 1, "b0": 1}


def _vanishing_weight_problem(K, **coeffs):
    """R(s) = (1 - s)^2 on [0, 1], sampled on the K-step solve grid."""
    grid = TimeGrid(0.0, 1.0, K)
    R = ((1.0 - grid.nodes) ** 2)[:, None, None]
    return make_problem(1, 1, grid, Q=1.0, R=R, **coeffs)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 6: the L2 verdict of the gains is decided on one grid; "
    "the gain -c/(1 - s) is not square integrable, yet l2_gain_dev passes "
    "(173.6 at K=250, 695.5 at K=1000)"))
@pytest.mark.parametrize("K", [250, 1000])
def test_gain_that_is_not_square_integrable_is_not_solvable(K):
    """B = Q = 1, R = (1 - s)^2: P = c (1 - s) with c = (sqrt 5 - 1)/2, so
    the gain -c/(1 - s) is not in L^2 and the problem is not closed-loop
    solvable."""
    sol = synthesize(_vanishing_weight_problem(K, B=1.0))
    assert not sol.solvable


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 13: feasible checks only the offsets' range condition; "
    "the offset -1/(1 - s) is not square integrable (its integral on the "
    "grid is 410 at K=250 and 1644 at K=1000)"))
@pytest.mark.parametrize("K", [250, 1000])
def test_offset_that_is_not_square_integrable_is_not_solvable(K):
    """B = 0, Q = 1, R = (1 - s)^2 and the sampled rho = 1 - s: every target
    is in range and the gains vanish, but the exact offset -1/(1 - s) is
    not in L^2, so the problem is not closed-loop solvable."""
    rho = (1.0 - TimeGrid(0.0, 1.0, K).nodes)[:, None]
    sol = synthesize(_vanishing_weight_problem(K, B=0.0, rho=rho))
    assert not sol.solvable


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 1: RK4 at h = 1e-3 cannot resolve the 4e-4 wide terminal "
    "layer, yet the synthesis reports solvable; value gives 0.2088, 1.1176 "
    "and 127.96 at K=1000"))
@pytest.mark.parametrize("a", [-1250.0, -1380.0, -1500.0])
def test_stiff_value_matches_the_closed_form(a):
    """A = a, B = R = Q = 1, G = 100, sigma = 1 on [0, 1] from x0 = 0: the
    value is the integral of P, r+ + ln((1 - c e^(-2d)) / (1 - c)) with
    d = sqrt(a^2 + 1), r+ = 1/(d - a), r- = a - d and
    c = (100 - r+)/(100 - r-).  A named refusal also passes."""
    p = make_problem(1, 1, TimeGrid(0.0, 1.0, 1000), A=a, B=1.0, R=1.0,
                     Q=1.0, G=100.0, sigma=(1.0, 0.0))
    d = np.hypot(a, 1.0)
    r_plus, r_minus = 1.0 / (d - a), a - d
    c = (100.0 - r_plus) / (100.0 - r_minus)
    exact = r_plus + np.log((1.0 - c * np.exp(-2.0 * d)) / (1.0 - c))
    try:
        got = value(synthesize(p), InitialLaw.deterministic(0.0))
    except (FiniteEscapeError, ValidationError):
        return
    assert abs(got - exact) <= 0.01 * exact


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 1: with R = 1e-4 the step h = 1.25e-4 gives h 2P/R = 2.5 "
    "at T, yet the synthesis reports solvable with gains 13.1% off at "
    "K=4000"))
def test_small_input_weight_gain_matches_the_exact_gain():
    """example31 with R = eps = 1e-4: the deviation Riccati solution is
    eps/(eps + 1 - s), so the exact gain is -1/(eps + 1 - s) at every node.
    A named refusal also passes."""
    eps = 1e-4
    p, _ = example31(n_steps=4000)
    p = dataclasses.replace(p, R=problem.MatrixPath.constant([[eps]]))
    try:
        sol = synthesize(p)
    except (FiniteEscapeError, ValidationError):
        return
    exact = -1.0 / (eps + 1.0 - p.horizon.nodes)
    err = np.abs(sol.gre.gain_dev[:, 0, 0] - exact) / np.abs(exact)
    assert np.max(err) <= 1e-3
