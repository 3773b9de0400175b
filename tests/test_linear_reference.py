"""Propagator runs of ``linear_rk4`` against the stepwise sweep they replaced.

``linear_rk4`` builds the affine map y -> Phi y + psi of every RK4 step of a
run in one batched pass and then reads the run's nodes off them with a
work-efficient scan.  The reference below keeps the earlier formulation as
test-only code: the same tableau driven one step at a time through
``rk4_steps``, with the named finite-escape check at every node.  Both
routes are compared directly, on constant and sampled coefficients in both
directions at grid sizes around the run length, at d = 3, 20 and 40, and
through the public adjoint, offset, value, mean-ODE and simulation layers,
with ``linear_rk4`` swapped for the reference.  Further cases pin what the
composition must survive: a growing mode that neither the start nor the
forcing excites, whose composed maps can overflow, and escapes at run
edges.

Values and the nodal rates L y + g that both routes return must agree to
1e-13 (1 + |x|); escape reports must name the same quantity, node and time.
"""

import math

import numpy as np
import pytest

from mflq import affine, linalg, quadrature, sim
from mflq.errors import FiniteEscapeError
from mflq.presets import random_spd
from mflq.problem import InitialLaw, TimeGrid
from mflq.quadrature import _check_finite, linear_rk4, rk4_steps
from mflq.synthesis import closed_loop, synthesize, value
from test_nodewise_reference import time_varying_problem

TOL = 1e-13


def reference_linear_rk4(grid, L_node, g_node, L_mid, g_mid, start, name,
                         backward=False):
    """dy/ds = L y + g stepped one node at a time, checked at every node;
    returns y and the rate L_k y_k + g_k at every node k."""
    nodes = grid.nodes
    out = np.empty((grid.n_steps + 1,) + np.shape(start))
    first = grid.n_steps if backward else 0
    out[first] = start
    steps = rk4_steps(
        grid,
        lambda y, k: L_node[k] @ y + g_node[k],
        lambda y, i: L_mid[i] @ y + g_mid[i],
        out[first],
        backward,
    )
    for j, y in steps:
        _check_finite(name, y, j, nodes[j])
        out[j] = y
    rate = np.array([L_node[k] @ out[k] + g_node[k] for k in range(len(out))])
    return out, rate


def assert_close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    np.testing.assert_array_less(np.abs(got - want), TOL * (1.0 + np.abs(want)))


def assert_sweeps_close(got, want):
    """Two sweeps' (y, rate) agree, y and the rate each to TOL."""
    for a, b in zip(got, want, strict=True):
        assert_close(a, b)


def linear_tables(grid, sampled, d=3, seed=0):
    """L and g at the nodes and midpoints: constant (broadcast, read-only)
    or sampled from smooth paths."""
    rng = np.random.default_rng(seed)
    L0, L1 = rng.normal(size=(2, d, d))
    g0, g1 = rng.normal(size=(2, d))
    nodes = grid.nodes
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    if not sampled:
        return tuple(
            np.broadcast_to(c, (t.size,) + c.shape)
            for t in (nodes, mids) for c in (L0, g0)
        )

    def L(t):
        return L0 + np.sin(3.0 * t)[:, None, None] * L1

    def g(t):
        return g0 + np.cos(2.0 * t)[:, None] * g1

    return L(nodes), g(nodes), L(mids), g(mids)


@pytest.mark.parametrize("K", [1, 255, 256, 257, 1000])
@pytest.mark.parametrize("backward", [False, True])
@pytest.mark.parametrize("sampled", [False, True])
def test_linear_rk4_matches_stepwise_sweep(K, backward, sampled):
    grid = TimeGrid(0.25, 1.25, K)
    tables = linear_tables(grid, sampled)
    start = np.array([0.5, -1.0, 2.0])
    got = linear_rk4(grid, *tables, start, "y", backward=backward)
    want = reference_linear_rk4(grid, *tables, start, "y", backward=backward)
    assert_sweeps_close(got, want)
    first = K if backward else 0
    assert np.array_equal(got[0][first], start)


@pytest.mark.parametrize("K", [1, 255, 256, 257, 1000])
@pytest.mark.parametrize("backward", [False, True])
@pytest.mark.parametrize("sampled", [False, True])
@pytest.mark.parametrize("d", [20, 40])
def test_linear_rk4_matches_stepwise_sweep_at_large_d(d, sampled, backward, K):
    """L, g and the start are scaled by sqrt(3 / d), so that L's spectrum
    and the norms keep their size at d = 3; unscaled, the stepwise
    reference's own roundoff reaches 2.7e-13 (1 + |x|) at d = 40, K = 1000
    (against the same sweep in extended precision)."""
    grid = TimeGrid(0.25, 1.25, K)
    scale = np.sqrt(3.0 / d)
    tables = [t * scale for t in linear_tables(grid, sampled, d=d)]
    start = np.resize([0.5, -1.0, 2.0], d) * scale
    got = linear_rk4(grid, *tables, start, "y", backward=backward)
    want = reference_linear_rk4(grid, *tables, start, "y", backward=backward)
    assert_sweeps_close(got, want)


@pytest.mark.parametrize("backward", [False, True])
def test_escape_report_matches_stepwise_sweep(backward):
    """L = 900 I: the backward case is the escape of an exploding adjoint."""
    grid = TimeGrid(0.0, 1.0, 200)
    d = 2
    L_n = np.broadcast_to(900.0 * np.eye(d), (201, d, d))
    L_m = np.broadcast_to(900.0 * np.eye(d), (200, d, d))
    g_n, g_m = np.zeros((201, d)), np.zeros((200, d))
    reports = []
    for solve in (linear_rk4, reference_linear_rk4):
        with pytest.raises(FiniteEscapeError) as info:
            solve(grid, L_n, g_n, L_m, g_m, np.ones(d), "adjoint offset",
                  backward=backward)
        reports.append(info.value)
    got, want = reports
    assert (got.quantity, got.node, got.time) == (want.quantity, want.node, want.time)
    assert got.norm == pytest.approx(want.norm, rel=1e-12)
    assert got.norm > quadrature.BLOWUP_NORM


INSTANCES = {
    "time_varying": (time_varying_problem(), InitialLaw.deterministic([1.0, -0.5])),
    **{
        f"random_spd_{n}x{m}": random_spd(0, n=n, m=m, n_steps=300)
        for n, m in ((1, 1), (6, 3), (10, 5))
    },
}


def _layer_outputs(p, law, gre):
    """Adjoints, offsets, value, mean ODE and a short simulation."""
    sol = closed_loop(p, gre)
    aff = sol.affine
    out = {
        "adjoint_noise": aff.adjoint_noise,
        "adjoint_mean": aff.adjoint_mean,
        "corr_noise": aff.corrections.corr_noise,
        "corr_mean": aff.corrections.corr_mean,
    }
    out["value"] = value(sol, law)
    out["EX"], out["EU"] = sim.mean_ode(p, sol.strategy, law.mean)
    rep = sim.simulate(p, sol.strategy, law, n_paths=64, n_steps=120, seed=5)
    out["cost_mean"] = rep.cost_mean
    out["mean_path"] = rep.mean_path
    out["terminal_second_moment"] = rep.terminal_second_moment
    return out


@pytest.mark.parametrize("case", sorted(INSTANCES))
def test_layers_match_stepwise_sweep(case, monkeypatch):
    p, law = INSTANCES[case]
    sol = synthesize(p)
    got = _layer_outputs(p, law, sol.gre)
    monkeypatch.setattr(affine, "linear_rk4", reference_linear_rk4)
    monkeypatch.setattr(sim, "linear_rk4", reference_linear_rk4)
    want = _layer_outputs(p, law, sol.gre)
    assert got.keys() == want.keys()
    for key in got:
        assert_close(got[key], want[key])


def test_synthesis_counts(monkeypatch):
    """Two adjoints at K = 1000 make 2 ceil(1000/256) = 8 batched RK4 steps,
    and the symmetric factorizations stay at 4K + 2 calls on 12K + 2 weights."""
    K = 1000
    batched = []
    factored = []
    step, eigh = quadrature._rk4_step, linalg._eigh

    def counting_step(y, dt, k, *args):
        if np.ndim(k):
            batched.append(np.size(k))
        return step(y, dt, k, *args)

    def counting_eigh(a, *args, **kwargs):
        factored.append(int(np.prod(np.shape(a)[:-2], dtype=int)))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(quadrature, "_rk4_step", counting_step)
    monkeypatch.setattr(linalg, "_eigh", counting_eigh)
    synthesize(time_varying_problem(), n_steps=K)
    assert batched == [256, 256, 256, 232] * 2
    assert len(factored) == 4 * K + 2
    assert sum(factored) == 12 * K + 2


@pytest.mark.parametrize("backward", [False, True])
def test_unexcited_growing_mode_stays_finite(backward):
    """A mode growing by about 48 per step that neither the start nor the
    forcing excites: its prefix maps overflow past node 184 while the
    stepwise values stay finite, decaying to (0, exp(-1))."""
    K = 200
    grid = TimeGrid(0.0, 1.0, K)
    L = np.diag([-900.0, 1.0] if backward else [900.0, -1.0])
    tables = (
        np.broadcast_to(L, (K + 1, 2, 2)), np.zeros((K + 1, 2)),
        np.broadcast_to(L, (K, 2, 2)), np.zeros((K, 2)),
    )
    start = np.array([0.0, 1.0])
    got = linear_rk4(grid, *tables, start, "y", backward=backward)
    want = reference_linear_rk4(grid, *tables, start, "y", backward=backward)
    assert_sweeps_close(got, want)
    last = 0 if backward else K
    np.testing.assert_allclose(got[0][last], [0.0, np.exp(-1.0)], rtol=0, atol=1e-10)


@pytest.mark.parametrize("backward", [False, True])
def test_overflowing_block_restarts_the_scan_at_large_d(backward, monkeypatch):
    """d = 16: one mode grows by about 297 a step (h L = 8) and neither the
    start nor the forcing excites it, beside 15 coupled, forced, decaying
    ones.  The scan's 128-step block overflows (297^128 > 1e308) while the
    stepwise values stay finite, so the 200-step run is scanned again from
    the node before the first value that is not finite, and still matches
    the stepwise sweep."""
    K, d = 200, 16
    grid = TimeGrid(0.0, 1.0, K)
    rng = np.random.default_rng(3)
    L = np.zeros((d, d))
    L[0, 0] = 1600.0
    coupling = rng.normal(size=(d - 1, d - 1)) / np.sqrt(d - 1)
    L[1:, 1:] = -np.eye(d - 1) + 0.3 * coupling
    if backward:
        L = -L
    g = np.r_[0.0, rng.normal(size=d - 1)]
    tables = (
        np.broadcast_to(L, (K + 1, d, d)), np.broadcast_to(g, (K + 1, d)),
        np.broadcast_to(L, (K, d, d)), np.broadcast_to(g, (K, d)),
    )
    start = np.r_[0.0, rng.normal(size=d - 1)]
    scans = []
    scan = quadrature._prefix_products

    def counting_scan(D, y):
        scans.append(len(D))
        return scan(D, y)

    monkeypatch.setattr(quadrature, "_prefix_products", counting_scan)
    got = linear_rk4(grid, *tables, start, "y", backward=backward)
    want = reference_linear_rk4(grid, *tables, start, "y", backward=backward)
    assert_sweeps_close(got, want)
    assert scans == [200, 73]


@pytest.mark.parametrize("step", [100, 256, 257])
@pytest.mark.parametrize("backward", [False, True])
def test_escape_at_run_edges_matches_stepwise_sweep(step, backward):
    """Constant L = 65 I (sign flipped backward) and nonzero g: y moves
    away from the fixed point -L^-1 g by G = 1.114 a step, and the start is
    put so that the norm first passes the blow-up norm at the given step of
    the sweep: inside the first run, at its last node and at the first node
    of the second.  The screen trips a few steps earlier."""
    K = 600
    grid = TimeGrid(0.0, 1.0, K)
    lam = -65.0 if backward else 65.0
    L = lam * np.eye(2)
    g = np.array([3.0, -1.0])
    z = 65.0 * grid.h
    G = 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24
    fixed = -g / lam
    start = fixed + quadrature.BLOWUP_NORM / G ** (step - 0.5) * np.array([0.6, 0.8])
    tables = (
        np.broadcast_to(L, (K + 1, 2, 2)), np.broadcast_to(g, (K + 1, 2)),
        np.broadcast_to(L, (K, 2, 2)), np.broadcast_to(g, (K, 2)),
    )
    reports = []
    for solve in (linear_rk4, reference_linear_rk4):
        with pytest.raises(FiniteEscapeError) as info:
            solve(grid, *tables, start, "mean adjoint offset", backward=backward)
        reports.append(info.value)
    got, want = reports
    assert want.node == (K - step if backward else step)
    assert (got.quantity, got.node, got.time) == (want.quantity, want.node, want.time)
    assert got.norm == pytest.approx(want.norm, rel=1e-12)


def test_linear_sweep_counts(monkeypatch):
    """Two adjoints at K = 1000, in runs of 256, 256, 256 and 232 steps:
    each run is scanned once, in at most 2 ceil(log2 run) batched products,
    with fewer map-map products than steps and one matrix-vector product
    per node, and no node is screened alone."""
    runs, screened = [], []
    compose, screen = quadrature._prefix_products, quadrature._screen_passes

    class CountingMaps(np.ndarray):
        def __matmul__(self, other):
            count = runs[-1]
            count["calls"] += 1
            nodes = np.ndim(other) == 1 or np.shape(other)[-1] == 1
            products = len(other) if np.ndim(other) == 3 else 1
            count["nodes" if nodes else "maps"] += products
            return np.ndarray.__matmul__(self, other)

    def counting_compose(M, y):
        runs.append({"run": len(M), "calls": 0, "maps": 0, "nodes": 0})
        return compose(M.view(CountingMaps), y)

    def counting_screen(y):
        screened.append(1)
        return screen(y)

    monkeypatch.setattr(quadrature, "_prefix_products", counting_compose)
    monkeypatch.setattr(quadrature, "_screen_passes", counting_screen)
    synthesize(time_varying_problem(), n_steps=1000)
    assert [count["run"] for count in runs] == [256, 256, 256, 232] * 2
    for count in runs:
        n = count["run"]
        assert count["calls"] <= 2 * math.ceil(math.log2(n))
        assert count["maps"] <= n - 1
        assert count["nodes"] == n
    assert screened == []
