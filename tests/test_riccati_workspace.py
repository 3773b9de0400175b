"""The Riccati sweep's stage workspace against the allocating stage it replaced.

``integrate_gre`` gives every sweep one workspace: the Hamiltonian block,
its scratch products, U = V^T cross, the scaled U and the rank rule's
buffers are allocated once and every RK4 stage refills them in place.  The
reference below keeps the earlier arithmetic as test-only code: a
Hamiltonian block allocated afresh at every stage, factored by the
``linalg._eigh`` seam and turned into a rate by an allocating rate, whose
1/lambda comes from an allocating rank rule, with the maps resolved per
stage by ``riccati._at``.  It is driven by the same ``rk4_steps`` from the
same ``integrate_gre``, with the factorization's rank decision (``keep``,
``cutoff`` and 1/lambda, which the gains, the rate and the report read) on
the same allocating arithmetic, and the node pass's rate is checked against
the allocating rate of allocating blocks, so every output must agree bit
for bit.  A scalar problem's sweep forms its stages in Python floats
instead, so the comparison pins those to the allocating stage as well.
"""

import sys
import threading
import warnings
from dataclasses import fields

import numpy as np
import pytest

from mflq import linalg, riccati
from mflq.linalg import _mT, _sym
from mflq.presets import example31, random_spd, scalar_classic
from mflq.problem import TimeGrid, make_problem, tabulate
from mflq.quadrature import rk4_steps
from mflq.riccati import integrate_gre
from test_nodewise_reference import time_varying_problem


def sampled_scalar_problem():
    """Scalar mean-field instance whose A and R are sampled on a 37-step
    grid, so the stages read per-point maps, interpolated on the solve
    grid, beside constant ones."""
    s = TimeGrid(0.0, 1.0, 37).nodes
    return make_problem(
        1, 1, TimeGrid(0.0, 1.0, 300),
        A=(0.2 * np.sin(3.0 * s))[:, None, None], A_bar=0.1,
        B=1.0, B_bar=-0.2, C=0.2, C_bar=0.1, D=0.3, D_bar=0.1,
        Q=1.0, Q_bar=0.2, S=0.1,
        R=(1.0 + 0.5 * np.sin(4.0 * s))[:, None, None], R_bar=0.3,
        G=1.0, G_bar=0.5, b=(0.3, 0.1), sigma=(0.1, 0.05),
    )


CASES = {
    "random_spd_1_1": lambda: random_spd(0, n=1, m=1)[0],
    "random_spd_2_2": lambda: random_spd(0, n=2, m=2)[0],
    "random_spd_6_3": lambda: random_spd(0, n=6, m=3)[0],
    "random_spd_10_5": lambda: random_spd(0, n=10, m=5)[0],
    "example31": lambda: example31()[0],
    "scalar_classic": lambda: scalar_classic()[0],
    "no_bars_3_2": lambda: random_spd(0, n=3, m=2, with_bars=False)[0],
    "time_varying": time_varying_problem,
    "sampled_scalar": sampled_scalar_problem,
}


def allocating_hamiltonian(Y, co):
    """The block Z = G^T P G + H plus M F on the top rows and (M F)^T on the
    left columns, every product allocated afresh."""
    F, G, H = co
    n = Y.shape[-1]
    Z = _mT(G) @ (Y[..., :1, :, :] @ G) + H
    YF = Y @ F
    top = Z[..., :n, :]
    top += YF
    left = Z[..., :n]
    left += _mT(YF)
    return Z


def allocating_rank_rule(lam):
    """The retained mask |lambda| > (DEFAULT_RTOL m) max|lambda| of a stack
    of eigenvalues (..., m), and the cutoff with the last axis kept."""
    mod = np.abs(lam)
    cut = (linalg.DEFAULT_RTOL * lam.shape[-1]) * np.maximum.reduce(
        mod, axis=-1, keepdims=True
    )
    return mod > cut, cut


def allocating_eig_inverse(lam):
    """1/lambda on the retained eigenvalues, 0 elsewhere."""
    return np.divide(1.0, lam, out=np.zeros(lam.shape),
                     where=allocating_rank_rule(lam)[0])


def allocating_inverse_builder(shape):
    """``linalg._inverse_builder`` on the allocating rule: ``decide`` copies
    the allocating 1/lambda into the one buffer a rate builder reads."""
    inv = np.empty(shape)

    def decide(lam):
        keep, cut = allocating_rank_rule(lam)
        inv[...] = allocating_eig_inverse(lam)
        return keep, cut, inv

    return inv, decide


def allocating_rate(lin, cross, inv, V):
    """cross^T W^+ cross - lin as U^T diag(1/lambda) U - lin, U = V^T cross."""
    U = _mT(V) @ cross
    return _mT(U) @ (inv[..., None] * U) - lin


def allocating_rhs(Y, co):
    n = Y.shape[-1]
    Z = allocating_hamiltonian(Y, co)
    lam, V = linalg._eigh(Z[..., n:, n:])
    return allocating_rate(Z[..., :n, :n], Z[..., n:, :n],
                           allocating_eig_inverse(lam), V)


def reference_gre(p, monkeypatch):
    """``integrate_gre`` with every stage and the factorization's rank rule
    on the allocating reference.  It checks that the sweep stepped through
    the patched ``riccati.rk4_steps``, 4K allocating stages, so a sweep that
    stopped doing so fails here instead of being compared with itself, and
    that the node pass's rate is bitwise the allocating rate of the
    allocating blocks at the nodes, on the factorization's 1/lambda."""
    tab = tabulate(p, p.horizon)
    stages = []

    def stage(y, maps):
        stages.append(None)
        return allocating_rhs(y, maps)

    def reference_steps(grid, f_node, f_mid, start, backward=False, post=None):
        return rk4_steps(
            grid,
            lambda y, k: stage(y, riccati._at(tab.node_maps, k)),
            lambda y, i: stage(y, riccati._at(tab.mid_maps, i)),
            start, backward=backward, post=post,
        )

    with monkeypatch.context() as patch:
        patch.setattr(riccati, "rk4_steps", reference_steps)
        patch.setattr(linalg, "_inverse_builder", allocating_inverse_builder)
        sol = integrate_gre(p)
    assert len(stages) == 4 * p.horizon.n_steps
    n = p.n
    Z = allocating_hamiltonian(np.stack((sol.P, sol.P_mean), axis=1), tab.node_maps)
    rate = allocating_rate(Z[..., :n, :n], Z[..., n:, :n], sol.factor.inv,
                           sol.factor.eigvecs)
    assert_bitwise(sol.rate, _sym(rate))
    return sol


def assert_bitwise(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def assert_report_equal(rep, ref):
    assert rep.conditions == ref.conditions
    assert (rep.regular, rep.n_steps, rep.tol) == (ref.regular, ref.n_steps, ref.tol)
    assert (rep.near_cutoff_dev, rep.near_cutoff_mean) == (
        ref.near_cutoff_dev, ref.near_cutoff_mean)
    assert_bitwise(rep.dev_rank, ref.dev_rank)
    assert_bitwise(rep.mean_rank, ref.mean_rank)


def assert_solutions_bitwise(sol, ref):
    for f in fields(sol):
        got, want = getattr(sol, f.name), getattr(ref, f.name)
        if f.name == "grid":
            assert got == want
        elif f.name == "factor":
            assert_bitwise(got.eigvals, want.eigvals)
            assert_bitwise(got.eigvecs, want.eigvecs)
        elif f.name == "table":
            for a, b in zip(got.node_maps + got.mid_maps, want.node_maps + want.mid_maps):
                assert_bitwise(a, b)
        elif f.name == "report":
            assert_report_equal(got, want)
        else:
            assert_bitwise(got, want)


@pytest.mark.parametrize("case", sorted(CASES))
def test_workspace_sweep_is_bitwise_the_allocating_stage(case, monkeypatch):
    p = CASES[case]()
    assert_solutions_bitwise(integrate_gre(p), reference_gre(p, monkeypatch))


def test_channels_stay_bitwise_equal_on_the_workspace():
    sol = integrate_gre(CASES["no_bars_3_2"]())
    assert_bitwise(sol.P, sol.P_mean)
    assert_bitwise(sol.gain_dev, sol.gain_mean)


def test_time_varying_problem_takes_the_sampled_map_branch(monkeypatch):
    """Its sampled maps are resolved at every stage, and every stage of the
    sweep is one call of the seam on a (2, m, m) stack."""
    p = time_varying_problem()
    tab = tabulate(p, p.horizon)
    assert any(t.ndim == 4 for t in tab.node_maps + tab.mid_maps)
    shapes = []
    seam = linalg._eigh

    def counting(M):
        shapes.append(M.shape)
        return seam(M)

    monkeypatch.setattr(linalg, "_eigh", counting)
    integrate_gre(p)
    K = p.horizon.n_steps
    assert shapes[:4 * K] == [(2, p.m, p.m)] * (4 * K)
    assert len(shapes) == 4 * K + 1


@pytest.mark.parametrize("case", ["scalar_classic", "sampled_scalar"])
def test_scalar_sweep_factors_only_in_the_node_pass(case, monkeypatch):
    """A scalar problem's stages take each 1 x 1 weight as its own
    eigendecomposition, so the sweep calls the seam once, for the node
    pass's (K+1, 2, 1, 1) stack, with constant maps and with sampled ones."""
    p = CASES[case]()
    tab = tabulate(p, p.horizon)
    sampled = any(t.ndim == 4 for t in tab.node_maps + tab.mid_maps)
    assert sampled == (case == "sampled_scalar")
    shapes = []
    seam = linalg._eigh

    def counting(M):
        shapes.append(M.shape)
        return seam(M)

    monkeypatch.setattr(linalg, "_eigh", counting)
    integrate_gre(p)
    assert shapes == [(p.horizon.n_steps + 1, 2, 1, 1)]


# Entries for the scalar stage's maps and values: signed zeros, subnormals,
# products that overflow or underflow, and non-finite entries.
SPECIAL_ENTRIES = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1.0,
                            -1.0, -3.0, 1e200, -1e200, np.inf, -np.inf, np.nan])


def test_scalar_stage_is_the_allocating_stage_on_special_entries():
    """The scalar stage, formed in floats, against the allocating stage on
    maps and values drawn from ``SPECIAL_ENTRIES`` and, for half the draws,
    mixed with normal ones: bitwise, signs of zero and NaNs included, and
    with no warning where the allocating stage's numpy warns."""
    rng = np.random.default_rng(38)
    for draw in range(2000):
        x = rng.choice(SPECIAL_ENTRIES, size=16)
        if draw % 2:
            x = np.where(rng.random(16) < 0.5, x, rng.standard_normal(16))
        (A, B, C, D, Q, S, R), bars = x[:7], x[7:14]
        F = np.array([[[A, B]], [[bars[0], bars[1]]]])
        G = np.array([[[C, D]], [[bars[2], bars[3]]]])
        H = np.array([[[Q, S], [S, R]], [[bars[4], bars[5]], [bars[5], bars[6]]]])
        Y = x[14:].reshape(2, 1, 1)
        stage = riccati._stage_rate((F, G, H), *riccati._block_builder((2, 2, 2), 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = stage(Y, 0)
        with np.errstate(all="ignore"):
            want = allocating_rhs(Y, (F, G, H))
        assert_bitwise(got, want)


@pytest.mark.parametrize("case", ["random_spd_1_1", "random_spd_2_2", "example31",
                                  "time_varying"])
def test_each_stage_call_returns_a_fresh_rate(case):
    """One sweep's stage called twice returns two arrays that share memory
    with neither each other nor the workspace, and the second call leaves
    the first rate as it was: RK4 holds f1 while it asks for f2, f3, f4."""
    p = CASES[case]()
    sol = integrate_gre(p)
    maps = tabulate(p, p.horizon).node_maps
    N = p.n + p.m
    Z, fill = riccati._block_builder((2, N, N), p.n)
    stage = riccati._stage_rate(maps, Z, fill)
    Y1, Y2 = (np.stack((sol.P[k], sol.P_mean[k])) for k in (10, 20))
    f1 = stage(Y1, 10)
    kept = f1.copy()
    f2 = stage(Y2, 20)
    assert f1 is not f2
    assert not np.shares_memory(f1, f2)
    assert not any(np.shares_memory(f, Z) for f in (f1, f2))
    assert_bitwise(f1, kept)
    assert_bitwise(f1, allocating_rhs(Y1, riccati._at(maps, 10)))
    assert_bitwise(f2, allocating_rhs(Y2, riccati._at(maps, 20)))


def test_concurrent_sweeps_match_sequential_ones():
    """Two sweeps run at once in two threads give bitwise the results of the
    same sweeps run one after the other: no workspace is shared.  The two
    problems have the same sizes, so a workspace kept per shape would be,
    and a short switch interval interleaves their stages."""
    problems = (CASES["random_spd_2_2"](), CASES["time_varying"]())
    sequential = [integrate_gre(p) for p in problems]
    concurrent = [None, None]
    start = threading.Barrier(2)

    def sweep(i):
        start.wait()
        concurrent[i] = integrate_gre(problems[i])

    threads = [threading.Thread(target=sweep, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for sol, ref in zip(concurrent, sequential):
        assert_solutions_bitwise(sol, ref)
