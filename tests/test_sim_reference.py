"""The Monte Carlo sweep against a row-layout reference loop.

``sim.simulate`` runs paths along the last axis of Z = [U; X; 1; W; W0]
and steps every node with two affine maps of Z, one for the control and one
for the cost, the drift and the diffusion.  The reference below is the plain
Euler-Maruyama loop with the state laid out as (paths, n): controls, cost
terms, drift and diffusion are formed one coefficient at a time.  It draws
through ``sim._chunk_rng`` in the same order (initial Gaussians, initial
Brownian value, then a path-major (paths, K) block of increments per
chunk), so both sweeps see the same Brownian paths and may differ only by
the order of floating-point sums.  Every output must agree to
1e-12 * (1 + |x|), and at one node the maps themselves must equal the
row-layout formulas to 1e-13 * (1 + |x|).

A second reference, ``sequential_simulate_chunks``, is the sweep as it was
before chunks were split into segments drawn in a background thread: it
must give the same per-path costs bit for bit.
"""

import dataclasses
from typing import Callable, Sequence

import numpy as np
import pytest

from mflq import sim
from mflq.sim import CHUNK, DRAW_BLOCK, _chunk_rng
from mflq.presets import example31, example31_null_control, random_spd
from mflq.problem import (
    InitialLaw,
    NoiseAffinePath,
    TimeGrid,
    sample_path,
    tabulate,
)
from mflq.quadrature import trapezoid, trapezoid_weights
from mflq.synthesis import synthesize
from test_nodewise_reference import time_varying_problem

TOL = 1e-12


def close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    err = np.max(np.abs(got - want) / (1.0 + np.abs(want)))
    assert err <= TOL, err


def mean_channel_cost(p, tab, EX, EU):
    st = tab.stack
    running = (
        np.einsum("ki,kij,kj->k", EX, st("Q_bar"), EX)
        + 2.0 * np.einsum("ki,kij,kj->k", EU, st("S_bar"), EX)
        + np.einsum("ki,kij,kj->k", EU, st("R_bar"), EU)
        + 2.0 * np.sum(EX * st("q_bar"), axis=1)
        + 2.0 * np.sum(EU * st("rho_bar"), axis=1)
    )
    terminal = EX[-1] @ (p.G_bar @ EX[-1]) + 2.0 * (p.g_bar @ EX[-1])
    return float(trapezoid(running, tab.grid.h) + terminal)


def node_cost(st, k, X, U, W):
    """Running integrand at node k; X (paths, n), U (paths, m), W (paths,)."""
    out = np.einsum("bi,ij,bj->b", X, st("Q")[k], X)
    out += 2.0 * np.einsum("bi,ij,bj->b", U, st("S")[k], X)
    out += np.einsum("bi,ij,bj->b", U, st("R")[k], U)
    out += 2.0 * (X @ st("q0")[k] + (X @ st("q1")[k]) * W)
    out += 2.0 * (U @ st("rho0")[k] + (U @ st("rho1")[k]) * W)
    return out


def terminal_cost(p, X, W):
    return np.einsum("bi,ij,bj->b", X, p.G, X) + 2.0 * (X @ p.g0 + (X @ p.g1) * W)


def mean_terms(st, spec, times, EX, EU):
    """Node samples of the mean-channel control, drift and diffusion."""
    mf = sample_path(spec.mean_feedback, times)
    v0 = sample_path(spec.offset.const_part, times)
    mean_u = np.einsum("kij,kj->ki", mf, EX) + v0
    mean_drift = (np.einsum("kij,kj->ki", st("A_bar"), EX)
                  + np.einsum("kij,kj->ki", st("B_bar"), EU) + st("b0"))
    mean_diff = (np.einsum("kij,kj->ki", st("C_bar"), EX)
                 + np.einsum("kij,kj->ki", st("D_bar"), EU) + st("sigma0"))
    return mean_u, mean_drift, mean_diff


def increments(st, k, X, U, W, mean_drift, mean_diff):
    """Euler drift and diffusion at node k, each (paths, n)."""
    drift = (X @ st("A")[k].T + U @ st("B")[k].T + mean_drift[k]
             + st("b1")[k] * W[:, None])
    diff = (X @ st("C")[k].T + U @ st("D")[k].T + mean_diff[k]
            + st("sigma1")[k] * W[:, None])
    return drift, diff


def reference_simulate(p, spec, law, n_paths, n_steps, seed, extra):
    """Row-layout Euler-Maruyama: per-path costs, state sums, extra totals."""
    grid = p.horizon.with_steps(n_steps)
    K, h, times = grid.n_steps, grid.h, grid.nodes
    tab = tabulate(p, grid)
    st = tab.stack
    EX, EU = sim.mean_ode(p, spec, law.mean, n_steps=n_steps)
    fb = sample_path(spec.feedback, times)
    v1 = sample_path(spec.offset.noise_part, times)
    mean_u, mean_drift, mean_diff = mean_terms(st, spec, times, EX, EU)
    w = trapezoid_weights(K + 1, h)
    sqrt_t0 = np.sqrt(grid.t0)

    costs, extras = [], []
    sum_X = np.zeros((K + 1, p.n))
    sum_term = np.zeros(p.n)
    sum_outer = np.zeros((p.n, p.n))
    for c in range(-(-n_paths // sim.CHUNK)):
        bsz = min(sim.CHUNK, n_paths - c * sim.CHUNK)
        rng = sim._chunk_rng(seed, c)
        gauss = rng.standard_normal((bsz, law.indep_load.shape[1]))
        W0 = sqrt_t0 * rng.standard_normal(bsz)
        dW = np.sqrt(h) * rng.standard_normal((bsz, K))
        W = W0.copy()
        X = law.mean + W0[:, None] * law.brownian_load + gauss @ law.indep_load.T
        running = np.zeros(bsz)
        acc = np.zeros(bsz)
        for k in range(K + 1):
            anchor = W0 if spec.offset.frozen_at_start else W
            U = X @ fb[k].T + mean_u[k] + v1[k] * anchor[:, None]
            running += w[k] * node_cost(st, k, X, U, W)
            acc += w[k] * extra(k, X - EX[k], U - EU[k], W)
            sum_X[k] += X.sum(axis=0)
            if k < K:
                drift, diff = increments(st, k, X, U, W, mean_drift, mean_diff)
                X = X + h * drift + dW[:, k : k + 1] * diff
                W = W + dW[:, k]
        costs.append(running + terminal_cost(p, X, W))
        extras.append(acc)
        sum_term += X.sum(axis=0)
        sum_outer += X.T @ X
    costs = np.concatenate(costs) + mean_channel_cost(p, tab, EX, EU)
    return costs, np.concatenate(extras), sum_X, sum_term, sum_outer


def extra_term(k, dX, dU, W):
    """An integrand that reads every argument and checks the (paths, dim) contract."""
    assert dX.shape == (W.shape[0], dX.shape[1]) and dU.shape[0] == W.shape[0]
    return (dX[:, 0] + 0.1 * k) * dU[:, -1] + W * dX.sum(axis=1) + dU[:, 0] ** 2


def assert_agrees(p, spec, law, n_paths, n_steps, seed=5):
    rep, (acc,) = sim.simulate(p, spec, law, n_paths, n_steps, seed,
                               extras=(extra_term,), keep_costs=True)
    costs, ref_acc, sum_X, sum_term, sum_outer = reference_simulate(
        p, spec, law, n_paths, n_steps, seed, extra_term)
    close(rep.per_path_costs, costs)
    close(acc, ref_acc)
    close(rep.sample_mean_path, sum_X / n_paths)
    close(rep.terminal_mean, sum_term / n_paths)
    close(rep.terminal_second_moment, sum_outer / n_paths)
    assert abs(rep.cost_mean - np.mean(costs)) <= TOL * abs(np.mean(costs))
    assert abs(rep.cost_stderr - sim.sample_stderr(costs)) <= (
        TOL * sim.sample_stderr(costs))


@pytest.mark.parametrize("n, m", [(3, 1), (1, 2)])
def test_inhomogeneous_random_spd_agrees(n, m):
    """Brownian-riding b1, sigma1, q1, rho1 and g1, start time 0.5, and an
    initial law with Brownian and independent loads."""
    p, law = random_spd(3, n=n, m=m, n_steps=40)
    assert p.horizon.t0 == 0.5
    assert np.any(law.brownian_load != 0.0) and np.any(law.indep_load != 0.0)
    assert_agrees(p, synthesize(p).strategy, law, 3000, 30)


def test_frozen_offset_agrees():
    """example31's null control: an offset anchored at W(t0), not at W(s)."""
    p, _ = example31(n_steps=40)
    law = InitialLaw(np.zeros(1), np.ones(1), np.zeros((1, 1)))
    spec = example31_null_control()
    assert spec.offset.frozen_at_start
    assert_agrees(p, spec, law, 2000, 40)


def test_time_varying_coefficients_agree():
    p = time_varying_problem()
    law = InitialLaw([0.3, -0.4], [0.2, 0.1], [[0.3, 0.0], [0.1, 0.2]])
    assert_agrees(p, synthesize(p).strategy, law, 2000, 30)


def test_short_last_chunk_agrees():
    """CHUNK + 7 paths: the last chunk fills 7 columns of the shared buffer."""
    p, law = random_spd(4, n=2, m=2, n_steps=20)
    assert_agrees(p, synthesize(p).strategy, law, sim.CHUNK + 7, 20)


def test_node_maps_match_row_layout_formulas():
    """At one node, from a random Z with a frozen anchor and every riding
    term nonzero, the control product, the cost rows' form, both increments
    and the terminal form equal the row-layout formulas to 1e-13 (1 + |x|)."""
    p, law = random_spd(3, n=3, m=2, n_steps=40)
    spec = synthesize(p).strategy
    offset = spec.offset
    spec = dataclasses.replace(spec, offset=NoiseAffinePath(
        offset.const_part, offset.noise_part, frozen_at_start=True))
    for name in ("b", "sigma", "q", "rho"):
        assert np.any(getattr(p, name).noise_part.values != 0.0), name
    assert np.any(p.g1 != 0.0) and np.any(offset.noise_part.values != 0.0)

    grid = p.horizon.with_steps(30)
    tab = tabulate(p, grid)
    st, times = tab.stack, grid.nodes
    control = sim._control_samples(spec, grid)
    EX, EU = sim._mean_path(tab, control, law.mean)
    v1 = sample_path(offset.noise_part, times)
    gain, T, terminal = sim._sweep_maps(p, tab, EX, EU, (control, v1, True))
    mean_u, mean_drift, mean_diff = mean_terms(st, spec, times, EX, EU)
    w = trapezoid_weights(grid.n_steps + 1, grid.h)

    def near(got, want):
        err = np.max(np.abs(got - want) / (1.0 + np.abs(want)))
        assert err <= 1e-13, err

    n, m = p.n, p.m
    d = n + m
    rng = np.random.default_rng(2)
    X, W, W0 = rng.normal(size=(40, n)), rng.normal(size=40), rng.normal(size=40)
    Z = np.vstack((np.zeros((m, 40)), X.T, np.ones(40), W, W0))
    assert T.shape[1:] == (d + 2 * n, Z.shape[0])
    for k in (0, 17, grid.n_steps):
        np.matmul(gain[k], Z[m:], out=Z[:m])
        U = Z[:m].T
        near(U, X @ sample_path(spec.feedback, times)[k].T + mean_u[k]
             + v1[k] * W0[:, None])
        TZ = T[k] @ Z
        near(np.einsum("ib,ib->b", TZ[:d], Z[:d]), w[k] * node_cost(st, k, X, U, W))
        drift, diff = increments(st, k, X, U, W, mean_drift, mean_diff)
        near(TZ[d : d + n].T, grid.h * drift)
        near(TZ[d + n :].T, diff)
    near(np.einsum("ib,ib->b", terminal @ Z[m : d + 2], X.T), terminal_cost(p, X, W))


def test_each_call_builds_the_sweep_maps_once(monkeypatch):
    calls = []
    build = sim._sweep_maps

    def counted(*args, **kwargs):
        calls.append(args[1].grid.n_steps)
        return build(*args, **kwargs)

    monkeypatch.setattr(sim, "_sweep_maps", counted)
    p, law = random_spd(4, n=2, m=1, n_steps=20, inhomogeneous=False)
    sim.simulate(p, synthesize(p).strategy, law, 500, 25, seed=1)
    assert calls == [25]


# The sweep before it was split into segments, kept verbatim as the
# sequential reference: one (K, CHUNK) increment buffer, every draw made by
# the calling thread, the path sums taken per chunk.
def sequential_simulate_chunks(
    grid: TimeGrid,
    maps,
    law: InitialLaw,
    n_paths: int,
    seed: int,
    EX: np.ndarray,
    EU: np.ndarray,
    extras: Sequence[Callable] = (),
):
    """Core Euler-Maruyama sweep over path chunks.

    Returns (costs, extra_accumulators, sum_state_per_node, terminal sums).
    ``maps`` is (gain, T, terminal) from ``_sweep_maps``; the columns of T
    are the rows of Z.  ``extras`` are per-node integrands
    f(k, X - EX[k], U - EU[k], W) -> (B,), accumulated with the same
    trapezoid weights as the running cost.

    Paths run along the last axis of Z = [U; X; 1; W; W0], shape
    (rows, B).  Each node makes two products, U = gain[k] @ Z[m:] and
    T[k] @ Z, then adds the cost rows' form to the running cost and the
    drift and the diffusion times dW_k to X.  Each chunk draws its
    increments path-major, as the reproducibility contract fixes them, in
    blocks of DRAW_BLOCK paths, each written scaled and transposed into a
    step-major increment buffer that every chunk reuses.
    """
    gain, T, terminal = maps
    K = grid.n_steps
    n, m = EX.shape[1], EU.shape[1]
    d = n + m
    w = trapezoid_weights(K + 1, grid.h)
    sqrt_h = np.sqrt(grid.h)
    sqrt_t0 = np.sqrt(grid.t0) if grid.t0 > 0.0 else 0.0

    costs = []
    extra_acc = [[] for _ in extras]
    sum_X = np.zeros((K + 1, n))
    sum_term = np.zeros(n)
    sum_term_outer = np.zeros((n, n))
    dW_buf = np.empty((K, min(CHUNK, n_paths)))

    n_chunks = (n_paths + CHUNK - 1) // CHUNK
    for c in range(n_chunks):
        bsz = min(CHUNK, n_paths - c * CHUNK)
        rng = _chunk_rng(seed, c)
        gauss = rng.standard_normal((bsz, law.indep_load.shape[1]))
        z0 = rng.standard_normal(bsz)
        dW = dW_buf[:, :bsz]
        for i in range(0, bsz, DRAW_BLOCK):
            block = rng.standard_normal((min(DRAW_BLOCK, bsz - i), K))
            np.multiply(block.T, sqrt_h, out=dW[:, i : i + block.shape[0]])

        Z = np.empty((T.shape[2], bsz))
        U, X, W = Z[:m], Z[m:d], Z[d + 1]
        W[...] = sqrt_t0 * z0
        X[...] = (
            law.mean + W[:, None] * law.brownian_load + gauss @ law.indep_load.T
        ).T
        Z[d] = 1.0
        Z[d + 2 :] = W  # the frozen anchor W0, when Z has its row
        TZ = np.empty((T.shape[1], bsz))
        cost, drift, diff = TZ[:d], TZ[d : d + n], TZ[d + n :]

        running = np.zeros(bsz)
        running_extra = [np.zeros(bsz) for _ in extras]

        for k in range(K + 1):
            np.matmul(gain[k], Z[m:], out=U)
            np.matmul(T[k], Z, out=TZ)
            running += np.einsum("ib,ib->b", cost, Z[:d])
            for e_idx, fn in enumerate(extras):
                running_extra[e_idx] += w[k] * fn(
                    k, (X - EX[k][:, None]).T, (U - EU[k][:, None]).T, W
                )
            sum_X[k] += X.sum(axis=1)
            if k < K:
                X += drift
                diff *= dW[k]
                X += diff
                W += dW[k]

        running += np.einsum("ib,ib->b", terminal @ Z[m : d + 2], X)
        costs.append(running)
        for e_idx in range(len(extras)):
            extra_acc[e_idx].append(running_extra[e_idx])
        sum_term += X.sum(axis=1)
        sum_term_outer += X @ X.T

    costs = np.concatenate(costs)
    extra_out = [np.concatenate(acc) for acc in extra_acc]
    return costs, extra_out, sum_X, sum_term, sum_term_outer


def sequential_core(grid, strategies, law, n_paths, seed, extras=()):
    """``sequential_simulate_chunks`` behind the batched core's signature,
    for a batch of one strategy, as ``simulate`` makes."""
    ((maps, EX, EU),) = strategies
    return [sequential_simulate_chunks(grid, maps, law, n_paths, seed, EX, EU, extras)]


def frozen_riding_case(n, m):
    """A random_spd problem with every riding term nonzero, and its optimal
    strategy with the offset frozen at the entry time."""
    p, law = random_spd(6, n=n, m=m, n_steps=40)
    spec = synthesize(p).strategy
    offset = spec.offset
    spec = dataclasses.replace(spec, offset=NoiseAffinePath(
        offset.const_part, offset.noise_part, frozen_at_start=True))
    for name in ("b", "sigma", "q", "rho"):
        assert np.any(getattr(p, name).noise_part.values != 0.0), name
    assert np.any(p.g1 != 0.0) and np.any(offset.noise_part.values != 0.0)
    return p, spec, law


SEGMENT_CASES = (1, 1023, sim.SEGMENT - 1, sim.SEGMENT, sim.SEGMENT + 1,
                 sim.SEGMENT + 3, sim.SEGMENT + sim._MIN_TAIL, sim.CHUNK,
                 sim.CHUNK + 7, 2 * sim.CHUNK + 3)


@pytest.mark.parametrize("n, m", [(3, 1), (2, 2)])
def test_segmented_sweep_matches_sequential_sweep(n, m, monkeypatch):
    """Per-path costs, the extra accumulators, cost_mean and cost_stderr are
    bitwise those of the sequential sweep at every path count; the path
    sums, now taken per segment, agree to 1e-14 (1 + |x|)."""
    p, spec, law = frozen_riding_case(n, m)

    def run(n_paths):
        return sim.simulate(p, spec, law, n_paths, 20, seed=9,
                            extras=(extra_term,), keep_costs=True)

    got = [run(n_paths) for n_paths in SEGMENT_CASES]
    monkeypatch.setattr(sim, "_simulate_chunks", sequential_core)
    for n_paths, (rep, (acc,)) in zip(SEGMENT_CASES, got):
        ref, (ref_acc,) = run(n_paths)
        np.testing.assert_array_equal(rep.per_path_costs, ref.per_path_costs)
        np.testing.assert_array_equal(acc, ref_acc)
        assert (rep.cost_mean, rep.cost_stderr) == (ref.cost_mean, ref.cost_stderr)
        for name in ("sample_mean_path", "mean_gap", "terminal_mean",
                     "terminal_second_moment"):
            a, b = getattr(rep, name), getattr(ref, name)
            assert np.all(np.abs(a - b) <= 1e-14 * (1.0 + np.abs(b))), (n_paths, name)


@pytest.mark.parametrize("n, m", [(3, 1), (2, 2)])
def test_two_workers_match_one_worker_bitwise(n, m, monkeypatch):
    """Two workers give bitwise the outputs of one at every path count:
    per-path costs, the extra accumulators, cost_mean, cost_stderr and the
    path sums, which are added in segment order whichever worker finishes
    first."""
    p, spec, law = frozen_riding_case(n, m)
    counts = SEGMENT_CASES + (3 * sim.CHUNK,)

    def run(n_paths):
        return sim.simulate(p, spec, law, n_paths, 20, seed=9,
                            extras=(extra_term,), keep_costs=True)

    got = [run(n_paths) for n_paths in counts]

    def refuse(self):
        raise AssertionError("one worker started a thread")

    monkeypatch.setattr(sim, "_WORKERS", 1)
    monkeypatch.setattr(sim.threading.Thread, "start", refuse)
    for n_paths, (rep, (acc,)) in zip(counts, got):
        ref, (ref_acc,) = run(n_paths)
        np.testing.assert_array_equal(acc, ref_acc)
        for name in ("per_path_costs", "cost_mean", "cost_stderr",
                     "sample_mean_path", "mean_gap", "terminal_mean",
                     "terminal_second_moment"):
            np.testing.assert_array_equal(getattr(rep, name), getattr(ref, name),
                                          err_msg=f"{name} at {n_paths} paths")


def test_segments_start_on_draw_block_boundaries():
    """Whole segments tile a chunk, and each starts on a DRAW_BLOCK
    boundary, so a chunk's stream is drawn in the same blocks as
    unsegmented."""
    assert sim.CHUNK % sim.SEGMENT == 0
    assert sim.SEGMENT % sim.DRAW_BLOCK == 0


def test_bench_shape_matches_sequential_sweep(monkeypatch):
    """(6, 3) at 40,000 paths, as the monte-carlo benchmark calls it: three
    chunks with no tail to merge; per-path costs, cost_mean and cost_stderr
    are bitwise those of the sequential sweep."""
    p, spec, law = frozen_riding_case(6, 3)

    def run():
        return sim.simulate(p, spec, law, 40_000, 20, seed=9, keep_costs=True)

    rep = run()
    monkeypatch.setattr(sim, "_simulate_chunks", sequential_core)
    ref = run()
    np.testing.assert_array_equal(rep.per_path_costs, ref.per_path_costs)
    assert (rep.cost_mean, rep.cost_stderr) == (ref.cost_mean, ref.cost_stderr)


def test_segments_cover_each_chunk_in_path_order():
    """Segments run through the paths in order, SEGMENT at a time, and only
    the last one is wider, by fewer than _MIN_TAIL paths."""
    for n_paths in SEGMENT_CASES + (3 * sim.CHUNK,):
        segments = sim._segments(n_paths)
        paths = [c * sim.CHUNK + start + np.arange(size) for c, start, size in segments]
        np.testing.assert_array_equal(np.concatenate(paths), np.arange(n_paths))
        sizes = [size for _, _, size in segments]
        assert set(sizes[:-1]) <= {sim.SEGMENT}
        assert sizes[-1] < sim.SEGMENT + sim._MIN_TAIL
