"""Euler-Maruyama simulation with exact mean closure.

The state mean and mean control that the dynamics and cost see are not
estimated from the sample: they solve the deterministic mean ODE exactly
(up to RK4), so a finite path ensemble simulates the true mean-field
dynamics rather than an interacting particle system.  Paths are advanced in
fixed-size chunks, each chunk drawing from its own counter-based generator
keyed by (seed, chunk index); results are therefore reproducible bit for
bit for a given seed, path count, and step count.

The closed-loop control u = Theta X + (Theta_bar - Theta) E[X] + phi_bar +
phi_1 W is affine in the path state, and so are the drift, the diffusion
and the cost's linear terms.  A chunk therefore holds its paths along the
last axis of Z = [U; X; 1; W; W0] (the W0 row, the Brownian value at the
entry time, only when the offset is frozen there), and every node makes
two products: U = gain[k] @ [X; 1; W; W0], then T[k] @ Z, whose rows are
the weighted running-cost form, the drift scaled by h and the diffusion.
Both maps are built once per strategy and call by ``_sweep_maps``.

One call can sweep several strategies (``_simulate_many``, which the
lower-bound battery uses; ``simulate`` is a batch of one).  The paths are
drawn once: each segment's increments are drawn into one buffer and every
strategy is swept on it in turn, with its own maps and mean path.  A sweep
only reads the buffer, so each strategy's report is bitwise the report of
a call of its own at the same seed, and the strategies share their random
numbers.

A chunk is swept in segments of SEGMENT = CHUNK // 4 paths, by two
workers: the calling thread and one helper thread.  Each worker claims
whole segments, every chunk's first segment, then every chunk's second,
and so on, so both start at once on streams of their own; it draws what it
claims once, in a step-major (K, widest segment) increment buffer of its
own, and sweeps every strategy on it (the two buffers together hold half
of what one (K, CHUNK) buffer would; a merged remainder, see _MIN_TAIL,
widens them by at most 15 columns).  numpy's generators and products
release the interpreter lock, so the two workers run on two cores.  Each
chunk's stream is still drawn in path order, its initial draws first and
then its increments path-major in blocks of DRAW_BLOCK paths, one block at
a time: a segment that is not its chunk's first waits until its
predecessor is drawn.  So every path sees the draws of an unsegmented
sweep and goes through the same arithmetic in the same order.  Its cost
is the same bit for bit wherever BLAS rounds each column of a product
independently of the product's width (_MIN_TAIL keeps the narrow kernels
out); single-threaded OpenBLAS does not always: for some map shapes (T at
(n, m) = (6, 3), 21 x 11, is one) it rounds the last (width mod 8) columns
of a product by the product's width, so the last few paths of a chunk's
last segment can move in the last bits.  The path sums behind the sample
mean and the terminal moments are taken per segment and strategy and
added in segment order once the workers are joined, so they do not depend
on which worker finishes first.  A run of one segment is swept inline and
starts no thread.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import ValidationError
from .problem import (
    CoefficientTable,
    ControlSpec,
    InitialLaw,
    ProblemData,
    TimeGrid,
    _check_law_dim,
    _closed_loop,
    _join,
    nodes_and_midpoints,
    sample_path,
    tabulate,
)
from .quadrature import linear_rk4, trapezoid, trapezoid_weights

# Paths per generator chunk.  Part of the reproducibility contract: the
# draw for path i depends only on (seed, i // CHUNK) and i's offset.
CHUNK = 16384
# Paths per increment draw within a chunk.  Philox draws are sequential, so
# the blocks concatenate to the chunk's single (paths, K) draw bit for bit.
DRAW_BLOCK = 1024
# Paths per segment of a chunk: the unit a worker claims, draws and sweeps.
# CHUNK % SEGMENT == 0 and SEGMENT % DRAW_BLOCK == 0 must hold, so that a
# chunk's stream is drawn in the same blocks and order as unsegmented and
# every segment starts on a block boundary.  The two workers' (K, SEGMENT)
# increment buffers set a large call's memory peak, and a 40,000-path call
# makes ten quarter-chunk segments, split about evenly between them.
# CHUNK // 8 was measured on 40,000 paths x 150 steps against CHUNK // 4:
# 8% less peak memory but 26% more time, as per-node dispatch then
# outweighs the work of a node's products.
SEGMENT = CHUNK // 4
# Workers per multi-segment call: the calling thread and one helper thread.
_WORKERS = 2
# A chunk's remainder of fewer paths than this stays in the segment before
# it.  A product only a few columns wide takes other BLAS kernels (numpy
# sends one column to gemv; OpenBLAS's transposed gemv treats fewer than
# four columns apart), which round unlike the same columns of a wider
# product; so every path meets the kernels of a whole-chunk product.
_MIN_TAIL = 16


@dataclass(frozen=True)
class SimulationReport:
    """Cost estimate and path statistics from one simulation run."""

    cost_mean: float
    cost_stderr: float
    n_paths: int
    n_steps: int
    seed: int
    mean_path: np.ndarray
    mean_control: np.ndarray
    sample_mean_path: np.ndarray
    mean_gap: float
    terminal_mean: np.ndarray
    terminal_second_moment: np.ndarray
    per_path_costs: Optional[np.ndarray] = None


def sample_stderr(values: np.ndarray) -> float:
    """Standard error of the sample mean, exactly zero for constant samples.

    A constant vector has zero sample variance by definition; computing it
    through np.std can leave ~1e-18 dust whenever n * value is not exactly
    representable, which would break the promise that deterministic
    problems report stderr 0.
    """
    if values.size < 2 or np.all(values == values[0]):
        return 0.0
    return float(np.std(values, ddof=1) / np.sqrt(values.size))


def mean_ode(
    p: ProblemData,
    spec: ControlSpec,
    m0,
    n_steps: Optional[int] = None,
):
    """Exact state-mean and control-mean trajectories under a control law.

    Solves dEX/ds = (A + A_bar + (B + B_bar)(feedback + mean_feedback)) EX
    + (B + B_bar) offset_mean + drift_const forward by RK4 and returns
    (EX, EU) sampled at the nodes, shapes (K+1, n) and (K+1, m).  A mean
    that leaves every finite bound (a diverging strategy) raises
    FiniteEscapeError at the first node past the blow-up threshold.
    """
    grid = p.horizon if n_steps is None else p.horizon.with_steps(n_steps)
    m0 = np.atleast_1d(np.asarray(m0, dtype=float))
    if m0.shape != (p.n,):
        raise ValidationError(f"initial mean: expected shape ({p.n},), got {m0.shape}")
    return _mean_path(tabulate(p, grid), _control_samples(spec, grid), m0)


def _control_samples(spec: ControlSpec, grid: TimeGrid):
    """(node, mid) samples of the feedback, the mean feedback and the offset's
    constant part, in that order: the paths the mean ODE reads."""
    paths = (spec.feedback, spec.mean_feedback, spec.offset.const_part)
    return tuple(nodes_and_midpoints(path, grid) for path in paths)


def _mean_path(tab: CoefficientTable, control, m0: np.ndarray):
    """The mean ODE of ``mean_ode`` over a tabulated problem and control law;
    its drift is the closed-loop map of the mean channel's F = [A B]."""
    (fb_n, fb_m), (mf_n, mf_m), (v0_n, v0_m) = control
    n = m0.shape[0]

    def ode(c, maps, gain, v0):
        F = maps[0][..., 1, :, :]
        return _closed_loop(F, gain), (F[..., n:] @ v0[..., None])[..., 0] + c["b0"]

    gain_n = fb_n + mf_n
    L_n, g_n = ode(tab.node, tab.node_maps, gain_n, v0_n)
    L_m, g_m = ode(tab.mid, tab.mid_maps, fb_m + mf_m, v0_m)
    EX = linear_rk4(tab.grid, L_n, g_n, L_m, g_m, m0, "state mean")
    EU = np.einsum("kij,kj->ki", gain_n, EX) + v0_n
    return EX, EU


def _sweep_maps(p: ProblemData, tab: CoefficientTable, EX, EU, control):
    """The affine maps of one path sweep over Z = [U; X; 1; W; W0].

    Built once per call from the coefficient table and the mean (EX, EU).
    ``control`` is (``_control_samples`` output, node samples v1 of the
    offset's noise part, frozen flag); Z has the W0 row only when the
    offset is frozen.  Returns (gain, T, terminal):

    - gain (K+1, m, n+2 or n+3), so that U = gain[k] @ Z[m:]: the feedback,
      the mean-channel control mean_feedback EX + v0 in the 1 column, and v1
      in the W column, or in the W0 column when frozen.
    - T (K+1, n+m+2n, rows of Z), three row blocks: the running cost
      w_k [[R S 2rho0 2rho1], [S^T Q 2q0 2q1]] with trapezoid weight w_k, so
      that the sum over its n+m rows of (T[k] Z)_i Z_i is the weighted cost
      of node k; the drift h [B A | mean drift | b1]; the diffusion
      [D C | mean diffusion | sigma1].
    - terminal (n, n+2): [G 2g0 2g1], the terminal cost on [X; 1; W].
    """
    grid = tab.grid
    K, h = grid.n_steps, grid.h
    n, d = p.n, p.n + p.m
    st = tab.stack
    samples, v1, frozen = control
    ux = np.r_[n:d, :n]  # the [x; u] columns of a channel map, as [u; x]

    def channel(t):
        return np.broadcast_to(t[..., 0, :, :], (K + 1,) + t.shape[-2:])[..., ux]

    def rows(linear, const, riding):
        cols = (linear, const[..., None], riding[..., None])
        return _join(cols + (np.zeros_like(cols[2]),) * frozen, -1)

    def mean_step(a, b, c):
        return (np.einsum("kij,kj->ki", st(a), EX)
                + np.einsum("kij,kj->ki", st(b), EU) + st(c))

    F, G, H = tab.node_maps
    w = trapezoid_weights(K + 1, h)[:, None, None]
    cost = w * rows(channel(H)[:, ux],
                    2.0 * np.concatenate((st("rho0"), st("q0")), 1),
                    2.0 * np.concatenate((st("rho1"), st("q1")), 1))
    terminal = np.column_stack((p.G, 2.0 * p.g0, 2.0 * p.g1))
    T = _join((
        cost,
        h * rows(channel(F), mean_step("A_bar", "B_bar", "b0"), st("b1")),
        rows(channel(G), mean_step("C_bar", "D_bar", "sigma0"), st("sigma1")),
    ), -2)
    (fb, _), (mf, _), (v0, _) = samples
    mean_u = np.einsum("kij,kj->ki", mf, EX) + v0
    v1 = v1[..., None]
    noise = (np.zeros_like(v1), v1) if frozen else (v1,)
    return _join((fb, mean_u[..., None]) + noise, -1), T, terminal


def _mean_channel_cost(
    p: ProblemData, tab: CoefficientTable, EX: np.ndarray, EU: np.ndarray
) -> float:
    """Mean-channel running + terminal cost, exact given (EX, EU)."""
    running = (
        np.einsum("ki,kij,kj->k", EX, tab.stack("Q_bar"), EX)
        + 2.0 * np.einsum("ki,kij,kj->k", EU, tab.stack("S_bar"), EX)
        + np.einsum("ki,kij,kj->k", EU, tab.stack("R_bar"), EU)
        + 2.0 * np.sum(EX * tab.stack("q_bar"), axis=1)
        + 2.0 * np.sum(EU * tab.stack("rho_bar"), axis=1)
    )
    terminal = EX[-1] @ (p.G_bar @ EX[-1]) + 2.0 * (p.g_bar @ EX[-1])
    return float(trapezoid(running, tab.grid.h) + terminal)


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    key = np.array([np.uint64(seed), np.uint64(chunk_index)])
    return np.random.Generator(np.random.Philox(key=key))


def _segments(n_paths: int):
    """(chunk, first path within the chunk, paths) of every segment, in path
    order: SEGMENT paths at a time, the rest of a chunk whole once fewer
    than SEGMENT + _MIN_TAIL of its paths are left."""
    out = []
    for c in range((n_paths + CHUNK - 1) // CHUNK):
        bsz = min(CHUNK, n_paths - c * CHUNK)
        start = 0
        while start < bsz:
            size = bsz - start if bsz - start < SEGMENT + _MIN_TAIL else SEGMENT
            out.append((c, start, size))
            start += size
    return out


def _simulate_chunks(
    grid: TimeGrid,
    strategies: Sequence,
    law: InitialLaw,
    n_paths: int,
    seed: int,
    extras: Sequence[Callable] = (),
):
    """Core Euler-Maruyama sweep of every strategy over the same path segments.

    ``strategies`` holds one (maps, EX, EU) per strategy: ``maps`` is
    (gain, T, terminal) from ``_sweep_maps``, the columns of T the rows of
    Z, and (EX, EU) its exact mean path.  Returns one (costs,
    extra_accumulators, sum_state_per_node, terminal sums) per strategy, in
    order.  ``extras`` are per-node integrands f(k, X - EX[k], U - EU[k], W)
    -> (B,), accumulated for every strategy with the same trapezoid weights
    as the running cost.

    Paths run along the last axis of Z = [U; X; 1; W; W0], shape
    (rows, B).  Each node makes two products, U = gain[k] @ Z[m:] and
    T[k] @ Z, then adds the cost rows' form to the running cost and the
    drift and the diffusion times dW_k to X.  _WORKERS workers, the caller
    and helper threads, claim segments (every chunk's first, then every
    chunk's second, and so on) and each draws what it claims once, in an
    increment buffer of its own, and sweeps every strategy on it in turn;
    a sweep only reads the buffer.  The first failure stops both workers
    and raises here; the helper is joined before this returns or raises.
    """
    K = grid.n_steps
    n = law.mean.shape[0]
    w = trapezoid_weights(K + 1, grid.h)
    sqrt_h = np.sqrt(grid.h)
    sqrt_t0 = np.sqrt(grid.t0) if grid.t0 > 0.0 else 0.0
    n_gauss = law.indep_load.shape[1]

    def sweep(strategy, gauss, z0, dW):
        """Costs, extras and path sums of one strategy on one segment's paths."""
        (gain, T, terminal), EX, EU = strategy
        m = EU.shape[1]
        d = n + m
        bsz = z0.shape[0]
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
        sum_X = np.empty((K + 1, n))

        for k in range(K + 1):
            np.matmul(gain[k], Z[m:], out=U)
            np.matmul(T[k], Z, out=TZ)
            running += np.einsum("ib,ib->b", cost, Z[:d])
            for e_idx, fn in enumerate(extras):
                running_extra[e_idx] += w[k] * fn(
                    k, (X - EX[k][:, None]).T, (U - EU[k][:, None]).T, W
                )
            X.sum(axis=1, out=sum_X[k])
            if k < K:
                X += drift
                diff *= dW[k]
                X += diff
                W += dW[k]

        running += np.einsum("ib,ib->b", terminal @ Z[m : d + 2], X)
        return running, running_extra, (sum_X, X.sum(axis=1), X @ X.T)

    segments = _segments(n_paths)
    width = max(size for _, _, size in segments)
    # Every chunk's first segment before any second one, so that the
    # workers start at once, on streams of their own.
    claims = iter(sorted(range(len(segments)), key=lambda s: (segments[s][1], s)))
    drawn = [threading.Event() for _ in segments]
    streams = {}
    results = [None] * len(segments)
    failure = []
    lock = threading.Lock()

    def draw(s, buffer):
        """(gauss, z0, dW) of segment s, its increments drawn into buffer.

        A chunk's first segment opens the chunk's stream and draws the
        initial Gaussians and Brownian values of all its paths; a later
        segment continues the stream once its predecessor is drawn.  The
        increments are drawn path-major in blocks of DRAW_BLOCK paths, each
        written scaled and transposed.  None when another worker failed.
        """
        c, start, size = segments[s]
        if start == 0:
            rng = _chunk_rng(seed, c)
            bsz = min(CHUNK, n_paths - c * CHUNK)
            streams[c] = (rng, rng.standard_normal((bsz, n_gauss)),
                          rng.standard_normal(bsz))
        else:
            drawn[s - 1].wait()
            if failure:
                return None
        rng, gauss, z0 = streams[c]
        if start + size == len(z0):   # the chunk's last segment
            del streams[c]
        dW = buffer[:, :size]
        for i in range(0, size, DRAW_BLOCK):
            block = rng.standard_normal((min(DRAW_BLOCK, size - i), K))
            np.multiply(block.T, sqrt_h, out=dW[:, i : i + block.shape[0]])
        drawn[s].set()
        return gauss[start : start + size], z0[start : start + size], dW

    def work():
        """Claim, draw and sweep segments until none is left or a worker
        failed."""
        try:
            buffer = np.empty((K, width))
            while True:
                with lock:
                    s = None if failure else next(claims, None)
                segment = None if s is None else draw(s, buffer)
                if segment is None:
                    return
                result = [sweep(strategy, *segment) for strategy in strategies]
                with lock:
                    results[s] = result
        except BaseException as exc:  # re-raised by the caller below
            with lock:
                failure.append(exc)
            for event in drawn:
                event.set()

    helpers = [threading.Thread(target=work, name="mflq-sweep")
               for _ in range(min(_WORKERS, len(segments)) - 1)]
    for helper in helpers:
        helper.start()
    try:
        work()
    finally:
        for helper in helpers:
            helper.join()
    if failure:
        raise failure[0]
    out = []
    for parts in zip(*results):  # one strategy's results, in segment order
        sums = [np.zeros((K + 1, n)), np.zeros(n), np.zeros((n, n))]
        for r in parts:
            for total, part in zip(sums, r[2]):
                total += part
        costs = np.concatenate([r[0] for r in parts])
        extra_out = [np.concatenate([r[1][e] for r in parts])
                     for e in range(len(extras))]
        out.append((costs, extra_out) + tuple(sums))
    return out


def simulate(
    p: ProblemData,
    spec: ControlSpec,
    law: InitialLaw,
    n_paths: int,
    n_steps: int,
    seed: int,
    extras: Sequence[Callable] = (),
    keep_costs: bool = False,
):
    """Simulate the controlled dynamics and estimate the expected cost.

    Returns a SimulationReport; with ``extras`` given, returns the report
    plus one per-path accumulated array per extra integrand.  An extra is
    called as f(k, X - EX[k], U - EU[k], W) at node k, where EX and EU are
    the report's exact ``mean_path`` and ``mean_control``.  Two workers
    sweep different segments at once, so an extra may be called from two
    threads at the same time and must not share mutable state.  The standard
    error is the sample standard deviation of per-path costs divided by
    sqrt(n_paths); deterministic problems report exactly zero.  With
    ``keep_costs`` the report carries the per-path cost vector, for
    estimators that need path-level joint statistics.
    """
    (report, extra_out), = _simulate_many(
        p, (spec,), law, n_paths, n_steps, seed, extras, keep_costs
    )
    if extras:
        return report, extra_out
    return report


def _simulate_many(
    p: ProblemData,
    specs: Iterable[ControlSpec],
    law: InitialLaw,
    n_paths: int,
    n_steps: int,
    seed: int,
    extras: Sequence[Callable] = (),
    keep_costs: bool = False,
):
    """``simulate`` of every strategy in ``specs`` on one set of paths.

    Tabulates the problem once and builds each strategy's mean path and
    sweep maps in turn, keeping nothing else of a strategy; then one draw
    of the paths of ``seed`` serves every sweep.  Returns one (report,
    extra accumulators) per strategy, in order, each bitwise what
    ``simulate`` of that strategy alone returns at ``seed``: the estimates
    are those of independent runs, but they share their random numbers, so
    their differences are far less noisy than either one.
    """
    if n_paths < 1:
        raise ValidationError("n_paths must be positive")
    if not 0 <= seed < 2**64:
        raise ValidationError(f"seed must lie in [0, 2**64), got {seed}")
    _check_law_dim(law, p.n)
    grid = p.horizon.with_steps(n_steps)
    tab = tabulate(p, grid)

    def strategy(spec):
        control = _control_samples(spec, grid)
        EX, EU = _mean_path(tab, control, law.mean)
        offset = spec.offset
        maps = _sweep_maps(p, tab, EX, EU, (
            control, sample_path(offset.noise_part, grid.nodes), offset.frozen_at_start
        ))
        return maps, EX, EU

    strategies = [strategy(spec) for spec in specs]
    swept = _simulate_chunks(grid, strategies, law, n_paths, seed, extras)

    out = []
    for (_, EX, EU), (costs, extra_out, sum_X, sum_term, sum_term_outer) in zip(
        strategies, swept
    ):
        costs = costs + _mean_channel_cost(p, tab, EX, EU)
        sample_mean = sum_X / n_paths
        report = SimulationReport(
            cost_mean=float(np.mean(costs)),
            cost_stderr=sample_stderr(costs),
            n_paths=n_paths,
            n_steps=n_steps,
            seed=seed,
            mean_path=EX,
            mean_control=EU,
            sample_mean_path=sample_mean,
            mean_gap=float(np.max(np.abs(sample_mean - EX))),
            terminal_mean=sum_term / n_paths,
            terminal_second_moment=sum_term_outer / n_paths,
            per_path_costs=costs if keep_costs else None,
        )
        out.append((report, extra_out))
    return out
