"""Backward integration of the coupled Riccati pair and regularity analysis.

The deviation channel matrix P weighs fluctuations of the state around its
mean; the mean channel matrix weighs the mean itself and is coupled to P
through the diffusion terms.  Both equations share one algebraic shape, so
the two channels travel stacked along a leading axis of length two and one
kernel serves both: the mean channel simply receives the summed
(coefficient + mean-coefficient) matrices and P as the inner diffusion
weight.

The coefficients enter as the coefficient table's three channel maps of the
stacked vector [x; u]: the drift F = [A B], the diffusion G = [C D] and the
running weight H = [[Q S^T], [S R]].  For a channel matrix M the kernel
builds one (n+m)-square Hamiltonian block from them, whose blocks are the
linear part M A + A^T M + C^T P C + Q of the rate, the cross term
B^T M + D^T P C + S and the input weight W = R + D^T P D.  One batched
symmetric eigendecomposition W = V diag(lambda) V^T factors both channels'
weights through ``linalg._eigh``, the package's one factorization seam,
which the stages, the node pass and the midpoint pass all call.  The
quadratic term cross^T W^+ cross is applied in its eigenbasis as
U^T diag(1/lambda) U with U = V^T cross, over the retained eigenvalues; no
pseudo-inverse matrix is formed; 1/lambda comes from the eigenvalues alone,
through the rank rule of ``linalg``.  The rule runs in three places: once
per RK4 stage, on the stage's own workspace (``linalg._inverse_builder``);
once per channel of each stage of a scalar problem, in floats
(``linalg._scalar_inverse``); and once per factorization of the node and
midpoint passes, whose ``SymFactor`` keeps the decision: the node pass's
rate, the gains, the regularity report and the affine offsets all read it
there.  The stages form the rate with one builder, ``_rate_builder``, which
scales by a 1/lambda buffer its caller fills; the node pass forms its own
(below).  The sweep steps one node at a time through
``quadrature.rk4_steps`` and screens each step for finite escape with the
quadrature's one screen.  The block is built in place by one
builder, ``_block_builder``, on a workspace it allocates: each sweep makes
one workspace, with its views sliced and its constant maps resolved once,
and every RK4 stage refills it.  Its node and midpoint stages each add a
rank-rule and a rate workspace made when the sweep starts (the rule's
buffers, U and the scaled U), so a stage allocates only its eigenpairs and
its fresh rate.  The workspaces belong to the call, never to the module, so
sweeps in different threads do not share them.  The node pass and the
dense output build the block in the runs of ``quadrature._run_slices``,
each on one workspace made before its loop and sized to the first run,
whose leading rows the short last run fills, and factor all of a grid's
weights in one batch; the node pass then forms, run by run, U = V^T cross
and U scaled by the factorization's 1/lambda, and reads both the gains
-V (scaled U) and the rate U^T (scaled U) - lin off that one pair.  Each
channel pair they produce, the Riccati matrices, weights, cross terms and
gains and their midpoint samples, is written through a node-major view
into one channel-major (2, K+1, ...) buffer that is then made read-only,
so each channel is a contiguous slab of it and no pair is split or
stacked by a copy (only the batched factorization reads a C-contiguous
copy of the weights, see ``linalg.sym_factor``).  A pass that reads a
solution's pair takes each channel from its own field, one channel at a
time, so it reads any layout of the two alike.

A scalar problem, n = m = 1, takes a stage in Python floats instead,
``_float_stage_rate``: on (2, 1, 1) arrays the array stage's time goes to
the overhead of about nineteen numpy calls, not to arithmetic.  The float
stage does the array stage's arithmetic rounding for rounding (each
one-term matrix product is 0.0 + a * b, as matmul's accumulator starts at
+0; the 1 x 1 weight is its own eigenvalue, with eigenvector 1.0, as
``linalg._eigh`` returns; 1/lambda is the rule's), so its rate is bitwise
the array stage's.  It takes about 1.9 us where the array stage takes 19,
and a K = 1000 scalar sweep about 19 ms instead of 76.  It resolves the
maps to floats once per sweep and keeps nothing past the call; the shape
alone selects it, and the node pass and the dense output are the same for
every shape.  Overflow inside it gives inf or NaN without a numpy
RuntimeWarning.

A consequence worth keeping: when every mean-coupling coefficient vanishes
the two stacked channels still perform identical float operations, each
batch element computed on its own, so their outputs agree bit for bit
(P == P_mean and equal gains).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import linalg
from .linalg import _mT, _sym
from .problem import CoefficientTable, ProblemData, TimeGrid, tabulate
from .quadrature import _check_finite, _run_slices, _screen_passes, rk4_steps, trapezoid

# A retained eigenvalue within this factor of the rank cutoff marks the
# node as numerically ambiguous for the rank decision.
NEAR_CUTOFF_FACTOR = 10.0

DEFAULT_REG_TOL = 1e-8


@dataclass(frozen=True)
class ConditionVerdict:
    """Outcome of one regularity condition scanned over all grid nodes."""

    name: str
    passed: bool
    worst_node: int
    worst_value: float
    tolerance: float


@dataclass(frozen=True)
class RegularityReport:
    conditions: tuple
    n_steps: int
    tol: float
    dev_rank: np.ndarray
    mean_rank: np.ndarray
    near_cutoff_dev: tuple
    near_cutoff_mean: tuple

    @property
    def regular(self) -> bool:
        """Whether every condition passed: the Riccati pair is regular."""
        return all(c.passed for c in self.conditions)

    def condition(self, name: str) -> ConditionVerdict:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)


@dataclass(frozen=True)
class GreSolution:
    """Nodewise Riccati data on a uniform grid.

    P / P_mean: the two Riccati matrices, (K+1, n, n).
    input_weight / input_weight_mean: effective control curvature of each
        channel, (K+1, m, m).
    cross_term / cross_term_mean: control-state cross blocks whose ranges
        must sit inside the corresponding input weight's range, (K+1, m, n).
    gain_dev / gain_mean: feedback gains, minus pseudo-inverse of the input
        weight applied to the cross term, (K+1, m, n).
    factor: eigendecomposition of both input weights at every node, stacked
        (K+1, 2) with the deviation channel first, with its one rank
        decision (``keep``, ``cutoff`` and 1/lambda as ``inv``); the rate,
        the gains, the regularity report and the affine offsets all read
        it.
    table: the problem's coefficients tabulated on ``grid``, read by the
        dense output, the adjoints, the offsets and the value.
    rate: dY/ds of the stacked pair Y = (P, P_mean) at every node,
        symmetrized, (K+1, 2, n, n), from the node pass's factorization;
        the dense output's nodal derivatives.  None on a solution that
        ``integrate_gre`` did not build, which ``dense_midpoints`` refuses.

    ``integrate_gre`` writes each channel pair into one read-only
    channel-major buffer, (2, K+1, ...), so each field above is a
    contiguous slab of it.  The passes that read a pair (the regularity
    report, the dense output) read each channel from its own field, so any
    other layout of the two gives the same outputs and is never copied.
    """

    grid: TimeGrid
    P: np.ndarray
    P_mean: np.ndarray
    input_weight: np.ndarray
    input_weight_mean: np.ndarray
    cross_term: np.ndarray
    cross_term_mean: np.ndarray
    gain_dev: np.ndarray
    gain_mean: np.ndarray
    factor: linalg.SymFactor
    table: CoefficientTable
    report: Optional[RegularityReport]
    rate: Optional[np.ndarray] = None


def _at(maps, k):
    """The maps at grid point(s) k; constant maps pass through."""
    return tuple(t if t.ndim == 3 else t[k] for t in maps)


def _block_builder(shape, n):
    """(Z, fill): an in-place builder of Hamiltonian blocks Z of the given
    shape, (..., n+m, n+m), on one workspace allocated here, Z and the
    scratch products P G and Y F, with Z's top rows, Z's left columns and
    (Y F)^T sliced once.  ``fill(Y, F, G, GT, H)``, with GT the transpose
    of G, overwrites Z with Y's block and returns it; a Y with fewer
    leading rows than Z, a pass's short last run, fills and returns Z's
    leading rows:

        Z = G^T P G + H, with M F added to its top rows and (M F)^T to its
        left columns, where M is each channel's matrix and P the deviation
        one:

        Z = [[M A + A^T M + C^T P C + Q,  .          ],
             [B^T M + D^T P C + S,        R + D^T P D]].

    Its top-left block is the linear part of the rate, its bottom-left
    block the cross term and its bottom-right block the input weight W.
    """
    Z = np.empty(shape)
    PG = np.empty(shape[:-2] + (n, shape[-1]))
    YF = np.empty_like(PG)

    def views(rows):
        z, pg, yf = Z[:rows], PG[:rows], YF[:rows]
        return z, pg, yf, z[..., :n, :], z[..., :n], _mT(yf)

    whole = views(len(Z))

    def fill(Y, F, G, GT, H):
        z, pg, yf, top, left, yft = whole if len(Y) == len(Z) else views(len(Y))
        np.matmul(Y[..., :1, :, :], G, out=pg)
        np.matmul(GT, pg, out=z)
        np.add(z, H, out=z)
        np.matmul(Y, F, out=yf)
        np.add(top, yf, out=top)
        np.add(left, yft, out=left)
        return z

    return Z, fill


def _rate_builder(inv, n):
    """An in-place rate that scales by inv, 1/lambda on the retained
    eigenvalues of a stack of weights, (..., m), a buffer its caller fills
    before each call.  Its workspace, allocated here, is U and the scaled U,
    with U^T and inv as a column sliced once (the column already broadcast
    to U's shape, which halves the cost of the scaling).
    ``rate(lin, cross, V)`` returns

        dM/ds = cross^T W^+ cross - lin, with W^+ applied in W's eigenbasis:

    with W = V diag(lambda) V^T and U = V^T cross, the quadratic term is
    U^T diag(1/lambda) U over the retained eigenvalues.  The returned rate
    is a fresh array, since RK4 keeps its four stage rates alive at once.
    The stages are its only callers: the node pass, ``_gains``, reads its
    rate off the U and scaled U that its gains need as well.
    """
    U = np.empty(inv.shape + (n,))
    SU = np.empty_like(U)
    UT = _mT(U)
    col = np.broadcast_to(inv[..., None], U.shape)

    def rate(lin, cross, V):
        np.matmul(_mT(V), cross, out=U)
        np.multiply(col, U, out=SU)
        dM = np.matmul(UT, SU)
        return np.subtract(dM, lin, out=dM)

    return rate


def _gain(cross, factor: linalg.SymFactor, run=Ellipsis, out=None):
    """Feedback gain -W^+ cross, applied in W's eigenbasis, at the grid
    points ``run`` of cross and the factorization (all by default); into
    ``out`` if given."""
    V, inv = factor.eigvecs[run], factor.inv[run]
    return np.negative(V @ (inv[..., None] * (_mT(V) @ cross[run])), out=out)


def _stage_rate(co, Z, fill):
    """The sweep's f(Y, k): dY/ds of one (2, n, n) value at grid point k of
    the maps co, its block built by ``fill`` into the workspace Z, its rank
    decided and its rate formed on a rank-rule and a rate workspace made
    here.  Constant maps are resolved here, once per sweep, sampled ones at
    every stage; the seam and the rule are read from ``linalg`` here too,
    so a patched one sees every stage of the sweep.  A scalar problem,
    n = m = 1, takes ``_float_stage_rate`` instead, which leaves Z unused."""
    n = co[0].shape[-2]
    if co[2].shape[-2:] == (2, 2):
        return _float_stage_rate(co)
    lin, cross, W = Z[:, :n, :n], Z[:, n:, :n], Z[:, n:, n:]
    inv, decide = linalg._inverse_builder(W.shape[:-1])
    form_rate = _rate_builder(inv, n)
    eigh = linalg._eigh
    if all(t.ndim == 3 for t in co):
        F, G, H = co
        GT = _mT(G)

        def rate(Y, k):
            fill(Y, F, G, GT, H)
            lam, V = eigh(W)
            decide(lam)
            return form_rate(lin, cross, V)

    else:

        def rate(Y, k):
            F, G, H = _at(co, k)
            fill(Y, F, G, _mT(G), H)
            lam, V = eigh(W)
            decide(lam)
            return form_rate(lin, cross, V)

    return rate


def _float_channel(P, M, A, B, C, D, Q, S, R):
    """One channel's rate of a scalar problem, in Python floats, rounding
    for rounding that of ``_block_builder`` and ``_rate_builder`` on 1 x 1
    blocks: each one-term matrix product is 0.0 + a * b, since matmul's
    accumulator starts at +0 (a -0 product becomes +0); the weight W is its
    own eigenvalue, with eigenvector 1.0, as ``linalg._eigh`` returns for a
    1 x 1 stack; and 1/W is the rank rule's, ``linalg._scalar_inverse``.
    P is the deviation matrix and M the channel's own."""
    pc = 0.0 + P * C
    ma = 0.0 + M * A
    lin = 0.0 + C * pc + Q + ma + ma
    cross = 0.0 + D * pc + S + (0.0 + M * B)
    W = 0.0 + D * (0.0 + P * D) + R
    u = 0.0 + 1.0 * cross
    return 0.0 + u * (linalg._scalar_inverse(W) * u) - lin


def _float_stage_rate(co):
    """The sweep's f(Y, k) for a scalar problem: ``_stage_rate``'s rate,
    bitwise, formed by ``_float_channel`` for each channel and returned as
    a fresh (2, 1, 1) array.  The maps are resolved to floats once per
    sweep, as each channel's (A, B, C, D, Q, S, R): one such pair when all
    three maps are constant, else one pair per grid point."""
    F, G, H = co
    entries = np.stack(np.broadcast_arrays(
        F[..., 0, 0], F[..., 0, 1], G[..., 0, 0], G[..., 0, 1],
        H[..., 0, 0], H[..., 1, 0], H[..., 1, 1],
    ), axis=-1)
    per_point = entries.ndim == 3
    table = entries.tolist()

    def rate(Y, k):
        dev, mean = table[k] if per_point else table
        P, M = Y.item(0), Y.item(1)
        out = np.empty((2, 1, 1))
        out[0, 0, 0] = _float_channel(P, P, *dev)
        out[1, 0, 0] = _float_channel(P, M, *mean)
        return out

    return rate


def _pair_buffer(shape):
    """The node-major view, (shape[0], 2, *shape[1:]), of a new empty
    channel-major buffer for a channel pair, (2, *shape), through which a
    pass fills it."""
    return np.moveaxis(np.empty((2,) + shape), 0, 1)


def _channels(pair):
    """The two channels of a filled ``_pair_buffer`` view, each a
    contiguous slab of its buffer; the buffer, the view and both slabs
    become read-only."""
    pair.base.setflags(write=False)
    pair.setflags(write=False)
    return pair[:, 0], pair[:, 1]


def _blocks(Y, co, rate=None):
    """Input weights and cross terms at every grid point of the node-major
    pair Y, (len, 2, n, n), as node-major views of channel-major pair
    buffers, built run by run on one block workspace.  Given ``rate``, an
    array shaped like Y, it receives the blocks' linear parts."""
    lead, (n, m) = Y.shape[:-3], (Y.shape[-1], co[2].shape[-1] - Y.shape[-1])
    weight = _pair_buffer(lead + (m, m))
    cross = _pair_buffer(lead + (m, n))
    runs = _run_slices(len(Y))
    _, fill = _block_builder(Y[runs[0]].shape[:-2] + co[2].shape[-2:], n)
    for run in runs:
        F, G, H = _at(co, run)
        Z = fill(Y[run], F, G, _mT(G), H)
        weight[run] = _sym(Z[..., n:, n:])
        cross[run] = Z[..., n:, :n]
        if rate is not None:
            rate[run] = Z[..., :n, :n]
    return weight, cross


def _gains(Y, co, rate):
    """Input weights, cross terms, gains and weight factorization at every
    grid point of the node-major pair Y, (len, 2, n, n), and dY/ds into
    ``rate``, an array shaped like Y.  The weights, cross terms and gains
    are node-major views of channel-major pair buffers, filled one run of
    points at a time: the blocks by ``_blocks``, then, after one batched
    factorization of all the weights, U = V^T cross and the scaled
    U = diag(1/lambda) U once per run, off which both outputs are read: the
    gains -V (scaled U) and the rate U^T (scaled U) - lin, symmetrized."""
    weight, cross = _blocks(Y, co, rate)
    factor = linalg.sym_factor(weight)
    inv, V = factor.inv, factor.eigvecs
    gain = _pair_buffer(cross.shape[:1] + cross.shape[2:])
    for run in _run_slices(len(Y)):
        U = _mT(V[run]) @ cross[run]
        SU = inv[run][..., None] * U
        rate[run] = _sym(_mT(U) @ SU - rate[run])
        np.negative(V[run] @ SU, out=gain[run])
    return weight, cross, gain, factor


def integrate_gre(p: ProblemData, n_steps: Optional[int] = None) -> GreSolution:
    """Integrate both Riccati channels backward from the terminal weights.

    Classical fixed-step fourth-order Runge-Kutta on a uniform grid, with
    the matrices re-symmetrized after every step.  Gains and feasibility
    data are evaluated at every node afterwards, and a regularity report at
    the default tolerance is attached.  The stages read one triangle of
    each weight only; ``ProblemData`` refuses an asymmetric one when it is
    built.
    """
    grid = p.horizon if n_steps is None else p.horizon.with_steps(n_steps)
    K = grid.n_steps
    nodes = grid.nodes
    tab = tabulate(p, grid)
    co_nodes, co_mids = tab.node_maps, tab.mid_maps

    Y = _pair_buffer((K + 1, p.n, p.n))
    start = _sym(tab.terminal)
    Y[K] = start

    # One workspace per sweep, shared by its node and midpoint stages.
    N = p.n + p.m
    Z, fill = _block_builder((2, N, N), p.n)
    steps = rk4_steps(
        grid,
        _stage_rate(co_nodes, Z, fill),
        _stage_rate(co_mids, Z, fill),
        start,
        backward=True,
        post=_sym,
    )
    for j, y in steps:
        if not _screen_passes(y):
            _check_finite("deviation Riccati matrix", y[0], j, nodes[j])
            _check_finite("mean Riccati matrix", y[1], j, nodes[j])
        Y[j] = y

    rate = np.empty(Y.shape)
    weight, cross, gain, factor = _gains(Y, co_nodes, rate)
    P, P_mean = _channels(Y)
    weight_dev, weight_mean = _channels(weight)
    cross_dev, cross_mean = _channels(cross)
    gain_dev, gain_mean = _channels(gain)

    sol = GreSolution(
        grid=grid,
        P=P,
        P_mean=P_mean,
        input_weight=weight_dev,
        input_weight_mean=weight_mean,
        cross_term=cross_dev,
        cross_term_mean=cross_mean,
        gain_dev=gain_dev,
        gain_mean=gain_mean,
        factor=factor,
        table=tab,
        report=None,
        rate=rate,
    )
    return replace(sol, report=assess_regularity(sol))


@dataclass(frozen=True)
class MidpointData:
    """Interval-midpoint samples of the Riccati data, one per grid step.

    Plain two-point averages of the nodal matrices are only second order,
    which would quietly cap the accuracy of any downstream integrator fed
    with them.  These samples come from cubic Hermite dense output (nodal
    values corrected by nodal derivatives), matching the order of the
    Riccati integration itself, and the gains are recomputed from the
    corrected matrices rather than interpolated.  As on ``GreSolution``,
    each channel pair is one read-only channel-major buffer, (2, K, ...),
    and each field a contiguous slab of it.
    """

    P: np.ndarray
    P_mean: np.ndarray
    gain_dev: np.ndarray
    gain_mean: np.ndarray


def hermite_midpoints(values: np.ndarray, deriv: np.ndarray, h: float) -> np.ndarray:
    """Midpoint of each interval from nodal values and nodal derivatives."""
    return 0.5 * (values[:-1] + values[1:]) + 0.125 * h * (deriv[:-1] - deriv[1:])


def dense_midpoints(sol: GreSolution) -> MidpointData:
    """Fourth-order midpoint samples of P, P_mean and the gains.

    The nodal derivatives are the rate that ``integrate_gre``'s node pass
    kept.  The Hermite midpoints are formed one channel and one run of
    intervals at a time into a channel-major buffer, ``_blocks`` builds the
    midpoint weights and cross terms run by run, all the weights are
    factored in one batch and dropped, and each run's gains then overwrite
    its cross terms, which nothing else reads.  A solution without that
    rate raises ValueError.
    """
    if sol.rate is None:
        raise ValueError("dense_midpoints needs the nodal rate integrate_gre keeps")
    h, K = sol.grid.h, sol.grid.n_steps
    Y_mid = _pair_buffer((K,) + sol.P.shape[1:])
    for channel, Y in enumerate((sol.P, sol.P_mean)):
        rate, mid = sol.rate[:, channel], Y_mid[:, channel]
        for run in _run_slices(K):
            nodes = slice(run.start, run.stop + 1)
            mid[run] = hermite_midpoints(Y[nodes], rate[nodes], h)
    weight, gain = _blocks(Y_mid, sol.table.mid_maps)
    factor = linalg.sym_factor(weight)
    del weight
    for run in _run_slices(K):
        _gain(gain, factor, run, out=gain[run])
    P_mid, Pm_mid = _channels(Y_mid)
    gain_dev, gain_mean = _channels(gain)
    return MidpointData(P=P_mid, P_mean=Pm_mid, gain_dev=gain_dev, gain_mean=gain_mean)


def _psd_verdict(name, min_eig, tol):
    worst_node = int(np.argmin(min_eig))
    worst = float(min_eig[worst_node])
    return ConditionVerdict(name, worst >= -tol, worst_node, worst, tol)


def _range_verdict(name, residual, tol):
    worst_node = int(np.argmax(residual))
    worst = float(residual[worst_node])
    return ConditionVerdict(name, worst <= tol, worst_node, worst, tol)


def _l2_verdict(name, gains, h, tol):
    sq = np.sum(gains * gains, axis=(1, 2))
    finite = bool(np.all(np.isfinite(sq)))
    integral = trapezoid(sq, h) if finite else np.inf
    worst_node = int(np.argmax(sq)) if finite else int(np.argmax(~np.isfinite(sq)))
    return ConditionVerdict(
        name, finite and np.isfinite(integral), worst_node, float(integral), tol
    )


def _near_cutoff_nodes(smin, cutoff):
    flagged = (smin > 0.0) & (smin < NEAR_CUTOFF_FACTOR * cutoff)
    return tuple(np.flatnonzero(flagged).tolist())


def assess_regularity(
    sol: GreSolution, tol: float = DEFAULT_REG_TOL
) -> RegularityReport:
    """Scan every node for the six closed-loop solvability conditions.

    Positive semidefiniteness and range containment are checked on both
    input weights, from the factorization the sweep already made; square
    integrability of the gains is certified by finite nodewise gains
    together with a finite trapezoid integral of their squared Frobenius
    norms (a surrogate that is the best a fixed grid can assert, hence the
    report also records the grid resolution).  The ranks, the cutoffs and
    the smallest retained eigenvalues are the factorization's own decision.
    """
    h = sol.grid.h
    factor = sol.factor
    min_eig = factor.min_eig
    rank, smin, cut = factor.rank, factor.smallest_retained, factor.cutoff
    V, keep = factor.eigvecs, factor.keep
    conditions = (
        _psd_verdict("psd_dev", min_eig[:, 0], tol),
        _psd_verdict("psd_mean", min_eig[:, 1], tol),
        _range_verdict("range_dev", linalg._range_residual(
            V[:, 0], keep[:, 0], sol.cross_term), tol),
        _range_verdict("range_mean", linalg._range_residual(
            V[:, 1], keep[:, 1], sol.cross_term_mean), tol),
        _l2_verdict("l2_gain_dev", sol.gain_dev, h, tol),
        _l2_verdict("l2_gain_mean", sol.gain_mean, h, tol),
    )
    return RegularityReport(
        conditions=conditions,
        n_steps=sol.grid.n_steps,
        tol=tol,
        dev_rank=rank[:, 0],
        mean_rank=rank[:, 1],
        near_cutoff_dev=_near_cutoff_nodes(smin[:, 0], cut[:, 0]),
        near_cutoff_mean=_near_cutoff_nodes(smin[:, 1], cut[:, 1]),
    )
