"""Containers for mean-field linear-quadratic control problems.

A problem couples a linear SDE whose drift and diffusion see both the state
and its expectation with a quadratic cost that weighs the state, the control,
and their means separately.  Everything here is plain data: uniform time
grids, (possibly time-varying) coefficient matrices, noise-affine
inhomogeneities, the initial distribution, and feedback-plus-offset control
specifications.  The containers keep read-only private copies of the
arrays they are given, and the solver modules never mutate them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import ValidationError
from .linalg import _mT

# Relative tolerance for declaring a stored matrix symmetric.
SYMMETRY_RTOL = 1e-12

# Slack (relative to the horizon span) when range-checking evaluation times,
# so that times produced by accumulating steps in floating point still count
# as inside the horizon.
_TIME_SLACK = 1e-9


def _as_float_array(value, name: str = "value") -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name}: contains non-finite entries")
    return arr


def _private(value) -> np.ndarray:
    """value as a read-only float array that no other array can write to: a
    container freezes none of its caller's arrays and shares none they can
    write.  A read-only array that owns its data is kept as it is, and so
    is a read-only view of a read-only array that owns its data (the
    solver's gains, Riccati matrices and offsets are made so: slabs of one
    read-only channel-pair buffer); anything else is copied."""
    arr = np.asarray(value, dtype=float)
    owner = arr if arr.base is None else arr.base
    kept = (
        isinstance(owner, np.ndarray)
        and owner.flags.owndata
        and not (arr.flags.writeable or owner.flags.writeable)
    )
    if not kept:
        arr = arr.copy()
        arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of n_steps + 1 nodes on the closed interval [t0, tT]."""

    t0: float
    tT: float
    n_steps: int

    def __post_init__(self):
        if not (math.isfinite(self.t0) and math.isfinite(self.tT)):
            raise ValidationError("TimeGrid: endpoints must be finite")
        if not self.tT > self.t0:
            raise ValidationError(
                f"TimeGrid: need tT > t0, got [{self.t0}, {self.tT}]"
            )
        if self.n_steps < 1:
            raise ValidationError("TimeGrid: n_steps must be at least 1")

    @property
    def h(self) -> float:
        return (self.tT - self.t0) / self.n_steps

    @property
    def span(self) -> float:
        return self.tT - self.t0

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.t0, self.tT, self.n_steps + 1)

    def with_steps(self, n_steps: int) -> "TimeGrid":
        return TimeGrid(self.t0, self.tT, n_steps)

    def locate(self, s):
        """Map times to grid coordinates (node index plus fraction).

        Times within a small relative slack of the endpoints are clamped;
        a time further outside, or not finite, raises a ValueError.
        """
        s = np.asarray(s, dtype=float)
        slack = _TIME_SLACK * max(self.span, 1.0)
        outside = ~((s >= self.t0 - slack) & (s <= self.tT + slack))
        if np.any(outside):
            bad = float(s[outside].flat[0])
            raise ValueError(
                f"time {bad!r} lies outside the horizon [{self.t0}, {self.tT}]"
            )
        return np.clip((s - self.t0) / self.h, 0.0, float(self.n_steps))


@dataclass(frozen=True)
class MatrixPath:
    """A constant or sampled time-dependent array on a uniform grid.

    Sampled paths hold one array per grid node and evaluate between nodes by
    linear interpolation; evaluation at a node returns that node's sample
    exactly.  Constant paths evaluate to the same array everywhere and carry
    no grid of their own.
    """

    values: np.ndarray
    grid: Optional[TimeGrid] = None

    @classmethod
    def constant(cls, value) -> "MatrixPath":
        return cls(values=value, grid=None)

    @classmethod
    def sampled(cls, grid: TimeGrid, values) -> "MatrixPath":
        return cls(values=values, grid=grid)

    def __post_init__(self):
        arr = _as_float_array(self.values, "MatrixPath")
        if self.grid is not None and len(arr) != self.grid.n_steps + 1:
            raise ValidationError(
                f"MatrixPath: expected {self.grid.n_steps + 1} samples, "
                f"got {len(arr)}"
            )
        object.__setattr__(self, "values", _private(arr))

    @property
    def is_constant(self) -> bool:
        return self.grid is None

    @property
    def shape(self) -> tuple:
        if self.is_constant:
            return self.values.shape
        return self.values.shape[1:]

    def at(self, s: float) -> np.ndarray:
        return sample_path(self, s)

    def add_constant(self, bump) -> "MatrixPath":
        """Return the path shifted by a constant array of the same shape."""
        bump = np.asarray(bump, dtype=float)
        if self.is_constant:
            return MatrixPath.constant(self.values + bump)
        return MatrixPath.sampled(self.grid, self.values + bump)


def sample_path(path: MatrixPath, times) -> np.ndarray:
    """Evaluate a path at an array of times, stacked along the times' axes."""
    times = np.asarray(times, dtype=float)
    if path.is_constant:
        return np.broadcast_to(path.values, times.shape + path.shape).copy()
    x = path.grid.locate(times).ravel()
    i = np.minimum(np.floor(x), path.grid.n_steps - 1).astype(int)
    w = (x - i).reshape(x.shape + (1,) * len(path.shape))
    out = (1.0 - w) * path.values[i] + w * path.values[i + 1]
    k = np.rint(x).astype(int)
    snap = np.abs(x - k) < 1e-9
    out[snap] = path.values[k[snap]]
    return out.reshape(times.shape + path.shape)


@dataclass(frozen=True)
class NoiseAffinePath:
    """A path of the form f0(s) + f1(s) * W(s) for scalar Brownian W.

    ``frozen_at_start`` pins the Brownian factor to its value at the initial
    time instead of the running value; simulation honours the flag, while
    the mean of the path is the constant part either way.  The flag belongs
    to strategy offsets: ``ProblemData`` refuses it on b, sigma, q and rho,
    whose Brownian factor is always the running value.
    """

    const_part: MatrixPath
    noise_part: MatrixPath
    frozen_at_start: bool = False

    @classmethod
    def zero(cls, shape) -> "NoiseAffinePath":
        z = np.zeros(shape)
        return cls(MatrixPath.constant(z), MatrixPath.constant(z))

    @classmethod
    def of(cls, const, noise, frozen_at_start: bool = False) -> "NoiseAffinePath":
        return cls(
            MatrixPath.constant(const),
            MatrixPath.constant(noise),
            frozen_at_start,
        )


@dataclass(frozen=True)
class InitialLaw:
    """Initial state distribution: mean + brownian_load * W(t0) + indep_load @ G.

    W(t0) is the driving Brownian motion at the initial time (variance t0)
    and G is a standard normal vector independent of it, so the covariance
    is t0 * outer(brownian_load) + indep_load @ indep_load.T.
    """

    mean: np.ndarray
    brownian_load: np.ndarray
    indep_load: np.ndarray

    @classmethod
    def deterministic(cls, x) -> "InitialLaw":
        x = np.atleast_1d(np.asarray(x, dtype=float))
        n = x.shape[0]
        return cls(x, np.zeros(n), np.zeros((n, n)))

    def __post_init__(self):
        for name in ("mean", "brownian_load", "indep_load"):
            arr = _as_float_array(getattr(self, name), f"InitialLaw.{name}")
            object.__setattr__(self, name, _private(arr))
        n = self.mean.shape[0]
        if self.mean.ndim != 1:
            raise ValidationError("InitialLaw.mean: expected a vector")
        if self.brownian_load.shape != (n,):
            raise ValidationError(
                f"InitialLaw.brownian_load: expected shape ({n},), "
                f"got {self.brownian_load.shape}"
            )
        if self.indep_load.ndim != 2 or self.indep_load.shape[0] != n:
            raise ValidationError(
                f"InitialLaw.indep_load: expected {n} rows, "
                f"got shape {self.indep_load.shape}"
            )

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def covariance(self, t0: float) -> np.ndarray:
        c = self.brownian_load
        return t0 * np.outer(c, c) + self.indep_load @ self.indep_load.T

    def second_moment(self, t0: float) -> np.ndarray:
        return self.covariance(t0) + np.outer(self.mean, self.mean)


def _check_law_dim(law: InitialLaw, n: int):
    if law.dim != n:
        raise ValidationError(
            f"initial law dimension {law.dim} does not match state dimension {n}"
        )


@dataclass(frozen=True)
class ControlSpec:
    """Feedback-plus-offset control law.

    The realised control at time s along a path with state X and exact state
    mean EX is  feedback(s) X + mean_feedback(s) EX + offset(s), where the
    offset is noise-affine.
    """

    feedback: MatrixPath
    mean_feedback: MatrixPath
    offset: NoiseAffinePath

    @classmethod
    def zero(cls, n: int, m: int) -> "ControlSpec":
        zmn = np.zeros((m, n))
        return cls(
            MatrixPath.constant(zmn),
            MatrixPath.constant(zmn),
            NoiseAffinePath.zero((m,)),
        )


# Field → (kind, shape-maker, symmetric?) table used by validation and the
# generic constructor.  Kinds: "path" (MatrixPath), "noise" (NoiseAffinePath),
# "terminal" (plain terminal array).
def _coeff_table(n: int, m: int):
    return {
        "A": ("path", (n, n), False),
        "A_bar": ("path", (n, n), False),
        "B": ("path", (n, m), False),
        "B_bar": ("path", (n, m), False),
        "C": ("path", (n, n), False),
        "C_bar": ("path", (n, n), False),
        "D": ("path", (n, m), False),
        "D_bar": ("path", (n, m), False),
        "Q": ("path", (n, n), True),
        "Q_bar": ("path", (n, n), True),
        "S": ("path", (m, n), False),
        "S_bar": ("path", (m, n), False),
        "R": ("path", (m, m), True),
        "R_bar": ("path", (m, m), True),
        "G": ("terminal", (n, n), True),
        "G_bar": ("terminal", (n, n), True),
        "b": ("noise", (n,), False),
        "sigma": ("noise", (n,), False),
        "q": ("noise", (n,), False),
        "rho": ("noise", (m,), False),
        "q_bar": ("path", (n,), False),
        "rho_bar": ("path", (m,), False),
        "g0": ("terminal", (n,), False),
        "g1": ("terminal", (n,), False),
        "g_bar": ("terminal", (n,), False),
    }


@dataclass(frozen=True)
class ProblemData:
    """Full coefficient set of a mean-field LQ problem on a fixed horizon.

    Naming convention: the un-barred matrices weigh the state/control
    themselves, the ``_bar`` companions weigh their expectations.  b, sigma
    are the drift/diffusion inhomogeneities; q, rho (and their bars) the
    linear cost terms; (g0, g1) the noise-affine terminal linear weight and
    g_bar its mean counterpart.

    Construction checks the whole problem, so every instance is valid: one
    ValidationError carries every violation ``_violations`` finds.
    """

    n: int
    m: int
    horizon: TimeGrid
    A: MatrixPath
    A_bar: MatrixPath
    B: MatrixPath
    B_bar: MatrixPath
    C: MatrixPath
    C_bar: MatrixPath
    D: MatrixPath
    D_bar: MatrixPath
    Q: MatrixPath
    Q_bar: MatrixPath
    S: MatrixPath
    S_bar: MatrixPath
    R: MatrixPath
    R_bar: MatrixPath
    G: np.ndarray
    G_bar: np.ndarray
    b: NoiseAffinePath
    sigma: NoiseAffinePath
    q: NoiseAffinePath
    rho: NoiseAffinePath
    q_bar: MatrixPath
    rho_bar: MatrixPath
    g0: np.ndarray
    g1: np.ndarray
    g_bar: np.ndarray

    def __post_init__(self):
        for name in ("G", "G_bar", "g0", "g1", "g_bar"):
            arr = _as_float_array(getattr(self, name), name)
            object.__setattr__(self, name, _private(arr))
        violations = _violations(self)
        if violations:
            raise ValidationError(violations)

    @property
    def is_homogeneous(self) -> bool:
        return not _nonzero_terms(self, _INHOMOGENEOUS)

    @property
    def has_mean_terms(self) -> bool:
        """True if any mean-coupling coefficient is nonzero."""
        return bool(_nonzero_terms(self, _MEAN_COUPLING))


# The inhomogeneities and linear cost terms, as names ``_nonzero_terms`` reads.
_INHOMOGENEOUS = ("b", "sigma", "q", "rho", "q_bar", "rho_bar", "g0", "g1", "g_bar")


def _nonzero_terms(p: ProblemData, names) -> list:
    """The names, in order, whose coefficient has a nonzero entry.  A name is
    a field, both parts of a noise-affine one, or ``field.const`` or
    ``field.noise`` for one part."""
    found = []
    for name in names:
        field, _, part = name.partition(".")
        value = getattr(p, field)
        if isinstance(value, NoiseAffinePath):
            parts = {"const": value.const_part, "noise": value.noise_part}
            paths = [parts[part]] if part else list(parts.values())
            arrays = [path.values for path in paths]
        elif isinstance(value, MatrixPath):
            arrays = [value.values]
        else:
            arrays = [value]
        if any(np.any(a != 0.0) for a in arrays):
            found.append(name)
    return found


def _normalize_path(value, shape, horizon: TimeGrid, name: str) -> MatrixPath:
    if isinstance(value, MatrixPath):
        return value
    if value is None:
        return MatrixPath.constant(np.zeros(shape))
    arr = _as_float_array(value, name)
    if arr.ndim == 0:
        if any(d != 1 for d in shape):
            raise ValidationError(
                f"scalar given where an array of shape {shape} is required"
            )
        arr = arr.reshape(shape)
    if arr.shape == shape:
        return MatrixPath.constant(arr)
    if arr.shape[1:] == shape:
        grid = horizon.with_steps(arr.shape[0] - 1)
        return MatrixPath.sampled(grid, arr)
    raise ValidationError(
        f"cannot interpret array of shape {arr.shape} as a path of shape {shape}"
    )


def _normalize_noise(value, shape, horizon: TimeGrid, name: str) -> NoiseAffinePath:
    if isinstance(value, NoiseAffinePath):
        return value
    if value is None:
        return NoiseAffinePath.zero(shape)
    if isinstance(value, tuple) and len(value) in (2, 3):
        const = _normalize_path(value[0], shape, horizon, f"{name}.const")
        noise = _normalize_path(value[1], shape, horizon, f"{name}.noise")
        frozen = bool(value[2]) if len(value) == 3 else False
        return NoiseAffinePath(const, noise, frozen)
    # A bare array is taken as a deterministic (constant-part only) path.
    const = _normalize_path(value, shape, horizon, f"{name}.const")
    return NoiseAffinePath(const, MatrixPath.constant(np.zeros(shape)))


def _normalize_terminal(value, shape) -> np.ndarray:
    arr = np.zeros(shape) if value is None else np.asarray(value, dtype=float)
    if arr.ndim == 0 and all(d == 1 for d in shape):
        arr = arr.reshape(shape)
    return arr


def make_problem(n: int, m: int, horizon: TimeGrid, **coeffs) -> ProblemData:
    """Assemble a ProblemData, filling every unspecified coefficient with zero.

    Scalars are accepted only for 1x1 blocks and length-1 vectors; bare
    arrays become constant paths, (K+1, ...)-shaped arrays sampled paths on
    the horizon, (const, noise) tuples noise-affine paths, and terminal
    weights must have their exact shape.  ``g`` may be given as a pair
    (g0, g1) or the fields g0/g1 set individually.  A non-finite entry
    raises ValidationError naming its field (``A``, ``b.const``,
    ``sigma.noise``), and the built problem checks itself: a misshapen or
    asymmetric field raises ValidationError.
    """
    table = _coeff_table(n, m)
    if "g" in coeffs:
        g = coeffs.pop("g")
        if isinstance(g, tuple):
            coeffs.setdefault("g0", g[0])
            coeffs.setdefault("g1", g[1])
        else:
            coeffs.setdefault("g0", g)
    unknown = set(coeffs) - set(table)
    if unknown:
        raise ValidationError(f"unknown coefficients: {sorted(unknown)}")
    built = {}
    for name, (kind, shape, _sym) in table.items():
        value = coeffs.get(name)
        if kind == "path":
            built[name] = _normalize_path(value, shape, horizon, name)
        elif kind == "noise":
            built[name] = _normalize_noise(value, shape, horizon, name)
        else:
            built[name] = _normalize_terminal(value, shape)
    return ProblemData(n=n, m=m, horizon=horizon, **built)


def _check_symmetry(name: str, values: np.ndarray, violations: list):
    """Report the first node of a (stack of) matrices that is not symmetric."""
    stack = values if values.ndim == 3 else values[None]
    gaps = np.linalg.norm(stack - _mT(stack), axis=(-2, -1))
    bad = gaps > SYMMETRY_RTOL * (1.0 + np.linalg.norm(stack, axis=(-2, -1)))
    if bad.any():
        k = int(np.argmax(bad))
        where = f" at node {k}" if values.ndim == 3 else ""
        violations.append(
            f"{name}: not symmetric{where} (|M - M^T| = {gaps[k]:.3e})"
        )


def _check_path(name: str, path: MatrixPath, shape, horizon: TimeGrid,
                symmetric: bool, violations: list):
    if path.shape != shape:
        violations.append(
            f"{name}: expected shape {shape}, got {path.shape}"
        )
        return
    if not path.is_constant:
        g = path.grid
        tol = 1e-12 * max(1.0, abs(horizon.tT))
        if abs(g.t0 - horizon.t0) > tol or abs(g.tT - horizon.tT) > tol:
            violations.append(
                f"{name}: sample grid [{g.t0}, {g.tT}] does not span the "
                f"horizon [{horizon.t0}, {horizon.tT}]"
            )
    if symmetric:
        _check_symmetry(name, path.values, violations)


def _violations(p: ProblemData) -> list:
    """Every violation of the problem, one human-readable line each; empty
    means valid.  Each coefficient is checked as a path, a terminal weight
    as a constant one, and a noise-affine coefficient's flag as well: only
    a strategy offset may freeze its Brownian factor."""
    violations = []
    if p.n < 1 or p.m < 1:
        violations.append("dimensions n and m must be positive")
        return violations
    for name, (kind, shape, symmetric) in _coeff_table(p.n, p.m).items():
        value = getattr(p, name)
        if kind == "noise":
            if value.frozen_at_start:
                violations.append(
                    f"{name}: frozen_at_start is a flag of strategy offsets; "
                    "a problem coefficient rides the running Brownian value"
                )
            paths = {f"{name}.const": value.const_part,
                     f"{name}.noise": value.noise_part}
        else:
            paths = {name: value if kind == "path" else MatrixPath(value)}
        for label, path in paths.items():
            _check_path(label, path, shape, p.horizon, symmetric, violations)
    return violations


def strip_inhomogeneous(p: ProblemData) -> ProblemData:
    """Zero every inhomogeneity and linear cost term, keeping the dynamics.

    Idempotent; used to reduce a problem to its purely quadratic core.
    """
    zero = {"noise": NoiseAffinePath.zero, "terminal": np.zeros,
            "path": lambda shape: MatrixPath.constant(np.zeros(shape))}
    table = _coeff_table(p.n, p.m)
    return replace(p, **{
        name: zero[table[name][0]](table[name][1]) for name in _INHOMOGENEOUS
    })


def nodes_and_midpoints(path: MatrixPath, grid: TimeGrid):
    """Sample a path at every node and at every interval midpoint.

    Returns (node_values, mid_values) with shapes (K+1, ...) and (K, ...).
    Fixed-step Runge-Kutta sweeps consume these so coefficient lookup inside
    the stage loop is pure indexing.
    """
    times = grid.nodes
    node_vals = sample_path(path, times)
    if path.is_constant or (
        path.grid.n_steps == grid.n_steps
        and abs(path.grid.t0 - grid.t0) < 1e-12
        and abs(path.grid.tT - grid.tT) < 1e-12
    ):
        # Linear interpolation at midpoints of the same grid is the average.
        mid_vals = 0.5 * (node_vals[:-1] + node_vals[1:])
    else:
        mid_vals = sample_path(path, 0.5 * (times[:-1] + times[1:]))
    return node_vals, mid_vals


# Coefficients that enter the channel maps; each has a mean companion
# ``<name>_bar`` that the mean channel adds to it.
_CHANNEL_NAMES = ("A", "B", "C", "D", "Q", "S", "R")

# The mean-coupling coefficients: the channel names' companions and G_bar.
_MEAN_COUPLING = tuple(name + "_bar" for name in _CHANNEL_NAMES + ("G",))


def _channel_pair(coeff, coeff_bar) -> np.ndarray:
    """Stack (coeff, coeff + coeff_bar) along a channel axis before the matrix axes."""
    return np.stack(np.broadcast_arrays(coeff, coeff + coeff_bar), axis=-3)


def _join(blocks, axis: int) -> np.ndarray:
    """Concatenate matrix blocks along ``axis``, broadcasting their leading axes."""
    lead = np.broadcast_shapes(*(b.shape[:-2] for b in blocks))
    return np.concatenate(
        [np.broadcast_to(b, lead + b.shape[-2:]) for b in blocks], axis=axis
    )


def _channel_maps(samples):
    """Channel-stacked drift F = [A B], diffusion G = [C D] and running
    weight H = [[Q S^T], [S R]] of the stacked vector [x; u].

    ``samples`` maps every coefficient name to its value at one time or to
    its samples over a grid.  Channel 0 holds the coefficients, channel 1
    the sums coefficient + bar.  A map is (2, r, c) when all its blocks are
    constant and (points, 2, r, c) otherwise; every map is read-only.
    """
    A, B, C, D, Q, S, R = (
        _channel_pair(samples[name], samples[name + "_bar"])
        for name in _CHANNEL_NAMES
    )
    H = _join((_join((Q, _mT(S)), -1), _join((S, R), -1)), -2)
    maps = (_join((A, B), -1), _join((C, D), -1), H)
    for t in maps:
        t.setflags(write=False)
    return maps


def _closed_loop(XY: np.ndarray, K: np.ndarray) -> np.ndarray:
    """The closed-loop map X + Y K of a map [X Y] under a gain K, (..., r, n)."""
    n = K.shape[-1]
    return XY[..., :n] + XY[..., n:] @ K


@dataclass(frozen=True)
class CoefficientTable:
    """Node and midpoint samples of every coefficient path of a problem on one grid.

    ``node[name]`` has shape (K+1, ...) and ``mid[name]`` (K, ...) for a
    sampled path.  A constant path enters as its own array in both, which
    broadcasts against such stacks, so no pass ever holds K+1 copies of a
    constant coefficient.  A noise-affine path ``f`` enters as its parts
    ``f0`` (constant) and ``f1`` (noise).  Every array is read-only: one
    table is shared by all passes over its grid.

    ``node_maps`` and ``mid_maps`` are the channel maps (F, G, H) of
    ``_channel_maps`` at the nodes and at the midpoints, each built on first
    read and kept with the table, and ``terminal`` is the channel pair
    (G, G + G_bar) of the terminal weights, (2, n, n); they are the only
    place the coefficients combine into the deviation and mean channels.
    """

    grid: TimeGrid
    node: dict
    mid: dict
    sampled: frozenset
    terminal: np.ndarray

    def stack(self, name: str) -> np.ndarray:
        """Node samples of one coefficient as a (K+1, ...) stack, for per-step indexing."""
        values = self.node[name]
        if name in self.sampled:
            return values
        return np.broadcast_to(values, (self.grid.n_steps + 1,) + values.shape)

    @cached_property
    def node_maps(self) -> tuple:
        return _channel_maps(self.node)

    @cached_property
    def mid_maps(self) -> tuple:
        return _channel_maps(self.mid)


def tabulate(p: ProblemData, grid: TimeGrid) -> CoefficientTable:
    """Sample every coefficient path of a problem once on a grid."""
    paths = {}
    for name, (kind, _shape, _sym) in _coeff_table(p.n, p.m).items():
        value = getattr(p, name)
        if kind == "path":
            paths[name] = value
        elif kind == "noise":
            paths[name + "0"] = value.const_part
            paths[name + "1"] = value.noise_part
    node, mid, sampled = {}, {}, set()
    for name, path in paths.items():
        if path.is_constant:
            node[name] = mid[name] = path.values
            continue
        node[name], mid[name] = nodes_and_midpoints(path, grid)
        node[name].setflags(write=False)
        mid[name].setflags(write=False)
        sampled.add(name)
    terminal = _channel_pair(p.G, p.G_bar)
    terminal.setflags(write=False)
    return CoefficientTable(grid, node, mid, frozenset(sampled), terminal)
