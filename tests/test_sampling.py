"""The path sampler: one interpolation rule, and each path sampled once.

``reference_at`` is the scalar evaluation rule the vectorized
``sample_path`` must reproduce bit for bit: clamp the grid coordinate to
the horizon, return a node's sample exactly within 1e-9 grid steps of it,
and interpolate linearly in between.  The counting tests wrap every module
binding of the two sampling functions, as
``test_synthesis.test_sampled_coefficients_are_tabulated_once_per_grid``
does, and count a call only when it is not made from inside another.
"""

import importlib
import math
import pkgutil

import numpy as np
import pytest

import mflq
from mflq import problem
from mflq.cli import main
from mflq.problem import (
    InitialLaw,
    MatrixPath,
    TimeGrid,
    make_problem,
    sample_path,
)
from mflq.moments import homogeneous_cost, propagate_moments, stationarity_residual
from mflq.presets import random_spd
from mflq.sim import mean_ode, simulate
from mflq.synthesis import synthesize
from mflq.verify import qp_oracle
from test_nodewise_reference import time_varying_problem


def reference_at(path, s):
    """One time at a time: the rule ``sample_path`` vectorizes."""
    if path.is_constant:
        return path.values
    g = path.grid
    slack = 1e-9 * max(g.span, 1.0)
    if s < g.t0 - slack or s > g.tT + slack:
        raise ValueError(f"time {s!r} lies outside the horizon")
    x = min(max((s - g.t0) / g.h, 0.0), float(g.n_steps))
    k = int(round(x))
    if abs(x - k) < 1e-9:
        return path.values[k]
    i = int(math.floor(x))
    w = x - i
    return (1.0 - w) * path.values[i] + w * path.values[i + 1]


def assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert got.dtype == want.dtype == np.float64
    assert got.tobytes() == want.tobytes()


def random_case(rng):
    """A sampled path on a random grid and times that probe every branch.

    The times are the path's own nodes and midpoints, another grid's nodes
    and midpoints, uniform draws, round-off neighbours of the nodes, and
    both endpoints pushed outwards by less than the clamping slack.
    """
    t0 = float(rng.uniform(-3.0, 3.0))
    span = float(rng.choice([1e-3, 0.5, 1.0, 7.3, 1e3]))
    grid = TimeGrid(t0, t0 + span, int(rng.integers(1, 60)))
    shape = [(), (2,), (2, 3)][int(rng.integers(3))]
    path = MatrixPath.sampled(
        grid, rng.standard_normal((grid.n_steps + 1,) + shape)
    )
    other = grid.with_steps(int(rng.integers(1, 80))).nodes
    nodes = grid.nodes
    pad = 5e-10 * max(span, 1.0)
    times = np.concatenate([
        nodes, 0.5 * (nodes[:-1] + nodes[1:]),
        other, 0.5 * (other[:-1] + other[1:]),
        rng.uniform(t0, t0 + span, 20),
        nodes + 1e-12 * span, nodes - 1e-12 * span,
        [t0 - pad, t0 + span + pad],
    ])
    return path, np.clip(times, t0 - pad, t0 + span + pad)


def test_sample_path_matches_the_scalar_rule_bitwise():
    rng = np.random.default_rng(20)
    for _ in range(300):
        path, times = random_case(rng)
        want = np.stack([reference_at(path, float(s)) for s in times])
        assert_bitwise(sample_path(path, times), want)
        # a 2-d array of times stacks along both of its axes
        grid_times = times[: 2 * (times.size // 2)].reshape(2, -1)
        assert_bitwise(
            sample_path(path, grid_times),
            want[: grid_times.size].reshape(grid_times.shape + path.shape),
        )
        # 0-d times, through sample_path and through MatrixPath.at
        for s in times[::7]:
            assert_bitwise(sample_path(path, np.float64(s)), reference_at(path, s))
            assert_bitwise(path.at(float(s)), reference_at(path, float(s)))


def test_constant_paths_broadcast_over_any_times():
    path = MatrixPath.constant(np.arange(6.0).reshape(2, 3))
    assert_bitwise(path.at(0.3), path.values)
    out = sample_path(path, np.zeros((4, 5)))
    assert out.shape == (4, 5, 2, 3)
    assert np.all(out == path.values)


@pytest.mark.parametrize("bad, named", [
    (1.5, "time 1.5 "),
    (-0.25, "time -0.25 "),
    (float("nan"), "time nan "),
    (float("inf"), "time inf "),
])
def test_times_outside_the_horizon_or_not_finite_are_refused(bad, named):
    path = MatrixPath.sampled(TimeGrid(0.0, 1.0, 4), np.arange(5.0))
    for call in (
        lambda: path.at(bad),
        lambda: sample_path(path, bad),
        lambda: sample_path(path, [[0.0, 0.5], [bad, 2.0]]),
        lambda: path.grid.locate(bad),
    ):
        with pytest.raises(ValueError, match="lies outside the horizon") as exc:
            call()
        assert named in str(exc.value)


def test_solve_refuses_a_nan_time(capsys, tmp_path):
    target = tmp_path / "classic.json"
    assert main(["example", "scalar_classic", "--out", str(target)]) == 0
    capsys.readouterr()
    code = main(["solve", str(target), "--at", "nan"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "time nan lies outside the horizon" in captured.err


def count_top_level_samples(monkeypatch, watched):
    """Wrap every module binding of the samplers; count calls per watched path.

    ``watched`` maps a label to a path.  Returns ``counts[function][label]``,
    the calls of ``nodes_and_midpoints`` or ``sample_path`` given that path
    and not made from inside another sampler call.
    """
    counts = {
        fn: dict.fromkeys(watched, 0) for fn in ("nodes_and_midpoints", "sample_path")
    }
    depth = [0]

    def counting(fn):
        def wrapper(path, *args, **kwargs):
            if depth[0] == 0:
                for label, watched_path in watched.items():
                    counts[fn.__name__][label] += path is watched_path
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
    return counts


def test_simulate_samples_each_control_path_once(monkeypatch):
    """Both the mean ODE and the path sweep read one sampling of each of the
    control law's four paths."""
    p = time_varying_problem()
    spec = synthesize(p).strategy
    law = InitialLaw.deterministic([1.0, -0.5])
    counts = count_top_level_samples(monkeypatch, {
        "feedback": spec.feedback,
        "mean_feedback": spec.mean_feedback,
        "offset_const": spec.offset.const_part,
        "offset_noise": spec.offset.noise_part,
    })
    simulate(p, spec, law, n_paths=64, n_steps=50, seed=0)
    per_path = {
        label: counts["nodes_and_midpoints"][label] + counts["sample_path"][label]
        for label in counts["sample_path"]
    }
    assert per_path == dict.fromkeys(per_path, 1)


def test_paths_are_sampled_only_where_they_are_read():
    """Only the path sweep of ``simulate`` reads the offset's noise part, and
    only at the nodes; the moment cost and the stationarity residual read
    their gains only at the nodes.  None of these takes a midpoint sample."""
    p = time_varying_problem()
    spec = synthesize(p).strategy
    law = InitialLaw.deterministic([1.0, -0.5])
    with pytest.MonkeyPatch.context() as monkeypatch:
        counts = count_top_level_samples(
            monkeypatch, {"offset_noise": spec.offset.noise_part}
        )
        mean_ode(p, spec, law.mean, n_steps=50)
        assert counts["nodes_and_midpoints"] == counts["sample_path"] == {
            "offset_noise": 0
        }
        simulate(p, spec, law, n_paths=64, n_steps=50, seed=0)
    assert counts["nodes_and_midpoints"] == {"offset_noise": 0}
    assert counts["sample_path"] == {"offset_noise": 1}

    q, _ = random_spd(0, n=2, m=1, n_steps=40, inhomogeneous=False)
    control = synthesize(q).strategy
    fb, mf = control.feedback, control.mean_feedback
    X0 = np.eye(2)
    mp = propagate_moments(q, fb, mf, X0, X0)
    with pytest.MonkeyPatch.context() as monkeypatch:
        counts = count_top_level_samples(monkeypatch, {"fb": fb, "mf": mf})
        homogeneous_cost(q, fb, mf, mp)
        stationarity_residual(q, fb, mf, X0, X0)
    assert counts["nodes_and_midpoints"] == {"fb": 0, "mf": 0}
    assert counts["sample_path"] == {"fb": 2, "mf": 2}


def test_qp_oracle_samples_coefficients_only_through_the_table():
    """The oracle reads ``tabulate``'s node stacks: each sampled coefficient
    is tabulated once, and no coefficient goes to ``sample_path``."""
    grid = TimeGrid(0.0, 1.0, 37)
    t = grid.nodes
    p = make_problem(
        1, 1, TimeGrid(0.0, 1.0, 100),
        A=MatrixPath.sampled(grid, (0.3 * np.sin(3.0 * t))[:, None, None]),
        A_bar=0.1, B=1.0, Q=1.0, Q_bar=0.2, S=0.1,
        R=MatrixPath.sampled(grid, (1.0 + 0.5 * t)[:, None, None]),
        b=(MatrixPath.sampled(grid, (0.2 * np.cos(5.0 * t))[:, None]), 0.0),
        q=(0.1, 0.0), rho_bar=0.2, G=1.0,
    )
    coefficients = {}
    for name, (kind, _shape, _sym) in problem._coeff_table(p.n, p.m).items():
        value = getattr(p, name)
        if kind == "path":
            coefficients[name] = value
        elif kind == "noise":
            coefficients[name + "0"] = value.const_part
            coefficients[name + "1"] = value.noise_part
    with pytest.MonkeyPatch.context() as monkeypatch:
        counts = count_top_level_samples(monkeypatch, coefficients)
        got = qp_oracle(p, [1.0], K=40)
    want = qp_oracle(p, [1.0], K=40)
    assert counts["sample_path"] == dict.fromkeys(coefficients, 0)
    tabulated = {k: v for k, v in counts["nodes_and_midpoints"].items() if v}
    assert tabulated == {"A": 1, "R": 1, "b0": 1}
    assert got.status == want.status == "ok"
    assert got.cost == want.cost
