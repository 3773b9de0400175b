import ast
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mflq.errors import ValidationError
from mflq.problem import (
    InitialLaw,
    MatrixPath,
    TimeGrid,
    make_problem,
    nodes_and_midpoints,
    sample_path,
    strip_inhomogeneous,
    tabulate,
    _closed_loop,
)
from test_nodewise_reference import time_varying_problem


def eval_path(path, s):
    """Evaluate a path at time s.

    Sampled paths raise ValueError outside their grid's horizon; constant
    paths accept any finite time.
    """
    return path.at(s)


def test_grid_basics():
    g = TimeGrid(0.5, 1.5, 4)
    assert g.h == 0.25
    assert g.span == 1.0
    np.testing.assert_allclose(g.nodes, [0.5, 0.75, 1.0, 1.25, 1.5])
    assert g.with_steps(10).n_steps == 10


def test_grid_rejects_bad_spans():
    with pytest.raises(ValidationError):
        TimeGrid(1.0, 1.0, 5)
    with pytest.raises(ValidationError):
        TimeGrid(0.0, 1.0, 0)
    with pytest.raises(ValidationError):
        TimeGrid(0.0, float("inf"), 5)


def test_locate_clamps_roundoff_but_rejects_outside():
    g = TimeGrid(0.0, 1.0, 10)
    assert g.locate(1.0 + 1e-12) == 10.0
    assert g.locate(-1e-12) == 0.0
    with pytest.raises(ValueError):
        g.locate(1.1)


def test_constant_path_evaluates_everywhere():
    p = MatrixPath.constant([[2.0]])
    assert eval_path(p, -5.0)[0, 0] == 2.0
    assert p.is_constant


def test_sampled_path_interpolates_linearly():
    g = TimeGrid(0.0, 1.0, 2)
    p = MatrixPath.sampled(g, np.array([[[0.0]], [[1.0]], [[4.0]]]))
    # node hits are exact, between nodes it is linear
    assert p.at(0.5)[0, 0] == 1.0
    assert p.at(0.25)[0, 0] == 0.5
    assert p.at(0.75)[0, 0] == 2.5
    with pytest.raises(ValueError):
        p.at(2.0)


def test_sample_path_stacks_times():
    g = TimeGrid(0.0, 1.0, 2)
    p = MatrixPath.sampled(g, np.arange(3.0).reshape(3, 1, 1))
    out = sample_path(p, np.array([0.0, 0.5, 1.0]))
    assert out.shape == (3, 1, 1)
    np.testing.assert_allclose(out.ravel(), [0.0, 1.0, 2.0])


def test_nodes_and_midpoints_same_grid_uses_averages():
    g = TimeGrid(0.0, 1.0, 4)
    p = MatrixPath.sampled(g, np.linspace(0, 1, 5).reshape(5, 1, 1))
    node, mid = nodes_and_midpoints(p, g)
    assert node.shape == (5, 1, 1)
    assert mid.shape == (4, 1, 1)
    np.testing.assert_array_equal(mid[:, 0, 0], [0.125, 0.375, 0.625, 0.875])


def test_initial_law_covariance_includes_brownian_variance():
    law = InitialLaw(
        mean=np.array([1.0, 0.0]),
        brownian_load=np.array([2.0, 0.0]),
        indep_load=np.array([[0.0, 0.0], [0.0, 3.0]]),
    )
    cov = law.covariance(0.25)
    np.testing.assert_allclose(cov, [[1.0, 0.0], [0.0, 9.0]])
    sm = law.second_moment(0.25)
    np.testing.assert_allclose(sm, [[2.0, 0.0], [0.0, 9.0]])


def test_deterministic_law_has_zero_covariance():
    law = InitialLaw.deterministic([3.0])
    assert np.all(law.covariance(0.7) == 0.0)


def test_make_problem_accepts_scalars_and_tuples():
    g = TimeGrid(0.0, 1.0, 10)
    p = make_problem(1, 1, g, A=0.5, B=1.0, R=2.0, G=1.0,
                     b=(0.1, 0.2), sigma=(0.0, 0.3))
    assert p.A.at(0.3)[0, 0] == 0.5
    assert p.b.const_part.values[0] == 0.1
    assert p.b.noise_part.values[0] == 0.2


@pytest.mark.parametrize("field", ["b", "sigma", "q", "rho"])
def test_problem_refuses_a_frozen_coefficient(field):
    """Only a strategy offset can freeze its Brownian factor: the solver and
    the sweep read a problem coefficient's running value, so a frozen
    b = 2 W(0.5) on [0.5, 1.5] used to be simulated as the running one
    (4.317 from x = 1 under the zero strategy, where its exact cost is 3)."""
    g = TimeGrid(0.5, 1.5, 20)
    coeffs = dict(B=1.0, R=1.0, G=1.0)
    with pytest.raises(ValidationError, match=f"^{field}: frozen_at_start"):
        make_problem(1, 1, g, **coeffs, **{field: (0.0, 2.0, True)})
    p = make_problem(1, 1, g, **coeffs, **{field: (0.0, 2.0)})
    frozen = replace(getattr(p, field), frozen_at_start=True)
    with pytest.raises(ValidationError, match=f"^{field}: frozen_at_start"):
        replace(p, **{field: frozen})


def test_a_frozen_coefficient_is_reported_with_every_other_violation():
    """The frozen flag is one violation among the rest: it used to be
    raised on its own, before the check that finds the asymmetric Q and G."""
    with pytest.raises(ValidationError) as info:
        make_problem(2, 1, TimeGrid(0.0, 1.0, 10), B=np.ones((2, 1)), R=1.0,
                     Q=[[1.0, 0.5], [0.0, 1.0]], G=[[1.0, 0.5], [0.0, 1.0]],
                     b=(np.zeros(2), np.ones(2), True))
    assert info.value.violations == [
        "Q: not symmetric (|M - M^T| = 7.071e-01)",
        "G: not symmetric (|M - M^T| = 7.071e-01)",
        "b: frozen_at_start is a flag of strategy offsets; a problem "
        "coefficient rides the running Brownian value",
    ]


@pytest.mark.parametrize("coeffs, field", [
    ({"A": [[np.nan]]}, "A"),
    ({"b": (np.nan, 0.0)}, "b.const"),
    ({"sigma": (0.0, np.inf)}, "sigma.noise"),
], ids=["A", "b.const", "sigma.noise"])
def test_a_non_finite_coefficient_is_refused_by_name(coeffs, field):
    """As a NaN G already said ``G: ...``, a non-finite path coefficient
    names its field, not the ``MatrixPath`` it is built into."""
    with pytest.raises(ValidationError) as info:
        make_problem(1, 1, TimeGrid(0.0, 1.0, 10), B=1.0, R=1.0, G=1.0, **coeffs)
    assert info.value.violations == [f"{field}: contains non-finite entries"]


def test_make_problem_rejects_unknown_names():
    g = TimeGrid(0.0, 1.0, 10)
    with pytest.raises(ValidationError):
        make_problem(1, 1, g, A=0.0, Z=1.0)


@pytest.mark.parametrize("n, m", [(0, 1), (1, 0)])
def test_make_problem_rejects_empty_dimensions(n, m):
    g = TimeGrid(0.0, 1.0, 10)
    with pytest.raises(ValidationError, match="dimensions n and m must be positive"):
        make_problem(n, m, g)


@pytest.mark.parametrize("field, value", [
    ("g0", [1.0]),
    ("G", 2.0),
    ("G_bar", np.eye(3)),
    ("g1", np.ones((2, 1))),
    ("g_bar", 0.5),
])
def test_make_problem_rejects_misshapen_terminal_weights(field, value):
    """Terminal weights follow the path rule: the exact shape, or a scalar
    for an all-ones shape only.  A (1,) g0 used to broadcast silently and a
    0-d G to fail deep inside the Riccati sweep."""
    g = TimeGrid(0.0, 1.0, 10)
    coeffs = {"B": np.eye(2), "R": np.eye(2), "G": 2.0 * np.eye(2), field: value}
    with pytest.raises(ValidationError, match=rf"^{field}: expected shape"):
        make_problem(2, 2, g, **coeffs)


def test_validate_flags_asymmetric_weight():
    g = TimeGrid(0.0, 1.0, 10)
    with pytest.raises(ValidationError) as info:
        make_problem(2, 1, g, Q=np.array([[1.0, 0.5], [0.0, 1.0]]),
                         R=1.0, G=np.eye(2))
    bad = info.value.violations
    assert any("Q" in v and "symmetric" in v for v in bad)


def test_validate_names_the_first_asymmetric_node_of_a_sampled_weight():
    """Roundoff asymmetry passes; of two asymmetric nodes the earlier is
    named, with its own gap."""
    g = TimeGrid(0.0, 1.0, 20)
    R = np.tile(np.eye(2), (21, 1, 1))
    R[3, 0, 1] += 1e-14
    R[7, 0, 1] += 1e-3
    R[12, 0, 1] = 1e-2
    with pytest.raises(ValidationError) as info:
        make_problem(2, 2, g, R=R, G=np.eye(2))
    assert info.value.violations == [
        "R: not symmetric at node 7 (|M - M^T| = 1.414e-03)"
    ]


def test_validate_flags_wrong_shape_path():
    import dataclasses

    g = TimeGrid(0.0, 1.0, 10)
    p = make_problem(2, 1, g, R=1.0, G=np.eye(2))
    with pytest.raises(ValidationError) as info:
        dataclasses.replace(p, B=MatrixPath.constant(np.zeros((3, 1))))
    bad = info.value.violations
    assert any(v.startswith("B:") for v in bad)


def _asymmetric_weight():
    make_problem(2, 1, TimeGrid(0.0, 1.0, 100), B=np.ones((2, 1)),
                 Q=[[1.0, 0.5], [0.0, 1.0]], R=1.0, G=np.eye(2))


def _misshapen_path():
    p = make_problem(2, 1, TimeGrid(0.0, 1.0, 10), R=1.0, G=np.eye(2))
    replace(p, B=MatrixPath.constant(np.zeros((3, 1))))


def _short_sample_grid():
    short = MatrixPath.sampled(TimeGrid(0.0, 0.5, 10), np.zeros((11, 1, 1)))
    make_problem(1, 1, TimeGrid(0.0, 1.0, 10), A=short, R=1.0, G=1.0)


def _nan_path():
    MatrixPath(np.array([[np.nan]]))


@pytest.mark.parametrize("build, field", [
    (_asymmetric_weight, "Q: not symmetric"),
    (_misshapen_path, "B: expected shape"),
    (_short_sample_grid, "A: sample grid [0.0, 0.5] does not span"),
    (_nan_path, "MatrixPath: contains non-finite entries"),
], ids=["asymmetric", "misshapen", "short-grid", "nan"])
def test_problem_is_checked_when_built(build, field):
    """No consumer prices an unchecked problem: an asymmetric Q used to
    build, simulate to 2.0 and pass the QP oracle while only synthesize
    refused it."""
    with pytest.raises(ValidationError) as info:
        build()
    assert any(v.startswith(field) for v in info.value.violations), info.value


def test_only_problem_names_the_violation_collector():
    """Construction is the one place a problem is checked, so no other
    module names the collector or a public ``validate``."""
    package = Path(__file__).resolve().parents[1] / "src" / "mflq"
    offenders = {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=path.name)
        names = {"validate"} | ({"_violations"} if path.name != "problem.py"
                                 else set())
        offenders[path.name] = sorted(
            node.lineno for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and node.id in names)
            or (isinstance(node, (ast.alias, ast.FunctionDef))
                and node.name in names)
            or (isinstance(node, ast.Attribute) and node.attr in names)
            or (isinstance(node, ast.Constant) and node.value in names)
        )
    assert offenders and not any(offenders.values()), offenders


def test_is_homogeneous_and_strip():
    g = TimeGrid(0.0, 1.0, 10)
    p = make_problem(1, 1, g, R=1.0, G=1.0, b=(0.3, 0.0), g0=[0.2])
    assert not p.is_homogeneous
    core = strip_inhomogeneous(p)
    assert core.is_homogeneous
    # idempotent
    assert strip_inhomogeneous(core).is_homogeneous


def test_has_mean_terms():
    g = TimeGrid(0.0, 1.0, 10)
    p = make_problem(1, 1, g, R=1.0, G=1.0)
    assert not p.has_mean_terms
    q = make_problem(1, 1, g, R=1.0, G=1.0, A_bar=0.1)
    assert q.has_mean_terms


def test_paths_are_read_only():
    p = MatrixPath.constant(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        p.values[0, 0] = 1.0


def test_containers_copy_the_callers_arrays():
    """Paths, problems and initial laws keep private copies: the caller's
    arrays stay writable, and writing to them afterwards reaches none of
    the containers."""
    g = TimeGrid(0.0, 1.0, 4)
    A, R, G = np.eye(1), np.ones((1, 1)), np.ones((1, 1))
    R_path = np.ones((5, 1, 1))
    g1 = np.zeros(1)
    const, sampled = MatrixPath.constant(A), MatrixPath.sampled(g, R_path)
    p = make_problem(1, 1, g, A=A, B=1.0, R=R_path, G=G, g=(g1, g1))
    data = replace(p, G=G, g_bar=g1)
    m, c, L = np.zeros(1), np.zeros(1), np.zeros((1, 1))
    law = InitialLaw(m, c, L)
    for arr in (A, R, G, R_path, g1, m, c, L):
        assert arr.flags.writeable
        arr[...] = 7.0
    for kept in (const.values, sampled.values, p.A.values, p.R.values,
                 p.G, p.g1, data.G, data.g_bar):
        assert not np.any(kept == 7.0)
    for kept in (law.mean, law.brownian_load, law.indep_load):
        assert np.all(kept == 0.0)


def test_table_keeps_constant_paths_unexpanded():
    g = TimeGrid(0.0, 1.0, 8)
    p = make_problem(2, 1, g, A=[[0.0, 1.0], [-1.0, 0.0]], R=1.0, G=np.eye(2))
    tab = tabulate(p, g)
    assert tab.node["A"] is p.A.values
    assert tab.mid["A"] is p.A.values
    assert tab.node["A"].shape == (2, 2)
    stack = tab.stack("A")
    assert stack.shape == (9, 2, 2)
    assert not stack.flags.writeable
    np.testing.assert_array_equal(stack[5], p.A.values)


def test_table_averages_midpoints_on_the_sample_grid():
    g = TimeGrid(0.0, 1.0, 4)
    p = make_problem(1, 1, g, A=np.linspace(0, 1, 5).reshape(5, 1, 1), R=1.0)
    tab = tabulate(p, g)
    np.testing.assert_array_equal(tab.node["A"], p.A.values)
    np.testing.assert_array_equal(
        tab.mid["A"][:, 0, 0], [0.125, 0.375, 0.625, 0.875]
    )
    assert tab.stack("A") is tab.node["A"]
    assert not tab.node["A"].flags.writeable


def test_table_interpolates_midpoints_off_the_sample_grid():
    horizon = TimeGrid(0.0, 1.0, 10)
    samples = np.sin(np.linspace(0.0, 3.0, 4)).reshape(4, 1, 1)
    p = make_problem(1, 1, horizon, A=samples, R=1.0)
    assert p.A.grid.n_steps == 3
    tab = tabulate(p, horizon)
    times = horizon.nodes
    mids = 0.5 * (times[:-1] + times[1:])
    np.testing.assert_array_equal(tab.node["A"], sample_path(p.A, times))
    np.testing.assert_array_equal(tab.mid["A"], sample_path(p.A, mids))


def test_table_splits_noise_affine_paths():
    g = TimeGrid(0.0, 1.0, 4)
    b0 = np.arange(5.0).reshape(5, 1)
    p = make_problem(1, 1, g, R=1.0, b=(b0, [0.7]), sigma=(0.2, 0.0))
    tab = tabulate(p, g)
    np.testing.assert_array_equal(tab.node["b0"], b0)
    assert tab.node["b1"] is p.b.noise_part.values
    assert tab.node["sigma0"] is p.sigma.const_part.values
    assert tab.stack("b1").shape == (5, 1)
    np.testing.assert_array_equal(tab.stack("b1")[:, 0], 0.7)
    assert "b" not in tab.node and "G" not in tab.node


def block(rows):
    """np.block of matrix blocks after broadcasting their leading axes."""
    lead = np.broadcast_shapes(*(b.shape[:-2] for row in rows for b in row))
    return np.block([[np.broadcast_to(b, lead + b.shape[-2:]) for b in row]
                     for row in rows])


def hand_maps(samples):
    """F = [A B], G = [C D] and H = [[Q S^T], [S R]] of both channels,
    channel 0 from the plain coefficients and channel 1 from plain + bar."""
    channels = []
    for bar in (False, True):
        def c(name):
            return samples[name] + samples[name + "_bar"] if bar else samples[name]
        channels.append((
            block([[c("A"), c("B")]]),
            block([[c("C"), c("D")]]),
            block([[c("Q"), c("S").swapaxes(-1, -2)], [c("S"), c("R")]]),
        ))
    return tuple(np.stack(pair, axis=-3) for pair in zip(*channels))


def assert_maps(maps, samples, shapes):
    assert [t.shape for t in maps] == shapes
    for got, want in zip(maps, hand_maps(samples)):
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable


def test_table_maps_stack_both_channels_of_the_named_coefficients():
    """A and R are sampled, so F and H are stacked over the points; G = [C D]
    has only constant blocks and stays (2, n, n+m)."""
    p = time_varying_problem()
    tab = tabulate(p, p.horizon)
    K = p.horizon.n_steps
    assert_maps(tab.node_maps, tab.node,
                [(K + 1, 2, 2, 4), (2, 2, 4), (K + 1, 2, 4, 4)])
    assert_maps(tab.mid_maps, tab.mid, [(K, 2, 2, 4), (2, 2, 4), (K, 2, 4, 4)])
    assert tab.node_maps is tab.node_maps


def test_constant_maps_stay_unstacked():
    g = TimeGrid(0.0, 1.0, 20)
    p = make_problem(
        2, 1, g, A=[[0.1, 0.2], [0.0, -0.3]], A_bar=0.1 * np.eye(2),
        B=[[1.0], [0.5]], D_bar=[[0.2], [0.0]], C=0.3 * np.eye(2),
        Q=np.eye(2), S=[[0.1, 0.2]], S_bar=[[0.0, 0.1]], R=2.0, R_bar=0.5,
    )
    tab = tabulate(p, g)
    shapes = [(2, 2, 3), (2, 2, 3), (2, 3, 3)]
    assert_maps(tab.node_maps, tab.node, shapes)
    assert_maps(tab.mid_maps, tab.mid, shapes)


def test_closed_loop_map_is_x_plus_y_k():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((5, 2, 3, 3))
    Y = rng.standard_normal((5, 2, 3, 2))
    K = rng.standard_normal((2, 2, 3))
    got = _closed_loop(np.concatenate((X, Y), axis=-1), K)
    np.testing.assert_allclose(got, X + Y @ K, rtol=1e-14, atol=1e-15)


def test_read_only_view_of_a_read_only_owner_is_kept():
    """A read-only view of a read-only array that owns its data is already
    private, so a container keeps the view itself, without a copy."""
    g = TimeGrid(0.0, 1.0, 4)
    buf = np.array(np.arange(20.0).reshape(2, 5, 2))
    buf.setflags(write=False)
    slab, mean = buf[1], buf[0, 0]
    assert MatrixPath.sampled(g, slab).values is slab
    assert InitialLaw(mean, np.zeros(2), np.eye(2)).mean is mean


def test_read_only_view_of_a_writable_array_is_copied():
    """A view that is read-only but whose owner can still be written is
    copied, so a later write to the owner reaches no container."""
    g = TimeGrid(0.0, 1.0, 4)
    owner = np.arange(20.0).reshape(2, 5, 2)
    view = owner[1]
    view.setflags(write=False)
    path = MatrixPath.sampled(g, view)
    assert not np.shares_memory(path.values, owner)
    owner[...] = 7.0
    np.testing.assert_array_equal(path.values, np.arange(10.0, 20.0).reshape(5, 2))
    assert not path.values.flags.writeable
