"""The one RK4 stepper: step order, exactness on cubics, and ``post``."""

import numpy as np
import pytest

from mflq.problem import TimeGrid
from mflq.quadrature import rk4_steps


def cubic(s):
    return np.array([1.0 - 2.0 * s + 3.0 * s**2 - 4.0 * s**3, 0.5 * s**3])


def antiderivative(s):
    return np.array([s - s**2 + s**3 - s**4, 0.125 * s**4])


def midpoints(grid):
    return 0.5 * (grid.nodes[:-1] + grid.nodes[1:])


@pytest.mark.parametrize("backward", [False, True])
def test_cubic_quadrature_is_simpson_and_exact(backward):
    """With a right-hand side free of y, each step is Simpson's rule."""
    grid = TimeGrid(0.25, 1.75, 12)
    nodes, mids = grid.nodes, midpoints(grid)
    first = grid.n_steps if backward else 0
    start = antiderivative(nodes[first])
    steps = list(
        rk4_steps(
            grid,
            lambda y, k: cubic(nodes[k]),
            lambda y, i: cubic(mids[i]),
            start,
            backward=backward,
        )
    )
    order = range(grid.n_steps - 1, -1, -1) if backward else range(1, grid.n_steps + 1)
    assert [j for j, _ in steps] == list(order)
    for j, y in steps:
        np.testing.assert_allclose(y, antiderivative(nodes[j]), rtol=0, atol=1e-14)


@pytest.mark.parametrize("backward", [False, True])
def test_post_maps_each_value_before_the_next_step(backward):
    grid = TimeGrid(0.0, 1.0, 7)
    nodes, mids = grid.nodes, midpoints(grid)

    def f(y, s):
        return s - y * y

    def post(y):
        return y / (1.0 + np.abs(y))

    start = np.array([0.3, -1.2])
    got = list(
        rk4_steps(
            grid,
            lambda y, k: f(y, nodes[k]),
            lambda y, i: f(y, mids[i]),
            start,
            backward=backward,
            post=post,
        )
    )

    dt = -grid.h if backward else grid.h
    y = start
    ks = range(grid.n_steps, 0, -1) if backward else range(grid.n_steps)
    expected = []
    for k in ks:
        j = k - 1 if backward else k + 1
        s_mid = mids[min(k, j)]
        f1 = f(y, nodes[k])
        f2 = f(y + 0.5 * dt * f1, s_mid)
        f3 = f(y + 0.5 * dt * f2, s_mid)
        f4 = f(y + dt * f3, nodes[j])
        y = post(y + (dt / 6.0) * (f1 + 2 * f2 + 2 * f3 + f4))
        expected.append((j, y))

    assert [j for j, _ in got] == [j for j, _ in expected]
    for (_, a), (_, b) in zip(got, expected):
        np.testing.assert_array_equal(a, b)
