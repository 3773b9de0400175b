"""One run partition for every batched pass, and one block workspace per pass.

The batched passes walk the grid in runs of at most ``quadrature._RUN``
points: the Riccati node pass and dense output and the propagator runs of
``linear_rk4``, which also give the nodal rate that the noise adjoint's
Hermite midpoints read.  All of them take their runs from
``quadrature._run_slices``, so no other module names ``_RUN``; a lint
below holds that.  The node pass and the dense output each build their
Hamiltonian blocks on one workspace sized to the first run, whose leading
rows the short last run fills.  These tests count the workspaces and the
adjoints' table builds, bound what a synthesis at (n, m) = (20, 10) holds
at its peak, and compare the batched blocks at the run edges with a build
over the whole grid at once on the allocating reference of
``test_riccati_workspace``.
"""

import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mflq import affine, linalg, riccati
from mflq.linalg import _mT, _sym
from mflq.presets import random_spd
from mflq.quadrature import _RUN, _run_slices
from mflq.riccati import dense_midpoints, hermite_midpoints, integrate_gre
from mflq.synthesis import synthesize
from test_nodewise_reference import time_varying_problem
from test_riccati_workspace import (
    allocating_hamiltonian,
    allocating_rate,
    assert_bitwise,
)

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mflq"


def named_runs(tree):
    """(line, name) of every place ``tree`` names ``_RUN``: a name, an
    import, an attribute or a string such as ``getattr`` takes."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "_RUN":
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.alias) and node.name == "_RUN":
            found.append((node.lineno, node.name))
        elif isinstance(node, ast.Attribute) and node.attr == "_RUN":
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Constant) and node.value == "_RUN":
            found.append((node.lineno, node.value))
    return sorted(found)


def test_only_quadrature_names_the_run_length():
    offenders = {
        path.name: named_runs(ast.parse(path.read_text(), filename=path.name))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "quadrature.py"
    }
    assert offenders and not any(offenders.values()), offenders


def test_lint_sees_imports_names_attributes_and_strings():
    tree = ast.parse(
        "from .quadrature import _RUN, rk4_steps\n"
        "from .quadrature import _RUN as R\n"
        'n = quadrature._RUN + _RUN + getattr(quadrature, "_RUN")\n'
        '"""A docstring that mentions _RUN and _RUNS."""\n'
        "_RUNS = _run_slices(n)\n"
    )
    assert named_runs(tree) == [(1, "_RUN"), (2, "_RUN")] + [(3, "_RUN")] * 3


@pytest.mark.parametrize("n_points", [1, 2, 255, 256, 257, 258, 512, 1001])
def test_runs_cut_the_points_in_order(n_points):
    runs = _run_slices(n_points)
    points = [i for run in runs for i in range(n_points)[run]]
    assert points == list(range(n_points))
    lengths = [run.stop - run.start for run in runs]
    assert lengths[:-1] == [_RUN] * (len(runs) - 1)
    assert 1 <= lengths[-1] <= _RUN


def test_synthesis_makes_three_block_workspaces(monkeypatch):
    """At K = 1000 each batched pass has 4 runs, but a synthesis allocates
    one block workspace for the sweep's stages and one for each of the node
    pass and the dense output, each sized to the first run."""
    p, _ = random_spd(0, n=2, m=2, n_steps=1000)
    shapes = []
    builder = riccati._block_builder

    def counting(shape, n):
        shapes.append(shape)
        return builder(shape, n)

    monkeypatch.setattr(riccati, "_block_builder", counting)
    synthesize(p)
    N = p.n + p.m
    assert shapes == [(2, N, N), (_RUN, 2, N, N), (_RUN, 2, N, N)]


def test_adjoints_build_each_table_run_once(monkeypatch):
    """At K = 1000 each adjoint's sweep has 4 runs, and each run builds the
    closed-loop maps of its L and g at the nodes and at the midpoints once:
    32 builds a synthesis.  The noise adjoint's nodal rate comes with its
    sweep; building its node table again for it made 40."""
    p, _ = random_spd(0, n=2, m=2, n_steps=1000)
    builds = []
    closed_loop = affine._closed_loop

    def counting(*args):
        builds.append(None)
        return closed_loop(*args)

    monkeypatch.setattr(affine, "_closed_loop", counting)
    synthesize(p)
    assert len(builds) == 32


def test_synthesis_peak_at_twenty_states_stays_within_four_fifths_again():
    """At (n, m) = (20, 10), K = 1000 the traced peak of a synthesis is at
    most 1.8 times the bytes still held when it returns, its solution.  A
    block workspace allocated afresh for every run made it 1.87."""
    p, _ = random_spd(0, n=20, m=10)
    synthesize(p, n_steps=20)
    tracemalloc.start()
    try:
        sol = synthesize(p, n_steps=1000)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sol.solvable
    assert peak <= 1.8 * held, (peak, held)


def allocating_pass(Y, maps):
    """The linear parts, input weights, cross terms, gains and factor of
    the pair Y, (len, 2, n, n), from blocks built over all its points at
    once by the allocating reference."""
    n = Y.shape[-1]
    Z = allocating_hamiltonian(Y, maps)
    weight = _sym(Z[..., n:, n:])
    cross = Z[..., n:, :n]
    factor = linalg.sym_factor(weight)
    V = factor.eigvecs
    gain = -(V @ (factor.inv[..., None] * (_mT(V) @ cross)))
    return Z[..., :n, :n], weight, cross, gain, factor


PROBLEMS = {
    "random_spd_6_3": lambda: random_spd(0, n=6, m=3)[0],
    "time_varying": time_varying_problem,
}


@pytest.mark.parametrize("case", sorted(PROBLEMS))
@pytest.mark.parametrize("K", [_RUN - 1, _RUN, _RUN + 1])
def test_batched_blocks_at_the_run_edges_match_a_whole_grid_build(case, K):
    """At these K the node pass's last run has _RUN, 1 or 2 points and the
    dense output's _RUN - 1, _RUN or 1: the short last run, filling the
    leading rows of the pass's workspace, gives bitwise the blocks, gains
    and rate of one allocating build over the whole grid."""
    sol = integrate_gre(PROBLEMS[case](), n_steps=K)
    tab = sol.table
    Y = np.stack((sol.P, sol.P_mean), axis=1)
    lin, weight, cross, gain, factor = allocating_pass(Y, tab.node_maps)
    rate = _sym(allocating_rate(lin, cross, factor.inv, factor.eigvecs))
    assert_bitwise(sol.rate, rate)
    for pair, ref in (
        (("input_weight", "input_weight_mean"), weight),
        (("cross_term", "cross_term_mean"), cross),
        (("gain_dev", "gain_mean"), gain),
    ):
        for channel, name in enumerate(pair):
            assert_bitwise(getattr(sol, name), ref[:, channel])

    mids = dense_midpoints(sol)
    Y_mid = hermite_midpoints(Y, rate, sol.grid.h)
    gain_mid = allocating_pass(Y_mid, tab.mid_maps)[3]
    for channel, (P, G) in enumerate((("P", "gain_dev"), ("P_mean", "gain_mean"))):
        assert_bitwise(getattr(mids, P), Y_mid[:, channel])
        assert_bitwise(getattr(mids, G), gain_mid[:, channel])
