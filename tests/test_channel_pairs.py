"""Each channel pair of a synthesis is held once, in one channel-major buffer.

``integrate_gre`` and ``dense_midpoints`` write the deviation and mean
channels of each pair (the Riccati matrices, input weights, cross terms and
gains) into one read-only (2, K+1, ...) buffer, so each field is a
contiguous slab of it, and the passes that read a pair take each channel
from its own field.  These tests bound what a synthesis holds at its peak
against what it returns, check that the strategy shares the solver's
gains, and check that no pass relies on that layout: a solution whose
channels are strided node-major views, or two separate arrays, gives
bitwise the same outputs.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mflq.affine import solve_affine
from mflq.presets import example31, random_spd
from mflq.problem import InitialLaw
from mflq.riccati import assess_regularity, dense_midpoints
from mflq.synthesis import synthesize, value
from test_nodewise_reference import time_varying_problem

PAIRS = (
    ("P", "P_mean"),
    ("input_weight", "input_weight_mean"),
    ("cross_term", "cross_term_mean"),
    ("gain_dev", "gain_mean"),
)


def test_synthesis_peak_stays_within_half_again_its_solution():
    """At (n, m) = (10, 5), K = 4000 the traced peak of a synthesis is at
    most 1.5 times the bytes still held when it returns, its solution.
    Stacking the pairs and splitting them into copies made it 1.98."""
    p, _ = random_spd(0, n=10, m=5)
    synthesize(p, n_steps=20)
    tracemalloc.start()
    try:
        sol = synthesize(p, n_steps=4000)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sol.solvable
    assert peak <= 1.5 * held, (peak, held)


def test_channels_are_read_only_slabs_of_one_buffer():
    p, _ = random_spd(1, n=3, m=2, n_steps=300)
    sol = synthesize(p)
    mids = dense_midpoints(sol.gre)
    for owner, pairs in ((sol.gre, PAIRS), (mids, PAIRS[::3])):
        for first, second in pairs:
            a, b = getattr(owner, first), getattr(owner, second)
            assert a.flags.c_contiguous and b.flags.c_contiguous
            assert not (a.flags.writeable or b.flags.writeable)
            assert a.base is b.base and not a.base.flags.writeable
            assert a.base.shape == (2,) + a.shape


def test_strategy_shares_the_solvers_gains():
    sol = synthesize(random_spd(2, n=4, m=2, n_steps=200)[0])
    assert np.shares_memory(sol.strategy.feedback.values, sol.gre.gain_dev)
    offset = sol.strategy.offset
    assert np.shares_memory(offset.const_part.values, sol.affine.corrections.corr_mean)
    assert np.shares_memory(offset.noise_part.values, sol.affine.corrections.corr_noise)


def strided_channels(gre):
    """``gre`` with each pair's channels as strided views of one node-major
    (K+1, 2, ...) array, as ``tests/test_riccati_reference.py`` builds them."""
    fields = {}
    for first, second in PAIRS:
        pair = np.stack((getattr(gre, first), getattr(gre, second)), axis=1)
        fields[first], fields[second] = pair[:, 0], pair[:, 1]
    return replace(gre, **fields)


def separate_channels(gre):
    """``gre`` with every channel a contiguous array of its own."""
    return replace(gre, **{
        name: np.array(getattr(gre, name)) for pair in PAIRS for name in pair
    })


CASES = {
    "time_varying": (time_varying_problem(), InitialLaw.deterministic([1.0, -0.5])),
    "random_spd_6x3": random_spd(0, n=6, m=3, n_steps=300),
    "example31": example31(n_steps=300),
}


@pytest.mark.parametrize("layout", [strided_channels, separate_channels])
@pytest.mark.parametrize("case", sorted(CASES))
def test_passes_read_any_channel_layout_bitwise(case, layout):
    p, law = CASES[case]
    sol = synthesize(p)
    gre = layout(sol.gre)

    mids, want = dense_midpoints(gre), dense_midpoints(sol.gre)
    for name in ("P", "P_mean", "gain_dev", "gain_mean"):
        np.testing.assert_array_equal(getattr(mids, name), getattr(want, name))

    rep = assess_regularity(gre)
    assert rep.conditions == sol.gre.report.conditions

    aff = solve_affine(p, gre)
    for name in ("adjoint_noise", "adjoint_mean"):
        np.testing.assert_array_equal(getattr(aff, name), getattr(sol.affine, name))
    got, ref = aff.corrections, sol.affine.corrections
    np.testing.assert_array_equal(got.corr_noise, ref.corr_noise)
    np.testing.assert_array_equal(got.corr_mean, ref.corr_mean)
    assert got.conditions == ref.conditions

    assert value(replace(sol, gre=gre, affine=aff), law) == value(sol, law)
