"""Closed-loop strategy assembly and the associated value functional.

A problem is closed-loop solvable on its horizon when the Riccati pair is
regular (both input weights PSD, both cross terms range-feasible, gains
square integrable) and the affine offsets are attainable at every node.  In
that case the synthesized strategy is optimal and the value below is the
optimal cost.  When solvability fails the same number is still reported,
labelled as a candidate for the weak (infimum) value, since for some
problems the infimum is finite yet not attained.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .affine import AffineSolution, solve_affine
from .problem import (
    ControlSpec,
    InitialLaw,
    MatrixPath,
    NoiseAffinePath,
    ProblemData,
    TimeGrid,
    _check_law_dim,
)
from .quadrature import trapezoid
from .riccati import GreSolution, integrate_gre


@dataclass(frozen=True)
class ClosedLoopSolution:
    """Bundle of everything the synthesis produced for one problem.

    The grid and the three flags are read off ``gre`` and ``affine``, so a
    solution rebuilt with other parts (``dataclasses.replace``) reports
    the flags of those parts.
    """

    problem: ProblemData
    gre: GreSolution
    affine: AffineSolution
    strategy: ControlSpec

    @property
    def grid(self) -> TimeGrid:
        return self.gre.grid

    @property
    def regular(self) -> bool:
        """The Riccati pair's regularity, from its report."""
        return self.gre.report.regular

    @property
    def feasible(self) -> bool:
        """Whether the affine offsets meet their constraints."""
        return self.affine.feasible

    @property
    def solvable(self) -> bool:
        """Closed-loop solvability: a regular pair and feasible offsets."""
        return self.regular and self.feasible


def synthesize(p: ProblemData, n_steps: Optional[int] = None) -> ClosedLoopSolution:
    """Run the full pipeline: Riccati pair, adjoints, offsets, strategy."""
    return closed_loop(p, integrate_gre(p, n_steps=n_steps))


def closed_loop(p: ProblemData, gre: GreSolution) -> ClosedLoopSolution:
    """Adjoints, offsets and strategy on an integrated Riccati pair of ``p``.

    The strategy applies the deviation gain to the state, the difference
    (mean gain - deviation gain) to the state mean, and adds the affine
    offset whose noise part rides the running Brownian value.  It is
    assembled even when the problem is not solvable, in which case it is a
    formal candidate only.
    """
    aff = solve_affine(p, gre)
    grid = gre.grid
    # Read-only and owning its data, so the path keeps it without a copy.
    gain_gap = gre.gain_mean - gre.gain_dev
    gain_gap.setflags(write=False)
    strategy = ControlSpec(
        feedback=MatrixPath.sampled(grid, gre.gain_dev),
        mean_feedback=MatrixPath.sampled(grid, gain_gap),
        offset=NoiseAffinePath(
            const_part=MatrixPath.sampled(grid, aff.corrections.corr_mean),
            noise_part=MatrixPath.sampled(grid, aff.corrections.corr_noise),
        ),
    )
    return ClosedLoopSolution(problem=p, gre=gre, affine=aff, strategy=strategy)


def value(sol: ClosedLoopSolution, law: InitialLaw) -> float:
    """Cost of the synthesized strategy started from the given initial law.

    Closed form in the Riccati/adjoint data; the only numerics is a
    trapezoid rule over the synthesis grid.  Second moments of the driving
    Brownian motion enter through absolute time (the motion starts at time
    zero even when the horizon starts later), which is also how the initial
    law's Brownian loading contributes t * outer(c, c) to the covariance.

    When ``sol.solvable`` is false the returned number is the weak-value
    candidate rather than an attained optimum.  A law whose dimension is
    not the state's raises ValidationError.
    """
    _check_law_dim(law, sol.problem.n)
    gre = sol.gre
    aff = sol.affine
    grid = sol.grid
    times = grid.nodes
    t0 = grid.t0

    mean = law.mean
    c = law.brownian_load
    cov0 = law.covariance(t0)

    head = float(
        np.trace(gre.P[0] @ cov0)
        + 2.0 * t0 * (aff.adjoint_noise[0] @ c)
        + mean @ (gre.P_mean[0] @ mean)
        + 2.0 * (aff.adjoint_mean[0] @ mean)
    )

    tab = gre.table
    s0_n, s1_n = tab.stack("sigma0"), tab.stack("sigma1")
    b0_n, b1_n = tab.stack("b0"), tab.stack("b1")

    e1 = aff.adjoint_noise
    ebar = aff.adjoint_mean
    phi1 = aff.corrections.corr_noise
    phib = aff.corrections.corr_mean

    integrand = (
        np.einsum("kij,ki,kj->k", gre.P, s0_n, s0_n)
        + times * np.einsum("kij,ki,kj->k", gre.P, s1_n, s1_n)
        + 2.0 * times * np.einsum("ki,ki->k", e1, b1_n)
        + 2.0 * np.einsum("ki,ki->k", e1, s0_n)
        + 2.0 * np.einsum("ki,ki->k", ebar, b0_n)
        - times * np.einsum("kij,ki,kj->k", gre.input_weight, phi1, phi1)
        - np.einsum("kij,ki,kj->k", gre.input_weight_mean, phib, phib)
    )
    return head + float(trapezoid(integrand, grid.h))
