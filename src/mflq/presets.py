"""Built-in problem instances.

Two analytic fixtures and one seeded generator:

* ``example31``: a scalar problem whose deviation-channel input weight is
  identically zero while the mean channel stays well posed.  Its infimum is
  finite and attained against deterministic initial states only, which makes
  it the canonical witness that regularity can fail while a weak value
  exists.
* ``scalar_classic``: the textbook scalar regulator with unit control
  weight and unit terminal weight; every quantity has a closed form, so it
  anchors the analytic tests.
* ``random_spd``: a seeded family of well-posed instances.  The control
  weights are shifted to be at least the identity and the state weights
  dominate the cross terms, which forces both Riccati channels to stay PSD
  and the regularity margin to be large.  Used by the statistical suites.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import ValidationError
from .problem import (
    ControlSpec,
    InitialLaw,
    MatrixPath,
    NoiseAffinePath,
    ProblemData,
    TimeGrid,
    _MEAN_COUPLING,
    make_problem,
)

PRESET_NAMES = ("example31", "scalar_classic", "random_spd")

# The steps of every preset's horizon when the caller names none.
_DEFAULT_STEPS = 1000


def example31(t: float = 0.5, n_steps: int = _DEFAULT_STEPS):
    """Scalar instance with a vanishing deviation-channel input weight.

    Dynamics dX = (u - E[u]) ds + E[u] dW on [t, 1], cost
    E[X(1)^2] + (E[X(1)])^2.  Returns (problem, law) with a deterministic
    unit initial state.
    """
    if not 0.0 <= t < 1.0:
        raise ValueError("example31 needs a start time in [0, 1)")
    horizon = TimeGrid(t, 1.0, n_steps)
    p = make_problem(
        1, 1, horizon,
        B=1.0, B_bar=-1.0, D_bar=1.0,
        G=1.0, G_bar=1.0,
    )
    return p, InitialLaw.deterministic(1.0)


def example31_null_control(t: float = 0.5) -> ControlSpec:
    """The open-loop control that zeroes out example31 from state W(t).

    Paired with the Brownian-loaded initial state xi = W(t), the control
    u(s) = W(t) / (t - 1) (Brownian factor frozen at the start time) drives
    X(s) = W(t) (1 - s) / (1 - t): exactly linear in s, zero at the
    terminal time, zero cost.  No closed-loop strategy achieves this, which
    is the point of the example.
    """
    coeff = 1.0 / (t - 1.0)
    return ControlSpec(
        feedback=MatrixPath.constant(np.zeros((1, 1))),
        mean_feedback=MatrixPath.constant(np.zeros((1, 1))),
        offset=NoiseAffinePath(
            const_part=MatrixPath.constant(np.zeros(1)),
            noise_part=MatrixPath.constant(np.array([coeff])),
            frozen_at_start=True,
        ),
    )


def scalar_classic(n_steps: int = _DEFAULT_STEPS):
    """Scalar regulator dX = u ds, cost integral of u^2 plus X(1)^2 on [0, 1]."""
    horizon = TimeGrid(0.0, 1.0, n_steps)
    p = make_problem(
        1, 1, horizon,
        B=1.0, R=1.0, G=1.0,
    )
    return p, InitialLaw.deterministic(1.0)


def random_spd(
    seed: int,
    n: int = 2,
    m: int = 2,
    n_steps: int = _DEFAULT_STEPS,
    with_bars: bool = True,
    inhomogeneous: bool = True,
):
    """Seeded well-posed instance on the horizon [0.5, 1.5].

    Construction keeps the closed-loop analysis comfortable: R and R + R_bar
    are at least the identity, the state weights dominate the cross terms
    (entries of S are an order of magnitude smaller), and the terminal
    weights are PSD, so both Riccati channels stay PSD and the input weights
    never drop below the identity.  The nonzero start time puts variance on
    the driving Brownian motion at the initial instant, which exercises the
    Brownian loading of the initial law.
    """
    # Checked before the first draw, whose own error would not name the field.
    if n < 1 or m < 1:
        raise ValidationError("dimensions n and m must be positive")
    if not 0 <= seed < 2**64:
        raise ValidationError(f"seed must lie in [0, 2**64), got {seed}")
    rng = np.random.Generator(
        np.random.Philox(key=np.array([np.uint64(seed), np.uint64(0xA11CE)]))
    )
    horizon = TimeGrid(0.5, 1.5, n_steps)

    def u(shape, scale):
        return scale * rng.uniform(-1.0, 1.0, shape)

    def psd(dim, scale, shift=0.0):
        M = rng.uniform(-1.0, 1.0, (dim, dim))
        return scale * (M @ M.T) + shift * np.eye(dim)

    A = u((n, n), 0.4)
    A_bar = u((n, n), 0.2)
    B = u((n, m), 0.4)
    B_bar = u((n, m), 0.2)
    C = u((n, n), 0.2)
    C_bar = u((n, n), 0.1)
    D = u((n, m), 0.2)
    D_bar = u((n, m), 0.1)
    Q = psd(n, 0.3, 0.4)
    Q_bar = psd(n, 0.2)
    S = u((m, n), 0.1)
    S_bar = u((m, n), 0.05)
    R = psd(m, 0.3, 1.0)
    R_bar = psd(m, 0.2)
    G = psd(n, 0.3, 0.2)
    G_bar = psd(n, 0.2)

    b = (u(n, 0.25), u(n, 0.25))
    sigma = (u(n, 0.25), u(n, 0.25))
    q = (u(n, 0.25), u(n, 0.25))
    rho = (u(m, 0.25), u(m, 0.25))
    q_bar = u(n, 0.25)
    rho_bar = u(m, 0.25)
    g0 = u(n, 0.25)
    g1 = u(n, 0.25)
    g_bar = u(n, 0.25)

    mean = u(n, 0.7)
    brownian_load = u(n, 0.4)
    indep_load = u((n, n), 0.35)

    coeffs = dict(
        A=A, A_bar=A_bar, B=B, B_bar=B_bar,
        C=C, C_bar=C_bar, D=D, D_bar=D_bar,
        Q=Q, Q_bar=Q_bar, S=S, S_bar=S_bar, R=R, R_bar=R_bar,
        G=G, G_bar=G_bar,
    )
    if not with_bars:  # after every draw; make_problem zero-fills them
        for name in _MEAN_COUPLING:
            del coeffs[name]
    if inhomogeneous:
        coeffs.update(
            b=b, sigma=sigma, q=q, rho=rho,
            q_bar=q_bar, rho_bar=rho_bar,
            g0=g0, g1=g1, g_bar=g_bar,
        )
    p = make_problem(n, m, horizon, **coeffs)
    law = InitialLaw(mean=mean, brownian_load=brownian_load, indep_load=indep_load)
    return p, law


def get_preset(
    name: str,
    seed: int = 0,
    n: int = 2,
    m: int = 2,
    n_steps: Optional[int] = None,
):
    """Look up a preset by its public name; returns (problem, law)."""
    if n_steps is None:
        n_steps = _DEFAULT_STEPS
    if name == "example31":
        return example31(n_steps=n_steps)
    if name == "scalar_classic":
        return scalar_classic(n_steps=n_steps)
    if name == "random_spd":
        return random_spd(seed, n=n, m=m, n_steps=n_steps)
    raise ValueError(
        f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
    )
