"""Trapezoid quadrature plans for line and torus integrals.

Every integral uses the trapezoid rule on N uniform nodes (``TrapezoidPlan``):
on the torus from 0, and on a line window, past whose ends the integrand is
negligible, from the window's left end.  It converges geometrically once N
covers the bandwidth of the integrand (Trefethen and Weideman, SIAM Rev. 56
(2014) 385), and its N nodes are every other one of its 2N, bitwise.
``window_plan`` sizes a line window from the profile's decay rate and the
integrand's top harmonic.  ``checked_integral`` evaluates the integrand once,
on the 2N nodes, and reads the N-node value from the even ones: the drift
between the two levels must stay below a relative 1e-9 or the result is
rejected.  No plan has a default size, and none may exceed ``MAX_NODES``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DRIFT_TOL = 1e-9
# Most nodes a plan may hold.  The largest plan of the presets, the tests and
# the benchmark has 4096, and the sine-Gordon functionals at (beta, v) =
# (0.5, 0.999999) take 108,497.  At this bound a process peaks near 0.29 GB
# in a functional and 0.47 GB in the Weinstein pairing.  A larger plan is
# refused before any node is made.
MAX_NODES = 1 << 18


class QuadratureError(RuntimeError):
    """Raised when node doubling moves an integral by more than the tolerance."""


@dataclass(frozen=True)
class TrapezoidPlan:
    """Periodic trapezoid rule on [start, start + period): equal weights,
    uniform nodes.  The torus starts at 0; a line window whose integrands
    vanish to rounding at both ends is a torus that starts at its left end."""

    period: float
    n_nodes: int
    start: float = 0.0

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError("period must be positive")
        if self.n_nodes < 8:
            raise ValueError("need at least 8 nodes")
        if self.n_nodes > MAX_NODES:
            raise ValueError(
                f"the quadrature plan needs {self.n_nodes} nodes, more than the {MAX_NODES} allowed"
            )

    def nodes_weights(self, refine: int = 1):
        n = self.n_nodes * refine
        x = self.start + np.arange(n) * (self.period / n)
        w = np.full(n, self.period / n)
        return x, w


def window_plan(family, harmonic: float, t: float = 0.0) -> TrapezoidPlan:
    """The window [c - 20/b, c + 20/b) about the envelope centre c at time t,
    where b is the decay rate and a quadratic density is down by e^-40, for
    an integrand whose top harmonic is ``harmonic``.  The coarse step is
    2 pi / K with K = 2 harmonic + 72 b: the profile's complex singularities
    lie pi / (2 b) off the line, and at 48 b instead of 72 b Gardner's F at
    mu = 1 drifts by 9.5e-7."""
    b = family.decay_rate
    band = 2.0 * harmonic + 72.0 * b
    n_nodes = max(8, math.ceil(20.0 * band / (math.pi * b)))
    return TrapezoidPlan(40.0 / b, n_nodes, start=family.envelope_center(t) - 20.0 / b)


def checked_integral(f, plan):
    """Integrate f(x) with the plan and verify stability under node doubling.

    f is evaluated once, on the 2N nodes.  Returns ``(value, drift)``: the
    2N-node value and its change from the N-node one, which is twice the
    even-node sum (the coarse weight is twice the fine one, and scaling by 2
    is exact), relative to max(|values|, 1).  Raises QuadratureError if the
    drift exceeds DRIFT_TOL.
    """
    x, w = plan.nodes_weights(2)
    y = f(x)
    fine, coarse = float(np.dot(w, y)), 2.0 * float(np.dot(w[::2], y[::2]))
    drift = abs(fine - coarse) / max(abs(coarse), abs(fine), 1.0)
    if not (drift <= DRIFT_TOL):
        raise QuadratureError(
            f"quadrature not converged: node doubling moved the integral by {drift:.3e}"
        )
    return fine, drift
