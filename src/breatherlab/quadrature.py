"""Quadrature plans for line and torus integrals.

No plan has a default size.  The functional and Weinstein line integrals use
composite Gauss-Legendre panels on a window around the envelope centre;
``line_plan`` sizes it from the integrand's decay rate (20 decay lengths,
where a quadratic density is down by e^-40) and its wavenumber
(``panel_order``).  Torus integrals, and the Galerkin line integrals on a
window past which every integrand is negligible, use the trapezoid rule on
N uniform nodes from the window's left end (``TorusPlan``); it converges
geometrically once N covers the bandwidth the sum reads (Trefethen and
Weideman, SIAM Rev. 56 (2014) 385), and its N nodes are every other one of
its 2N, bitwise.  Every plan doubles its node count at ``nodes_weights(2)``,
and ``checked_integral`` uses that to verify convergence: the drift between
the two levels must stay below a relative 1e-9 or the result is rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

DRIFT_TOL = 1e-9
# width of a Gauss-Legendre panel of a line plan at refine = 1
PANEL_WIDTH = 0.5


class QuadratureError(RuntimeError):
    """Raised when node doubling moves an integral by more than the tolerance."""


@lru_cache(maxsize=64)
def _gauss_unit(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def gauss_panels(a: float, b: float, n_panels: int, order: int):
    """Composite Gauss-Legendre nodes and weights on [a, b]."""
    xi, wi = _gauss_unit(order)
    edges = np.linspace(a, b, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    x = (mid[:, None] + half[:, None] * xi[None, :]).ravel()
    w = (half[:, None] * wi[None, :]).ravel()
    return x, w


def panel_order(wavenumber: float, decay_rate: float) -> int:
    """Nodes per Gauss-Legendre panel for an integrand that oscillates at
    ``wavenumber`` and decays like exp(-decay_rate |x|): about a third of the
    phase a panel spans, plus 8 margin nodes once for each half decay length
    the panel spans (at least once), and at least 10 in all.  The Gauss error
    on e^{ikx} falls once p passes e k h / 8 on a panel of width h, and the
    profile's complex singularities lie pi / (2 decay_rate) off the line."""
    oscillation = math.ceil(PANEL_WIDTH * wavenumber / 3.0)
    margin = math.ceil(8.0 * max(1.0, 2.0 * PANEL_WIDTH * decay_rate))
    return max(10, oscillation + margin)


@dataclass(frozen=True)
class LinePlan:
    """Truncated-line quadrature: Gauss-Legendre panels of ``order`` nodes
    and width PANEL_WIDTH / refine on [c-X, c+X]."""

    center: float
    half_width: float
    order: int

    def __post_init__(self):
        if self.half_width <= 0:
            raise ValueError("half_width must be positive")

    def nodes_weights(self, refine: int = 1):
        a = self.center - self.half_width
        b = self.center + self.half_width
        n_panels = max(2, math.ceil((b - a) / (PANEL_WIDTH / refine)))
        return gauss_panels(a, b, n_panels, self.order)


def line_plan(family, wavenumber: float, t: float = 0.0) -> LinePlan:
    """Half width 20 / decay_rate about the envelope centre at time t."""
    b = family.decay_rate
    return LinePlan(family.envelope_center(t), 20.0 / b, panel_order(wavenumber, b))


@dataclass(frozen=True)
class TorusPlan:
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

    def nodes_weights(self, refine: int = 1):
        n = self.n_nodes * refine
        x = self.start + np.arange(n) * (self.period / n)
        w = np.full(n, self.period / n)
        return x, w


def checked_integral(f, plan):
    """Integrate f(x) with the plan and verify stability under node doubling.

    Returns ``(value, drift)`` where drift is the relative change when the
    node count doubles.  Raises QuadratureError if the drift exceeds DRIFT_TOL.
    """
    (x1, w1), (x2, w2) = plan.nodes_weights(1), plan.nodes_weights(2)
    v1, v2 = float(np.dot(w1, f(x1))), float(np.dot(w2, f(x2)))
    scale = max(abs(v1), abs(v2), 1.0)
    drift = abs(v2 - v1) / scale
    if not (drift <= DRIFT_TOL):
        raise QuadratureError(
            f"quadrature not converged: node doubling moved the integral by {drift:.3e}"
        )
    return v2, drift
