"""Composite Gauss-Legendre panels: a rule independent of the program's
trapezoid plans, for checking its sums.

``LegendrePlan`` has the plans' ``nodes_weights(refine)``: panels of width
PANEL_WIDTH / refine on [center - half_width, center + half_width].
``panel_order`` resolves an integrand that oscillates at ``wavenumber`` and
decays like exp(-decay_rate |x|): about a third of the phase a panel spans
(the Gauss error on e^{ikx} falls once p passes e k h / 8), plus 8 nodes
once for each half decay length the panel spans (at least once), and at
least 10 in all.
"""

import math
from dataclasses import dataclass

import numpy as np

PANEL_WIDTH = 0.5


def panel_order(wavenumber: float, decay_rate: float) -> int:
    oscillation = math.ceil(PANEL_WIDTH * wavenumber / 3.0)
    margin = math.ceil(8.0 * max(1.0, 2.0 * PANEL_WIDTH * decay_rate))
    return max(10, oscillation + margin)


@dataclass(frozen=True)
class LegendrePlan:
    center: float
    half_width: float
    order: int

    def nodes_weights(self, refine: int = 1):
        xi, wi = np.polynomial.legendre.leggauss(self.order)
        n_panels = max(2, math.ceil(2.0 * self.half_width / (PANEL_WIDTH / refine)))
        edges = np.linspace(self.center - self.half_width, self.center + self.half_width, n_panels + 1)
        mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
        return (mid[:, None] + half[:, None] * xi).ravel(), (half[:, None] * wi).ravel()
