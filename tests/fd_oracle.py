"""Banded finite-difference eigensolver: an oracle for the scalar line spectra.

It shares nothing with the Galerkin path except ``op.coefficients``: no
Hermite basis, no Gauss-Legendre plan and no dense eigensolve.  The scalar
operator L[z] = z'''' + c2 z'' + c1 z' + c0 z has c1 = c2', so it is the
self-adjoint form z'''' + (c2 z')' + c0 z, discretised on the box [-w, w]
with hinged ends (z = z'' = 0) by second-order centred differences:

    z''''     ->  (z[i-2] - 4 z[i-1] + 6 z[i] - 4 z[i+1] + z[i+2]) / h^4
    (c2 z')'  ->  (c2[i+1/2] (z[i+1] - z[i]) - c2[i-1/2] (z[i] - z[i-1])) / h^2
    c0 z      ->  c0[i] z[i]

The hinged ghost values z[-1] = -z[1] keep the matrix symmetric and
pentadiagonal, so ``scipy.linalg.eig_banded`` returns the lowest few
eigenvalues without forming a dense matrix.  Two grids whose spacings differ
by a factor 2 are Richardson-extrapolated, which removes the O(h^2) error.

With zero potential (``FreeOperator``) the stencil is diagonal in the sine
basis: on N intervals the box eigenvalues are s^2 + a1 s + a2 with
s = 4 sin^2(k pi / 2N) / h^2, at or above the bottom of the essential
spectrum of the line operator.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from breatherlab import linops

HALF_WIDTH = 40.0
INTERVALS = 4000  # coarse grid of the Richardson pair; the fine one has twice as many


@dataclass(frozen=True)
class FreeOperator(linops.ScalarOperator):
    """The scalar operator with the profile dropped: the constant-coefficient
    operator z'''' - a1 z'' + a2 z, a continuum-spectrum reference."""

    def coefficients(self, x):
        a1, a2 = self.family.a1a2
        return a2, 0.0, -a1


def box_eigenvalues(op, count: int, half_width: float, intervals: int) -> np.ndarray:
    """Lowest ``count`` eigenvalues of the operator on one hinged-box grid."""
    scipy_linalg = pytest.importorskip("scipy.linalg")
    size = intervals - 1
    h = 2.0 * half_width / intervals
    nodes = -half_width + h * np.arange(1, intervals)
    halves = -half_width + h * (np.arange(intervals) + 0.5)
    x = np.concatenate([nodes, halves])
    c0, _, c2 = (np.broadcast_to(c, x.shape) for c in op.coefficients(x))
    c0, c2_half = c0[:size], c2[size:]
    band = np.zeros((3, size))
    band[0] = 6.0 / h**4 - (c2_half[:-1] + c2_half[1:]) / h**2 + c0
    band[0, [0, -1]] -= 1.0 / h**4
    band[1, :-1] = -4.0 / h**4 + c2_half[1:-1] / h**2
    band[2, :-2] = 1.0 / h**4
    return scipy_linalg.eig_banded(
        band, lower=True, eigvals_only=True, select="i", select_range=(0, count - 1)
    )


def lowest_eigenvalues(op, count: int, half_width: float = HALF_WIDTH) -> np.ndarray:
    """Lowest eigenvalues, Richardson-extrapolated from spacings h and h/2."""
    lam_h = box_eigenvalues(op, count, half_width, INTERVALS)
    lam_h2 = box_eigenvalues(op, count, half_width, 2 * INTERVALS)
    return (4.0 * lam_h2 - lam_h) / 3.0


def continuum_edge(alpha: float, beta: float) -> float:
    """Bottom of the essential spectrum: the minimum over xi of the symbol
    (xi^2 - (alpha^2 - beta^2))^2 + 4 alpha^2 beta^2."""
    if alpha <= beta:
        return (alpha**2 + beta**2) ** 2
    return 4.0 * alpha**2 * beta**2
