"""Linearized operators around the breather profiles and their quadratic forms.

Each operator is written once, as a table of terms (row slot, column slot,
derivative order, coefficient) that ``terms(c)`` builds from the grids
``c = coefficients(x)`` of the frozen profile snapshot, over ``slots`` field
slots.  ``apply`` (from ``jets``) sums a table on the fields' derivative
grids, and the Galerkin projection builds its blocks from the same table.
Scalar families share one fourth-order template

    L[z] = z_4x + c2(x) z_xx + c1(x) z_x + c0(x) z;

the wave-equation family has two slots (fourth order on the first, second
order on the second, first-order couplers).  All operators are formally
self-adjoint: c1 = c2' for the scalar template, and the two couplers are
mutual adjoints.

A direction is given by its derivative grids: z = (z, z', z'', ...) on
the first slot and w = (w, w', ...) on the second, the form
``sg_scaling_direction`` returns.  Quadratic forms have two routes: the
operator applied under the integral by ``apply`` (needs four derivatives of
z) and the integrated-by-parts density ``quadratic_density`` (needs two),
which a caller integrates on its own plan.  The routes agree for decaying
fields, which the tests check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import breathers, quadrature, stability
from .jets import apply
from .quadrature import window_plan


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarOperator:
    """Fourth-order linearization of a scalar family's stationary equation,
    the second variation of H = F + a1 E + a2 M.

    The multipliers (a1, a2) are the family's ``a1a2`` and the Gardner
    coefficient q is its ``quadratic`` (q = 0 for mKdV).
    """

    family: object
    slots = 1

    def coefficients(self, x):
        """(c0, c1, c2) grids: c_r multiplies the r-th derivative; the
        leading coefficient, of z_4x, is identically 1."""
        x = np.asarray(x, dtype=float)
        a1, a2 = self.family.a1a2
        q = self.family.quadratic
        f = self.family.eval(0.0, x, deg=2)
        B, Bx, Bxx = f.value, f.partial(nx=1), f.partial(nx=2)
        # at q = 0 (mKdV) each q-term adds an exact zero
        c2 = -a1 + 5.0 * B**2 + (10.0 / 3.0) * q * B
        c1 = 10.0 * B * Bx + (10.0 / 3.0) * q * Bx
        c0 = a2 + 5.0 * Bx**2 + 10.0 * B * Bxx + 7.5 * B**4 - 3.0 * a1 * B**2 + q * (
            10.0 * B**3 - 2.0 * a1 * B + (10.0 / 3.0) * Bxx + (10.0 / 3.0) * q * B**2
        )
        return c0, c1, c2

    @staticmethod
    def terms(c):
        """L[z] = z_4x + c2 z_xx + c1 z_x + c0 z."""
        c0, c1, c2 = c
        return [(0, 0, 4, 1.0), (0, 0, 2, c2), (0, 0, 1, c1), (0, 0, 0, c0)]


@dataclass(frozen=True)
class SgBlockOperator:
    """2x2 block operator: fourth order on z, second order on w, coupled."""

    family: object
    slots = 2

    def coefficients(self, x):
        """Profile fields (B, Bx, Bxx, Bt, Btx, cos, sin) and the operator's
        coefficient grids, from one evaluation of the profile."""
        f = self.family.eval(0.0, np.asarray(x, dtype=float), deg=2)
        u, Bx, Bxx = f.value, f.partial(nx=1), f.partial(nx=2)
        Bt, Btx = f.partial(nt=1), f.partial(nt=1, nx=1)
        cu, su = np.cos(u), np.sin(u)
        a, b = self.family.a, self.family.b
        grad2 = Bx**2 + Bt**2
        return {
            "B": u, "Bx": Bx, "Bxx": Bxx, "Bt": Bt, "Btx": Btx, "cos": cu, "sin": su,
            "l1_2": -(a - (3.0 / 8.0) * grad2 + 1.25 * cu),
            "l1_1": 0.75 * (Bx * Bxx + Bt * Btx) + 1.25 * su * Bx,
            "l1_0": a * cu
            + (5.0 / 8.0) * Bx**2 * cu
            + 1.25 * Bxx * su
            + 0.25 * np.cos(2.0 * u)
            - Bt**2 * cu / 8.0,
            "l2_0": a + 0.25 * cu - (3.0 / 8.0) * grad2,
            "b1_0": 0.25 * (3.0 * Btx * Bx + 3.0 * Bt * Bxx - Bt * su),
            "b1_1": 0.25 * (3.0 * Bt * Bx - 2.0 * b),
            "b2_1": 0.5 * (b - 1.5 * Bt * Bx),
            "b2_0": -0.25 * Bt * su,
        }

    @staticmethod
    def terms(c):
        """Rows (L1 z + B1 w, B2 z + L2 w)."""
        return [(0, 0, 4, 1.0), (0, 0, 2, c["l1_2"]), (0, 0, 1, c["l1_1"]), (0, 0, 0, c["l1_0"]),
                (0, 1, 0, c["b1_0"]), (0, 1, 1, c["b1_1"]),
                (1, 0, 1, c["b2_1"]), (1, 0, 0, c["b2_0"]), (1, 1, 2, -1.0), (1, 1, 0, c["l2_0"])]

    def quadratic_density(self, x, z, w):
        """Integrand of the integrated-by-parts route: only two derivatives
        of z, one of w."""
        c = self.coefficients(x)
        cross = (self.family.b - 1.5 * c["Bt"] * c["Bx"]) * z[1] * w[0]
        cross = cross - 0.5 * c["Bt"] * c["sin"] * z[0] * w[0]
        return (z[2] ** 2 + w[1] ** 2 - c["l1_2"] * z[1] ** 2 + c["l1_0"] * z[0] ** 2
                + c["l2_0"] * w[0] ** 2 + cross)


def operator_for(family, t: float = 0.0):
    """Linearization of a breather's stationary equation about its normal
    form at time t."""
    nf = breathers.normal_form(family, t)
    return (SgBlockOperator if isinstance(nf, breathers.WaveFamily) else ScalarOperator)(nf)


# ---------------------------------------------------------------------------
# scaling directions and identity checks
# ---------------------------------------------------------------------------


def sg_scaling_direction(family, x, deg: int = 2):
    """(dB/dbeta, dB_t/dbeta) derivative grids: x-derivatives of orders
    0..deg and 0..deg-1, from the degree-``deg`` jet of the family's
    closed-form beta-partial.  The pairing's density reads z, z', z'' and
    w, w', so it takes the default 2; the applied operator needs 4.

    The shift and velocity parameters stay fixed while every derived
    constant follows the scaling.
    """
    d = family.beta_partial(0.0, x, deg=deg)
    return (tuple(d.partial(nx=j) for j in range(deg + 1)),
            tuple(d.partial(nt=1, nx=j) for j in range(deg)))


def sg_variational_direction_residual(family) -> float:
    """Componentwise defect of L[(B0, B0t)] = (A, At) for the scaled scaling
    direction (B0, B0t) = -(1/2 beta)(dB/dbeta, dB_t/dbeta), with
    A = (1+v^2)(sin B - B_xx) + 2 v B_tx and At = (1+v^2) B_t - 2 v B_x,
    on 301 points of |x| <= 25 / beta.
    """
    x = np.linspace(-25.0 / family.beta, 25.0 / family.beta, 301)
    op = operator_for(family)
    fam = op.family
    z, w = sg_scaling_direction(fam, x, deg=4)
    s = -0.5 / fam.beta
    z = tuple(s * zi for zi in z)
    w = tuple(s * wi for wi in w)
    f = op.coefficients(x)
    row1, row2 = apply(op.terms(f), z, w)
    v = fam.v
    a_row = (1.0 + v**2) * (f["sin"] - f["Bxx"]) + 2.0 * v * f["Btx"]
    at_row = (1.0 + v**2) * f["Bt"] - 2.0 * v * f["Bx"]
    return float(max(np.max(np.abs(row1 - a_row)), np.max(np.abs(row2 - at_row))))


def sg_scaling_quadratic_form(family) -> float:
    """Q[dB/dbeta, dB_t/dbeta] by the integrated-by-parts route, verified by
    node doubling; equals -32 (1 + 3 v^2) beta for every breather.  The
    density is quadratic in the direction, so its top harmonic is 4 wavenumber."""
    op = operator_for(family)

    def density(x):
        return op.quadratic_density(x, *sg_scaling_direction(op.family, x))

    return quadrature.checked_integral(density, window_plan(op.family, 4.0 * op.family.wavenumber))[0]


# ---------------------------------------------------------------------------
# periodic analog of the inverse scaling direction
# ---------------------------------------------------------------------------


def kksh_inverse_direction_residual(beta: float, k: float) -> float:
    """Max defect of L[B0] = -B, on 200 points of one period, for the
    discriminant-normalised direction built from the two parameter
    derivatives of the periodic profile."""
    family = breathers.KkshBreather(beta=beta, k=k)
    x = np.linspace(0.0, family.period, 200, endpoint=False)
    # the k-partial follows the constrained solution family (m moves with k
    # along the period lock), and so do the coefficient partials
    dk, db = family.parameter_partials(x, deg=5)
    d, _ = stability.discriminant_and_hg(beta, k, constraint="resolved")
    _, grad_b, grad_k = stability.coefficient_gradients(family.pair, "resolved")
    da1_db, da1_dk = grad_b[0], grad_k[0]
    b0 = tuple((da1_dk * db.partial(nx=j + 1) - da1_db * dk.partial(nx=j + 1)) / d for j in range(5))
    op = operator_for(family)
    (image,) = apply(op.terms(op.coefficients(x)), b0)
    B = family.eval(0.0, x, deg=0).value
    return float(np.max(np.abs(image + B)))
