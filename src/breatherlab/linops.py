"""Linearized operators around the breather profiles and their quadratic forms.

Scalar families share one fourth-order template

    L[z] = z_4x + c2(x) z_xx + c1(x) z_x + c0(x) z,

whose coefficients come from the frozen profile snapshot; the wave-equation
family gets the 2x2 block operator (fourth order on the first slot, second
order on the second, first-order couplers).  All operators are formally
self-adjoint: c1 = c2' for the scalar template, and the two couplers are
mutual adjoints.

Quadratic forms are offered through two routes: applying the operator under
the integral (needs four derivatives of the test field) and the
integrated-by-parts expression (needs two).  The routes agree for decaying
fields, which is one of the module's self-checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import breathers
from .quadrature import LinePlan


# ---------------------------------------------------------------------------
# scalar operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarOperator:
    """Fourth-order linearization of a scalar family's stationary equation,
    the second variation of H = F + a1 E + a2 M.

    The multipliers (a1, a2) are the family's ``a1a2`` and the Gardner
    coefficient q is its ``quadratic`` (q = 0 for mKdV).  ``zero_potential``
    drops the profile, leaving the constant-coefficient operator (useful as a
    continuum-spectrum reference).
    """

    family: object
    zero_potential: bool = False

    @property
    def domain(self) -> str:
        return self.family.domain

    def coefficients(self, x):
        """(c0, c1, c2) grids: c_r multiplies the r-th derivative in ``apply``;
        the leading coefficient, of z_4x, is identically 1."""
        x = np.asarray(x, dtype=float)
        a1, a2 = self.family.a1a2
        if self.zero_potential:
            zero = np.zeros_like(x)
            return a2 + zero, zero.copy(), -a1 + zero
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

    def apply(self, x, z):
        """Pointwise L[z] from the derivative grids z = (z, z', ..., z'''')."""
        if len(z) < 5:
            raise ValueError("insufficient jet degree: scalar operator needs 4 derivatives")
        out = z[4]
        for r, c in reversed(list(enumerate(self.coefficients(x)))):
            out = out + c * z[r]
        return out

    def quadratic_form(self, x, w_quad, z):
        """integral of z L[z] by direct application."""
        return float(np.dot(w_quad, z[0] * self.apply(x, z)))


def scalar_operator(family, t: float = 0.0, zero_potential: bool = False) -> ScalarOperator:
    """Linearization of a scalar breather's stationary equation about its
    normal form at time t."""
    if family.kind not in ("mkdv", "gardner", "kksh"):
        raise ValueError(f"no linearized operator for family kind {family.kind!r}")
    return ScalarOperator(breathers.normal_form(family, t), zero_potential)


# ---------------------------------------------------------------------------
# wave-equation block operator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SgBlockOperator:
    """2x2 block operator: fourth order on z, second order on w, coupled."""

    family: object

    domain: str = "line"

    def coefficients(self, x):
        """Profile fields (B, Bx, Bxx, Bt, Btx, cos, sin) and the operator's
        coefficient grids, from one evaluation of the profile."""
        pair = self.family.eval(0.0, np.asarray(x, dtype=float), deg=2)
        B, Bt = pair.b, pair.bt
        u, Bx, Bxx, Bt, Btx = B.value, B.partial(nx=1), B.partial(nx=2), Bt.value, Bt.partial(nx=1)
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

    def apply(self, x, z, w):
        """Row values (L1 z + B1 w, B2 z + L2 w) on the grid."""
        return self.rows(self.coefficients(x), z, w)

    def rows(self, c, z, w):
        """Row values (L1 z + B1 w, B2 z + L2 w) from the coefficient grids
        ``c = coefficients(x)``; a slot given as scalar zeros drops out."""
        if len(z) < 5 or len(w) < 3:
            raise ValueError(
                "insufficient jet degree: block operator needs (4, 2) derivatives"
            )
        row1 = (
            z[4]
            + c["l1_2"] * z[2]
            + c["l1_1"] * z[1]
            + c["l1_0"] * z[0]
            + c["b1_0"] * w[0]
            + c["b1_1"] * w[1]
        )
        row2 = c["b2_1"] * z[1] + c["b2_0"] * z[0] - w[2] + c["l2_0"] * w[0]
        return row1, row2

    def quadratic_form_apply(self, x, w_quad, z, w):
        row1, row2 = self.apply(x, z, w)
        return float(np.dot(w_quad, z[0] * row1 + w[0] * row2))

    def quadratic_form(self, x, w_quad, z, w):
        """Integrated-by-parts route: only two derivatives of z, one of w."""
        c = self.coefficients(x)
        cross = (self.family.b - 1.5 * c["Bt"] * c["Bx"]) * z[1] * w[0]
        cross = cross - 0.5 * c["Bt"] * c["sin"] * z[0] * w[0]
        vals = (
            z[2] ** 2
            + w[1] ** 2
            - c["l1_2"] * z[1] ** 2
            + c["l1_0"] * z[0] ** 2
            + c["l2_0"] * w[0] ** 2
            + cross
        )
        return float(np.dot(w_quad, vals))


def sg_operator(family, t: float = 0.0) -> SgBlockOperator:
    return SgBlockOperator(breathers.normal_form(family, t))


def operator_for(family, t: float = 0.0):
    if family.kind == "sg":
        return sg_operator(family, t)
    return scalar_operator(family, t)


# ---------------------------------------------------------------------------
# scaling directions and identity checks
# ---------------------------------------------------------------------------


def sg_scaling_direction(family, x):
    """(dB/dbeta, dB_t/dbeta) derivative grids: x-derivatives of orders 0..4
    and 0..3, from the jet of the family's closed-form beta-partial.

    The shift and velocity parameters stay fixed while every derived
    constant follows the scaling.
    """
    d = family.beta_partial(0.0, x, deg=4)
    return tuple(d.partial(nx=j) for j in range(5)), tuple(d.partial(nt=1, nx=j) for j in range(4))


def sg_variational_direction_residual(family, x=None) -> float:
    """Componentwise defect of L[(B0, B0t)] = (A, At) for the scaled scaling
    direction (B0, B0t) = -(1/2 beta)(dB/dbeta, dB_t/dbeta), with
    A = (1+v^2)(sin B - B_xx) + 2 v B_tx and At = (1+v^2) B_t - 2 v B_x.
    """
    if x is None:
        x = np.linspace(-25.0 / family.beta, 25.0 / family.beta, 301)
    op = sg_operator(family)
    fam = op.family
    z, w = sg_scaling_direction(fam, x)
    s = -0.5 / fam.beta
    z = tuple(s * zi for zi in z)
    w = tuple(s * wi for wi in w)
    f = op.coefficients(x)
    row1, row2 = op.rows(f, z, w)
    v = fam.v
    a_row = (1.0 + v**2) * (f["sin"] - f["Bxx"]) + 2.0 * v * f["Btx"]
    at_row = (1.0 + v**2) * f["Bt"] - 2.0 * v * f["Bx"]
    return float(max(np.max(np.abs(row1 - a_row)), np.max(np.abs(row2 - at_row))))


def sg_scaling_quadratic_form(family) -> float:
    """Q[dB/dbeta, dB_t/dbeta] by the integrated-by-parts route; equals
    -32 (1 + 3 v^2) beta for every breather."""
    op = sg_operator(family)
    fam = op.family
    plan = LinePlan(center=0.0, half_width=30.0 / fam.beta + 10.0, nodes_per_unit=8.0)
    x, w_quad = plan.nodes_weights(2)
    z, w = sg_scaling_direction(fam, x)
    return op.quadratic_form(x, w_quad, z, w)


# ---------------------------------------------------------------------------
# periodic analog of the inverse scaling direction
# ---------------------------------------------------------------------------


def kksh_parameter_direction(beta: float, k: float, x):
    """Derivative grids (orders 0..4) of the periodic profile along k and
    along beta, from the jets of the family's closed-form partials.

    The k-direction follows the constrained family: m moves with k along the
    period lock.
    """
    dk, db = breathers.KkshBreather(beta=beta, k=k).parameter_partials(x, deg=5)
    return tuple(dk.partial(nx=j + 1) for j in range(5)), tuple(db.partial(nx=j + 1) for j in range(5))


def kksh_inverse_direction_residual(beta: float, k: float, n_points: int = 200) -> float:
    """Max defect of L[B0] = -B for the discriminant-normalised direction
    built from the two parameter derivatives of the periodic profile."""
    from . import stability

    family = breathers.KkshBreather(beta=beta, k=k)
    x = np.linspace(0.0, family.period, n_points, endpoint=False)
    dk, db = kksh_parameter_direction(beta, k, x)
    # the direction follows the constrained solution family, so the
    # coefficient partials carry dm/dk along the period lock
    d, _ = stability.discriminant_and_hg(beta, k, constraint="resolved")
    _, grad_b, grad_k = stability.coefficient_gradients(beta, k, family.m, "resolved")
    da1_db, da1_dk = grad_b[0], grad_k[0]
    b0 = tuple((da1_dk * dbj - da1_db * dkj) / d for dkj, dbj in zip(dk, db))
    op = scalar_operator(family)
    image = op.apply(x, b0)
    B = family.eval(0.0, x, deg=0).value
    return float(np.max(np.abs(image + B)))
