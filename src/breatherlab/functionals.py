"""Conserved functionals, stationary residuals and the Lyapunov expansion.

Functionals are evaluated by the trapezoid rule on derivative grids extracted
from the family jets, over one period or over a window that tracks the
envelope centre; every integral is verified by node doubling.  Stationary
residuals are reported relative to the largest single term of the equation at
each grid point, since term magnitudes vary over orders of magnitude across
parameter ranges.  The Lyapunov expansion check takes its direction as
``direction(x) -> (z, w)``, the derivative grids z = (z, z', z'') and
w = (w, w') that ``linops`` reads, and integrates both of its sides by
``checked_integral``.
"""

from __future__ import annotations

import math

import numpy as np

from . import linops
from .breathers import Breather, FieldJet, WaveFamily
from .quadrature import TrapezoidPlan, checked_integral, window_plan

SQRT2 = math.sqrt(2.0)


def family_plan(family, t: float = 0.0):
    """Quadrature plan of the functional densities: a torus trapezoid, or a
    line window that tracks the envelope centre at the evaluation time.

    The torus plan sizes itself: ``checked_integral`` doubles it from 8
    nodes until the density's node-doubling drift is at rounding.  For KKSH
    at k from 0.0005 to 0.058 a density is evaluated on 64 to 2048 nodes,
    and the nonzero-mean benchmark case's on 2048 (half as many leave its F
    drifting by 3.2e-6)."""
    if family.domain == "torus":
        return TrapezoidPlan(period=family.period, n_nodes=8, settle=True)
    # the densities are up to sixth powers of the profile, so they carry its
    # harmonics through 6 wavenumber
    return window_plan(family, 6.0 * family.wavenumber, t)


# the derivative grids of the field by name, each with its (t-order, x-order);
# the t-partials belong to wave families only
DERIVATIVE_GRIDS = {"ux": (0, 1), "ut": (1, 0), "uxx": (0, 2), "utx": (1, 1)}


def field_arrays(family, t, x, deg: int = 2) -> dict:
    """The grids a degree-``deg`` jet of the field holds: ``u`` at 0; ``ux``
    from 1, and ``ut`` for a wave family; ``uxx`` at 2, and ``utx`` for a
    wave family.  A density that reads a grid above its degree raises
    KeyError instead of reading a zero."""
    f = family.eval(t, x, deg=deg)
    wave = isinstance(family, WaveFamily)
    out = {"u": f.value}
    for name, (nt, nx) in DERIVATIVE_GRIDS.items():
        if nt + nx <= deg and (wave or nt == 0):
            out[name] = f.partial(nt=nt, nx=nx)
    return out


# ---------------------------------------------------------------------------
# functional integrands
# ---------------------------------------------------------------------------


# the jet degree each density reads: the highest order of its field grids
DENSITY_DEG = {"mass": 0, "energy": 1, "momentum": 1, "f": 2}


def _mkdv_integrands(mu: float = 0.0, level: float = 0.0):
    """Mass, energy and F of the Gardner equation with quadratic coefficient
    mu (mKdV at mu = 0, where each mu-term adds an exact zero), in the field
    minus its background level."""

    def mass(f):
        return 0.5 * (f["u"] - level) ** 2

    def energy(f):
        u, ux = f["u"] - level, f["ux"]
        return 0.5 * ux**2 - 0.25 * u**4 - (mu / 3.0) * u**3

    def third(f):
        u, ux, uxx = f["u"] - level, f["ux"], f["uxx"]
        return 0.5 * uxx**2 - 2.5 * u**2 * ux**2 + 0.25 * u**6 + (
            -(5.0 / 3.0) * mu * u * ux**2 + (5.0 / 18.0) * mu**2 * u**4 + 0.5 * mu * u**5
        )

    return {"mass": mass, "energy": energy, "f": third}


def _sg_integrands():
    def energy(f):
        return 0.5 * (f["ux"] ** 2 + f["ut"] ** 2) + (1.0 - np.cos(f["u"]))

    def momentum(f):
        return 0.5 * f["ut"] * f["ux"]

    def third(f):
        u, ux, uxx, ut, utx = f["u"], f["ux"], f["uxx"], f["ut"], f["utx"]
        cu, su = np.cos(u), np.sin(u)
        return (
            0.5 * (uxx**2 + utx**2)
            - (ut**4 + ux**4) / 32.0
            - (3.0 / 16.0) * ut**2 * ux**2
            + (5.0 / 8.0) * ux**2 * cu
            + (su**2 + ut**2 * cu) / 8.0
        )

    return {"energy": energy, "momentum": momentum, "f": third}


def _lyapunov_coefficients(family) -> dict:
    # a soliton fixes no combination, nor the kink, which admits a whole line of (a, b)
    if not isinstance(family, Breather):
        raise ValueError(f"no Lyapunov combination for family kind {family.kind!r}")
    if isinstance(family, WaveFamily):
        return {"f": 1.0, "energy": family.a, "momentum": family.b}
    a1, a2 = family.a1a2
    return {"f": 1.0, "energy": a1, "mass": a2}


def _integrand_table(family) -> dict:
    if isinstance(family, WaveFamily):
        return _sg_integrands()
    return _mkdv_integrands(family.quadratic, family.level)


def _density(family, coefficients: dict, f: dict) -> np.ndarray:
    """Sum of the densities named in ``coefficients``, each times its
    coefficient, on the field grids f."""
    table = _integrand_table(family)
    return sum(c * table[name](f) for name, c in coefficients.items())


def evaluate_functional(kind: str, family, t: float = 0.0) -> float:
    """Quadrature value of a conserved functional on the family at time t.

    kind is one of mass / energy / momentum / f / lyapunov (availability
    depends on the family).  The field is evaluated at the density's degree
    in ``DENSITY_DEG``, the Lyapunov density at the highest of its terms';
    a coefficient's float does not depend on the truncation degree above its
    order, so the value is the same as at any higher degree.  The quadrature
    on ``family_plan`` is verified by node doubling.
    """
    if kind == "lyapunov":
        coefficients = _lyapunov_coefficients(family)
    elif kind in _integrand_table(family):
        coefficients = {kind: 1.0}
    else:
        raise ValueError(f"functional {kind!r} not defined for family {family.kind!r}")
    deg = max(DENSITY_DEG[name] for name in coefficients)

    def integrand(x):
        return _density(family, coefficients, field_arrays(family, t, x, deg))

    value, _ = checked_integral(integrand, family_plan(family, t))
    return value


# ---------------------------------------------------------------------------
# stationary equations
# ---------------------------------------------------------------------------


def _relative_residual(terms: list[np.ndarray]) -> float:
    total = np.zeros_like(terms[0])
    scale = np.zeros_like(terms[0])
    for term in terms:
        total = total + term
        scale = np.maximum(scale, np.abs(term))
    scale = np.maximum(scale, 1e-300)
    return float(np.max(np.abs(total) / scale))


def _default_grid(family, t):
    if family.domain == "torus":
        return np.linspace(0.0, family.period, 200, endpoint=False)
    return family.envelope_center(t) + np.linspace(-10.0, 10.0, 200)


def _mkdv_terms(f: FieldJet, c_e: float, c_m: float, mu: float = 0.0, level: float = 0.0) -> list:
    """Terms of the Gardner stationary equation for the field minus its level;
    at mu = 0 (mKdV) the last four are exact zeros."""
    B = f.value - level
    Bx, Bxx, B4 = f.partial(nx=1), f.partial(nx=2), f.partial(nx=4)
    return [
        B4,
        -c_e * (Bxx + mu * B**2 + B**3),
        c_m * B,
        5.0 * B * Bx**2,
        5.0 * B**2 * Bxx,
        1.5 * B**5,
        (5.0 / 3.0) * mu * Bx**2,
        (10.0 / 3.0) * mu * B * Bxx,
        (10.0 / 9.0) * mu**2 * B**3,
        2.5 * mu * B**4,
    ]


def _sg_terms(f: FieldJet, a: float, b: float):
    u = f.value
    ux, uxx, u4 = f.partial(nx=1), f.partial(nx=2), f.partial(nx=4)
    ut, utx, utxx = f.partial(nt=1), f.partial(nt=1, nx=1), f.partial(nt=1, nx=2)
    cu, su = np.cos(u), np.sin(u)
    first = [
        utxx,
        ut**3 / 8.0,
        (3.0 / 8.0) * ux**2 * ut,
        -0.25 * ut * cu,
        -a * ut,
        -0.5 * b * ux,
    ]
    second = [
        u4,
        (3.0 / 8.0) * ux**2 * uxx,
        0.75 * ut * utx * ux,
        (3.0 / 8.0) * ut**2 * uxx,
        (5.0 / 8.0) * ux**2 * su,
        -1.25 * uxx * cu,
        0.25 * su * cu,
        -ut**2 * su / 8.0,
        -a * (uxx - su),
        -0.5 * b * utx,
    ]
    return first, second


def stationary_residual(family, x=None, t: float = 0.0, ab=None):
    """Max relative residual of the family's stationary elliptic equation(s).

    Wave-equation families return the residual pair of their two coupled
    equations; ``ab`` overrides the variational constants.  The kink must be
    given them: it admits any a with b = b_v(a) = 2 v (a - (3 + v^2) /
    (4 (1 - v^2))), so b = 0 when it is static.  Off that line the first
    equation keeps -(b - b_v(a))/2 B_x.
    """
    if x is None:
        x = _default_grid(family, t)
    if isinstance(family, WaveFamily):
        if ab is None:
            if not isinstance(family, Breather):
                raise ValueError("the kink carries no (a, b); pass ab explicitly")
            ab = (family.a, family.b)
        first, second = _sg_terms(family.eval(t, x, deg=4), *ab)
        return _relative_residual(first), _relative_residual(second)
    if isinstance(family, Breather):
        f = family.eval(t, x, deg=4)
        return _relative_residual(_mkdv_terms(f, *family.a1a2, family.quadratic, family.level))
    # a soliton: Q'' - c Q + q Q^2 + Q^3 = 0, where q Q^2 is an exact zero for mKdV
    f = family.eval(t, x, deg=2)
    Q, Qxx = f.value, f.partial(nx=2)
    return _relative_residual([Qxx, -family.c * Q, family.quadratic * Q**2, Q**3])


def pde_residual(family, n_points: int = 100) -> float:
    """Max absolute defect of the evolution equation at random (t, x) points,
    t in (-2, 2), drawn with seed 0.

    All points go through one family evaluation, at the degree the equation
    reads: 2 for a wave family (u_tt, u_xx), 3 for a scalar one (u_t,
    u_xxx).  A NaN at any point makes the result NaN.
    """
    rng = np.random.default_rng(0)
    ts = rng.uniform(-2.0, 2.0, size=n_points)
    if family.domain == "torus":
        xs = rng.uniform(0.0, family.period, size=n_points)
    else:
        xs = rng.uniform(-8.0, 8.0, size=n_points)
    wave = isinstance(family, WaveFamily)
    out = family.eval(ts, xs, deg=2 if wave else 3)
    if wave:
        r = out.partial(nt=2) - out.partial(nx=2) + np.sin(out.value)
    else:
        u = out.value
        # u - level solves Gardner(quadratic), so u solves Gardner(quadratic - 3 level)
        mu = family.quadratic - 3.0 * family.level
        r = (
            out.partial(nt=1)
            + out.partial(nx=3)
            + 2.0 * mu * u * out.partial(nx=1)
            + 3.0 * u**2 * out.partial(nx=1)
        )
    return float(np.max(np.abs(r)))


def mean_value(family) -> float:
    """Spatial mean of a periodic family over one period at t = 0: its
    integral on the torus plan, over the period."""
    if family.domain != "torus":
        raise ValueError("mean value is defined for periodic families")
    value, _ = checked_integral(lambda x: family.eval(0.0, x, deg=0).value, family_plan(family))
    return value / family.period


# ---------------------------------------------------------------------------
# quadratic expansion of the wave-equation Lyapunov functional
# ---------------------------------------------------------------------------


def sg_lyapunov_of_perturbed(family, x, z, w, eps: float) -> np.ndarray:
    """Density of H on (B + eps z, B_t + eps w) at the nodes x, from the
    derivative grids z = (z, z', z'') and w = (w, w')."""
    f = field_arrays(family, 0.0, x)
    for key, d in zip(("u", "ux", "uxx", "ut", "utx"), z[:3] + w[:2]):
        f[key] = f[key] + eps * d
    return _density(family, _lyapunov_coefficients(family), f)


def expansion_remainder(family, x, z, w, eps: float) -> np.ndarray:
    """Density of the closed-form cubic-and-higher remainder of the Lyapunov
    expansion.

    Its integral is the exact difference H[B+eps z, B_t+eps w] - H[B, B_t]
    - (eps^2/2) Q[z, w], written term by term so that no large quantities
    cancel; its leading order is cubic in eps.
    """
    f = family.eval(0.0, x, deg=1)
    B, Bx, Bt = f.value, f.partial(nx=1), f.partial(nt=1)
    z, zx, w = eps * z[0], eps * z[1], eps * w[0]

    cb, sb = np.cos(B), np.sin(B)
    cz, sz = np.cos(z), np.sin(z)
    c1 = cz - 1.0
    s2 = sz - z
    c2 = cz - 1.0 + 0.5 * z * z

    t1 = -(4.0 * Bt * w**3 + w**4 + 4.0 * Bx * zx**3 + zx**4) / 32.0
    t2 = -(3.0 / 16.0) * (2.0 * Bt * w * zx**2 + 2.0 * Bx * w**2 * zx + w**2 * zx**2)
    t3 = (5.0 / 8.0) * (
        Bx**2 * (cb * c2 - sb * s2)
        + 2.0 * Bx * zx * (cb * c1 - sb * s2)
        + zx**2 * (cb * c1 - sb * sz)
    )
    c2b, s2b = np.cos(2.0 * B), np.sin(2.0 * B)
    t4 = (c2b * (0.5 * (1.0 - np.cos(2.0 * z)) - z * z) + s2b * (0.5 * np.sin(2.0 * z) - z)) / 8.0
    t5 = (
        Bt**2 * (cb * c2 - sb * s2)
        + 2.0 * Bt * w * (cb * c1 - sb * s2)
        + w**2 * (cb * c1 - sb * sz)
    ) / 8.0
    t6 = family.a * (sb * s2 - cb * c2)
    return t1 + t2 + t3 + t4 + t5 + t6


def expansion_check(family, direction, eps: float) -> tuple[float, float]:
    """(H-difference minus half the quadratic form, explicit remainder) along
    a direction ``direction(x) -> (z, w)`` given by its derivative grids
    z = (z, z', z'') and w = (w, w').

    Each side is the ``checked_integral`` of its density on ``family_plan``,
    so a direction the plan does not resolve raises QuadratureError.  The
    two must agree: the difference route relies on the stationary equations
    killing the linear term and on the quadratic-form normalisation, while
    the explicit remainder contains neither.
    """
    op = linops.operator_for(family)

    def difference(x):
        z, w = direction(x)
        return (sg_lyapunov_of_perturbed(family, x, z, w, eps)
                - sg_lyapunov_of_perturbed(family, x, z, w, 0.0)
                - 0.5 * eps * eps * op.quadratic_density(x, z, w))

    def remainder(x):
        return expansion_remainder(family, x, *direction(x), eps)

    plan = family_plan(family)
    return checked_integral(difference, plan)[0], checked_integral(remainder, plan)[0]
