"""Solution families (breathers, solitons, kink) evaluated as phase-variable jets.

Every profile is a closed-form function of two independent phase variables
y1, y2 that are affine in (t, x).  ``eval`` builds the profile as a
:class:`~breatherlab.jets.Jet2` in (y1, y2) and wraps it in a
:class:`FieldJet` carrying the affine chain maps, so arbitrary mixed
(t, x, x1, x2)-partials up to the jet degree come out exact to roundoff.

A family's role is its class: the five breathers derive from :class:`Breather`
(they recur and fix their Lyapunov multipliers), the sine-Gordon breather and
kink from :class:`WaveFamily`, and the other families solve Gardner or mKdV.

Every breather states its phases once, as ``phase_maps`` and
``phase_period``: the chain maps and the recurrence period and shift come
from them, and for the mKdV, Gardner, periodic and sine-Gordon breathers the
phase jets and ``normal_form`` (the t = 0, x2 = 0 snapshot the spectral
problems read) too.

The oscillatory families are evaluated through rational derivative forms
amp * (N_x D - N D_x) / (D^2 + N^2) instead of differentiating an arctan,
which keeps every evaluation branch- and pole-free.

A wave family is one field jet as well: the phase-space partner B_t of its
field B, and its x-derivatives, are read as ``partial(nt=1, nx=j)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from math import comb
from typing import ClassVar

import numpy as np

from . import jets, specfun, stability
from .jets import DEFAULT_DEG, Jet2

SQRT2 = math.sqrt(2.0)
AMP = 2.0 * SQRT2


def check_finite(family) -> None:
    """Reject a NaN or infinite value in any parameter field of a family."""
    for field in fields(family):
        value = getattr(family, field.name)
        if not math.isfinite(value):
            raise ValueError(f"{field.name} must be finite, got {value}")


@dataclass(frozen=True)
class FieldJet:
    """A field's jet in its phase variables plus the affine (t, x) chain maps.

    ``dt`` and ``dx`` hold the coefficients of d/dt and d/dx acting on
    (y1, y2); shift derivatives are the raw phase derivatives themselves.
    """

    jet: Jet2
    dt: tuple[float, float]
    dx: tuple[float, float]

    def partial(self, nt: int = 0, nx: int = 0, n1: int = 0, n2: int = 0):
        """Mixed derivative d_t^nt d_x^nx d_{x1}^n1 d_{x2}^n2 of the field."""
        a, b = self.dt
        c, d = self.dx
        out = None
        for r in range(nt + 1):
            w_t = comb(nt, r) * a**r * b ** (nt - r)
            if w_t == 0.0:
                continue
            for s in range(nx + 1):
                w = w_t * comb(nx, s) * c**s * d ** (nx - s)
                if w == 0.0:
                    continue
                term = w * self.jet.partial(r + s + n1, (nt - r) + (nx - s) + n2)
                out = term if out is None else out + term
        if out is None:
            out = np.zeros(self.jet.shape)
        return out

    @property
    def value(self):
        return self.jet.value


class _Pair:
    """(jet, d/dx jet) with product-rule arithmetic, for rational profiles."""

    __slots__ = ("f", "fx")

    def __init__(self, f, fx):
        self.f = f
        self.fx = fx

    def __add__(self, other):
        return _Pair(self.f + other.f, self.fx + other.fx)

    def __sub__(self, other):
        return _Pair(self.f - other.f, self.fx - other.fx)

    def __mul__(self, other):
        if isinstance(other, _Pair):
            return _Pair(self.f * other.f, self.fx * other.f + self.f * other.fx)
        return _Pair(self.f * other, self.fx * other)

    __rmul__ = __mul__


def _dx_arctan(num: _Pair, den: _Pair) -> Jet2:
    """d/dx arctan(num/den) as a jet, free of tan/arctan branch points."""
    return (num.fx * den.f - num.f * den.fx) / (den.f * den.f + num.f * num.f)


def _phase_jets(y1, y2, deg):
    return Jet2.variable(np.asarray(y1, dtype=float), 0, deg), Jet2.variable(
        np.asarray(y2, dtype=float), 1, deg
    )


class _ScalarFamily:
    """Variational data of a scalar family, read by the functionals and the
    linearized operators.

    The profile minus ``level`` solves, up to a Galilean drift, the Gardner
    equation w_t + w_xxx + 2 q w w_x + 3 w^2 w_x = 0 with q = ``quadratic``
    (q = 0 is mKdV).  The breathers add ``a1a2``: the multipliers of energy and
    mass in the Lyapunov functional H = F + a1 E + a2 M.
    """

    level = 0.0
    quadratic = 0.0


class Breather:
    """A breather in two phases y_i = dx_i x + dt_i t + const, ``phase_maps``
    = ((dt_1, dt_2), (dx_1, dx_2)), of period ``phase_period`` in y1; a
    subclass states both.  It recurs, B(t + T, x) = B(t, x - L) with
    T = ``time_period`` and L = ``space_shift``, and its Lyapunov functional
    has fixed multipliers."""

    @property
    def time_period(self) -> float:
        """T with B(t + T, x) = B(t, x - L): y2 is unchanged and y1 moves by
        ``phase_period``."""
        (a, b), (c, d) = self.phase_maps
        return self.phase_period / abs(a - c * b / d)

    @property
    def space_shift(self) -> float:
        (_, b), (_, d) = self.phase_maps
        return -b * self.time_period / d


class WaveFamily:
    """A solution of the sine-Gordon equation B_tt - B_xx + sin B = 0 moving
    at velocity v; a subclass holds v."""

    @property
    def lorentz(self) -> float:
        return 1.0 / math.sqrt(1.0 - self.v * self.v)


class _TwoPhaseBreather(Breather):
    """A breather whose phases carry the shifts x1 and x2, y_i = dx_i x +
    dt_i t + x_i with dx_2 = 1; a subclass holds x1 and x2.  The defaults are
    ``phase_maps`` ((delta, gamma), (1, 1)) and the period 2 pi / |alpha| of
    the trig profiles."""

    @property
    def phase_maps(self) -> tuple[tuple[float, float], tuple[float, float]]:
        return (self.delta, self.gamma), (1.0, 1.0)

    @property
    def phase_period(self) -> float:
        return 2 * math.pi / abs(self.alpha)

    def phase_jets(self, t, x, deg):
        (a, b), (c, d) = self.phase_maps
        x = np.asarray(x, dtype=float)
        return _phase_jets(c * x + a * t + self.x1, d * x + b * t + self.x2, deg)


# ---------------------------------------------------------------------------
# line breathers
# ---------------------------------------------------------------------------


class _LineBreather(_TwoPhaseBreather, _ScalarFamily):
    """Phase speeds, scales and Lyapunov multipliers of the mKdV and Gardner
    breathers; a subclass holds alpha, beta, x1 and x2."""

    @property
    def delta(self) -> float:
        return self.alpha**2 - 3 * self.beta**2

    @property
    def gamma(self) -> float:
        return 3 * self.alpha**2 - self.beta**2

    @property
    def a1a2(self) -> tuple[float, float]:
        return 2.0 * (self.beta**2 - self.alpha**2), (self.alpha**2 + self.beta**2) ** 2

    @property
    def decay_rate(self) -> float:
        return abs(self.beta)

    @property
    def wavenumber(self) -> float:
        return abs(self.alpha)

    def envelope_center(self, t: float) -> float:
        return -(self.gamma * t + self.x2)


@dataclass(frozen=True)
class MkdvBreather(_LineBreather):
    alpha: float
    beta: float
    x1: float = 0.0
    x2: float = 0.0

    kind: ClassVar[str] = "mkdv"
    domain: ClassVar[str] = "line"

    def __post_init__(self):
        check_finite(self)
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("breather scalings alpha, beta must be positive")

    def eval(self, t, x, deg: int = DEFAULT_DEG) -> FieldJet:
        a, b = self.alpha, self.beta
        Y1, Y2 = self.phase_jets(t, x, deg)
        sin1, cos1 = jets.sin(a * Y1), jets.cos(a * Y1)
        cosh2, sinh2 = jets.cosh(b * Y2), jets.sinh(b * Y2)
        num = _Pair(b * sin1, a * b * cos1)
        den = _Pair(a * cosh2, a * b * sinh2)
        return FieldJet(AMP * _dx_arctan(num, den), *self.phase_maps)


@dataclass(frozen=True)
class GardnerBreather(_LineBreather):
    alpha: float
    beta: float
    mu: float
    x1: float = 0.0
    x2: float = 0.0

    kind: ClassVar[str] = "gardner"
    domain: ClassVar[str] = "line"

    def __post_init__(self):
        check_finite(self)
        if self.alpha == 0 or self.beta == 0 or self.mu == 0:
            raise ValueError("gardner breather needs alpha, beta, mu all nonzero")
        if self.disc <= 0:
            raise ValueError("gardner breather needs alpha^2 + beta^2 - 2 mu^2 / 9 > 0")

    @property
    def quadratic(self) -> float:
        return self.mu

    @property
    def disc(self) -> float:
        return self.alpha**2 + self.beta**2 - 2 * self.mu**2 / 9

    def eval(self, t, x, deg: int = DEFAULT_DEG) -> FieldJet:
        a, b, mu = self.alpha, self.beta, self.mu
        Y1, Y2 = self.phase_jets(t, x, deg)
        sin1, cos1 = jets.sin(a * Y1), jets.cos(a * Y1)
        cosh2, sinh2 = jets.cosh(b * Y2), jets.sinh(b * Y2)
        exp2 = cosh2 + sinh2
        hyp = math.sqrt(a * a + b * b)
        rdisc = math.sqrt(self.disc)
        c_num = b * hyp / (a * rdisc)
        c_exp = SQRT2 * mu * b / (3 * self.disc)
        c_den = SQRT2 * mu * b / (3 * a * hyp * rdisc)
        num = _Pair(c_num * sin1 - c_exp * exp2, c_num * a * cos1 - c_exp * b * exp2)
        den = _Pair(
            cosh2 - c_den * (a * cos1 - b * sin1),
            b * sinh2 - c_den * (-a * a * sin1 - a * b * cos1),
        )
        return FieldJet(AMP * _dx_arctan(num, den), *self.phase_maps)


@dataclass(frozen=True)
class SgBreather(WaveFamily, _TwoPhaseBreather):
    beta: float
    v: float = 0.0
    x1: float = 0.0
    x2: float = 0.0

    kind: ClassVar[str] = "sg"
    domain: ClassVar[str] = "line"

    def __post_init__(self):
        check_finite(self)
        if not -1.0 < self.v < 1.0:
            raise ValueError("breather velocity must satisfy |v| < 1")
        if not 0.0 < self.beta < self.lorentz:
            raise ValueError("breather scaling must satisfy 0 < beta < (1 - v^2)^{-1/2}")

    @property
    def alpha(self) -> float:
        return math.sqrt(self.lorentz**2 - self.beta**2)

    @property
    def a(self) -> float:
        g2 = self.lorentz**2
        return -0.25 + self.beta**2 + self.v**2 * (2 * g2 * g2 - g2 + self.beta**2)

    @property
    def b(self) -> float:
        g2 = self.lorentz**2
        return 4 * self.v * (g2 * g2 - self.beta**2)

    @property
    def phase_maps(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """Y1 = t - v x + x1 and Y2 = x - v t + x2."""
        return (1.0, -self.v), (-self.v, 1.0)

    @property
    def decay_rate(self) -> float:
        return self.beta

    @property
    def wavenumber(self) -> float:
        return self.alpha * abs(self.v)  # at fixed t, alpha Y1 moves with -alpha v x

    def envelope_center(self, t: float) -> float:
        return self.v * t - self.x2

    def eval(self, t, x, deg: int = DEFAULT_DEG) -> FieldJet:
        Y1, Y2 = self.phase_jets(t, x, deg)
        num, den = self.beta * jets.cos(self.alpha * Y1), self.alpha * jets.cosh(self.beta * Y2)
        return FieldJet(4.0 * jets.atan(num / den), *self.phase_maps)

    def beta_partial(self, t, x, deg: int = DEFAULT_DEG) -> FieldJet:
        """dB/dbeta at fixed (v, x1, x2), by the quotient rule on
        B = 4 arctan(N / D), N = beta cos(alpha Y1), D = alpha cosh(beta Y2),
        with dalpha/dbeta = -beta/alpha.  The phases do not move with beta, so
        dB_t/dbeta is this field's ``partial(nt=1)``."""
        a, b = self.alpha, self.beta
        Y1, Y2 = self.phase_jets(t, x, deg)
        sin1, cos1 = jets.sin(a * Y1), jets.cos(a * Y1)
        cosh2, sinh2 = jets.cosh(b * Y2), jets.sinh(b * Y2)
        num, den = b * cos1, a * cosh2
        num_b = cos1 + (b * b / a) * Y1 * sin1
        den_b = (-b / a) * cosh2 + a * Y2 * sinh2
        return FieldJet(4.0 * (num_b * den - num * den_b) / (num * num + den * den), *self.phase_maps)


# ---------------------------------------------------------------------------
# periodic breathers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KkshBreather(_TwoPhaseBreather, _ScalarFamily):
    """Spatially periodic breather: elliptic phases locked to a common period;
    ``pair`` is the solved lock, with K and E at k and at m."""

    beta: float
    k: float
    x1: float = 0.0
    x2: float = 0.0

    kind: ClassVar[str] = "kksh"
    domain: ClassVar[str] = "torus"

    def __post_init__(self):
        stability.check_beta(self.beta)
        check_finite(self)
        object.__setattr__(self, "pair", stability.solve_commensurability(self.k, self.beta))

    @property
    def m(self) -> float:
        return self.pair.m

    @property
    def alpha(self) -> float:
        return self.pair.alpha

    @property
    def period(self) -> float:
        return self.pair.period

    phase_period = period

    @property
    def a1a2(self) -> tuple[float, float]:
        return stability._a1a2(self.beta, self.k, self.m)

    @property
    def delta(self) -> float:
        return self.alpha**2 * (1 + self.k) + 3 * self.beta**2 * (self.m - 2)

    @property
    def gamma(self) -> float:
        return 3 * self.alpha**2 * (1 + self.k) + self.beta**2 * (self.m - 2)

    def _phases(self, t, x, deg):
        """Phase jets Y1, Y2 and (sn, cn, dn)(alpha Y1 | k), (sn, cn, dn)(beta Y2 | m)."""
        Y1, Y2 = self.phase_jets(t, x, deg)
        return (Y1, Y2, specfun.jacobi_sncndn_jet(self.alpha * Y1, self.k),
                specfun.jacobi_sncndn_jet(self.beta * Y2, self.m))

    def eval(self, t, x, deg: int = DEFAULT_DEG) -> FieldJet:
        a, b, m = self.alpha, self.beta, self.m
        _, _, (sn1, cn1, dn1), (sn2, cn2, dn2) = self._phases(t, x, deg)
        u = _Pair(sn1 * dn2, (a * cn1) * dn1 * dn2 - (b * m) * sn1 * sn2 * cn2)
        b_jet = (AMP * a * b) * u.fx / (a * a + (b * b) * u.f * u.f)
        return FieldJet(b_jet, *self.phase_maps)

    def parameter_partials(self, x, deg: int = DEFAULT_DEG) -> tuple[FieldJet, FieldJet]:
        """Partials along k and along beta of the potential AMP arctan(b U / a),
        U = sn(a Y1 | k) dn(b Y2 | m), at t = 0; the profile is its d/dx, so
        ``partial(nx=j + 1)`` is the j-th x-derivative of dB/dk or dB/dbeta.

        Each is AMP (a b_p U + a b U_p - a_p b U) / (a^2 + b^2 U^2).  Along k,
        m follows the period lock and a = beta ((1 - m) / k)^(1/4) with it;
        along beta, k and m stay fixed and a and b scale.  The phases' time
        coefficients move with the parameters, so the time chain map is NaN.
        """
        a, b, k, m = self.alpha, self.beta, self.k, self.m
        Y1, Y2, (sn1, cn1, dn1), (sn2, cn2, dn2) = self._phases(0.0, x, deg)
        U = sn1 * dn2
        U_a = Y1 * cn1 * dn1 * dn2
        U_b = (-m) * Y2 * sn1 * sn2 * cn2
        m_k = stability.lock_slope(self.pair)
        a_k = 0.25 * a * (-m_k / (1.0 - m) - 1.0 / k)
        U_k = (a_k * U_a + specfun.jacobi_dm_jet(a * Y1, k)[0] * dn2
               + m_k * sn1 * specfun.jacobi_dm_jet(b * Y2, m)[2])
        den = a * a + (b * b) * U * U

        def potential_partial(a_p, b_p, U_p):
            field = (AMP * a) * (b_p * U + b * U_p - (a_p * b / a) * U) / den
            return FieldJet(field, dt=(math.nan, math.nan), dx=(1.0, 1.0))

        return potential_partial(a_k, 0.0, U_k), potential_partial(a / b, 1.0, (a / b) * U_a + U_b)


def _coprime(p: int, q: int) -> bool:
    return math.gcd(abs(p), abs(q)) == 1


def _check_p_q(p: int, q: int) -> None:
    """Reject p, q that give no two distinct phase periods (c2 = c1)."""
    if p == 0 or q == 0 or abs(p) == abs(q):
        raise ValueError(f"p, q must be nonzero integers with |p| != |q|, got p={p}, q={q}")


@dataclass(frozen=True)
class NonzeroMeanBreather(Breather, _ScalarFamily):
    """Periodic breather sitting on a nonzero constant background.

    The two trig phases share the spatial period L = 2 pi q / sqrt(2 mu^2 - c1),
    which requires (2 mu^2 - c1) / (2 mu^2 - c2) = q^2 / p^2 with p, q coprime.
    Given (mu, c1, p, q) the partner level c2 is determined.  The profile
    solves mKdV, so w = u - mu solves Gardner with quadratic coefficient 3 mu.
    """

    mu: float
    c1: float
    p: int
    q: int

    kind: ClassVar[str] = "nonzero-mean"
    domain: ClassVar[str] = "torus"

    def __post_init__(self):
        check_finite(self)
        if self.mu <= 0:
            raise ValueError("mean level mu must be positive")
        if not 0.0 < self.c1 < 2 * self.mu**2:
            raise ValueError("need 0 < c1 < 2 mu^2")
        _check_p_q(self.p, self.q)
        if not _coprime(self.p, self.q):
            raise ValueError("p, q must be coprime")
        if not 0.0 < self.c2 < 2 * self.mu**2:
            raise ValueError("invalid (p, q, c1) combination: c2 outside (0, 2 mu^2)")

    @property
    def c2(self) -> float:
        return 2 * self.mu**2 - (self.p / self.q) ** 2 * (2 * self.mu**2 - self.c1)

    @property
    def level(self) -> float:
        return self.mu

    @property
    def quadratic(self) -> float:
        return 3.0 * self.mu

    @property
    def a1a2(self) -> tuple[float, float]:
        c1, c2, mu = self.c1, self.c2, self.mu
        return c1 + c2 - 4.0 * mu**2, (c1 - 2.0 * mu**2) * (c2 - 2.0 * mu**2)

    @property
    def rho(self) -> float:
        r1, r2 = math.sqrt(self.c1), math.sqrt(self.c2)
        return (r1 + r2) / (r1 - r2)

    @property
    def s1(self) -> float:
        return math.sqrt(2 * self.mu**2 - self.c1)

    @property
    def s2(self) -> float:
        return math.sqrt(2 * self.mu**2 - self.c2)

    @property
    def delta(self) -> float:
        return self.mu**2 + self.c1

    @property
    def gamma(self) -> float:
        return self.mu**2 + self.c2

    @property
    def period(self) -> float:
        return 2 * math.pi * abs(self.q) / self.s1

    @property
    def phase_maps(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """y_i = sigma_i (x - c_i t) with sigma_i = s_i / 2 and (c_1, c_2) =
        (delta, gamma)."""
        sig1, sig2 = 0.5 * self.s1, 0.5 * self.s2
        return (-sig1 * self.delta, -sig2 * self.gamma), (sig1, sig2)

    # y1 -> y1 + pi flips the sign of both the numerator and the denominator
    # of the arctan argument in ``eval``
    phase_period = math.pi

    def _phases(self, t, x):
        """Phase values y_i = sigma_i (x - c_i t), formed as written: the
        expanded form sigma_i x - sigma_i c_i t rounds differently."""
        _, (sig1, sig2) = self.phase_maps
        x = np.asarray(x, dtype=float)
        return sig1 * (x - self.delta * t), sig2 * (x - self.gamma * t)

    def eval(self, t, x, deg: int = DEFAULT_DEG) -> FieldJet:
        mu = self.mu
        dt, dx = self.phase_maps
        sig1, sig2 = dx
        Y1, Y2 = _phase_jets(*self._phases(t, x), deg)
        s1, c1, s2, c2 = jets.sin(Y1), jets.cos(Y1), jets.sin(Y2), jets.cos(Y2)
        S1, C1 = _Pair(s1, sig1 * c1), _Pair(c1, -sig1 * s1)
        S2, C2 = _Pair(s2, sig2 * c2), _Pair(c2, -sig2 * s2)
        r1, r2 = math.sqrt(self.c1), math.sqrt(self.c2)
        # numerator and denominator of the arctan argument, cleared of tan poles
        num = (-SQRT2 * mu * self.rho) * (
            (r1 - r2) * (C1 * C2) + self.s2 * (S2 * C1) - self.s1 * (S1 * C2)
        )
        den = (2 * mu * mu) * (C1 * C2) + (self.s1 * S1 - r1 * C1) * (self.s2 * S2 - r2 * C2)
        return FieldJet(mu + AMP * _dx_arctan(num, den), dt, dx)


# ---------------------------------------------------------------------------
# sanity families: solitons and the kink
# ---------------------------------------------------------------------------


class _Soliton(_ScalarFamily):
    """A soliton of speed c > 0 in the phase S = sqrt(c)(x - c t - x0); a
    subclass holds c and x0."""

    domain: ClassVar[str] = "line"
    wavenumber = 0.0

    def __post_init__(self):
        check_finite(self)
        if self.c <= 0:
            raise ValueError("soliton speed c must be positive")

    @property
    def decay_rate(self) -> float:
        return math.sqrt(self.c)

    def envelope_center(self, t: float) -> float:
        return self.c * t + self.x0

    def phase(self, t, x, deg) -> tuple[Jet2, tuple[float, float], tuple[float, float]]:
        """The phase jet S and its chain maps (dt, dx)."""
        rc = math.sqrt(self.c)
        x = np.asarray(x, dtype=float)
        S = Jet2.variable(rc * (x - self.c * t - self.x0), 0, deg)
        return S, (-self.c * rc, 0.0), (rc, 0.0)


@dataclass(frozen=True)
class MkdvSoliton(_Soliton):
    c: float
    x0: float = 0.0

    kind: ClassVar[str] = "mkdv-soliton"

    def eval(self, t, x, deg: int = DEFAULT_DEG) -> FieldJet:
        S, dt, dx = self.phase(t, x, deg)
        return FieldJet(math.sqrt(2 * self.c) / jets.cosh(S), dt, dx)


@dataclass(frozen=True)
class GardnerSoliton(_Soliton):
    c: float
    mu: float
    x0: float = 0.0

    kind: ClassVar[str] = "gardner-soliton"

    @property
    def quadratic(self) -> float:
        return self.mu

    def eval(self, t, x, deg: int = DEFAULT_DEG) -> FieldJet:
        S, dt, dx = self.phase(t, x, deg)
        den = self.mu / 3.0 + math.sqrt(self.mu**2 / 9.0 + self.c / 2.0) * jets.cosh(S)
        return FieldJet(self.c / den, dt, dx)


@dataclass(frozen=True)
class SgKink(WaveFamily):
    v: float = 0.0
    x0: float = 0.0

    kind: ClassVar[str] = "sg-kink"
    domain: ClassVar[str] = "line"
    wavenumber = 0.0

    def __post_init__(self):
        check_finite(self)
        if not -1.0 < self.v < 1.0:
            raise ValueError("kink velocity must satisfy |v| < 1")

    @property
    def decay_rate(self) -> float:
        return self.lorentz

    def envelope_center(self, t: float) -> float:
        return self.v * t + self.x0

    def admissible_b(self, a: float) -> float:
        """b_v(a) = 2 v (a - (3 + v^2) / (4 (1 - v^2))): the second variational
        constant that the kink admits with the first one set to a."""
        v = self.v
        return 2.0 * v * (a - (3.0 + v * v) / (4.0 * (1.0 - v * v)))

    def eval(self, t, x, deg: int = DEFAULT_DEG) -> FieldJet:
        g = self.lorentz
        x = np.asarray(x, dtype=float)
        S = Jet2.variable(g * (x - self.v * t - self.x0), 0, deg)
        return FieldJet(4.0 * jets.atan(jets.exp(S)), dt=(-self.v * g, 0.0), dx=(g, 0.0))


# every family by its ``kind``, the name ``--family`` takes on the command line
FAMILIES = {cls.kind: cls for cls in (
    MkdvBreather, GardnerBreather, SgBreather, KkshBreather, NonzeroMeanBreather,
    MkdvSoliton, GardnerSoliton, SgKink,
)}


# ---------------------------------------------------------------------------
# checks and transformations
# ---------------------------------------------------------------------------

def periodicity_check(family, n_points: int = 40, seed: int = 0) -> float:
    """Max defect of the breather recurrence B(t+T, x) = B(t, x - L).

    For the wave-equation breather the defect covers B_t as well, and for the
    spatially periodic families also |B(t, x + period) - B(t, x)|.  Each side
    is one family evaluation over the whole (t, x) grid; a NaN anywhere makes
    the result NaN.
    """
    if not isinstance(family, Breather):
        raise ValueError("periodicity check applies to breather families only")
    rng = np.random.default_rng(seed)
    ts = rng.uniform(-2.0, 2.0, size=n_points)
    xs = rng.uniform(-8.0, 8.0, size=n_points)
    T, L = family.time_period, family.space_shift
    deg = 1 if isinstance(family, WaveFamily) else 0  # the defect reads B, and B_t for a wave family

    def values(t, x):
        out = family.eval(t, x, deg=deg)
        if deg:
            return np.stack([out.value, out.partial(nt=1)])
        return out.value

    t, x = ts[:, None], xs[None, :]
    worst = np.max(np.abs(values(t + T, x) - values(t, x - L)))
    if family.domain == "torus":
        P = family.period
        t = t[:8]
        worst = np.maximum(worst, np.max(np.abs(values(t, x + P) - values(t, x))))
    return float(worst)


def normal_form(family, t: float = 0.0):
    """Equivalent family description frozen at t = 0 with x2 = 0.

    The spectral problems depend on the snapshot only through a single
    effective phase shift, reduced modulo the oscillatory period.
    """
    if not isinstance(family, _TwoPhaseBreather):
        raise ValueError(f"no linearized operator for family kind {family.kind!r}")
    (a, b), (c, _) = family.phase_maps
    s2 = b * t + family.x2
    x1 = (a * t + family.x1 - c * s2) % family.phase_period
    # a family already in normal form is its own: rebuilding it would re-solve a KKSH lock
    if x1 == family.x1 and family.x2 == 0.0:
        return family
    return replace(family, x1=x1, x2=0.0)


# ---------------------------------------------------------------------------
# double Backlund construction of the nonzero-mean breather
# ---------------------------------------------------------------------------


def solve_mean_level(c1: float, c2: float, p: int, q: int) -> float:
    """Background level mu making (c1, c2, p, q) commensurate."""
    if not (math.isfinite(c1) and math.isfinite(c2)):
        raise ValueError(f"c1 and c2 must be finite, got {c1} and {c2}")
    _check_p_q(p, q)
    mu2 = (p * p * c1 - q * q * c2) / (2.0 * (p * p - q * q))
    if not mu2 > max(c1, c2) / 2.0:
        raise ValueError("no positive background level for these parameters")
    return math.sqrt(mu2)


def _seed_wave_jets(family: NonzeroMeanBreather, t, x, deg):
    """The two single-phase waves feeding the superposition rule."""
    mu = family.mu
    dt, dx = family.phase_maps
    Y1, Y2 = _phase_jets(*family._phases(t, x), deg)
    X = [Y1 * (1.0 / dx[0]) + family.delta * t, Y2 * (1.0 / dx[1]) + family.gamma * t]
    out = []
    for i, (Y, c) in enumerate(((Y1, family.c1), (Y2, family.c2))):
        tan_y = jets.sin(Y) / jets.cos(Y)
        A = (1.0 / (2 * mu)) * (-math.sqrt(2 * c) + math.sqrt(4 * mu * mu - 2 * c) * tan_y)
        pot = -mu * X[i] + AMP * jets.atan(A)
        out.append(FieldJet(pot, dt, dx))
    return out


def backlund_seed_residual(family: NonzeroMeanBreather, t, x) -> float:
    """Defect of the first-step relation u1 - mu = sqrt(2 c1) sin((w1 + mu x)/sqrt 2).

    w1 is the potential of the first seed wave; the relation holds identically,
    so the residual measures evaluation error only.
    """
    x = np.asarray(x, dtype=float)
    w1 = _seed_wave_jets(family, t, x, deg=1)[0]
    u1 = w1.partial(nx=1)
    resid = u1 - family.mu - math.sqrt(2 * family.c1) * np.sin((w1.value + family.mu * x) / SQRT2)
    return float(np.max(np.abs(resid)))


def permutability_profile(family: NonzeroMeanBreather, t, x) -> np.ndarray:
    """Profile built literally through the two-step superposition rule.

    Uses tan/arctan jets, so the sample points must avoid the (measure-zero)
    phase poles; the closed-form evaluation in ``eval`` is pole-free.
    """
    w1, w2 = _seed_wave_jets(family, t, x, deg=1)
    diff = (w2.jet - w1.jet) * (1.0 / AMP)
    wtan = (-family.rho) * (jets.sin(diff) / jets.cos(diff))
    pot = AMP * jets.atan(wtan)
    fj = FieldJet(pot, w1.dt, w1.dx)
    return family.mu + fj.partial(nx=1)


def _pole_free_points(family: NonzeroMeanBreather, t, rng, n):
    """The first n uniform draws on one period whose phases both keep
    |cos| > 0.15, in draw order.  Each round draws only as many points as
    are still missing, so no round draws past the n-th acceptance: the
    points and the generator state are those of drawing one at a time."""
    xs = np.empty(0)
    while xs.size < n:
        x = rng.uniform(0.0, family.period, size=n - xs.size)
        y1, y2 = family._phases(t, x)
        keep = np.minimum(np.abs(np.cos(y1)), np.abs(np.cos(y2))) > 0.15
        xs = np.concatenate([xs, x[keep]])
    return xs


def backlund_construct(mu: float, c1: float, p: int, q: int) -> tuple[NonzeroMeanBreather, float, float]:
    """Build the nonzero-mean breather from its superposition data.

    The constructor verifies, on 50 random pole-free points at each of
    t = 0 and 0.37, that the two-step superposition route reproduces the
    closed-form profile and that the first-step seed relation holds, both
    to 1e-10.  Returns the family and the largest superposition deviation
    and seed residual over both times.
    """
    family = NonzeroMeanBreather(mu=mu, c1=c1, p=p, q=q)
    rng = np.random.default_rng(2024)
    worst_err = worst_seed = 0.0
    for t in (0.0, 0.37):
        xs = _pole_free_points(family, t, rng, 50)
        direct = family.eval(t, xs, deg=0).value
        err = float(np.max(np.abs(direct - permutability_profile(family, t, xs))))
        if not (err <= 1e-10):
            raise ArithmeticError(f"superposition route deviates from closed form by {err:.3e}")
        seed = backlund_seed_residual(family, t, xs)
        if not (seed <= 1e-10):
            raise ArithmeticError(f"seed-wave relation defect {seed:.3e}")
        worst_err, worst_seed = max(worst_err, err), max(worst_seed, seed)
    return family, worst_err, worst_seed
