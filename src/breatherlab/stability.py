"""Periodic-breather parameter machinery and stability diagnostics.

The two elliptic phases of the spatially periodic breather share a common
period only when the parameters (k, m) satisfy

    k / (1 - m) = K(m)^4 / (16 K(k)^4),

equivalently 16 k K(k)^4 = (1 - m) K(m)^4.  The left side is increasing in k
and the right side decreasing in m, so for each admissible k there is exactly
one m; k ranges over (0, k*) with k* the root of k K(k)^4 = (pi/2)^4 / 16.

Every solve on the lock is a safeguarded Newton iteration (``_newton``): the
log of the mismatch is nearly linear in s = ln(1 - m) and in ln k, and its
slope is closed-form (DLMF 19.4.1), so from a start read off the two ends of
the curve a row takes about five (K, E) evaluations.  A solved
``CommensuratePair`` keeps K and E at k and at m, and everything a stability
row prints is computed from those four integrals.

On top of the solve this module provides the closed-form mass of the periodic
breather, the variational coefficients (a1, a2), their exact parameter
derivatives, the parameter-plane discriminant D, the sign function HG whose
positivity is the usable stability condition, and the analogous (trivially
positive) check for the wave-equation breather.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

from .specfun import ellip_e, ellip_k

_PI_HALF_4 = (math.pi / 2.0) ** 4
_EPS = sys.float_info.epsilon
# largest m a solve reaches: 1 - m below 1e-15 is held by only a few doubles
_M_MAX = 1.0 - 1e-15
# (1 - m) K(m)^4 at _M_MAX, the smallest lock target a solve reaches
_TARGET_MIN = (1.0 - _M_MAX) * ellip_k(_M_MAX) ** 4
# bisection alone closes the widest bracket to one ulp in fewer
_NEWTON_STEPS = 100


def _newton(step, lo: float, hi: float, x: float):
    """Root of an increasing f in (lo, hi), from x (Brent, *Algorithms for
    Minimization without Derivatives*, 1973, ch. 4; "rtsafe").

    ``step(x)`` returns f(x), the caller's Newton iterate from x and any values
    it wants back.  Each value of f moves the bracket end on its side to x; an
    iterate outside the bracket, or NaN, is replaced by the midpoint.  Returns
    the last x evaluated and its values, once f(x) = 0 or the next point rounds
    to x: within rounding noise of the root, where f need not be monotone, the
    bracket closes in on x.
    """
    for _ in range(_NEWTON_STEPS):
        f, nxt, values = step(x)
        if math.isnan(f):
            raise ArithmeticError(f"root search met NaN at {x!r}")
        if f == 0.0 or nxt == x:
            return x, values
        if f < 0.0:
            lo = x
        else:
            hi = x
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
            if nxt == x:
                return x, values
        x = nxt
    raise ArithmeticError(f"root search did not converge in {_NEWTON_STEPS} steps")


def _solve_k(target: float, hi: float) -> tuple[float, float, float]:
    """k in (0, hi) with 16 k K(k)^4 = target, and K(k), E(k) there.

    Newton steps in ln k on ln(16 k K(k)^4 / target), whose ln k-slope is
    2 E / ((1 - k) K) - 1, from the small-k series
    16 k K(k)^4 = 16 (pi/2)^4 k (1 + k + 15 k^2 / 16 + O(k^3)).
    """
    k0 = target / (16.0 * _PI_HALF_4)
    k = k0
    for _ in range(2):
        k = k0 / (1.0 + k + 15.0 * k * k / 16.0)

    def step(k):
        K, E = ellip_k(k), ellip_e(k)
        h = math.log(16.0 * k * K**4 / target)
        return h, k * math.exp(-h / (2.0 * E / ((1.0 - k) * K) - 1.0)), (K, E)

    k, (K, E) = _newton(step, 0.0, hi, min(k, hi))
    return k, K, E


@lru_cache(maxsize=1)
def find_kstar() -> float:
    """Largest admissible k: the m -> 0 endpoint of the commensurability curve."""
    return _solve_k(_PI_HALF_4, 0.25)[0]


def _lock_start(target: float) -> float:
    """m on the lock (1 - m) K(m)^4 = target, from the curve's two ends.

    Near k*, (1 - m) K(m)^4 = (pi/2)^4 (1 - (m^2 + m^3) / 16 + O(m^4)).  Near
    k = 0, K(m) = (1 + q/4) L - q/4 + O(q^2 L) with q = 1 - m = e^s and
    L = ln 4 - s/2 (DLMF 19.12.1), and s solves s + 4 ln K = ln(target).
    """
    # m^2 (1 + m) = 16 (1 - target / (pi/2)^4), by two fixed-point steps
    m0 = 4.0 * math.sqrt(max(0.0, 1.0 - target / _PI_HALF_4))
    m = m0 / math.sqrt(1.0 + m0 / math.sqrt(1.0 + m0))
    if m < 0.8:
        return m
    # Newton steps on s + 4 ln K = ln(target), from K = 3
    log_target = math.log(target)
    s = log_target - 4.0 * math.log(3.0)
    for _ in range(4):
        q, L = math.exp(s), math.log(4.0) - 0.5 * s
        K = (1.0 + 0.25 * q) * L - 0.25 * q
        dK = 0.25 * q * (L - 1.0) - 0.5 * (1.0 + 0.25 * q)
        s -= (s + 4.0 * math.log(K) - log_target) / (1.0 + 4.0 * dK / K)
    return -math.expm1(s)


@dataclass(frozen=True)
class CommensuratePair:
    """A solved (k, m) pair, with K and E at k and at m, the derived scaling,
    the common period and the closed-form mass."""

    beta: float
    k: float
    m: float
    K_k: float
    E_k: float
    K_m: float
    E_m: float

    @property
    def alpha(self) -> float:
        return _alpha(self.beta, self.k, self.m)

    @property
    def period(self) -> float:
        return 4.0 * self.K_k / self.alpha

    @property
    def mass(self) -> float:
        """Mass of the periodic breather over one period."""
        return 4.0 * self.beta * (self.E_m + 4.0 * (self.K_k / self.K_m) * (self.E_k - self.K_k))

    @property
    def residual(self) -> float:
        """Defect of k/(1-m) = K(m)^4 / (16 K(k)^4)."""
        return self.k / (1.0 - self.m) - self.K_m ** 4 / (16.0 * self.K_k ** 4)

    @property
    def gate(self) -> float:
        """Largest |residual| a solve accepts: one ulp of m shifts the defect by
        ~ k/(1-m)^2 * eps, which dominates the 1e-12 target only in the m -> 1
        endpoint regime."""
        return 1e-12 * max(1.0, self.k / (1.0 - self.m)) + 4.0 * _EPS * self.k / (1.0 - self.m) ** 2


def check_k_range(k: float) -> None:
    """Reject k outside the open interval (0, k*) of periodic breathers."""
    kstar = find_kstar()
    if not 0.0 < k < kstar:
        raise ValueError(f"k must lie in (0, {kstar!r}), got {k}")


def check_beta(beta: float) -> None:
    """Reject a scaling beta that is not positive and finite."""
    if not 0.0 < beta < math.inf:
        raise ValueError(f"beta must be positive and finite, got {beta}")


def solve_commensurability(k: float, beta: float = 1.0) -> CommensuratePair:
    """Solve for m given k: safeguarded Newton steps in s = ln(1 - m) on
    g = ln((1 - m) K(m)^4 / (16 k K(k)^4)), which is nearly linear in s, with
    slope dg/ds = 1 - 2 (E/K - (1 - m)) / m.  The iterate is m itself, moved
    by 1 - m -> (1 - m) e^ds, so the last steps are corrections in m that
    never round through s.  Within a few ulps of the root g is not monotone
    (the band is about 1e-12 wide near k*, where dg/ds -> 0), so m is fixed
    only up to that band."""
    check_beta(beta)
    check_k_range(k)
    K_k = ellip_k(k)
    target = 16.0 * k * K_k**4
    if not target > _TARGET_MIN:
        raise ValueError(f"k = {k!r} needs 1 - m < 1e-15, which double precision cannot hold")

    def step(m):
        K, E = ellip_k(m), ellip_e(m)
        g = math.log((1.0 - m) * K**4 / target)
        slope = 1.0 - 2.0 * (E / K - (1.0 - m)) / m
        # the slope cancels as m -> 0: one that rounds to zero or below gives
        # a NaN step, a tiny one a step far out of the bracket (capped below
        # expm1's overflow), and _newton bisects on either
        ds = -g / slope if slope > 0.0 else math.nan
        return -g, m - (1.0 - m) * math.expm1(min(ds, 709.0)), (K, E)

    m, (K_m, E_m) = _newton(step, 1e-15, _M_MAX, min(max(_lock_start(target), 1e-15), _M_MAX))
    pair = CommensuratePair(beta, k, m, K_k, ellip_e(k), K_m, E_m)
    if not (abs(pair.residual) <= pair.gate):
        raise ArithmeticError(f"commensurability solve stalled, residual {pair.residual:.2e}")
    return pair


def solve_commensurability_from_m(m: float, beta: float = 1.0) -> CommensuratePair:
    """Inverse solve: k given m."""
    if not 0.0 < m < 1.0:
        raise ValueError(f"m must lie in (0, 1), got {m}")
    K_m = ellip_k(m)
    k, K_k, E_k = _solve_k((1.0 - m) * K_m**4, find_kstar())
    return CommensuratePair(beta, k, m, K_k, E_k, K_m, ellip_e(m))


# ---------------------------------------------------------------------------
# closed-form mass and variational coefficients
# ---------------------------------------------------------------------------


def _alpha(beta: float, k: float, m: float) -> float:
    return beta * ((1.0 - m) / k) ** 0.25


def _a1a2(beta: float, k: float, m: float) -> tuple[float, float]:
    a = _alpha(beta, k, m)
    a1 = 2.0 * (beta * beta * (2.0 - m) - a * a * (1.0 + k))
    a2 = (
        a**4 * (1.0 + k * k - 26.0 * k)
        + 2.0 * a * a * beta * beta * (2.0 - m) * (1.0 + k)
        + beta**4 * m * m
    )
    return a1, a2


def _derivatives(m: float, K: float, E: float) -> tuple[float, float]:
    """dK/dm and dE/dm from K(m) and E(m) (DLMF 19.4.1 in the parameter form)."""
    return (E - (1.0 - m) * K) / (2.0 * m * (1.0 - m)), (E - K) / (2.0 * m)


def lock_slope(pair: CommensuratePair) -> float:
    """dm/dk = -F_k / F_m along the period lock F(k, m) = 16 k K(k)^4 - (1 - m) K(m)^4 = 0."""
    k, m, Kk, Km = pair.k, pair.m, pair.K_k, pair.K_m
    dKk, dKm = _derivatives(k, Kk, pair.E_k)[0], _derivatives(m, Km, pair.E_m)[0]
    return -(16.0 * Kk**4 + 64.0 * k * Kk**3 * dKk) / (Km**4 - 4.0 * (1.0 - m) * Km**3 * dKm)


def coefficient_gradients(pair: CommensuratePair, constraint: str = "frozen"):
    """Values and exact (beta, k)-partials of (a1, a2, mass) at a locked pair.

    Returns three triples ordered (a1, a2, mass): the values, the beta-partials
    and the k-partials.  beta enters as pure powers (a1 ~ beta^2, a2 ~ beta^4,
    mass ~ beta), and m does not depend on it.  "frozen" holds m fixed in the
    k-partials; "resolved" adds dm/dk = -F_k / F_m along the period lock
    (``lock_slope``).  Every elliptic integral comes from the pair.
    """
    if constraint not in ("frozen", "resolved"):
        raise ValueError("constraint must be 'frozen' or 'resolved'")
    beta, k, m = pair.beta, pair.k, pair.m
    (a1, a2), mass = _a1a2(beta, k, m), pair.mass
    Kk, Ek, Km = pair.K_k, pair.E_k, pair.K_m
    dKk, dEk = _derivatives(k, Kk, Ek)
    dKm, dEm = _derivatives(m, Km, pair.E_m)
    s = _alpha(beta, k, m) ** 2
    s_k, s_m = -s / (2.0 * k), -s / (2.0 * (1.0 - m))
    poly, b2 = 1.0 + k * k - 26.0 * k, beta * beta
    # partials at fixed m, then in m at fixed k
    a1_k = -2.0 * (s_k * (1.0 + k) + s)
    a1_m = -2.0 * (b2 + s_m * (1.0 + k))
    a2_k = 2.0 * s * s_k * poly + s * s * (2.0 * k - 26.0) - b2 * (2.0 - m) * a1_k
    a2_m = 2.0 * s * s_m * poly + 2.0 * b2 * (1.0 + k) * (s_m * (2.0 - m) - s) + 2.0 * b2 * b2 * m
    mass_k = 16.0 * beta * (dKk * (Ek - Kk) + Kk * (dEk - dKk)) / Km
    mass_m = 4.0 * beta * (dEm - 4.0 * Kk * (Ek - Kk) * dKm / Km**2)
    if constraint == "resolved":
        m_k = lock_slope(pair)
        a1_k, a2_k, mass_k = a1_k + m_k * a1_m, a2_k + m_k * a2_m, mass_k + m_k * mass_m
    return (a1, a2, mass), (2.0 * a1 / beta, 4.0 * a2 / beta, mass / beta), (a1_k, a2_k, mass_k)


DEGENERACY_TOL = 1e-10


def _discriminant(grad_b, grad_k) -> tuple[float, float]:
    """D and HG from the gradients; HG is NaN where D vanishes to working precision."""
    (a1_b, a2_b, mass_b), (a1_k, a2_k, mass_k) = grad_b, grad_k
    t1, t2 = a1_k * a2_b, a2_k * a1_b
    scale, hg_num = abs(t1) + abs(t2), a1_k * mass_b - a1_b * mass_k
    # fails closed: NaN, overflow and subnormal terms never reach a verdict
    if not (sys.float_info.min <= scale < math.inf and math.isfinite(hg_num)):
        raise ArithmeticError(f"discriminant terms outside the floating-point range: {scale:.3e}")
    d = t1 - t2
    return d, hg_num / d if abs(d) > DEGENERACY_TOL * scale else math.nan


def discriminant_and_hg(beta: float, k: float, constraint: str = "frozen") -> tuple[float, float]:
    """Parameter-plane discriminant D and the sign function HG.

    D pairs the (beta, k)-gradients of the two variational coefficients; HG
    replaces the second coefficient by the closed-form mass.  The partials
    are exact (see ``coefficient_gradients``).

    ``constraint`` picks the treatment of the locked parameter m inside the
    k-derivative.  "frozen" differentiates the closed formulas at the
    constraint value of m (this is the convention behind the reference sign
    landscape: D(1, .) crosses zero near k = 0.0545 and HG turns negative
    beyond it).  "resolved" differentiates along the actual solution family,
    which keeps the inverse-direction identity L[B0] = -B true but turns out
    to produce no sign change at all.
    """
    pair = solve_commensurability(k, beta)
    d, hg = _discriminant(*coefficient_gradients(pair, constraint)[1:])
    if math.isnan(hg):
        raise ArithmeticError("degenerate discriminant: the inverse direction is undefined")
    return d, hg


def discriminant_root() -> float:
    """Zero crossing of the frozen-constraint discriminant in k, bracketed by
    (0.04, 0.058), where D falls through zero.  The frozen D is beta^5 times a
    function of k, so the root does not depend on beta; it is found at
    beta = 1, by bisection on -D."""
    return _newton(lambda k: (-_discriminant(*coefficient_gradients(solve_commensurability(k))[1:])[0],
                              math.nan, None), 0.04, 0.058, 0.049)[0]


@dataclass(frozen=True)
class StabilityReport:
    beta: float
    k: float
    m: float
    alpha: float
    period: float
    mass: float
    a1: float
    a2: float
    discriminant: float
    hg: float
    verdict: str
    residual_to_gate: float  # |commensurability residual| / its gate

    CSV_COLUMNS = "beta,k,m,alpha,L,mass,a1,a2,D,HG,verdict"

    def csv_row(self, fmt=repr) -> str:
        """The row with ``fmt`` applied to every number but m, which is printed
        in full so that the row can be checked against the period lock."""
        vals = [
            self.alpha, self.period, self.mass, self.a1, self.a2, self.discriminant, self.hg,
        ]
        head = [fmt(self.beta), fmt(self.k), repr(self.m)]
        return ",".join(head + [fmt(v) for v in vals] + [self.verdict])


def stability_report(beta: float, k: float) -> StabilityReport:
    """Full periodic-breather diagnostic row for one (beta, k), from the four
    elliptic integrals of its solved pair."""
    pair = solve_commensurability(k, beta)
    (a1, a2, mass), grad_b, grad_k = coefficient_gradients(pair)
    d, hg = _discriminant(grad_b, grad_k)
    if math.isnan(hg):
        d, verdict = 0.0, "degenerate"
    else:
        verdict = "stable-candidate" if hg > 0 else "unstable-candidate"
    return StabilityReport(
        beta=beta, k=k, m=pair.m, alpha=pair.alpha, period=pair.period,
        mass=mass, a1=a1, a2=a2, discriminant=d, hg=hg, verdict=verdict,
        residual_to_gate=abs(pair.residual) / pair.gate,
    )


def sg_weinstein_check(beta: float, v: float) -> float:
    """Quadratic pairing -<B0, L B0> of the scaled variational direction
    B0 = -(1/2 beta) dB/dbeta of the wave-equation breather, that is
    -Q / (4 beta^2) with Q = ``linops.sg_scaling_quadratic_form``; equals
    (8 / beta)(1 + 3 v^2) and is positive for every admissible (beta, v)."""
    from . import breathers, linops  # local import: breathers imports this module

    return -linops.sg_scaling_quadratic_form(breathers.SgBreather(beta=beta, v=v)) / (4.0 * beta**2)
