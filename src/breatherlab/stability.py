"""Periodic-breather parameter machinery and stability diagnostics.

The two elliptic phases of the spatially periodic breather share a common
period only when the parameters (k, m) satisfy

    k / (1 - m) = K(m)^4 / (16 K(k)^4),

equivalently 16 k K(k)^4 = (1 - m) K(m)^4.  The left side is increasing in k
and the right side decreasing in m, so for each admissible k there is exactly
one m; k ranges over (0, k*) with k* the root of k K(k)^4 = (pi/2)^4 / 16.

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

import numpy as np

from .specfun import ellip_e, ellip_k

_PI_HALF_4 = (math.pi / 2.0) ** 4


def _bisect(f, lo: float, hi: float, iters: int = 200) -> float:
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ValueError("bisection bracket does not straddle a root")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


@lru_cache(maxsize=1)
def find_kstar() -> float:
    """Largest admissible k: the m -> 0 endpoint of the commensurability curve."""
    return _bisect(lambda k: 16.0 * k * ellip_k(k) ** 4 - _PI_HALF_4, 1e-6, 0.25)


@dataclass(frozen=True)
class CommensuratePair:
    """A solved (k, m) pair with the derived scaling and common period."""

    beta: float
    k: float
    m: float

    @property
    def alpha(self) -> float:
        return _alpha(self.beta, self.k, self.m)

    @property
    def period(self) -> float:
        return 4.0 * ellip_k(self.k) / self.alpha

    @property
    def residual(self) -> float:
        """Defect of k/(1-m) = K(m)^4 / (16 K(k)^4)."""
        return self.k / (1.0 - self.m) - ellip_k(self.m) ** 4 / (16.0 * ellip_k(self.k) ** 4)


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
    """Solve for m given k; bisection on the monotone period mismatch."""
    check_beta(beta)
    check_k_range(k)
    target = 16.0 * k * ellip_k(k) ** 4

    def f(m):
        return (1.0 - m) * ellip_k(m) ** 4 - target

    m = _bisect(f, 1e-15, 1.0 - 1e-15)
    pair = CommensuratePair(beta=beta, k=k, m=m)
    # one ulp of m shifts the printed-form defect by ~ k/(1-m)^2 * eps, which
    # dominates the 1e-12 target only in the m -> 1 endpoint regime
    eps = np.finfo(float).eps
    gate = 1e-12 * max(1.0, k / (1.0 - m)) + 4.0 * eps * k / (1.0 - m) ** 2
    if not (abs(pair.residual) <= gate):
        raise ArithmeticError(f"commensurability solve stalled, residual {pair.residual:.2e}")
    return pair


def solve_commensurability_from_m(m: float, beta: float = 1.0) -> CommensuratePair:
    """Inverse solve: k given m."""
    if not 0.0 < m < 1.0:
        raise ValueError(f"m must lie in (0, 1), got {m}")
    target = (1.0 - m) * ellip_k(m) ** 4
    k = _bisect(lambda k: 16.0 * k * ellip_k(k) ** 4 - target, 1e-18, find_kstar())
    return CommensuratePair(beta=beta, k=k, m=m)


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


def _mass(beta: float, k: float, m: float) -> float:
    return 4.0 * beta * (ellip_e(m) + 4.0 * (ellip_k(k) / ellip_k(m)) * (ellip_e(k) - ellip_k(k)))


def periodic_mass(beta: float, k: float) -> float:
    """Mass of the periodic breather over one period, in closed form."""
    return _mass(beta, k, solve_commensurability(k, beta).m)


def _elliptic_pair(m: float) -> tuple[float, float, float, float]:
    """K(m), E(m) and their m-derivatives (DLMF 19.4.1 in the parameter form)."""
    K, E = ellip_k(m), ellip_e(m)
    return K, E, (E - (1.0 - m) * K) / (2.0 * m * (1.0 - m)), (E - K) / (2.0 * m)


def lock_slope(k: float, m: float) -> float:
    """dm/dk = -F_k / F_m along the period lock F(k, m) = 16 k K(k)^4 - (1 - m) K(m)^4 = 0."""
    Kk, _, dKk, _ = _elliptic_pair(k)
    Km, _, dKm, _ = _elliptic_pair(m)
    return -(16.0 * Kk**4 + 64.0 * k * Kk**3 * dKk) / (Km**4 - 4.0 * (1.0 - m) * Km**3 * dKm)


def coefficient_gradients(beta: float, k: float, m: float, constraint: str = "frozen"):
    """Values and exact (beta, k)-partials of (a1, a2, mass) at a locked pair.

    Returns three triples ordered (a1, a2, mass): the values, the beta-partials
    and the k-partials.  beta enters as pure powers (a1 ~ beta^2, a2 ~ beta^4,
    mass ~ beta), and m does not depend on it.  "frozen" holds m fixed in the
    k-partials; "resolved" adds dm/dk = -F_k / F_m along the period lock
    (``lock_slope``).
    """
    if constraint not in ("frozen", "resolved"):
        raise ValueError("constraint must be 'frozen' or 'resolved'")
    check_k_range(k)
    (a1, a2), mass = _a1a2(beta, k, m), _mass(beta, k, m)
    Kk, Ek, dKk, dEk = _elliptic_pair(k)
    Km, Em, dKm, dEm = _elliptic_pair(m)
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
        m_k = lock_slope(k, m)
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
    m = solve_commensurability(k, beta).m
    d, hg = _discriminant(*coefficient_gradients(beta, k, m, constraint)[1:])
    if math.isnan(hg):
        raise ArithmeticError("degenerate discriminant: the inverse direction is undefined")
    return d, hg


def discriminant_root() -> float:
    """Zero crossing of the frozen-constraint discriminant in k, bracketed by
    (0.04, 0.058).  The frozen D is beta^5 times a function of k, so the root
    does not depend on beta; it is found at beta = 1."""

    def d(k):
        m = solve_commensurability(k).m
        return _discriminant(*coefficient_gradients(1.0, k, m)[1:])[0]

    return _bisect(d, 0.04, 0.058, iters=60)


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
    """Full periodic-breather diagnostic row for one (beta, k)."""
    pair = solve_commensurability(k, beta)
    (a1, a2, mass), grad_b, grad_k = coefficient_gradients(beta, k, pair.m)
    d, hg = _discriminant(grad_b, grad_k)
    if math.isnan(hg):
        d, verdict = 0.0, "degenerate"
    else:
        verdict = "stable-candidate" if hg > 0 else "unstable-candidate"
    return StabilityReport(
        beta=beta, k=k, m=pair.m, alpha=pair.alpha, period=pair.period,
        mass=mass, a1=a1, a2=a2, discriminant=d, hg=hg, verdict=verdict,
    )


def sg_weinstein_check(beta: float, v: float) -> float:
    """Quadratic pairing -<B0, L B0> of the scaled variational direction
    B0 = -(1/2 beta) dB/dbeta of the wave-equation breather, that is
    -Q / (4 beta^2) with Q = ``linops.sg_scaling_quadratic_form``; equals
    (8 / beta)(1 + 3 v^2) and is positive for every admissible (beta, v)."""
    from . import breathers, linops  # local import: breathers imports this module

    return -linops.sg_scaling_quadratic_form(breathers.SgBreather(beta=beta, v=v)) / (4.0 * beta**2)
