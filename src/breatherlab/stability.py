"""Periodic-breather parameter machinery and stability diagnostics.

The two elliptic phases of the spatially periodic breather share a common
period only when the parameters (k, m) satisfy

    k / (1 - m) = K(m)^4 / (16 K(k)^4),

equivalently 16 k K(k)^4 = (1 - m) K(m)^4.  The left side is increasing in k
and the right side decreasing in m, so for each admissible k there is exactly
one m; k ranges over (0, k*) with k* the root of k K(k)^4 = (pi/2)^4 / 16.

On top of the solve this module provides the closed-form mass of the periodic
breather, the variational coefficients (a1, a2), the parameter-plane
discriminant D, the sign function HG whose positivity is the usable stability
condition, and the analogous (trivially positive) check for the wave-equation
breather.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .specfun import ellip_e, ellip_k

_PI_HALF_4 = (math.pi / 2.0) ** 4


def _period_mismatch(k: float, m: float) -> float:
    """16 k K(k)^4 - (1 - m) K(m)^4; zero exactly on commensurate pairs."""
    return 16.0 * k * ellip_k(k) ** 4 - (1.0 - m) * ellip_k(m) ** 4


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
        if self.k == 0.0:
            return 0.0
        return self.beta * ((1.0 - self.m) / self.k) ** 0.25

    @property
    def period(self) -> float:
        if self.k == 0.0:
            return math.inf
        return 4.0 * ellip_k(self.k) / self.alpha

    @property
    def residual(self) -> float:
        """Defect of k/(1-m) = K(m)^4 / (16 K(k)^4)."""
        if self.k == 0.0:
            return 0.0
        return self.k / (1.0 - self.m) - ellip_k(self.m) ** 4 / (16.0 * ellip_k(self.k) ** 4)


def check_k_range(k: float) -> None:
    """Reject k outside the open interval (0, k*) of periodic breathers."""
    kstar = find_kstar()
    if not 0.0 < k < kstar:
        raise ValueError(f"k must lie in (0, {kstar!r}), got {k}")


def solve_commensurability(k: float, beta: float = 1.0) -> CommensuratePair:
    """Solve for m given k; bisection on the monotone period mismatch."""
    if k == 0.0:
        return CommensuratePair(beta=beta, k=0.0, m=1.0)
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
    if m == 1.0:
        return CommensuratePair(beta=beta, k=0.0, m=1.0)
    if not 0.0 < m < 1.0:
        raise ValueError("m must lie in (0, 1]")
    target = (1.0 - m) * ellip_k(m) ** 4
    k = _bisect(lambda k: 16.0 * k * ellip_k(k) ** 4 - target, 1e-18, find_kstar())
    return CommensuratePair(beta=beta, k=k, m=m)


# ---------------------------------------------------------------------------
# closed-form mass and variational coefficients
# ---------------------------------------------------------------------------


def periodic_mass(beta: float, k: float) -> float:
    """Mass of the periodic breather over one period, in closed form."""
    pair = solve_commensurability(k, beta)
    m = pair.m
    if k == 0.0:
        return 4.0 * beta
    return 4.0 * beta * (ellip_e(m) + 4.0 * (ellip_k(k) / ellip_k(m)) * (ellip_e(k) - ellip_k(k)))


def coeffs_a1a2(beta: float, k: float) -> tuple[float, float]:
    """Variational coefficients of the periodic stationary equation."""
    pair = solve_commensurability(k, beta)
    m, a = pair.m, pair.alpha
    b = beta
    a1 = 2.0 * (b * b * (2.0 - m) - a * a * (1.0 + k))
    a2 = a**4 * (1.0 + k * k - 26.0 * k) + 2.0 * a * a * b * b * (2.0 - m) * (1.0 + k) + b**4 * m * m
    return a1, a2


def _central(f, x: float, h: float, richardson: bool = True) -> float:
    def d(step):
        return (f(x + step) - f(x - step)) / (2.0 * step)

    if not richardson:
        return d(h)
    return (4.0 * d(0.5 * h) - d(h)) / 3.0


def _a1_of(beta: float, k: float, m: float) -> float:
    a = beta * ((1.0 - m) / k) ** 0.25 if k > 0 else 0.0
    return 2.0 * (beta * beta * (2.0 - m) - a * a * (1.0 + k))


def _a2_of(beta: float, k: float, m: float) -> float:
    a = beta * ((1.0 - m) / k) ** 0.25 if k > 0 else 0.0
    return (
        a**4 * (1.0 + k * k - 26.0 * k)
        + 2.0 * a * a * beta * beta * (2.0 - m) * (1.0 + k)
        + beta**4 * m * m
    )


def _mass_of(beta: float, k: float, m: float) -> float:
    return 4.0 * beta * (ellip_e(m) + 4.0 * (ellip_k(k) / ellip_k(m)) * (ellip_e(k) - ellip_k(k)))


DEGENERACY_TOL = 1e-10


def discriminant_and_hg(
    beta: float,
    k: float,
    hb: float = 1e-6,
    hk: float = 1e-6,
    richardson: bool = True,
    constraint: str = "frozen",
) -> tuple[float, float]:
    """Parameter-plane discriminant D and the sign function HG.

    D pairs the (beta, k)-gradients of the two variational coefficients; HG
    replaces the second coefficient by the closed-form mass.  Partials are
    central differences with one Richardson sweep.

    ``constraint`` picks the treatment of the locked parameter m inside the
    k-derivative.  "frozen" differentiates the closed formulas at the
    constraint value of m without re-solving (this is the convention behind
    the reference sign landscape: D(1, .) crosses zero near k = 0.0545 and
    HG turns negative beyond it).  "resolved" re-solves the commensurability
    relation at every displaced k; that is the derivative along the actual
    solution family, which keeps the inverse-direction identity
    L[B0] = -B true but turns out to produce no sign change at all.
    """
    d, hg_num, scale = _discriminant_parts(beta, k, hb, hk, richardson, constraint)
    if abs(d) < DEGENERACY_TOL * scale:
        raise ArithmeticError("degenerate discriminant: the inverse direction is undefined")
    return d, hg_num / d


def _discriminant_parts(beta, k, hb, hk, richardson, constraint):
    if constraint not in ("frozen", "resolved"):
        raise ValueError("constraint must be 'frozen' or 'resolved'")
    hbeta = hb * max(1.0, beta)
    if constraint == "resolved":
        a1 = lambda kk: coeffs_a1a2(beta, kk)[0]
        a2 = lambda kk: coeffs_a1a2(beta, kk)[1]
        mass_k = lambda kk: periodic_mass(beta, kk)
    else:
        m = solve_commensurability(k, beta).m
        a1 = lambda kk: _a1_of(beta, kk, m)
        a2 = lambda kk: _a2_of(beta, kk, m)
        mass_k = lambda kk: _mass_of(beta, kk, m)
    da1_dk = _central(a1, k, hk, richardson)
    da2_dk = _central(a2, k, hk, richardson)
    dm_dk = _central(mass_k, k, hk, richardson)
    # beta enters as pure powers, so the beta-partials agree between the two
    # conventions; finite differences keep the declared scheme uniform
    da1_db = _central(lambda b: coeffs_a1a2(b, k)[0], beta, hbeta, richardson)
    da2_db = _central(lambda b: coeffs_a1a2(b, k)[1], beta, hbeta, richardson)
    dm_db = _central(lambda b: periodic_mass(b, k), beta, hbeta, richardson)
    d = da1_dk * da2_db - da2_dk * da1_db
    scale = max(abs(da1_dk * da2_db), abs(da2_dk * da1_db), 1e-300)
    return d, da1_dk * dm_db - da1_db * dm_dk, scale


def discriminant_root(beta: float = 1.0, lo: float = 0.04, hi: float = 0.058) -> float:
    """Zero crossing of the frozen-constraint discriminant in k."""
    return _bisect(
        lambda k: _discriminant_parts(beta, k, 1e-6, 1e-6, True, "frozen")[0], lo, hi, iters=60
    )


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
        vals = [
            self.beta, self.k, self.m, self.alpha, self.period,
            self.mass, self.a1, self.a2, self.discriminant, self.hg,
        ]
        return ",".join([fmt(v) for v in vals] + [self.verdict])


def stability_report(beta: float, k: float) -> StabilityReport:
    """Full periodic-breather diagnostic row for one (beta, k)."""
    pair = solve_commensurability(k, beta)
    a1, a2 = coeffs_a1a2(beta, k)
    mass = periodic_mass(beta, k)
    try:
        d, hg = discriminant_and_hg(beta, k)
        verdict = "stable-candidate" if hg > 0 else "unstable-candidate"
    except ArithmeticError:
        d, hg, verdict = 0.0, math.nan, "degenerate"
    return StabilityReport(
        beta=beta, k=k, m=pair.m, alpha=pair.alpha, period=pair.period,
        mass=mass, a1=a1, a2=a2, discriminant=d, hg=hg, verdict=verdict,
    )


def sg_weinstein_check(beta: float, v: float) -> float:
    """Quadratic pairing of the scaled variational direction for the
    wave-equation breather; equals (8 / beta)(1 + 3 v^2) and is positive
    for every admissible (beta, v)."""
    from . import linops  # local import: linops depends on breathers

    return linops.sg_scaled_direction_pairing(beta, v)
