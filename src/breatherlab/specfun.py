"""Jacobi elliptic functions, complete elliptic integrals and basis evaluators.

Everything uses the PARAMETER convention: ``m`` is the quantity appearing as
``K(m) = int_0^{pi/2} (1 - m sin^2 s)^{-1/2} ds``, so the quarter-period
identities read ``sn'^2 = 1 - (1+m) sn^2 + m sn^4`` and
``nd'^2 = -1 + (2-m) nd^2 + (m-1) nd^4``.

The complete elliptic integrals K and E come together from one
arithmetic-geometric mean (``ellip_ke``; ``ellip_k`` and ``ellip_e`` read
it), the Jacobi functions and Jacobi's epsilon from the descending-Landen
phase recursion, and the Hermite functions from the stable normalised
recurrence; none of these lose accuracy over the parameter ranges used by the
breather families.  The jets of sn, cn and dn, and of their partials in m,
come from Taylor tables built by the derivative relations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import jets
from .jets import Jet2

# one ulp above machine precision; AGM gains quadratically per step anyway
_AGM_TOL = 4e-16
_AGM_MAX_ITER = 64
# an AGM stops once |c_n| <= _AGM_STOP a_n
_AGM_STOP = 0.25 * _AGM_TOL


def ellip_ke(m: float) -> tuple[float, float]:
    """Complete elliptic integrals (K(m), E(m)) of the first and second kind,
    parameter convention, from one AGM: K = pi / (2 a_N) and
    E = K (1 - sum_n 2^(n-1) c_n^2) (DLMF 19.8.1, 19.8.6)."""
    if not 0.0 <= m < 1.0:
        raise ValueError(f"ellip_ke requires 0 <= m < 1, got {m}")
    sqrt = math.sqrt
    a, b, c = 1.0, sqrt(1.0 - m), sqrt(m)
    csum = 0.5 * c * c
    p = 1.0
    for _ in range(_AGM_MAX_ITER):
        if abs(c) <= _AGM_STOP * a:
            break
        c = 0.5 * (a - b)
        a, b = 0.5 * (a + b), sqrt(a * b)
        csum += p * c * c
        p *= 2.0
    k = math.pi / (a + b)
    return k, k * (1.0 - csum)


def ellip_k(m: float) -> float:
    """Complete elliptic integral of the first kind, parameter convention."""
    return ellip_ke(m)[0]


def ellip_e(m: float) -> float:
    """Complete elliptic integral of the second kind, parameter convention."""
    if m == 1.0:
        return 1.0
    return ellip_ke(m)[1]


def _agm_ladder(m: float):
    a_list, c_list = [1.0], [math.sqrt(m)]
    b = math.sqrt(1.0 - m)
    for _ in range(_AGM_MAX_ITER):
        if abs(c_list[-1]) <= _AGM_STOP * a_list[-1]:
            break
        a, c = 0.5 * (a_list[-1] + b), 0.5 * (a_list[-1] - b)
        b = math.sqrt(a_list[-1] * b)
        a_list.append(a)
        c_list.append(c)
    return a_list, c_list


def _landen(u, m: float, zeta: bool = False):
    """Amplitude phi_0 of u down the descending Landen phases phi_n (A&S 16.4),
    for 0 < m < 1, and with ``zeta`` the Jacobi zeta sum  sum_n c_n sin(phi_n)
    (A&S 17.6.8), else 0."""
    a_list, c_list = _agm_ladder(m)
    n = len(a_list) - 1
    phi = (2.0**n) * a_list[n] * u
    total = 0.0
    for i in range(n, 0, -1):
        s = np.sin(phi)
        if zeta:
            total = total + c_list[i] * s
        phi = 0.5 * (phi + np.arcsin(np.clip(c_list[i] / a_list[i] * s, -1.0, 1.0)))
    return phi, total


def jacobi_amplitude(u, m: float):
    """Jacobi amplitude: the antiderivative of dn starting at zero."""
    u = np.asarray(u, dtype=float)
    if not 0.0 <= m <= 1.0:
        raise ValueError(f"parameter m must lie in [0, 1], got {m}")
    if m == 0.0:
        out = u.copy()
    elif m == 1.0:
        out = 2.0 * np.arctan(np.exp(u)) - 0.5 * math.pi
    else:
        out = _landen(u, m)[0]
    return out if out.ndim else float(out)


def jacobi_epsilon(u, m: float):
    """Jacobi's epsilon function, the antiderivative of dn^2 starting at zero
    (DLMF 22.16.14), for 0 < m < 1: (E/K) u plus the Jacobi zeta sum over the
    Landen phases."""
    if not 0.0 < m < 1.0:
        raise ValueError(f"epsilon and the parameter partials need 0 < m < 1, got {m}")
    u = np.asarray(u, dtype=float)
    K, E = ellip_ke(m)
    out = E / K * u + _landen(u, m, zeta=True)[1]
    return out if out.ndim else float(out)


def _sncndn(u, m: float):
    u = np.asarray(u, dtype=float)
    if m == 1.0:
        sn = np.tanh(u)
        cn = 1.0 / np.cosh(u)
        return sn, cn, cn.copy()
    phi = jacobi_amplitude(u, m)
    sn = np.sin(phi)
    cn = np.cos(phi)
    dn = np.sqrt(np.maximum(1.0 - m * sn * sn, 0.0))
    return sn, cn, dn


# each Jacobi function by name, from (sn, cn, dn): arrays or jets
_JACOBI = {
    "sn": lambda s, c, d: s,
    "cn": lambda s, c, d: c,
    "dn": lambda s, c, d: d,
    "nd": lambda s, c, d: 1.0 / d,
    "sd": lambda s, c, d: s / d,
    "cd": lambda s, c, d: c / d,
}


def _jacobi_form(which: str):
    if which not in _JACOBI:
        raise ValueError(f"unknown Jacobi function {which!r}")
    return _JACOBI[which]


def jacobi(u, m: float, which: str):
    """Jacobi elliptic function value(s); which in {sn, cn, dn, nd, sd, cd}."""
    sn, cn, dn = _sncndn(u, m)
    form = _jacobi_form(which)
    if which in ("nd", "sd", "cd") and np.any(dn == 0.0):
        raise ZeroDivisionError(f"{which} undefined where dn vanishes")
    out = form(sn, cn, dn)
    return out if np.ndim(out) else float(out)


def _sncndn_tables(u0, m: float, deg: int):
    """Univariate Taylor tables of (sn, cn, dn) at u0, from the coupled
    derivative relations sn' = cn dn, cn' = -sn dn, dn' = -m sn cn."""
    s = np.zeros((deg + 1,) + np.shape(u0))
    c = np.zeros_like(s)
    d = np.zeros_like(s)
    s[0], c[0], d[0] = _sncndn(u0, m)
    for k in range(deg):
        conv_cd = sum(c[j] * d[k - j] for j in range(k + 1))
        conv_sd = sum(s[j] * d[k - j] for j in range(k + 1))
        conv_sc = sum(s[j] * c[k - j] for j in range(k + 1))
        s[k + 1] = conv_cd / (k + 1)
        c[k + 1] = -conv_sd / (k + 1)
        d[k + 1] = -m * conv_sc / (k + 1)
    return s, c, d


def jacobi_sncndn_jet(a: Jet2, m: float):
    """Jet lift of (sn, cn, dn): their Taylor tables at the constant term,
    composed with the nilpotent part by plain polynomial evaluation."""
    return tuple(jets.compose_univariate(t, a) for t in _sncndn_tables(a.value, m, a.deg))


def jacobi_dm_jet(a: Jet2, m: float):
    """Jets of the parameter partials (d_m sn, d_m cn, d_m dn) at a fixed
    argument, for 0 < m < 1 (Byrd & Friedman 710.00-710.02).

    All three follow from the partial of the amplitude,
    d_m am = sn cn / (2 (1-m)) - dn (eps - (1-m) u) / (2 m (1-m)), with eps
    Jacobi's epsilon; the Taylor table of eps is eps(u0) followed by that of
    its derivative dn^2, each coefficient divided by its order.
    """
    s, c, d = _sncndn_tables(a.value, m, a.deg)
    e = np.empty_like(d)
    e[0] = jacobi_epsilon(a.value, m)
    for k in range(a.deg):
        e[k + 1] = sum(d[j] * d[k - j] for j in range(k + 1)) / (k + 1)
    sn, cn, dn, eps = (jets.compose_univariate(t, a) for t in (s, c, d, e))
    am_m = (0.5 / (1.0 - m)) * sn * cn - (0.5 / (m * (1.0 - m))) * dn * (eps - (1.0 - m) * a)
    return cn * am_m, -sn * am_m, -sn * (sn + (2.0 * m) * cn * am_m) / (2.0 * dn)


def jacobi_jet(a: Jet2, m: float, which: str) -> Jet2:
    return _jacobi_form(which)(*jacobi_sncndn_jet(a, m))


# -- Hermite functions -------------------------------------------------------


def hermite_values(nmax: int, x) -> np.ndarray:
    """Orthonormal Hermite functions f_0..f_nmax at the points x.

    Generated by the normalised recurrence with the Gaussian folded in, so
    no entry overflows even for nmax in the hundreds.  The Gaussian seed
    underflows (to exactly 0 from |x| = 38.6) where f_800 is still O(0.1),
    out to its turning point near 40.  So past |x| = sqrt(1200) the seed is
    scaled up by e^s, s = x^2/2 - 600, and the values down at the end by
    e^(-s/2) twice, so that no factor underflows before its product does.
    Elsewhere s = 0, the factor is exactly 1 and the values are unchanged,
    bitwise.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    shift = np.maximum(0.5 * x * x - 600.0, 0.0)
    v = np.zeros((nmax + 1, x.size))
    v[0] = math.pi ** (-0.25) * np.exp(shift - 0.5 * x * x)
    if nmax >= 1:
        v[1] = math.sqrt(2.0) * x * v[0]
    for n in range(1, nmax):
        v[n + 1] = math.sqrt(2.0 / (n + 1)) * x * v[n] - math.sqrt(n / (n + 1)) * v[n - 1]
    if np.any(shift):
        half = np.exp(-0.5 * shift)
        v *= half
        v *= half
    return v


def hermite_stack(nmax: int, x, orders: int) -> np.ndarray:
    """[f, f', ..., f^(orders)] for n = 0..nmax as one C-contiguous
    (orders + 1, nmax + 1, len(x)) array; it reads f_0..f_nmax alone.

    f comes from ``hermite_values``, f' from the lowering relation
    f_n' = sqrt(2n) f_{n-1} - x f_n, and the higher orders from the Hermite
    equation f_n'' = q_n f_n with q_n = x^2 - (2n + 1), differentiated m
    times (q has no third derivative):
    f^(m+2) = q f^(m) + 2 m x f^(m-1) + m (m - 1) f^(m-2).  They are formed
    32 rows at a time, which keeps q and the products small.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((orders + 1, nmax + 1, x.size))
    out[0] = hermite_values(nmax, x)
    for lo in range(0, nmax + 1, 32):
        f = out[:, lo:lo + 32]
        k = np.arange(lo, lo + f.shape[1])[:, None]
        if orders >= 1:
            np.multiply(-x, f[0], out=f[1])
            first = 1 if lo == 0 else 0  # f_0 has no lower neighbour
            f[1, first:] += np.sqrt(2.0 * k[first:]) * out[0, lo + first - 1:lo + f.shape[1] - 1]
        q = x * x - (2.0 * k + 1.0)
        for m in range(orders - 1):
            np.multiply(q, f[m], out=f[m + 2])
            if m >= 1:
                f[m + 2] += (2.0 * m) * x * f[m - 1]
            if m >= 2:
                f[m + 2] += m * (m - 1) * f[m - 2]
    return out


@dataclass(frozen=True)
class HermiteBasis:
    """Orthonormal Hermite functions f_0..f_{count-1} on the line."""

    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("basis needs at least one function")

    @property
    def size(self) -> int:
        return self.count

    def stack(self, x, orders: int) -> np.ndarray:
        """[V, V', ..., V^(orders)] as one (orders + 1, size, len(x)) array."""
        return hermite_stack(self.count - 1, x, orders)


@dataclass(frozen=True)
class FourierBasis:
    """Orthonormal trig basis {1/sqrt(L), sqrt(2/L) cos, sqrt(2/L) sin} on (0, L).

    Functions are ordered [const, cos_1, sin_1, ..., cos_N, sin_N], giving
    2N+1 in total.
    """

    period: float
    count_n: int

    def __post_init__(self):
        if self.period <= 0.0:
            raise ValueError("period must be positive")
        if self.count_n < 0:
            raise ValueError("count_n must be nonnegative")

    @property
    def size(self) -> int:
        return 2 * self.count_n + 1

    def stack(self, x, orders: int) -> np.ndarray:
        """[V, V', ..., V^(orders)] as one (orders + 1, size, len(x)) array,
        shaped as ``HermiteBasis.stack``.

        cos and sin are evaluated once per mode; each derivative scales the
        pair by w and rotates it, (cos, sin) -> (-sin, cos).  The phases w x
        are formed in numpy's longdouble: in doubles they round by up to half
        an ulp of 2 pi N, 3e-14 at N = 50, where this stack's trapezoid sums
        are held to the FFT sums of ``galerkin``.  Where longdouble is a
        double, the phases round as before.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        L = self.period
        w = 2.0 * math.pi * np.arange(1, self.count_n + 1) / L
        ld = np.longdouble
        arg = (8 * np.arctan(ld(1)) / ld(L) * np.arange(1, self.count_n + 1, dtype=ld))[:, None] * x.astype(ld)
        c, s = (math.sqrt(2.0 / L) * f(arg).astype(float) for f in (np.cos, np.sin))
        out = np.zeros((orders + 1, self.size, x.size))
        out[0, 0] = 1.0 / math.sqrt(L)
        for d, v in enumerate(out):
            if d:
                c, s = -w[:, None] * s, w[:, None] * c
            v[1::2], v[2::2] = c, s
        return out
