"""Jacobi elliptic functions, complete elliptic integrals and basis evaluators.

Everything uses the PARAMETER convention: ``m`` is the quantity appearing as
``K(m) = int_0^{pi/2} (1 - m sin^2 s)^{-1/2} ds``, so the quarter-period
identities read ``sn'^2 = 1 - (1+m) sn^2 + m sn^4`` and
``nd'^2 = -1 + (2-m) nd^2 + (m-1) nd^4``.

Elliptic integrals are computed by the arithmetic-geometric mean, the Jacobi
functions and Jacobi's epsilon by the descending-Landen phase recursion, and
the Hermite functions by the stable normalised recurrence; none of these lose
accuracy over the parameter ranges used by the breather families.  The jets of
sn, cn and dn, and of their partials in m, come from Taylor tables built by
the derivative relations.
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


def ellip_k(m: float) -> float:
    """Complete elliptic integral of the first kind, parameter convention."""
    if not 0.0 <= m < 1.0:
        raise ValueError(f"ellip_k requires 0 <= m < 1, got {m}")
    a, b = 1.0, math.sqrt(1.0 - m)
    for _ in range(_AGM_MAX_ITER):
        if abs(a - b) <= _AGM_TOL * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (a + b)


def ellip_e(m: float) -> float:
    """Complete elliptic integral of the second kind, parameter convention."""
    if not 0.0 <= m <= 1.0:
        raise ValueError(f"ellip_e requires 0 <= m <= 1, got {m}")
    if m == 1.0:
        return 1.0
    a, b, c = 1.0, math.sqrt(1.0 - m), math.sqrt(m)
    csum = 0.5 * c * c
    p = 1.0
    for _ in range(_AGM_MAX_ITER):
        if abs(c) <= 0.25 * _AGM_TOL * a:
            break
        c = 0.5 * (a - b)
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        csum += p * c * c
        p *= 2.0
    k = math.pi / (a + b)
    return k * (1.0 - csum)


def _agm_ladder(m: float):
    a_list, c_list = [1.0], [math.sqrt(m)]
    b = math.sqrt(1.0 - m)
    for _ in range(_AGM_MAX_ITER):
        if abs(c_list[-1]) <= 0.25 * _AGM_TOL * a_list[-1]:
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
    out = ellip_e(m) / ellip_k(m) * u + _landen(u, m, zeta=True)[1]
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


def jacobi(u, m: float, which: str):
    """Jacobi elliptic function value(s); which in {sn, cn, dn, nd, sd, cd}."""
    sn, cn, dn = _sncndn(u, m)
    if which == "sn":
        out = sn
    elif which == "cn":
        out = cn
    elif which == "dn":
        out = dn
    elif which in ("nd", "sd", "cd"):
        if np.any(dn == 0.0):
            raise ZeroDivisionError(f"{which} undefined where dn vanishes")
        out = {"nd": 1.0 / dn, "sd": sn / dn, "cd": cn / dn}[which]
    else:
        raise ValueError(f"unknown Jacobi function {which!r}")
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
    sn, cn, dn = jacobi_sncndn_jet(a, m)
    if which == "sn":
        return sn
    if which == "cn":
        return cn
    if which == "dn":
        return dn
    if which == "nd":
        return 1.0 / dn
    if which == "sd":
        return sn / dn
    if which == "cd":
        return cn / dn
    raise ValueError(f"unknown Jacobi function {which!r}")


# -- Hermite functions -------------------------------------------------------


def hermite_values(nmax: int, x) -> np.ndarray:
    """Orthonormal Hermite functions f_0..f_nmax at the points x.

    Generated by the normalised recurrence with the Gaussian folded in, so
    no entry overflows even for nmax in the hundreds.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    v = np.zeros((nmax + 1, x.size))
    v[0] = math.pi ** (-0.25) * np.exp(-0.5 * x * x)
    if nmax >= 1:
        v[1] = math.sqrt(2.0) * x * v[0]
    for n in range(1, nmax):
        v[n + 1] = math.sqrt(2.0 / (n + 1)) * x * v[n] - math.sqrt(n / (n + 1)) * v[n - 1]
    return v


def hermite_derivative_ladder(values: np.ndarray) -> np.ndarray:
    """First derivatives from f_n' = sqrt(n/2) f_{n-1} - sqrt((n+1)/2) f_{n+1}.

    The output has one row fewer than the input (the top index lacks its
    upper neighbour).
    """
    nmax = values.shape[0] - 1
    out = np.zeros((nmax, values.shape[1]))
    for n in range(nmax):
        out[n] = -math.sqrt((n + 1) / 2.0) * values[n + 1]
        if n >= 1:
            out[n] += math.sqrt(n / 2.0) * values[n - 1]
    return out


def hermite_stack(nmax: int, x, orders: int) -> list[np.ndarray]:
    """[f, f', ..., f^(orders)] for n = 0..nmax; uses indices through nmax+orders."""
    v = hermite_values(nmax + orders, np.asarray(x, dtype=float))
    stack = [v]
    for _ in range(orders):
        stack.append(hermite_derivative_ladder(stack[-1]))
    return [arr[: nmax + 1] for arr in stack]


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

    def stack(self, x, orders: int) -> list[np.ndarray]:
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

    def stack(self, x, orders: int) -> list[np.ndarray]:
        """[V, V', ..., V^(orders)] with V of shape (size, len(x)).

        cos and sin are evaluated once per mode; each derivative scales the
        pair by w and rotates it, (cos, sin) -> (-sin, cos).
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        L = self.period
        w = 2.0 * math.pi * np.arange(1, self.count_n + 1) / L
        arg = w[:, None] * x[None, :]
        c, s = math.sqrt(2.0 / L) * np.cos(arg), math.sqrt(2.0 / L) * np.sin(arg)
        out = []
        for d in range(orders + 1):
            v = np.zeros((self.size, x.size))
            if d == 0:
                v[0] = 1.0 / math.sqrt(L)
            else:
                c, s = -w[:, None] * s, w[:, None] * c
            v[1::2], v[2::2] = c, s
            out.append(v)
        return out
