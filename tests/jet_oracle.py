"""Untruncated jet arithmetic, kept as the bitwise reference for jets.py.

These are the Cauchy product, Horner composition and geometric-series
reciprocal as they computed every coefficient, with every
constant addend lifted to a full constant jet.  ``jets`` computes only the
coefficients that can reach its truncated result, in the same float
operations and order, so the tests require equal arrays.  Everything here
works on coefficient arrays and never calls ``Jet2`` arithmetic, so the
reference does not move when ``jets`` does.
"""

import numpy as np

from breatherlab.jets import Jet2, JetSingularity


def mul_coeffs(a, b, deg):
    shp = np.broadcast_shapes(a.shape[2:], b.shape[2:])
    out = np.zeros((deg + 1, deg + 1) + shp)
    for s in range(deg + 1):
        for i in range(s + 1):
            j = s - i
            acc = a[0, 0] * b[i, j]
            for p in range(i + 1):
                for q in range(j + 1):
                    if p == 0 and q == 0:
                        continue
                    acc = acc + a[p, q] * b[i - p, j - q]
            out[i, j] = acc
    return out


def constant(value, deg):
    value = np.asarray(value, dtype=float)
    c = np.zeros((deg + 1, deg + 1) + value.shape)
    c[0, 0] = value
    return c


def _align(a, b):
    na, nb = a.ndim - 2, b.ndim - 2
    if na < nb:
        a = a.reshape(a.shape[:2] + (1,) * (nb - na) + a.shape[2:])
    elif nb < na:
        b = b.reshape(b.shape[:2] + (1,) * (na - nb) + b.shape[2:])
    return a, b


def add(a, b):
    a, b = _align(a, b)
    return a + b


def sub(a, b):
    a, b = _align(a, b)
    return a - b


def add_scalar(c, value):
    """Jet plus a non-jet: the value lifted to a constant jet first."""
    return add(c, constant(value, c.shape[0] - 1))


def compose_univariate(table, a: Jet2) -> Jet2:
    deg = a.deg
    n = a.nilpotent().c
    r = constant(table[deg], deg)
    for k in range(deg - 1, -1, -1):
        r = add_scalar(mul_coeffs(r, n, deg), table[k])
    return Jet2(r, deg)


def reciprocal(a: Jet2) -> Jet2:
    a0 = np.asarray(a.value)
    if np.any(a0 == 0.0):
        raise JetSingularity("division by jet with zero constant term")
    deg = a.deg
    u = a.nilpotent().c * np.asarray(1.0 / a0, dtype=float)
    r = constant(np.ones(np.shape(a0)), deg)
    for _ in range(deg):
        # 1.0 - u * r, evaluated as (-(u * r)) + 1.0
        r = add_scalar(-mul_coeffs(u, r, deg), 1.0)
    return Jet2(r * np.asarray(1.0 / a0, dtype=float), deg)
