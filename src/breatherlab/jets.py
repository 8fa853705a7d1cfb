"""Bivariate truncated Taylor (jet) arithmetic.

Every profile in this package is a smooth function of two phase variables.
A :class:`Jet2` holds the Taylor coefficients

    c[i, j] = d^i/dy1^i  d^j/dy2^j  f / (i! j!),    i + j <= deg,

of such a function at a point, truncated at total degree ``deg``.  Sums,
products, quotients and compositions with elementary functions propagate the
coefficients exactly, so any derivative read off a composed jet is correct to
roundoff.

Coefficients live in a ``(deg+1, deg+1) + shape`` float array whose entries
with ``i + j > deg`` are kept at zero.  ``shape`` is an arbitrary trailing
broadcast shape, which lets one jet carry an entire evaluation grid; all
arithmetic is vectorised over it.

Coefficients are stored divided by factorials (true Taylor coefficients), so
composition reduces to polynomial evaluation and degree-6 entries stay well
scaled.  The degree is fixed at construction and never changes silently.

Products compute only the coefficients that can reach the truncated result.
Composition is a Horner scheme in n = a - a0, which has no constant term: the
partial value that still has k factors of n to meet can affect the result
only through its coefficients up to degree deg - k, so each step stops there
(the geometric series of ``reciprocal`` likewise).  Each coefficient that is
computed is the same float, from the same operations in the same order, as in
the untruncated scheme (kept in ``tests/jet_oracle.py``); only the sign of an
exact zero can differ.  The Horner products skip the constant term of n (and
of u in ``reciprocal``), which is an exact zero, so a coefficient of order q
is the same float at every truncation degree >= q, the sign of a zero
included: a caller can ask for the lowest degree it reads.

Each jet also records which phase variables it can depend on, in the 2-bit
support mask ``axes`` (bit 0 for y1, bit 1 for y2); its coefficients outside
the mask are exact zeros.  A constant has neither bit and a seed variable its
own; sums and products take the union, and scalar operations, compositions
and ``reciprocal`` keep their argument's mask.  A jet built from a raw array
gets both bits, which is always safe.  A product skips every pair of
coefficients with a factor outside its mask: the term is a product with an
exact zero, and adding a zero leaves a nonzero sum bitwise unchanged (with
overflow and invalid operations raised, no infinity can turn it into a NaN).
So a one-variable jet, such as sin(alpha Y1) or a Jacobi table of one phase,
keeps deg + 1 coefficients and its products visit only those, while the kept
coefficients are still the untruncated scheme's floats.
"""

from __future__ import annotations

import functools
import math

import numpy as np

DEFAULT_DEG = 6

_FACT = [math.factorial(n) for n in range(32)]


class JetSingularity(ArithmeticError):
    """An operation hit a singular point (a zero constant term)."""


def _constant_coeffs(value, deg):
    value = np.asarray(value, dtype=float)
    c = np.zeros((deg + 1, deg + 1) + value.shape)
    c[0, 0] = value
    return c


def _as_coeff_array(c):
    a = np.asarray(c, dtype=float)
    if a.ndim < 2 or a.shape[0] != a.shape[1]:
        raise ValueError("coefficient array must have shape (deg+1, deg+1, ...)")
    return a


def _jet(c, deg, axes):
    """A jet on a coefficient array built by jet arithmetic, which is already
    a float (deg+1, deg+1, ...) array, so the checks of ``Jet2(...)`` are
    skipped."""
    jet = object.__new__(Jet2)
    jet.c, jet.deg, jet.axes = c, deg, axes
    return jet


class Jet2:
    """Truncated bivariate Taylor expansion with its support mask ``axes``;
    immutable by convention."""

    __slots__ = ("c", "deg", "axes")
    # an ndarray on the left of an operator defers to the jet's reflected
    # method, instead of broadcasting the jet as an object per grid point
    __array_ufunc__ = None

    def __init__(self, c, deg=None, axes=3):
        self.c = _as_coeff_array(c)
        self.deg = self.c.shape[0] - 1 if deg is None else deg
        if self.c.shape[0] - 1 != self.deg:
            raise ValueError("degree does not match coefficient array")
        self.axes = axes

    # -- constructors -----------------------------------------------------

    @classmethod
    def constant(cls, value, deg=DEFAULT_DEG):
        return cls(_constant_coeffs(value, deg), deg, 0)

    @classmethod
    def variable(cls, value, axis, deg=DEFAULT_DEG):
        """Seed jet for phase variable 0 or 1: value + h_axis."""
        if axis not in (0, 1):
            raise ValueError("axis must be 0 or 1")
        c = _constant_coeffs(value, deg)
        if deg >= 1:
            c[(1, 0) if axis == 0 else (0, 1)] = 1.0
        return cls(c, deg, 1 << axis)

    # -- accessors ---------------------------------------------------------

    @property
    def value(self):
        return self.c[0, 0]

    @property
    def shape(self):
        return self.c.shape[2:]

    def partial(self, i, j):
        """Derivative d^i_{y1} d^j_{y2} f  (coefficient times i! j!)."""
        if i + j > self.deg:
            raise ValueError(
                f"insufficient jet degree: requested order {i + j}, have {self.deg}"
            )
        return self.c[i, j] * (_FACT[i] * _FACT[j])

    def nilpotent(self):
        """Copy with the constant term removed."""
        c = self.c.copy()
        c[0, 0] = 0.0
        return _jet(c, self.deg, self.axes)

    def __repr__(self):
        return f"Jet2(deg={self.deg}, value={self.value!r}, shape={self.shape})"

    # -- arithmetic ---------------------------------------------------------

    def _check_deg(self, other):
        if other.deg != self.deg:
            raise ValueError("jet degrees must match")

    def __add__(self, other):
        if not isinstance(other, Jet2):
            return _shifted(np.positive, self, other)
        self._check_deg(other)
        a, b = self.c, other.c
        if a.ndim != b.ndim:
            a, b = _align_trailing(a, b)
        return _jet(a + b, self.deg, self.axes | other.axes)

    __radd__ = __add__

    def __neg__(self):
        return _jet(-self.c, self.deg, self.axes)

    def __sub__(self, other):
        if not isinstance(other, Jet2):
            return _shifted(np.positive, self, -_scalar(other))
        self._check_deg(other)
        a, b = self.c, other.c
        if a.ndim != b.ndim:
            a, b = _align_trailing(a, b)
        return _jet(a - b, self.deg, self.axes | other.axes)

    def __rsub__(self, other):
        return _shifted(np.negative, self, other)

    def __mul__(self, other):
        if not isinstance(other, Jet2):
            return _jet(self.c * _scalar(other), self.deg, self.axes)
        self._check_deg(other)
        return _product(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet2):
            return _jet(self.c / _scalar(other), self.deg, self.axes)
        return self * reciprocal(other)

    def __rtruediv__(self, other):
        return reciprocal(self) * other


def _scalar(value):
    """A non-jet operand as a float array; a Python float stays as it is,
    which numpy applies to each coefficient alike."""
    return value if isinstance(value, float) else np.asarray(value, dtype=float)


def _align_trailing(a, b):
    """Insert singleton grid axes so two coefficient arrays broadcast."""
    na, nb = a.ndim - 2, b.ndim - 2
    if na < nb:
        a = a.reshape(a.shape[:2] + (1,) * (nb - na) + a.shape[2:])
    elif nb < na:
        b = b.reshape(b.shape[:2] + (1,) * (na - nb) + b.shape[2:])
    return a, b


def _shifted(sign, jet, value):
    """Jet of sign(jet) plus a non-jet value, which goes to the constant term
    only; the grid shapes broadcast as in _align_trailing.  A Python float
    leaves the grid shape as it is."""
    if isinstance(value, float):
        out = sign(jet.c)
    else:
        value = np.asarray(value, dtype=float)
        c, _ = _align_trailing(jet.c, value.reshape((1, 1) + value.shape))
        out = sign(c, out=np.empty(c.shape[:2] + np.broadcast_shapes(c.shape[2:], value.shape)))
    out[0, 0] += value
    return _jet(out, jet.deg, jet.axes)


def _inside(axes, i, j, nil=False):
    """Whether coefficient (i, j) lies in the support of an ``axes`` mask,
    without the constant term if ``nil`` (a jet with no constant term)."""
    return (i == 0 or axes & 1) and (j == 0 or axes & 2) and (i + j > 0 or not nil)


@functools.lru_cache(maxsize=None)
def _product_plan(deg, top, axes_a, axes_b, nil_a=False, nil_b=False):
    """The outputs of a Cauchy product up to total degree ``top`` that can be
    nonzero, each as (output index, first pair, later pairs): the index pairs
    whose factors both lie in their supports, in the order of the full sum."""
    plan = []
    for s in range(top + 1):
        for i in range(s + 1):
            j = s - i
            pairs = [
                ((p, q), (i - p, j - q))
                for p in range(i + 1)
                for q in range(j + 1)
                if _inside(axes_a, p, q, nil_a) and _inside(axes_b, i - p, j - q, nil_b)
            ]
            if pairs:
                plan.append(((i, j, Ellipsis), pairs[0], tuple(pairs[1:])))
    return tuple(plan)


def _mul_coeffs(a, b, deg, *, top=None, axes_a=3, axes_b=3, nil_a=False, nil_b=False):
    """Cauchy product of two coefficient arrays up to total degree ``top``
    (default ``deg``); the entries above it stay zero.

    ``axes_a`` and ``axes_b`` are the factors' support masks; the default,
    both bits, visits every pair, which is safe for any array.  ``nil_a``
    and ``nil_b`` say that a factor has no constant term.  A pair with a
    factor outside its support is a product with an exact zero, so it is
    skipped, and the entries outside the union of the masks stay zero.  The
    kept pairs are summed in the order of the full sum, and adding a zero
    leaves a nonzero sum bitwise unchanged, so each coefficient is the float
    of the full sum, up to the sign of an exact zero.
    """
    top = deg if top is None else top
    shp = a.shape[2:]
    if b.shape[2:] != shp:
        shp = np.broadcast_shapes(shp, b.shape[2:])
    out = np.zeros((deg + 1, deg + 1) + shp)
    tmp = np.empty(shp)
    for ij, (pa, pb), rest in _product_plan(deg, top, axes_a, axes_b, nil_a, nil_b):
        acc = out[ij]  # a view even on a 0-d grid
        np.multiply(a[pa], b[pb], out=acc)
        for pa, pb in rest:
            np.multiply(a[pa], b[pb], out=tmp)
            np.add(acc, tmp, out=acc)
    return out


def _product(x, y, top=None, nil_x=False):
    """Jet product x * y up to total degree ``top``, where ``nil_x`` says that
    x has no constant term; its mask is the union."""
    c = _mul_coeffs(x.c, y.c, x.deg, top=top, axes_a=x.axes, axes_b=y.axes, nil_a=nil_x)
    return _jet(c, x.deg, x.axes | y.axes)


def apply(terms, *fields):
    """Rows of a linear operator given as terms (row slot, column slot,
    derivative order r, coefficient c): row i sums c * fields[col][r] over its
    terms in table order, where a field is its list of x-derivative grids.  A
    unit coefficient adds its grid as it is (a product would cost a pass)."""
    rows = [None] * len(fields)
    for row, col, r, c in terms:
        if r >= len(fields[col]):
            raise ValueError(f"insufficient jet degree: slot {col} needs derivative {r}")
        z = fields[col][r]
        # each product stays unnamed, so it is freed as soon as it is added
        if np.ndim(c) == 0 and c == 1.0:
            rows[row] = z if rows[row] is None else rows[row] + z
        else:
            rows[row] = c * z if rows[row] is None else rows[row] + c * z
    return rows


def reciprocal(a: Jet2) -> Jet2:
    """1/a via a Horner geometric series around the constant term.

    With u = (a - a0)/a0 the series is r = 1 - u (1 - u (1 - ...)).  The value
    after step s meets u another deg - s times, and u has no constant term,
    so step s computes degrees up to s only, and its products skip u's
    constant term; those coefficients are bitwise the untruncated series'.
    The coefficient of order q comes from those below it by the same
    operations at every step s >= q, so it is the same float at every
    degree >= q, the sign of a zero included.
    """
    a0 = np.asarray(a.value)
    if np.any(a0 == 0.0):
        raise JetSingularity("division by jet with zero constant term")
    u = a.nilpotent() * (1.0 / a0)
    r = Jet2.constant(np.ones(np.shape(a0)), a.deg)
    for s in range(1, a.deg + 1):
        r = 1.0 - _product(u, r, top=s, nil_x=True)
    return r * (1.0 / a0)


def compose_univariate(table, a: Jet2) -> Jet2:
    """Evaluate sum_k table[k] * (a - a0)^k by Horner.

    ``table[k]`` must be the k-th Taylor coefficient (derivative over k!) of
    the outer function at the constant term of ``a``; trailing dimensions of
    the table broadcast against the jet's grid shape.

    With n = a - a0, the Horner value r_k = r_{k+1} n + table[k] meets n
    another k times, and n has no constant term, so the step to r_k computes
    degrees up to deg - k only, its products skip n's constant term, and its
    constant term is table[k].  The kept coefficients are bitwise the
    untruncated scheme's.  The coefficient of r_k of order q comes from
    those of r_{k+1} below it, so it is the same float at every degree
    >= k + q, the sign of a zero included.
    """
    deg, axes = a.deg, a.axes
    n = a.nilpotent().c
    c, c_axes = _constant_coeffs(table[deg], deg), 0
    for k in range(deg - 1, -1, -1):
        c = _mul_coeffs(c, n, deg, top=deg - k, axes_a=c_axes, axes_b=axes, nil_b=True)
        c[0, 0] = table[k]
        c_axes = axes
    return _jet(c, deg, axes)


# -- univariate Taylor tables at an array-valued expansion point ------------


def _cycle_table(f0, f1, deg, signs):
    """Tables for sin/cos-like functions whose derivatives cycle."""
    out = np.empty((deg + 1,) + np.shape(f0))
    cycle = signs
    for k in range(deg + 1):
        base = f0 if k % 2 == 0 else f1
        out[k] = cycle[k % len(cycle)] * base / _FACT[k]
    return out


def sin(a: Jet2) -> Jet2:
    x0 = a.value
    t = _cycle_table(np.sin(x0), np.cos(x0), a.deg, (1.0, 1.0, -1.0, -1.0))
    return compose_univariate(t, a)


def cos(a: Jet2) -> Jet2:
    x0 = a.value
    t = _cycle_table(np.cos(x0), -np.sin(x0), a.deg, (1.0, 1.0, -1.0, -1.0))
    return compose_univariate(t, a)


def sinh(a: Jet2) -> Jet2:
    x0 = a.value
    t = _cycle_table(np.sinh(x0), np.cosh(x0), a.deg, (1.0,))
    return compose_univariate(t, a)


def cosh(a: Jet2) -> Jet2:
    x0 = a.value
    t = _cycle_table(np.cosh(x0), np.sinh(x0), a.deg, (1.0,))
    return compose_univariate(t, a)


def exp(a: Jet2) -> Jet2:
    x0 = a.value
    e = np.exp(x0)
    t = np.empty((a.deg + 1,) + np.shape(x0))
    for k in range(a.deg + 1):
        t[k] = e / _FACT[k]
    return compose_univariate(t, a)


def atan(a: Jet2) -> Jet2:
    # Integrate the series of 1/(1 + (x0+h)^2) term by term.
    x0 = np.asarray(a.value)
    deg = a.deg
    d0 = 1.0 + x0 * x0
    u = np.zeros((deg,) + x0.shape)
    if deg > 0:
        u[0] = 1.0 / d0
    for k in range(1, deg):
        s = 2.0 * x0 * u[k - 1]
        if k >= 2:
            s = s + u[k - 2]
        u[k] = -s / d0
    t = np.zeros((deg + 1,) + x0.shape)
    t[0] = np.arctan(x0)
    for k in range(deg):
        t[k + 1] = u[k] / (k + 1)
    return compose_univariate(t, a)
