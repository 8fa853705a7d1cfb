"""Per-point reference loops for the batched residual and periodicity checks
and for the Backlund sample points, the families they are checked on, eval
patches that count calls or plant a NaN, per-row loops of the Hermite
derivative ladder and of the lowering relation, and the Hermite derivative
stack by repeated ladder passes.

``functionals.pde_residual`` and ``breathers.periodicity_check`` evaluate the
family once over all their sample points.  The loops below are the earlier
form, one family evaluation per point (per time for the period check), with
the same generator draws; the batched results must equal them bit for bit.
``breathers._pole_free_points`` draws its candidates in batches of the
missing count; the loop below draws one x per turn, and the two must give the
same points and leave the generator in the same state.
The loops fold with Python ``max``, which drops a NaN, so they also show the
fault the batched forms close.
"""

import math

import numpy as np

from breatherlab import breathers as br
from breatherlab import specfun as sf
from breatherlab.jets import DEFAULT_DEG

# the families' roles by name, stated here apart from the class hierarchy that
# the batched forms read
WAVE_KINDS = ("sg", "sg-kink")
GARDNER_KINDS = ("gardner", "gardner-soliton")


def pde_residual_loop(family, n_points=100, seed=0, t_span=2.0):
    rng = np.random.default_rng(seed)
    ts = rng.uniform(-t_span, t_span, size=n_points)
    if family.domain == "torus":
        xs = rng.uniform(0.0, family.period, size=n_points)
    else:
        xs = rng.uniform(-8.0, 8.0, size=n_points)
    worst = 0.0
    for t, x in zip(ts, xs):
        out = family.eval(t, np.asarray([x]), deg=4)
        if family.kind in WAVE_KINDS:
            r = out.partial(nt=2) - out.partial(nx=2) + np.sin(out.value)
        else:
            u = out.value
            mu = family.mu if family.kind in GARDNER_KINDS else 0.0
            r = (
                out.partial(nt=1)
                + out.partial(nx=3)
                + 2.0 * mu * u * out.partial(nx=1)
                + 3.0 * u**2 * out.partial(nx=1)
            )
        worst = max(worst, float(np.max(np.abs(r))))
    return worst


def periodicity_check_loop(family, n_points=40, seed=0):
    rng = np.random.default_rng(seed)
    ts = rng.uniform(-2.0, 2.0, size=n_points)
    xs = rng.uniform(-8.0, 8.0, size=n_points)
    T, L = family.time_period, family.space_shift

    def values(t, x):
        out = family.eval(t, x, deg=2)
        if family.kind in WAVE_KINDS:
            return np.stack([out.value, out.partial(nt=1)])
        return out.value

    worst = 0.0
    for t in ts:
        worst = max(worst, float(np.max(np.abs(values(t + T, xs) - values(t, xs - L)))))
    if family.domain == "torus":
        P = family.period
        for t in ts[:8]:
            worst = max(worst, float(np.max(np.abs(values(t, xs + P) - values(t, xs)))))
    return worst


def pole_free_points_loop(family, t, rng, n):
    xs = []
    while len(xs) < n:
        x = rng.uniform(0.0, family.period)
        y1, y2 = family._phases(t, x)
        if min(abs(math.cos(y1)), abs(math.cos(y2))) > 0.15:
            xs.append(x)
    return np.asarray(xs)


# one of each family, for the evolution-equation residual
PDE_FAMILIES = [
    br.MkdvBreather(alpha=2.5, beta=1.0, x1=0.2, x2=-0.1),
    br.GardnerBreather(alpha=0.5, beta=1.0, mu=0.1, x1=0.1),
    br.SgBreather(beta=0.5, v=0.7, x1=0.3, x2=0.2),
    br.KkshBreather(beta=1.0, k=0.03, x1=0.1),
    br.NonzeroMeanBreather(mu=1.3, c1=0.9, p=2, q=3),
    br.MkdvSoliton(c=1.2, x0=0.4),
    br.GardnerSoliton(c=0.8, mu=0.5),
    br.SgKink(v=0.4, x0=-0.3),
]


def count_evals(monkeypatch, cls):
    """Record the broadcast grid shape of every ``eval`` call on a family class."""
    calls, original = [], cls.eval

    def counted(self, t, x, deg=DEFAULT_DEG):
        calls.append(np.broadcast_shapes(np.shape(t), np.shape(x)))
        return original(self, t, x, deg)

    monkeypatch.setattr(cls, "eval", counted)
    return calls


def plant_nan(monkeypatch, cls, x_bad):
    """Make a family class's ``eval`` return NaN, in every jet coefficient,
    wherever x == x_bad."""
    original = cls.eval

    def poisoned(self, t, x, deg=DEFAULT_DEG):
        out = original(self, t, x, deg)
        hit = np.broadcast_to(np.asarray(x) == x_bad, out.jet.shape)
        out.jet.c[:, :, hit] = np.nan
        return out

    monkeypatch.setattr(cls, "eval", poisoned)


def sample_xs(n_points, seed, lo=-8.0, hi=8.0):
    """The x draws of both checks: after n_points t draws on (-2, 2), on (lo, hi)."""
    rng = np.random.default_rng(seed)
    rng.uniform(-2.0, 2.0, size=n_points)
    return rng.uniform(lo, hi, size=n_points)


def hermite_derivative_ladder_loop(values):
    """First derivatives from f_n' = sqrt(n/2) f_{n-1} - sqrt((n+1)/2) f_{n+1},
    one output row at a time; the output has one row fewer than the input
    (the top index lacks its upper neighbour)."""
    nmax = values.shape[0] - 1
    out = np.zeros((nmax, values.shape[1]))
    for n in range(nmax):
        out[n] = -math.sqrt((n + 1) / 2.0) * values[n + 1]
        if n >= 1:
            out[n] += math.sqrt(n / 2.0) * values[n - 1]
    return out


def hermite_lowering_loop(values, x):
    """First derivatives from the lowering relation f_n' = sqrt(2n) f_{n-1} - x f_n,
    one row at a time, in the operation order of ``specfun.hermite_stack``."""
    out = np.zeros_like(values)
    for n in range(values.shape[0]):
        out[n] = -x * values[n]
        if n >= 1:
            out[n] += math.sqrt(2.0 * n) * values[n - 1]
    return out


def hermite_stack_ladder(nmax, x, orders):
    """[f, f', ..., f^(orders)] for n = 0..nmax, each order one ladder pass
    on the one below, from the values through index nmax + orders: an
    earlier form of ``specfun.hermite_stack``."""
    stack = [sf.hermite_values(nmax + orders, np.asarray(x, dtype=float))]
    for _ in range(orders):
        stack.append(hermite_derivative_ladder_loop(stack[-1]))
    return [arr[: nmax + 1] for arr in stack]
