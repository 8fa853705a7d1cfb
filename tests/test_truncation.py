"""Truncation consistency of the family evaluations.

Every caller asks ``eval``, ``beta_partial`` and ``parameter_partials`` for
the degree it reads.  That gives the same numbers as a higher degree only if
a coefficient of total order <= d is the same float at every truncation
degree >= d.  These tests check it bit for bit, the sign of a zero included.
"""

import numpy as np
import pytest

from breatherlab import breathers as br
from breatherlab import functionals as fn
from breatherlab import linops
from breatherlab.jets import DEFAULT_DEG
from breatherlab.quadrature import window_plan

from gardner_form_oracles import NONZERO_MEAN_CASE

FAMILIES = [
    br.MkdvBreather(alpha=0.5, beta=1.0, x1=0.3), br.MkdvBreather(alpha=1.5, beta=0.5),
    br.GardnerBreather(alpha=0.5, beta=1.0, mu=0.3), br.GardnerBreather(alpha=0.5, beta=1.0, mu=1.0),
    br.SgBreather(beta=0.5, v=0.7), br.SgBreather(beta=0.1, v=0.99, x1=0.2),
    br.KkshBreather(beta=1.0, k=0.03), br.KkshBreather(beta=0.5, k=0.001, x1=0.4),
    br.NonzeroMeanBreather(**NONZERO_MEAN_CASE),
    br.MkdvSoliton(c=1.5), br.GardnerSoliton(c=1.5, mu=0.3), br.SgKink(v=0.4),
]
TOP = 4


def _grids(family):
    """A 1-point grid and a 1001-point one that holds x = 0 on the line."""
    if family.domain == "torus":
        return [np.array([0.37 * family.period]), np.linspace(0.0, family.period, 1001, endpoint=False)]
    return [np.array([0.37]), np.linspace(-8.0, 8.0, 1001)]


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def assert_truncation_consistent(evaluate, top):
    """Each degree d < top keeps the degree-top coefficients of order <= d, bitwise."""
    full = evaluate(top).c
    for d in range(top):
        low = evaluate(d).c
        assert low.shape[:2] == (d + 1, d + 1)
        for i in range(d + 1):
            for j in range(d + 1 - i):
                assert np.array_equal(_bits(low[i, j]), _bits(full[i, j])), (d, i, j)


@pytest.mark.parametrize("t", [0.0, 0.7])
@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.kind)
def test_eval_keeps_its_coefficients_at_every_degree(family, t):
    for x in _grids(family):
        assert_truncation_consistent(lambda d: family.eval(t, x, deg=d).jet, TOP)


@pytest.mark.parametrize("t", [0.0, 0.7])
@pytest.mark.parametrize("family", [f for f in FAMILIES if isinstance(f, br.SgBreather)],
                         ids=lambda f: f"{f.beta}-{f.v}")
def test_beta_partial_keeps_its_coefficients_at_every_degree(family, t):
    for x in _grids(family):
        assert_truncation_consistent(lambda d: family.beta_partial(t, x, deg=d).jet, TOP)


@pytest.mark.parametrize("family", [f for f in FAMILIES if isinstance(f, br.KkshBreather)],
                         ids=lambda f: f"{f.beta}-{f.k}")
def test_parameter_partials_keep_their_coefficients_at_every_degree(family):
    # the partials are taken at t = 0
    for x in _grids(family):
        for which in (0, 1):
            assert_truncation_consistent(lambda d: family.parameter_partials(x, deg=d)[which].jet, TOP + 1)


def test_scaling_direction_at_degree_4_extends_the_default():
    family = br.SgBreather(beta=0.5, v=0.7, x1=0.1)
    x = np.linspace(-30.0, 30.0, 301)
    (z2, w2), (z4, w4) = linops.sg_scaling_direction(family, x), linops.sg_scaling_direction(family, x, deg=4)
    assert (len(z2), len(w2), len(z4), len(w4)) == (3, 2, 5, 4)
    for low, full in zip(z2 + w2, z4[:3] + w4[:2]):
        assert np.array_equal(_bits(low), _bits(full))


def _record_calls(monkeypatch, cls, method):
    calls, original = [], getattr(cls, method)

    def recorded(self, t, x, deg=DEFAULT_DEG):
        calls.append((deg, np.array(x)))
        return original(self, t, x, deg)

    monkeypatch.setattr(cls, method, recorded)
    return calls


def _degrees(calls):
    return [deg for deg, _ in calls]


def _read_once(calls, deg, nodes):
    """Every call reads degree ``deg``, and together the calls evaluate each
    of ``nodes`` once (a quadrature evaluates its nodes in blocks)."""
    assert calls and all(d == deg for d, _ in calls)
    assert np.array_equal(np.sort(np.concatenate([x for _, x in calls])), np.sort(nodes))


@pytest.mark.parametrize("family,want", [
    (br.MkdvBreather(alpha=0.5, beta=1.0), {"mass": 0, "energy": 1, "f": 2, "lyapunov": 2}),
    (br.SgBreather(beta=0.5, v=0.7), {"energy": 1, "momentum": 1, "f": 2, "lyapunov": 2}),
], ids=["mkdv", "sg"])
def test_each_functional_reads_its_own_degree(family, want, monkeypatch):
    calls = _record_calls(monkeypatch, type(family), "eval")
    for kind, deg in want.items():
        calls.clear()
        fn.evaluate_functional(kind, family)
        _read_once(calls, deg, fn.family_plan(family).nodes_weights(2)[0])


def test_residual_pairing_and_backlund_read_their_own_degrees(monkeypatch):
    scalar = _record_calls(monkeypatch, br.MkdvBreather, "eval")
    wave = _record_calls(monkeypatch, br.SgBreather, "eval")
    fn.pde_residual(br.MkdvBreather(alpha=0.5, beta=1.0), n_points=5)
    fn.pde_residual(br.SgBreather(beta=0.5, v=0.7), n_points=5)
    assert (_degrees(scalar), _degrees(wave)) == ([3], [2])
    direction = _record_calls(monkeypatch, br.SgBreather, "beta_partial")
    family = br.SgBreather(beta=0.5, v=0.7)
    linops.sg_scaling_quadratic_form(family)
    _read_once(direction, 2, window_plan(family, 4.0 * family.wavenumber).nodes_weights(2)[0])
    direction.clear()
    linops.sg_variational_direction_residual(family)
    _read_once(direction, 4, np.linspace(-25.0 / family.beta, 25.0 / family.beta, 301))
    closed = _record_calls(monkeypatch, br.NonzeroMeanBreather, "eval")
    br.backlund_construct(br.solve_mean_level(1.65, 2.95, 22, 23), 1.65, 22, 23)
    assert _degrees(closed) == [0, 0]
