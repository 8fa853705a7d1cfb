import math

import numpy as np
import pytest

import jet_oracle
from breatherlab import jets, specfun
from breatherlab.jets import Jet2


def random_jet(rng, deg=6, amp=1.0):
    c = rng.uniform(-amp, amp, size=(deg + 1, deg + 1))
    for i in range(deg + 1):
        for j in range(deg + 1):
            if i + j > deg:
                c[i, j] = 0.0
    return Jet2(c)


def jet_eval(j, h1, h2):
    """Evaluate the truncated polynomial at offsets (h1, h2)."""
    total = 0.0
    for i in range(j.deg + 1):
        for k in range(j.deg + 1 - i):
            total += j.c[i, k] * h1**i * h2**k
    return total


def test_constant_product():
    a = Jet2.constant(2.0, deg=2)
    b = Jet2.constant(3.0, deg=2)
    p = a * b
    assert p.c[0, 0] == 6.0
    assert np.all(p.c.reshape(-1)[1:] == 0.0)


def test_monomial_product():
    y1 = Jet2.variable(0.0, 0, deg=2)
    y2 = Jet2.variable(0.0, 1, deg=2)
    p = y1 * y2
    expected = np.zeros((3, 3))
    expected[1, 1] = 1.0
    assert np.array_equal(p.c, expected)


def test_geometric_series_division():
    # (1 + y1) / (1 - y1) against the expansion (1+y)(1+y+y^2+y^3).
    y1 = Jet2.variable(0.0, 0, deg=3)
    q = (1.0 + y1) / (1.0 - y1)
    num = [1.0, 1.0, 0.0, 0.0]
    geo = [1.0, 1.0, 1.0, 1.0]
    expected = [sum(num[p] * geo[k - p] for p in range(k + 1)) for k in range(4)]
    assert expected == [1.0, 2.0, 2.0, 2.0]
    assert np.allclose([q.c[k, 0] for k in range(4)], expected, atol=1e-15)
    assert np.allclose(q.c[0, 1:], 0.0)


def test_division_by_zero_constant_term():
    y1 = Jet2.variable(0.0, 0, deg=3)
    with pytest.raises(jets.JetSingularity):
        (1.0 + y1) / y1


def test_sine_series():
    y1 = Jet2.variable(0.0, 0, deg=3)
    s = jets.sin(y1)
    assert s.c[1, 0] == pytest.approx(1.0, abs=1e-15)
    assert s.c[3, 0] == pytest.approx(-1.0 / 6.0, abs=1e-15)
    assert abs(s.c[0, 0]) < 1e-15 and abs(s.c[2, 0]) < 1e-15


def test_arctan_series():
    y2 = Jet2.variable(0.0, 1, deg=3)
    a = jets.atan(y2)
    assert a.c[0, 1] == pytest.approx(1.0, abs=1e-15)
    assert a.c[0, 3] == pytest.approx(-1.0 / 3.0, abs=1e-15)


def test_cosh_offset_second_coefficient():
    # Finite-difference oracle for the second Taylor coefficient of
    # cosh at 0.5: f''(0.5)/2 via a 5-point central stencil.
    y1 = Jet2.variable(0.5, 0, deg=2)
    c = jets.cosh(y1)
    h = 1e-4
    f = math.cosh
    second = (-f(0.5 + 2 * h) + 16 * f(0.5 + h) - 30 * f(0.5) + 16 * f(0.5 - h) - f(0.5 - 2 * h)) / (
        12 * h * h
    )
    assert c.c[2, 0] == pytest.approx(second / 2.0, rel=1e-6)
    assert c.c[2, 0] == pytest.approx(0.5638, abs=1e-4)


def test_degree_mismatch_rejected():
    a = Jet2.variable(0.0, 0, deg=3)
    b = Jet2.variable(0.0, 0, deg=4)
    with pytest.raises(ValueError):
        a + b


def test_first_partials_match_finite_differences():
    # Composite jets vs central differences of the degree-0 evaluation,
    # with one Richardson extrapolation (step 1e-5).
    rng = np.random.default_rng(11)

    def field(u, v):
        return jets.sin(u * 1.3 + v * v) * jets.exp(0.1 * v) + jets.atan(u / (2.0 + jets.cos(v)))

    for _ in range(20):
        u0, v0 = rng.uniform(-1.5, 1.5, size=2)

        def value(du, dv):
            u = Jet2.variable(u0 + du, 0)
            v = Jet2.variable(v0 + dv, 1)
            return field(u, v).value

        f = field(Jet2.variable(u0, 0), Jet2.variable(v0, 1))
        h = 1e-5
        for which, d in ((0, (1, 0)), (1, (0, 1))):
            def diff(step):
                if which == 0:
                    return (value(step, 0) - value(-step, 0)) / (2 * step)
                return (value(0, step) - value(0, -step)) / (2 * step)

            fd = (4.0 * diff(h / 2) - diff(h)) / 3.0
            exact = f.partial(*d)
            assert fd == pytest.approx(exact, rel=1e-7)


def test_associativity_and_distributivity():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = random_jet(rng)
        b = random_jet(rng)
        c = random_jet(rng)
        lhs = (a * b) * c
        rhs = a * (b * c)
        scale = np.max(np.abs(lhs.c)) + 1e-30
        assert np.max(np.abs(lhs.c - rhs.c)) / scale < 1e-14
        lhs2 = a * (b + c)
        rhs2 = a * b + a * c
        scale2 = np.max(np.abs(lhs2.c)) + 1e-30
        assert np.max(np.abs(lhs2.c - rhs2.c)) / scale2 < 1e-14


def test_sin_cos_pythagorean_identity():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = random_jet(rng, amp=1.0)
        s = jets.sin(a)
        c = jets.cos(a)
        one = s * s + c * c
        assert one.c[0, 0] == pytest.approx(1.0, abs=1e-12)
        rest = one.c.copy()
        rest[0, 0] = 0.0
        assert np.max(np.abs(rest)) < 1e-12


def test_grid_vectorised_jets_match_scalar():
    xs = np.linspace(-1.0, 1.0, 7)
    grid = jets.sin(Jet2.variable(xs, 0)) * jets.exp(Jet2.variable(0.2 * xs, 1))
    for idx, x in enumerate(xs):
        single = jets.sin(Jet2.variable(x, 0)) * jets.exp(Jet2.variable(0.2 * x, 1))
        assert np.allclose(grid.c[..., idx], single.c, atol=1e-15)


def test_truncated_polynomial_evaluation_consistency():
    # Multiplication agrees with multiplication of the evaluated polynomials
    # up to the truncation order.
    rng = np.random.default_rng(13)
    a = random_jet(rng, deg=4)
    b = random_jet(rng, deg=4)
    p = a * b
    h1, h2 = 1e-3, -7e-4
    full = jet_eval(a, h1, h2) * jet_eval(b, h1, h2)
    trunc = jet_eval(p, h1, h2)
    assert abs(full - trunc) < 10 * max(abs(h1), abs(h2)) ** 5


# -- bitwise agreement with the untruncated arithmetic (tests/jet_oracle.py) --

GRIDS = [(), (7000,)]


def grid_jet(rng, deg, shape, lo=-1.0, hi=1.0):
    """Random jet on a grid; the constant term is drawn from [lo, hi]."""
    c = rng.uniform(-1.0, 1.0, size=(deg + 1, deg + 1) + shape)
    c[np.add.outer(np.arange(deg + 1), np.arange(deg + 1)) > deg] = 0.0
    c[0, 0] = rng.uniform(lo, hi, size=shape)
    return Jet2(c, deg)


def same(new, old):
    new = new.c if isinstance(new, Jet2) else new
    old = old.c if isinstance(old, Jet2) else old
    return new.shape == old.shape and np.array_equal(new, old)


COMPOSED = {
    "sin": jets.sin,
    "cos": jets.cos,
    "sinh": jets.sinh,
    "cosh": jets.cosh,
    "exp": jets.exp,
    "atan": jets.atan,
    "sncndn": lambda a: specfun.jacobi_sncndn_jet(a, 0.7),
}


@pytest.mark.parametrize("shape", GRIDS, ids=["grid1", "grid7000"])
@pytest.mark.parametrize("deg", range(7))
def test_composition_matches_untruncated_horner(deg, shape, monkeypatch):
    rng = np.random.default_rng(100 + deg)
    a = grid_jet(rng, deg, shape)
    for name, f in COMPOSED.items():
        new = f(a)
        with monkeypatch.context() as m:
            m.setattr(jets, "compose_univariate", jet_oracle.compose_univariate)
            old = f(a)
        if isinstance(new, Jet2):
            new, old = (new,), (old,)
        for x, y in zip(new, old, strict=True):
            assert same(x, y), name


@pytest.mark.parametrize("shape", GRIDS, ids=["grid1", "grid7000"])
@pytest.mark.parametrize("deg", range(7))
def test_reciprocal_powers_and_products_match_untruncated(deg, shape):
    rng = np.random.default_rng(200 + deg)
    a = grid_jet(rng, deg, shape, 0.5, 1.5)
    b = grid_jet(rng, deg, shape)
    assert same(jets.reciprocal(a), jet_oracle.reciprocal(a))
    assert same(a * b, jet_oracle.mul_coeffs(a.c, b.c, deg))
    assert same(b / a, jet_oracle.mul_coeffs(b.c, jet_oracle.reciprocal(a).c, deg))


def test_mixed_grid_shapes_match_untruncated():
    rng = np.random.default_rng(300)
    deg, shape = 4, (7000,)
    point = grid_jet(rng, deg, ())
    grid = grid_jet(rng, deg, shape)
    # a 1-point jet composed with a table that carries a grid
    table = rng.uniform(-1.0, 1.0, size=(deg + 1,) + shape)
    assert same(jets.compose_univariate(table, point), jet_oracle.compose_univariate(table, point))
    assert same(jets.compose_univariate(table[:, 0], grid), jet_oracle.compose_univariate(table[:, 0], grid))
    # a float addend on either side of a grid jet, and grid addends on the
    # right of a grid or 1-point jet (an ndarray on the left would make
    # numpy broadcast the jet as an object)
    assert same(2.5 + grid, jet_oracle.add_scalar(grid.c, 2.5))
    assert same(2.5 - grid, jet_oracle.add_scalar(-grid.c, 2.5))
    for j, v in ((grid, 2.5), (grid, table[0]), (point, table[0])):
        assert same(j + v, jet_oracle.add_scalar(j.c, v))
        assert same(j - v, jet_oracle.sub(j.c, jet_oracle.constant(v, deg)))
    assert same(point * grid, jet_oracle.mul_coeffs(point.c, grid.c, deg))
    assert same(grid * point, jet_oracle.mul_coeffs(grid.c, point.c, deg))


@pytest.mark.parametrize("deg", range(7))
def test_truncated_product_stops_at_top(deg):
    rng = np.random.default_rng(400 + deg)
    a, b = grid_jet(rng, deg, (5,)), grid_jet(rng, deg, (5,))
    full = jet_oracle.mul_coeffs(a.c, b.c, deg)
    degree = np.add.outer(np.arange(deg + 1), np.arange(deg + 1))
    for top in range(deg + 1):
        out = jets._mul_coeffs(a.c, b.c, deg, top=top)
        assert np.all(out[degree > top] == 0.0)
        assert np.array_equal(out[degree <= top], full[degree <= top])


def test_degree_zero_and_one_compositions():
    # deg 0 keeps the value alone; deg 1 adds the first derivative
    e = math.exp(0.3)
    assert jets.exp(Jet2.constant(0.3, deg=0)).c.tolist() == [[e]]
    assert jets.exp(Jet2.variable(0.3, 1, deg=1)).c.tolist() == [[e, e], [0.0, 0.0]]
    assert jets.reciprocal(Jet2.constant(4.0, deg=0)).c.tolist() == [[0.25]]
    r = jets.reciprocal(2.0 + Jet2.variable(0.0, 0, deg=1))
    assert r.c.tolist() == [[0.5, 0.0], [-0.25, 0.0]]


# -- support masks: products skip the pairs with a structural zero --

def support(deg, axes):
    """Which coefficients (i, j) an ``axes`` mask lets be nonzero."""
    i, j = np.indices((deg + 1, deg + 1))
    return ((i == 0) | bool(axes & 1)) & ((j == 0) | bool(axes & 2))


def masked_jet(rng, deg, shape, axes, lo=-1.0, hi=1.0):
    """grid_jet with the coefficients outside the ``axes`` mask zeroed."""
    c = grid_jet(rng, deg, shape, lo, hi).c
    c[~support(deg, axes)] = 0.0
    return Jet2(c, deg, axes)


def outside(jet):
    """The coefficients that the jet's mask says are exact zeros."""
    return jet.c[~support(jet.deg, jet.axes)]


def test_mask_of_constructed_jets():
    assert Jet2(np.zeros((3, 3))).axes == 3
    assert Jet2(np.zeros((3, 3, 5)), 2).axes == 3
    assert Jet2.constant(1.5, 2).axes == 0
    assert Jet2.variable(0.3, 0, 2).axes == 1
    assert Jet2.variable(0.3, 1, 2).axes == 2
    y1, y2 = Jet2.variable(0.3, 0, 2), Jet2.variable(0.2, 1, 2)
    assert (y1 + y2).axes == (y1 * y2).axes == (y2 - y1).axes == 3
    assert (2.0 * y1 - 1.0).axes == (-y1 / 3.0).axes == (1.0 - y1).axes == 1
    assert y2.nilpotent().axes == jets.reciprocal(y2).axes == 2


MASK_PAIRS = [(1, 2), (1, 1), (2, 1), (0, 3), (3, 1), (3, 3)]


@pytest.mark.parametrize("shape", GRIDS, ids=["grid1", "grid7000"])
@pytest.mark.parametrize("deg", range(7))
def test_masked_products_match_untruncated(deg, shape):
    rng = np.random.default_rng(500 + deg)
    degree = np.add.outer(np.arange(deg + 1), np.arange(deg + 1))
    for axes_a, axes_b in MASK_PAIRS:
        a, b = masked_jet(rng, deg, shape, axes_a), masked_jet(rng, deg, shape, axes_b)
        full = jet_oracle.mul_coeffs(a.c, b.c, deg)
        p = a * b
        assert p.axes == axes_a | axes_b
        assert same(p, full), (axes_a, axes_b)
        assert np.all(outside(p) == 0.0)
        for top in range(deg + 1):
            out = jets._mul_coeffs(a.c, b.c, deg, top=top, axes_a=axes_a, axes_b=axes_b)
            assert np.all(out[degree > top] == 0.0)
            assert np.array_equal(out[degree <= top], full[degree <= top]), (axes_a, axes_b, top)


def test_product_plan_visits_only_pairs_inside_both_masks():
    def visits(deg, axes_a, axes_b):
        return sum(1 + len(rest) for _, _, rest in jets._product_plan(deg, deg, axes_a, axes_b))

    assert visits(4, 3, 3) == 70
    # y1 x y1: the outputs (i, 0), with i + 1 pairs each
    assert visits(4, 1, 1) == visits(4, 2, 2) == 1 + 2 + 3 + 4 + 5
    # y1 x y2 and constant x full: all 15 outputs, with one pair each
    assert visits(4, 1, 2) == visits(4, 2, 1) == visits(4, 0, 3) == 15
    assert visits(4, 3, 1) == 35


@pytest.mark.parametrize("shape", GRIDS, ids=["grid1", "grid7000"])
@pytest.mark.parametrize("deg", range(7))
def test_one_variable_compositions_match_untruncated(deg, shape, monkeypatch):
    rng = np.random.default_rng(600 + deg)
    for axes in (1, 2):
        a = masked_jet(rng, deg, shape, axes, 0.5, 1.5)
        for name, f in COMPOSED.items():
            new = f(a)
            with monkeypatch.context() as m:
                m.setattr(jets, "compose_univariate", jet_oracle.compose_univariate)
                old = f(a)
            if isinstance(new, Jet2):
                new, old = (new,), (old,)
            for x, y in zip(new, old, strict=True):
                assert x.axes == axes and same(x, y), name
        # at degree 0 a jet is its value alone, and its reciprocal a constant
        assert jets.reciprocal(a).axes == (axes if deg else 0)
        assert same(jets.reciprocal(a), jet_oracle.reciprocal(a))


def _family_jets():
    """Each family's evaluation, and the Baecklund seed waves and
    superposition of the nonzero-mean breather."""
    from breatherlab import breathers as br

    x = np.linspace(-2.0, 2.0, 5)
    families = [
        br.MkdvBreather(alpha=0.5, beta=1.0),
        br.GardnerBreather(alpha=0.5, beta=1.0, mu=0.3),
        br.SgBreather(beta=0.5, v=0.7),
        br.KkshBreather(beta=1.0, k=0.03),
        br.NonzeroMeanBreather(mu=2.9096582464, c1=1.65, p=22, q=23),
        br.MkdvSoliton(c=1.5),
        br.GardnerSoliton(c=1.5, mu=0.3),
        br.SgKink(v=0.4),
    ]
    for family in families:
        family.eval(0.7, x)
    families[3].parameter_partials(x)
    br.permutability_profile(families[4], 0.3, np.array([0.1, 0.2]))


def test_every_family_jet_is_zero_outside_its_mask(monkeypatch):
    # jets are built by Jet2(...) and, as results of arithmetic, by jets._jet
    built = []
    init, make = Jet2.__init__, jets._jet

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(Jet2, "__init__", recording)
    monkeypatch.setattr(jets, "_jet", lambda *args: built.append(make(*args)) or built[-1])
    with np.errstate(over="raise", invalid="raise"):
        _family_jets()
    assert {j.axes for j in built} == {0, 1, 2, 3}
    for j in built:
        assert np.all(outside(j) == 0.0)


def test_ndarray_on_the_left_defers_to_the_jet():
    rng = np.random.default_rng(700)
    x = rng.uniform(-1.0, 1.0, 5)
    j = grid_jet(rng, 4, (5,), 0.5, 1.5)
    for got, want in ((x + j, j + x), (x - j, -(j - x)), (x * j, j * x),
                      (x / j, jets.reciprocal(j) * x)):
        assert isinstance(got, Jet2) and same(got, want)
