import dataclasses
import math
import re

import numpy as np
import pytest

from breatherlab import breathers as br
from breatherlab import cli, linops
from breatherlab import functionals as fn
from breatherlab import stability as st

import loop_oracles

SQRT2 = math.sqrt(2.0)


_FAMILIES = [
    br.MkdvBreather(alpha=0.5, beta=1.0),
    br.GardnerBreather(alpha=0.5, beta=1.0, mu=0.01),
    br.SgBreather(beta=0.5, v=0.3),
    br.KkshBreather(beta=1.0, k=0.03),
    br.NonzeroMeanBreather(mu=1.3, c1=0.9, p=2, q=3),
    br.MkdvSoliton(c=1.0),
    br.GardnerSoliton(c=1.0, mu=0.5),
    br.SgKink(v=0.3),
]


class TestConstructors:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("family", _FAMILIES, ids=lambda f: f.kind)
    def test_rejects_non_finite_parameters(self, family, bad):
        for field in dataclasses.fields(family):
            with pytest.raises(ValueError, match=f"{field.name} must be .*finite"):
                dataclasses.replace(family, **{field.name: bad})

    def test_mkdv_rejects_bad_scalings(self):
        with pytest.raises(ValueError):
            br.MkdvBreather(alpha=-1.0, beta=1.0)
        with pytest.raises(ValueError):
            br.MkdvBreather(alpha=1.0, beta=0.0)

    def test_gardner_rejects_nonpositive_disc(self):
        with pytest.raises(ValueError):
            br.GardnerBreather(alpha=0.1, beta=0.1, mu=3.0)
        with pytest.raises(ValueError):
            br.GardnerBreather(alpha=1.0, beta=1.0, mu=0.0)

    def test_sg_domain(self):
        with pytest.raises(ValueError):
            br.SgBreather(beta=0.5, v=1.0)
        with pytest.raises(ValueError):
            br.SgBreather(beta=1.7, v=0.5)  # beta above the boost bound

    def test_kksh_domain(self):
        kstar = st.find_kstar()
        with pytest.raises(ValueError):
            br.KkshBreather(beta=1.0, k=kstar + 1e-4)
        with pytest.raises(ValueError):
            br.KkshBreather(beta=1.0, k=0.0)

    def test_nonzero_mean_domain(self):
        with pytest.raises(ValueError):
            br.NonzeroMeanBreather(mu=1.0, c1=2.5, p=2, q=3)  # c1 >= 2 mu^2
        with pytest.raises(ValueError):
            br.NonzeroMeanBreather(mu=1.0, c1=0.5, p=2, q=4)  # not coprime
        with pytest.raises(ValueError):
            br.NonzeroMeanBreather(mu=1.0, c1=0.5, p=3, q=3)  # not distinct


class TestProfileValues:
    def test_mkdv_origin_value(self):
        for alpha in (0.4, 1.0, 2.5):
            fam = br.MkdvBreather(alpha=alpha, beta=1.0)
            assert fam.eval(0.0, 0.0).value == pytest.approx(2 * SQRT2, rel=1e-13)

    def test_kksh_origin_value_and_curvature(self):
        fam = br.KkshBreather(beta=1.0, k=0.03)
        f = fam.eval(0.0, 0.0)
        assert f.value == pytest.approx(2 * SQRT2 * fam.beta, rel=1e-12)
        expected = -2 * SQRT2 * fam.beta * (
            (2 + 3 * fam.m) * fam.beta**2 + (1 + fam.k) * fam.alpha**2
        )
        assert f.partial(nx=2) == pytest.approx(expected, rel=1e-11)

    def test_sg_origin_value(self):
        fam = br.SgBreather(beta=0.5, v=0.7)
        out = fam.eval(0.0, 0.0)
        assert out.value == pytest.approx(4 * math.atan2(fam.beta, fam.alpha), rel=1e-13)


class TestPdeResiduals:
    @pytest.mark.parametrize("family", loop_oracles.PDE_FAMILIES, ids=lambda f: f.kind)
    def test_solution_of_its_equation(self, family):
        assert fn.pde_residual(family, n_points=100) < 1e-9


class TestPeriodicity:
    def test_mkdv(self):
        fam = br.MkdvBreather(alpha=2.5, beta=1.0, x1=0.3)
        assert br.periodicity_check(fam) < 1e-10

    def test_sg(self):
        fam = br.SgBreather(beta=0.5, v=0.7)
        assert br.periodicity_check(fam) < 1e-10

    def test_left_moving_sg(self):
        fam = br.SgBreather(beta=0.5, v=-0.3, x1=0.2, x2=-0.4)
        assert br.periodicity_check(fam) < 1e-10

    def test_gardner(self):
        fam = br.GardnerBreather(alpha=0.5, beta=1.0, mu=0.1, x1=0.1, x2=0.3)
        assert br.periodicity_check(fam) < 1e-10

    def test_kksh_spatial_and_time(self):
        fam = br.KkshBreather(beta=1.0, k=0.02, x1=0.1)
        assert br.periodicity_check(fam) < 1e-10

    def test_nonzero_mean(self):
        fam = br.NonzeroMeanBreather(mu=1.3, c1=0.9, p=2, q=3)
        assert br.periodicity_check(fam) < 1e-10

    @pytest.mark.parametrize("c1, p, q", [(1.0, 4, 3), (1.5, 5, 4), (0.9, -4, 3)])
    def test_nonzero_mean_with_c2_below_c1(self, c1, p, q):
        # |p| > |q| puts c2 below c1
        fam = br.NonzeroMeanBreather(mu=1.0, c1=c1, p=p, q=q)
        assert fam.c2 < fam.c1
        assert br.periodicity_check(fam) < 1e-12

    def test_rejects_solitons(self):
        with pytest.raises(ValueError):
            br.periodicity_check(br.MkdvSoliton(c=1.0))

    @pytest.mark.parametrize("family", [
        br.MkdvBreather(alpha=2.5, beta=1.0, x1=0.3),
        br.GardnerBreather(alpha=0.5, beta=1.0, mu=0.1, x1=0.1),
        br.SgBreather(beta=0.5, v=0.7),
        br.SgBreather(beta=0.5, v=-0.3),
        br.KkshBreather(beta=1.0, k=0.02, x1=0.1),
    ], ids=lambda f: f.kind)
    def test_two_phase_recurrence_keeps_its_dx2_free_form(self, family):
        # dx_2 = 1 for these breathers, so dividing by it changes no bit
        (a, b), (c, _) = family.phase_maps
        T = family.phase_period / abs(a - c * b)
        assert repr(family.time_period) == repr(T)
        assert repr(family.space_shift) == repr(-b * T)


_PERIODIC_FAMILIES = [
    br.MkdvBreather(alpha=2.5, beta=1.0, x1=0.3),
    br.GardnerBreather(alpha=0.5, beta=1.0, mu=0.1, x1=0.1),
    br.SgBreather(beta=0.5, v=0.7),
    br.KkshBreather(beta=1.0, k=0.02, x1=0.1),
    br.NonzeroMeanBreather(mu=1.3, c1=0.9, p=2, q=3),
    br.NonzeroMeanBreather(mu=2.9096582464459835, c1=1.65, p=22, q=23),
]


class TestBatchedPeriodicity:
    @pytest.mark.parametrize("family", _PERIODIC_FAMILIES, ids=lambda f: f.kind)
    def test_equals_the_per_time_loop(self, family):
        for seed in (0, 1):
            expected = loop_oracles.periodicity_check_loop(family, seed=seed)
            assert br.periodicity_check(family, seed=seed) == expected

    @pytest.mark.parametrize("family", _PERIODIC_FAMILIES, ids=lambda f: f.kind)
    def test_one_eval_per_side(self, family, monkeypatch):
        calls = loop_oracles.count_evals(monkeypatch, type(family))
        br.periodicity_check(family)
        line = [(40, 40)] * 2
        assert calls == (line + [(8, 40)] * 2 if family.domain == "torus" else line)

    @pytest.mark.parametrize("family", [_PERIODIC_FAMILIES[2], _PERIODIC_FAMILIES[4]],
                             ids=lambda f: f.kind)
    def test_nan_at_one_point_propagates(self, family, monkeypatch):
        # on the torus, plant it where only the x + period side samples
        shift = family.period if family.domain == "torus" else 0.0
        x_bad = loop_oracles.sample_xs(40, 0)[5] + shift
        loop_oracles.plant_nan(monkeypatch, type(family), x_bad)
        # the per-time loop folds with Python max, which drops the NaN
        assert math.isfinite(loop_oracles.periodicity_check_loop(family))
        assert math.isnan(br.periodicity_check(family))


class TestSgIdentities:
    @pytest.mark.parametrize("beta, v", [(0.5, 0.0), (0.5, 0.7), (0.9, -0.3), (0.1, 0.99)])
    def test_wavenumber_is_spatial(self, beta, v):
        # at fixed t the phase alpha (t - v x + x1) advances at alpha |v| in x;
        # alpha itself is the time frequency
        fam = br.SgBreather(beta=beta, v=v)
        assert fam.wavenumber == fam.alpha * abs(v)

    def setup_method(self):
        self.fam = br.SgBreather(beta=0.5, v=0.7, x1=0.4, x2=-0.3)
        rng = np.random.default_rng(8)
        self.ts = rng.uniform(-2, 2, 10)
        self.xs = rng.uniform(-8, 8, 100)

    def test_explicit_time_derivative_matches_jet(self):
        # oracle: the rational B_t = -4 a b (a sin1 cosh2 - b v cos1 sinh2) / g,
        # g = a^2 cosh2^2 + b^2 cos1^2, of (sin1, cos1) = (sin, cos)(a Y1) and
        # (sinh2, cosh2) = (sinh, cosh)(b Y2)
        worst = 0.0
        for v in (0.0, 0.7, 0.99):
            fam = dataclasses.replace(self.fam, v=v)
            a, b = fam.alpha, fam.beta
            for t in self.ts:
                y1 = t - v * self.xs + fam.x1
                y2 = self.xs - v * t + fam.x2
                sin1, cos1 = np.sin(a * y1), np.cos(a * y1)
                sinh2, cosh2 = np.sinh(b * y2), np.cosh(b * y2)
                g = a**2 * cosh2**2 + b**2 * cos1**2
                rational = -4 * a * b * (a * sin1 * cosh2 - b * v * cos1 * sinh2) / g
                got = fam.eval(t, self.xs, deg=1).partial(nt=1)
                worst = max(worst, np.max(np.abs(got - rational)))
        assert worst < 1e-11

    @pytest.mark.parametrize("v", [0.0, 0.4, -0.9])
    def test_kink_time_derivative_matches_jet(self, v):
        # oracle: B = 4 arctan(e^S), S = g (x - v t - x0), so B_t = -2 v g sech(S)
        kink = br.SgKink(v=v, x0=0.3)
        g = kink.lorentz
        for t in self.ts:
            S = g * (self.xs - v * t - kink.x0)
            got = kink.eval(t, self.xs, deg=1).partial(nt=1)
            assert np.max(np.abs(got - (-2.0 * v * g) / np.cosh(S))) < 1e-11

    @pytest.mark.parametrize("family", [br.SgBreather(beta=0.5, v=0.7), br.SgKink(v=0.4)],
                             ids=lambda f: f.kind)
    @pytest.mark.parametrize("deg", [0, 2, 4])
    def test_time_derivative_needs_one_more_degree(self, family, deg):
        f = family.eval(0.3, self.xs, deg=deg)
        with pytest.raises(ValueError, match="insufficient jet degree"):
            f.partial(nt=1, nx=deg)

    def test_cosine_closed_form(self):
        a, b, v = self.fam.alpha, self.fam.beta, self.fam.v
        worst = 0.0
        for t in self.ts:
            f = self.fam.eval(t, self.xs, deg=0)
            y1 = t - v * self.xs + self.fam.x1
            y2 = self.xs - v * t + self.fam.x2
            ch, cs = np.cosh(b * y2), np.cos(a * y1)
            g = a**2 * ch**2 + b**2 * cs**2
            rational = (b**4 * cs**4 - 6 * a**2 * b**2 * ch**2 * cs**2 + a**4 * ch**4) / g**2
            worst = max(worst, np.max(np.abs(np.cos(f.value) - rational)))
        assert worst < 1e-11

    def test_shift_derivative_identities(self):
        # B_t = B_1 - v B_2 and B_x = -v B_1 + B_2
        v = self.fam.v
        worst = 0.0
        for t in self.ts:
            f = self.fam.eval(t, self.xs, deg=2)
            b1 = f.partial(n1=1)
            b2 = f.partial(n2=1)
            worst = max(
                worst,
                np.max(np.abs(f.partial(nt=1) - (b1 - v * b2))),
                np.max(np.abs(f.partial(nx=1) - (-v * b1 + b2))),
            )
        assert worst < 1e-11

    def test_lorentz_covariance(self):
        v = 0.6
        fam_v = br.SgBreather(beta=0.5, v=v, x1=0.4, x2=0.1)
        g = fam_v.lorentz
        fam_0 = br.SgBreather(beta=0.5 / g, v=0.0, x1=g * 0.4, x2=g * 0.1)
        worst = 0.0
        for t in self.ts[:6]:
            bv = fam_v.eval(t, self.xs, deg=0).value
            b0 = fam_0.eval(g * (t - v * self.xs), g * (self.xs - v * t), deg=0).value
            worst = max(worst, np.max(np.abs(bv - b0)))
        assert worst < 1e-10


class TestKkshReduction:
    def test_small_k_approaches_line_breather(self):
        fam = br.KkshBreather(beta=1.0, k=1e-4)
        line = br.MkdvBreather(alpha=fam.alpha, beta=1.0)
        xs = np.linspace(-5.0, 5.0, 81)
        diff = fam.eval(0.0, xs, deg=0).value - line.eval(0.0, xs, deg=0).value
        assert np.max(np.abs(diff)) < 1e-2


class TestNonzeroMean:
    def test_fig_like_parameter_solve(self):
        mu = br.solve_mean_level(1.65, 2.95, 22, 23)
        fam, perm, seed = br.backlund_construct(mu, 1.65, 22, 23)
        assert perm <= 1e-10 and seed <= 1e-10
        assert fam.c2 == pytest.approx(2.95, abs=1e-12)
        # quoted approximate period ~ 35.7; the exact locked value is 36.97
        assert fam.period == pytest.approx(35.7, rel=0.05)
        assert fam.period == pytest.approx(2 * math.pi * 23 / fam.s1, rel=1e-13)

    @pytest.mark.parametrize("check, nan_result", [
        ("permutability_profile", lambda family, t, x: np.full(np.shape(x), np.nan)),
        ("backlund_seed_residual", lambda family, t, x: math.nan),
    ], ids=["superposition", "seed"])
    def test_construction_checks_reject_nan(self, monkeypatch, check, nan_result):
        mu = br.solve_mean_level(1.65, 2.95, 22, 23)
        monkeypatch.setattr(br, check, nan_result)
        with pytest.raises(ArithmeticError):
            br.backlund_construct(mu, 1.65, 22, 23)

    def test_rejects_equal_pq(self):
        with pytest.raises(ValueError):
            br.backlund_construct(math.sqrt(0.5), 0.5, 3, 3)

    def test_seed_relation_residual(self):
        fam = br.NonzeroMeanBreather(mu=1.3, c1=0.9, p=2, q=3)
        rng = np.random.default_rng(4)
        xs = br._pole_free_points(fam, 0.2, rng, 50)
        assert br.backlund_seed_residual(fam, 0.2, xs) < 1e-10

    def test_superposition_route_matches_closed_form(self):
        fam = br.NonzeroMeanBreather(mu=1.3, c1=0.9, p=2, q=3)
        rng = np.random.default_rng(5)
        for t in (0.0, 0.41):
            xs = br._pole_free_points(fam, t, rng, 50)
            direct = fam.eval(t, xs, deg=1).value
            via = br.permutability_profile(fam, t, xs)
            assert np.max(np.abs(direct - via)) < 1e-10

    def test_mean_offset_is_quantised_by_the_phase_winding(self):
        # The closed-form profile's spatial mean exceeds the background level
        # by exactly (p - q) windings of 2 sqrt(2) pi / L: the two phases
        # advance by q and p half-turns over one period, so the rational
        # angle form winds p - q times.  In particular the literal
        # "mean equals background" reading is off by that quantum.
        for (p, q) in ((2, 3), (3, 5), (22, 23)):
            fam = br.NonzeroMeanBreather(mu=1.3, c1=0.9, p=p, q=q)
            mean = fn.mean_value(fam)
            offset = (p - q) * 2 * SQRT2 * math.pi / fam.period
            assert mean - fam.mu == pytest.approx(offset, abs=1e-8)


class TestNormalForm:
    # each family at t != 0 with x1, x2 != 0, and the x-translation that
    # takes its second phase to x2 = 0: that phase is x + shift(family, t)
    @pytest.mark.parametrize("family, shift", [
        pytest.param(br.MkdvBreather(alpha=0.7, beta=1.1, x1=0.4, x2=0.9),
                     lambda f, t: f.gamma * t + f.x2, id="mkdv"),
        pytest.param(br.GardnerBreather(alpha=0.5, beta=1.0, mu=0.1, x1=0.4, x2=0.9),
                     lambda f, t: f.gamma * t + f.x2, id="gardner"),
        pytest.param(br.KkshBreather(beta=1.2, k=0.02, x1=0.4, x2=0.9),
                     lambda f, t: f.gamma * t + f.x2, id="kksh"),
        pytest.param(br.SgBreather(beta=0.6, v=0.4, x1=0.2, x2=0.5),
                     lambda f, t: -f.v * t + f.x2, id="sg"),
    ])
    def test_same_field_translated_in_x(self, family, shift):
        t = 0.83
        nf = br.normal_form(family, t)
        assert nf.x2 == 0.0 and type(nf) is type(family)
        xs = np.linspace(-5, 5, 41)
        orig = family.eval(t, xs, deg=0).value
        normal = nf.eval(0.0, xs + shift(family, t), deg=0).value
        assert np.max(np.abs(orig - normal)) < 1e-12

    @pytest.mark.parametrize("family", [f for f in _FAMILIES if f.kind in (
        "nonzero-mean", "mkdv-soliton", "gardner-soliton", "sg-kink")], ids=lambda f: f.kind)
    def test_rejects_families_without_an_operator(self, family):
        message = f"no linearized operator for family kind {family.kind!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            br.normal_form(family, 0.3)


class TestRolesFromTheClass:
    """A family's role is read from its class, never from its ``kind`` name:
    a subclass under a new name behaves as its parent."""

    @pytest.mark.parametrize("parent", [
        br.MkdvBreather(alpha=0.9, beta=1.0, x1=0.3, x2=-0.2),
        br.SgBreather(beta=0.5, v=0.3, x1=0.2, x2=0.1),
    ], ids=lambda f: f.kind)
    def test_renamed_subclass_gives_its_parents_values(self, parent):
        cls = type("Renamed", (type(parent),), {"kind": parent.kind + "-renamed"})
        child = cls(**{f.name: getattr(parent, f.name) for f in dataclasses.fields(parent)})
        assert child.kind not in br.FAMILIES
        assert br.periodicity_check(child) == br.periodicity_check(parent)
        assert fn.stationary_residual(child) == fn.stationary_residual(parent)
        assert fn.pde_residual(child, n_points=20) == fn.pde_residual(parent, n_points=20)
        assert fn.evaluate_functional("lyapunov", child) == fn.evaluate_functional("lyapunov", parent)
        assert type(linops.operator_for(child)) is type(linops.operator_for(parent))
        assert cli._problem(child, 10).dim == cli._problem(parent, 10).dim

    @pytest.mark.parametrize("family", [f for f in _FAMILIES if not isinstance(f, br.Breather)],
                             ids=lambda f: f.kind)
    def test_solitons_and_kink_keep_their_messages(self, family):
        with pytest.raises(ValueError, match="^periodicity check applies to breather families only$"):
            br.periodicity_check(family)
        message = f"no Lyapunov combination for family kind {family.kind!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fn.evaluate_functional("lyapunov", family)
        with pytest.raises(ValueError, match="^no linearized operator for family kind"):
            linops.operator_for(family)
        if isinstance(family, br.WaveFamily):
            with pytest.raises(ValueError, match=re.escape("the kink carries no (a, b); pass ab explicitly")):
                fn.stationary_residual(family)
        else:
            assert fn.stationary_residual(family) < 1e-10


def test_field_jet_rejects_excessive_order():
    fam = br.MkdvBreather(alpha=1.0, beta=1.0)
    f = fam.eval(0.0, 0.0, deg=3)
    with pytest.raises(ValueError, match="insufficient jet degree"):
        f.partial(nx=4)


def test_first_partials_match_finite_differences():
    fam = br.MkdvBreather(alpha=1.5, beta=0.8, x1=0.3, x2=-0.2)
    t0, x0 = 0.37, 1.21
    f = fam.eval(t0, x0, deg=2)
    h = 1e-6

    def val(t, x):
        return float(fam.eval(t, x, deg=0).value)

    fd_t = (val(t0 + h, x0) - val(t0 - h, x0)) / (2 * h)
    fd_x = (val(t0, x0 + h) - val(t0, x0 - h)) / (2 * h)
    assert f.partial(nt=1) == pytest.approx(fd_t, rel=1e-7)
    assert f.partial(nx=1) == pytest.approx(fd_x, rel=1e-7)
