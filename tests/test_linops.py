import dataclasses

import numpy as np
import pytest

from breatherlab import breathers as br
from breatherlab import jets, linops
from breatherlab import stability as st
from breatherlab.quadrature import LinePlan


def kernel_derivs(fieldjet, orders, n1=0, n2=0):
    return tuple(fieldjet.partial(nx=j, n1=n1, n2=n2) for j in range(orders + 1))


class TestScalarKernels:
    @pytest.mark.parametrize("n1,n2", [(1, 0), (0, 1)])
    def test_mkdv_translation_kernel(self, n1, n2):
        fam = br.MkdvBreather(alpha=0.5, beta=1.0, x1=0.09)
        op = linops.scalar_operator(fam)
        x = np.linspace(-30, 30, 200)
        f = op.family.eval(0.0, x, deg=6)
        z = kernel_derivs(f, 4, n1=n1, n2=n2)
        image = op.apply(x, z)
        scale = max(np.max(np.abs(z[4])), 1.0)
        assert np.max(np.abs(image)) / scale < 1e-8

    def test_gardner_translation_kernel(self):
        fam = br.GardnerBreather(alpha=0.5, beta=1.0, mu=0.1, x1=0.2)
        op = linops.scalar_operator(fam)
        x = np.linspace(-30, 30, 150)
        f = op.family.eval(0.0, x, deg=6)
        for sel in ((1, 0), (0, 1)):
            image = op.apply(x, kernel_derivs(f, 4, *sel))
            assert np.max(np.abs(image)) < 1e-8 * max(np.max(np.abs(f.partial(nx=4))), 1.0)

    def test_kksh_translation_kernel(self):
        fam = br.KkshBreather(beta=1.0, k=0.03, x1=0.1)
        op = linops.scalar_operator(fam)
        x = np.linspace(0.0, fam.period, 120, endpoint=False)
        f = op.family.eval(0.0, x, deg=6)
        for sel in ((1, 0), (0, 1)):
            image = op.apply(x, kernel_derivs(f, 4, *sel))
            assert np.max(np.abs(image)) < 1e-7 * np.max(np.abs(f.partial(nx=4, n1=1)))

    def test_apply_needs_four_derivatives(self):
        fam = br.MkdvBreather(alpha=1.0, beta=1.0)
        op = linops.scalar_operator(fam)
        x = np.linspace(-1, 1, 5)
        f = op.family.eval(0.0, x, deg=3)
        with pytest.raises(ValueError, match="insufficient"):
            op.apply(x, kernel_derivs(f, 3))


class TestSgBlock:
    def test_kernel_pair(self):
        fam = br.SgBreather(beta=0.5, v=0.7, x1=0.3)
        op = linops.sg_operator(fam)
        x = np.linspace(-45, 45, 220)
        pair = op.family.eval(0.0, x, deg=6)
        for sel in ((1, 0), (0, 1)):
            z = kernel_derivs(pair.b, 4, *sel)
            w = kernel_derivs(pair.bt, 2, *sel)
            r1, r2 = op.apply(x, z, w)
            assert np.max(np.abs(r1)) < 1e-10
            assert np.max(np.abs(r2)) < 1e-10

    @pytest.mark.parametrize("check", [
        lambda fam: linops.sg_scaling_quadratic_form(fam),
        lambda fam: linops.sg_variational_direction_residual(fam),
        lambda fam: st.sg_weinstein_check(fam.beta, fam.v),
    ])
    def test_profile_evaluated_once_per_check(self, check, monkeypatch):
        # the scaling direction is the family's beta-partial, not an eval
        calls = []
        evaluate = br.SgBreather.eval
        counted = lambda *a, **kw: calls.append(a) or evaluate(*a, **kw)
        monkeypatch.setattr(br.SgBreather, "eval", counted)
        check(br.SgBreather(beta=0.5, v=0.7))
        assert len(calls) == 1

    def test_scaling_relation_residuals(self):
        # the image of dB/dbeta is -2 beta times that of the scaled direction
        # (B0, B0t) = -(1/2 beta) dB/dbeta, so its defect is 2 beta times the
        # variational residual
        for beta, v in ((0.5, 0.0), (0.5, 0.7), (0.8, 0.3)):
            fam = br.SgBreather(beta=beta, v=v, x1=0.1)
            assert 2 * beta * linops.sg_variational_direction_residual(fam) < 1e-5

    def test_variational_direction_image(self):
        fam = br.SgBreather(beta=0.5, v=0.7)
        assert linops.sg_variational_direction_residual(fam) < 1e-6

    def test_scaling_quadratic_form_closed_value(self):
        fam = br.SgBreather(beta=0.7, v=0.3)
        q = linops.sg_scaling_quadratic_form(fam)
        assert q == pytest.approx(-32 * (1 + 3 * 0.09) * 0.7, rel=1e-6)

    def test_scaled_direction_pairing_closed_value(self):
        assert st.sg_weinstein_check(0.5, 0.7) == pytest.approx((8 / 0.5) * (1 + 3 * 0.49), rel=1e-6)
        assert st.sg_weinstein_check(0.5, 0.0) == pytest.approx(16.0, rel=1e-6)

    def test_quadratic_form_on_kernel_vanishes(self):
        fam = br.SgBreather(beta=0.5, v=0.4, x1=0.2)
        op = linops.sg_operator(fam)
        plan = LinePlan(center=0.0, half_width=70.0, nodes_per_unit=8.0)
        x, w_quad = plan.nodes_weights(2)
        pair = op.family.eval(0.0, x, deg=6)
        z = kernel_derivs(pair.b, 2, 1, 0)
        w = kernel_derivs(pair.bt, 1, 1, 0)
        assert abs(op.quadratic_form(x, w_quad, z, w)) < 1e-7

    def test_quadratic_form_routes_agree(self):
        fam = br.SgBreather(beta=0.5, v=0.3)
        op = linops.sg_operator(fam)
        plan = LinePlan(center=0.0, half_width=70.0, nodes_per_unit=8.0)
        x, w_quad = plan.nodes_weights(2)

        def zf(X):
            return jets.exp(-0.2 * (X - 0.5) * (X - 0.5)) * jets.sin(1.3 * X)

        def wf(X):
            return jets.exp(-0.35 * X * X) * (1.0 + 0.4 * X)

        zj = zf(jets.Jet2.variable(x, 0, deg=4))
        wj = wf(jets.Jet2.variable(x, 0, deg=4))
        z = tuple(zj.partial(i, 0) for i in range(5))
        w = tuple(wj.partial(i, 0) for i in range(3))
        q_apply = op.quadratic_form_apply(x, w_quad, z, w)
        q_parts = op.quadratic_form(x, w_quad, z, w)
        assert q_apply == pytest.approx(q_parts, rel=1e-8)

    def test_apply_needs_enough_derivatives(self):
        fam = br.SgBreather(beta=0.5, v=0.1)
        op = linops.sg_operator(fam)
        x = np.linspace(-1, 1, 5)
        pair = op.family.eval(0.0, x, deg=4)
        with pytest.raises(ValueError, match="insufficient"):
            op.apply(x, kernel_derivs(pair.b, 3), kernel_derivs(pair.bt, 2))


class TestParameterDirections:
    @pytest.mark.parametrize("beta,v", [(b, v) for b in (0.1, 0.5, 0.9) for v in (0.0, 0.99)])
    def test_scaling_quadratic_form_closed_value_tight(self, beta, v):
        q = linops.sg_scaling_quadratic_form(br.SgBreather(beta=beta, v=v))
        assert q == pytest.approx(-32 * (1 + 3 * v * v) * beta, rel=1e-10)

    @pytest.mark.parametrize("beta,v,x1", [(0.5, 0.0, 0.1), (0.5, 0.7, 0.1), (0.8, 0.3, 0.1),
                                           (0.9, 0.99, 0.0)])
    def test_variational_direction_residual_tight(self, beta, v, x1):
        fam = br.SgBreather(beta=beta, v=v, x1=x1)
        assert linops.sg_variational_direction_residual(fam) <= 1e-9

    @pytest.mark.parametrize("k", [0.002, 0.01, 0.03, 0.05, 0.058])
    def test_periodic_inverse_identity_tight(self, k):
        assert linops.kksh_inverse_direction_residual(1.0, k) <= 1e-9

    @pytest.mark.parametrize("beta,v", [(0.5, 0.7), (0.9, 0.3)])
    def test_sg_direction_matches_central_difference(self, beta, v):
        fam = br.SgBreather(beta=beta, v=v, x1=0.1)
        x = np.linspace(-30.0, 30.0, 301)
        z, w = linops.sg_scaling_direction(fam, x)
        h = 1e-5
        plus, minus = (dataclasses.replace(fam, beta=beta + s).eval(0.0, x, deg=4) for s in (h, -h))
        for grids, p, m in ((z, plus.b, minus.b), (w, plus.bt, minus.bt)):
            for j, got in enumerate(grids):
                fd = (p.partial(nx=j) - m.partial(nx=j)) / (2.0 * h)
                assert np.max(np.abs(got - fd)) <= 1e-6 * np.max(np.abs(fd))

    def test_kksh_beta_direction_is_the_dilation(self):
        # a and b scale with beta at fixed (k, m), so B(x) = beta G(beta Y1, beta Y2)
        fam = br.KkshBreather(beta=1.3, k=0.03, x1=0.2, x2=-0.1)
        x = np.linspace(0.0, fam.period, 150, endpoint=False)
        _, db = fam.parameter_partials(x, deg=2)
        f = fam.eval(0.0, x, deg=1)
        y1, y2 = x + fam.x1, x + fam.x2
        dilation = (f.value + y1 * f.partial(n1=1) + y2 * f.partial(n2=1)) / fam.beta
        assert np.max(np.abs(db.partial(nx=1) - dilation)) <= 1e-12 * np.max(np.abs(dilation))

    def test_kksh_k_direction_matches_central_difference(self):
        x = np.linspace(0.0, 10.0, 50)
        dk, _ = linops.kksh_parameter_direction(1.0, 0.03, x)
        h = 1e-6
        plus, minus = (br.KkshBreather(beta=1.0, k=0.03 + s).eval(0.0, x, deg=0).value for s in (h, -h))
        fd = (plus - minus) / (2.0 * h)
        assert np.max(np.abs(dk[0] - fd)) <= 1e-6 * np.max(np.abs(fd))

    def test_kksh_partials_have_no_time_derivative(self):
        # the phases' time coefficients move with (beta, k): a t-partial is NaN
        dk, db = br.KkshBreather(beta=1.0, k=0.03).parameter_partials(np.zeros(3), deg=2)
        assert np.all(np.isnan(dk.partial(nt=1))) and np.all(np.isnan(db.partial(nt=1)))


class TestReductions:
    def test_gardner_reduces_to_mkdv_at_zero_mu(self):
        # same multipliers; the profile, and so each coefficient grid, moves
        # by O(mu): halving mu halves the distance to the mKdV grids
        fam = br.MkdvBreather(alpha=0.8, beta=1.1, x1=0.3)
        x = np.linspace(-20, 20, 100)
        cm = linops.scalar_operator(fam).coefficients(x)

        def distance(mu):
            gardner = br.GardnerBreather(alpha=0.8, beta=1.1, mu=mu, x1=0.3)
            assert gardner.a1a2 == fam.a1a2
            cg = linops.scalar_operator(gardner).coefficients(x)
            return np.array([np.max(np.abs(a - b)) for a, b in zip(cg, cm)])

        d1, d2 = distance(1e-3), distance(5e-4)
        assert np.all(d2 > 0.0)
        assert np.allclose(d1 / d2, 2.0, rtol=1e-2)

    def test_mkdv_multipliers_closed_form(self):
        fam = br.MkdvBreather(alpha=0.9, beta=1.0, x1=0.4)
        a, b = fam.alpha, fam.beta
        assert fam.a1a2 == (2 * (b**2 - a**2), (a**2 + b**2) ** 2)
        assert linops.scalar_operator(fam).family.a1a2 == fam.a1a2

    def test_kksh_a1_a2_limits_at_small_k(self):
        a1, a2 = st.coeffs_a1a2(1.0, 1e-5)
        pair = st.solve_commensurability(1e-5)
        assert a1 == pytest.approx(2 * (1.0 - pair.alpha**2), abs=1e-4)
        assert a2 == pytest.approx((pair.alpha**2 + 1.0) ** 2, abs=1e-3)


class TestInverseDirection:
    def test_periodic_inverse_identity(self):
        assert linops.kksh_inverse_direction_residual(1.0, 0.03) < 1e-4

    def test_free_operator_variant(self):
        fam = br.MkdvBreather(alpha=1.5, beta=1.0)
        op = linops.scalar_operator(fam, zero_potential=True)
        x = np.linspace(-5, 5, 11)
        c0, c1, c2 = op.coefficients(x)
        assert np.allclose(c0, (1 + 1.5**2) ** 2)
        assert np.allclose(c1, 0.0)
        assert np.allclose(c2, -2 * (1 - 1.5**2))
