import math

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.special import ellipeinc

from breatherlab import specfun as sf
from breatherlab.jets import Jet2

import loop_oracles
from legendre_oracle import LegendrePlan


def k_integral_oracle(m):
    return quad(lambda s: (1 - m * np.sin(s) ** 2) ** -0.5, 0, np.pi / 2, epsabs=1e-14)[0]


def e_integral_oracle(m):
    return quad(lambda s: (1 - m * np.sin(s) ** 2) ** 0.5, 0, np.pi / 2, epsabs=1e-14)[0]


class TestEllipticIntegrals:
    def test_k_at_zero(self):
        assert sf.ellip_k(0.0) == pytest.approx(math.pi / 2, rel=1e-15)

    def test_k_half_against_quadrature(self):
        assert sf.ellip_k(0.5) == pytest.approx(k_integral_oracle(0.5), rel=1e-13)
        assert sf.ellip_k(0.5) == pytest.approx(1.854075, abs=5e-7)

    def test_k_divergence_near_one(self):
        assert sf.ellip_k(1 - 1e-12) > 14.0

    def test_k_domain(self):
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                sf.ellip_k(bad)

    def test_e_endpoints(self):
        assert sf.ellip_e(0.0) == pytest.approx(math.pi / 2, rel=1e-15)
        assert sf.ellip_e(1.0) == 1.0

    def test_e_against_quadrature(self):
        for m in (0.1, 0.5, 0.93):
            assert sf.ellip_e(m) == pytest.approx(e_integral_oracle(m), rel=1e-13)
        assert sf.ellip_e(0.5) == pytest.approx(1.350644, abs=5e-7)

    def test_e_domain(self):
        with pytest.raises(ValueError):
            sf.ellip_e(1.2)

    def test_one_agm_gives_k_and_e_bitwise(self):
        rng = np.random.default_rng(19)
        for m in [0.0, 1e-300, 1e-15, 0.5, 1.0 - 1e-15] + list(rng.uniform(0.0, 1.0, 200)):
            assert sf.ellip_ke(m) == (sf.ellip_k(m), sf.ellip_e(m)), m
        with pytest.raises(ValueError):
            sf.ellip_ke(1.0)

    @pytest.mark.parametrize("m", [1e-12, 1e-6, 0.1, 0.5, 0.9, 1 - 1e-6, 1 - 1e-12])
    def test_legendre_relation(self, m):
        # E K' + E' K - K K' = pi/2 with K' = K(1 - m) (DLMF 19.7.1)
        K, E = sf.ellip_ke(m)
        Kc, Ec = sf.ellip_ke(1.0 - m)
        assert abs(E * Kc + Ec * K - K * Kc - math.pi / 2) <= 2e-14


class TestJacobi:
    def test_trig_limit(self):
        assert sf.jacobi(0.7, 0.0, "sn") == pytest.approx(math.sin(0.7), abs=1e-13)
        assert sf.jacobi(0.7, 0.0, "cn") == pytest.approx(math.cos(0.7), abs=1e-13)

    def test_hyperbolic_limit(self):
        assert sf.jacobi(0.7, 1.0, "sn") == pytest.approx(math.tanh(0.7), abs=1e-13)
        assert sf.jacobi(0.7, 1.0, "dn") == pytest.approx(1 / math.cosh(0.7), abs=1e-13)

    def test_sn_against_ode_oracle(self):
        # sn'' = -(1+m) sn + 2 m sn^3 with sn(0)=0, sn'(0)=1
        m = 0.5
        sol = solve_ivp(
            lambda t, y: [y[1], -(1 + m) * y[0] + 2 * m * y[0] ** 3],
            (0, 0.7),
            [0.0, 1.0],
            rtol=1e-12,
            atol=1e-14,
            method="DOP853",
        )
        assert sf.jacobi(0.7, m, "sn") == pytest.approx(sol.y[0][-1], abs=1e-10)

    def test_algebraic_identities_random(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            x = rng.uniform(-20, 20)
            m = rng.uniform(0, 1)
            s = sf.jacobi(x, m, "sn")
            c = sf.jacobi(x, m, "cn")
            d = sf.jacobi(x, m, "dn")
            assert abs(s * s + c * c - 1) < 1e-12
            assert abs(d * d + m * s * s - 1) < 1e-12

    def test_nd_is_reciprocal_dn_and_satisfies_its_ode(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            x = rng.uniform(-5, 5)
            m = rng.uniform(0.05, 0.95)
            nd = sf.jacobi(x, m, "nd")
            assert nd == pytest.approx(1.0 / sf.jacobi(x, m, "dn"), rel=1e-13)
            ND = sf.jacobi_jet(Jet2.variable(x, 0), m, "nd")
            lhs = ND.partial(1, 0) ** 2
            rhs = -1 + (2 - m) * ND.value**2 + (m - 1) * ND.value**4
            assert abs(lhs - rhs) < 1e-10

    def test_jet_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(5)
        h = 1e-5
        for _ in range(20):
            x = rng.uniform(-4, 4)
            m = rng.uniform(0.05, 0.95)
            for which in ("sn", "cn", "dn"):
                J = sf.jacobi_jet(Jet2.variable(x, 0), m, which)

                def fd(step):
                    return (sf.jacobi(x + step, m, which) - sf.jacobi(x - step, m, which)) / (
                        2 * step
                    )

                rich = (4 * fd(h / 2) - fd(h)) / 3
                assert J.partial(1, 0) == pytest.approx(rich, rel=1e-7, abs=1e-9)


class TestAmplitude:
    def test_zero(self):
        for m in (0.1, 0.5, 0.9):
            assert sf.jacobi_amplitude(0.0, m) == 0.0

    def test_quarter_period(self):
        m = 0.3
        assert sf.jacobi_amplitude(sf.ellip_k(m), m) == pytest.approx(math.pi / 2, abs=1e-13)

    def test_against_dn_quadrature(self):
        oracle = quad(lambda s: sf.jacobi(s, 0.5, "dn"), 0, 1.0, epsabs=1e-13)[0]
        assert sf.jacobi_amplitude(1.0, 0.5) == pytest.approx(oracle, abs=1e-12)


class TestParameterPartials:
    def test_epsilon_against_scipy(self):
        u = np.linspace(-20.0, 20.0, 401)
        for m in (0.002, 0.3, 0.9, 0.999999):
            ref = ellipeinc(sf.jacobi_amplitude(u, m), m)
            assert np.max(np.abs(sf.jacobi_epsilon(u, m) - ref)) < 1e-13

    @pytest.mark.parametrize("m", [0.002, 0.3, 0.8, 0.99])
    def test_dm_partials_match_central_differences(self, m):
        # values, and u-derivatives through d_u d_m sn = d_m (cn dn) etc.
        u = np.linspace(-6.0, 6.0, 61)
        h = 1e-4 * min(m, 1.0 - m)
        jet = sf.jacobi_dm_jet(Jet2.variable(u, 0, deg=2), m)

        def fields(mm):
            sn, cn, dn = (sf.jacobi(u, mm, w) for w in ("sn", "cn", "dn"))
            return (sn, cn, dn), (cn * dn, -sn * dn, -mm * sn * cn)

        (plus, plus_u), (minus, minus_u) = fields(m + h), fields(m - h)
        for j, jm in enumerate(jet):
            for got, p, q in ((jm.value, plus[j], minus[j]), (jm.partial(1, 0), plus_u[j], minus_u[j])):
                fd = (p - q) / (2.0 * h)
                assert np.max(np.abs(got - fd)) <= 1e-6 * np.max(np.abs(fd))

    def test_dm_partials_need_interior_parameter(self):
        for m in (0.0, 1.0):
            with pytest.raises(ValueError, match="0 < m < 1"):
                sf.jacobi_dm_jet(Jet2.variable(0.5, 0, deg=1), m)


class TestHermite:
    def test_f0_at_origin(self):
        v = sf.hermite_values(1, 0.0)
        assert v[0, 0] == pytest.approx(math.pi ** -0.25, rel=1e-14)
        assert v[0, 0] == pytest.approx(0.751126, abs=5e-7)
        assert sf.hermite_stack(1, 0.0, 1)[1, 0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_far_rescale_leaves_the_near_columns_bitwise(self):
        # the grid straddles |x| = sqrt(1200), past which the seed is rescaled
        x = np.linspace(-40.0, 40.0, 321)
        near = np.abs(x) <= math.sqrt(1200.0)
        assert 0 < np.count_nonzero(near) < x.size
        assert np.array_equal(sf.hermite_values(300, x)[:, near], sf.hermite_values(300, x[near]))

    def test_f1_odd(self):
        assert sf.hermite_values(1, 0.0)[1, 0] == 0.0

    def test_parity(self):
        xs = np.linspace(0.3, 4.0, 11)
        v_plus = sf.hermite_values(6, xs)
        v_minus = sf.hermite_values(6, -xs)
        for n in range(7):
            sign = 1.0 if n % 2 == 0 else -1.0
            assert np.allclose(v_minus[n], sign * v_plus[n], atol=1e-15)

    @pytest.mark.parametrize("n", [0, 1, 50, 160, 800])
    def test_stack_parity_is_exact(self, n):
        # f_k^(r)(-x) = (-1)^(k + r) f_k^(r)(x), which the line assembly folds
        # by; the grid reaches past |x| = sqrt(1200), where hermite_values rescales
        x = np.linspace(0.0, 45.0, 451)
        assert x[-1] > math.sqrt(1200.0)
        sign = (-1.0) ** (np.arange(5)[:, None, None] + np.arange(n + 1)[None, :, None])
        assert np.array_equal(sf.hermite_stack(n, -x, 4), sign * sf.hermite_stack(n, x, 4))

    def test_orthogonality_by_quadrature(self):
        # composite Gauss-Legendre panels; cross-checked at doubled nodes
        plan = LegendrePlan(center=0.0, half_width=12.0, order=10)
        for refine in (1, 2):
            x, w = plan.nodes_weights(refine)
            v = sf.hermite_values(5, x)
            assert abs(np.sum(w * v[3] * v[5])) < 1e-10
            assert np.sum(w * v[3] * v[3]) == pytest.approx(1.0, abs=1e-10)

    def test_oscillator_ode_high_order(self):
        # f_n'' = (x^2 - (2n+1)) f_n, exercised up to n = 200
        rng = np.random.default_rng(11)
        for n in (3, 40, 117, 200):
            x = rng.uniform(-0.8 * math.sqrt(2 * n + 1), 0.8 * math.sqrt(2 * n + 1), size=17)
            stack = sf.hermite_stack(n, x, 2)
            f, _, fpp = (s[n] for s in stack)
            resid = fpp - (x**2 - (2 * n + 1)) * f
            scale = np.maximum(np.abs(fpp), 1e-12)
            assert np.max(np.abs(resid) / scale) < 1e-8

    @pytest.mark.parametrize("n", [0, 1, 50, 160, 300, 800])
    def test_stack_matches_the_ladder_passes(self, n):
        # the window reaches past |x| = sqrt(1200), where hermite_values rescales
        edge = max(math.sqrt(2.0 * (n + 5)) + 8.0, 40.0)
        x = np.linspace(-edge, edge, 1201)
        for orders in range(5):
            got = sf.hermite_stack(n, x, orders)
            want = loop_oracles.hermite_stack_ladder(n, x, orders)
            assert got.shape == (orders + 1, n + 1, x.size) and got.flags.c_contiguous
            assert np.array_equal(got[0], want[0])
            if orders >= 1:
                assert np.array_equal(got[1], loop_oracles.hermite_lowering_loop(got[0], x))
            for r in range(1, orders + 1):
                scale = np.max(np.abs(want[r]), axis=1, keepdims=True)
                assert np.all(scale > 0.0)
                assert np.max(np.abs(got[r] - want[r]) / scale) <= 4e-15


def hermite_values_longdouble(nmax, x):
    """The same recurrence in numpy's longdouble, whose Gaussian seed
    reaches e^-11355 before it underflows."""
    x = np.asarray(x, dtype=np.longdouble)
    v = np.zeros((nmax + 1, x.size), dtype=np.longdouble)
    v[0] = np.pi ** np.longdouble(-0.25) * np.exp(-x * x / 2)
    v[1] = np.sqrt(np.longdouble(2)) * x * v[0]
    for n in range(1, nmax):
        v[n + 1] = np.sqrt(np.longdouble(2) / (n + 1)) * x * v[n] - np.sqrt(np.longdouble(n) / (n + 1)) * v[n - 1]
    return v


@pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(float).eps, reason="longdouble is a double here")
def test_hermite_far_tail_matches_a_long_double_recurrence():
    # the double Gaussian seed underflows to 0 from |x| = 38.6, where f_800
    # is still O(0.1) out to its turning point near 40
    x = np.concatenate([np.linspace(30.0, 47.0, 69), -np.linspace(30.0, 47.0, 69)])
    got, want = sf.hermite_values(800, x), hermite_values_longdouble(800, x)
    scale = np.max(np.abs(want), axis=0)
    assert np.all(scale > 0.0)
    assert np.max(np.abs(got - want.astype(float)) / scale) <= 1e-12
    assert np.max(np.abs(got[800, np.abs(x) <= 40.0])) > 0.1


class TestFourierBasis:
    def test_orthonormal_under_trapezoid(self):
        L = 3.7
        basis = sf.FourierBasis(period=L, count_n=6)
        M = 512
        x = np.arange(M) * L / M
        w = L / M
        V = basis.stack(x, 0)[0]
        G = (V * w) @ V.T
        assert np.max(np.abs(G - np.eye(basis.size))) < 1e-12

    def test_derivative_stack(self):
        L = 2.0
        basis = sf.FourierBasis(period=L, count_n=3)
        x = np.linspace(0, L, 40, endpoint=False)
        V0, V1 = basis.stack(x, 1)
        w = 2 * math.pi * 2 / L
        # row of cos_2 differentiates to -w sin_2
        assert np.allclose(V1[3], -w * math.sqrt(2 / L) * np.sin(w * x), atol=1e-12)

    def test_derivative_stack_matches_closed_form_through_order_4(self):
        L = 5.3
        basis = sf.FourierBasis(period=L, count_n=50)
        x = np.arange(512) * L / 512
        stack = basis.stack(x, 4)
        amp = math.sqrt(2 / L)
        for d, v in enumerate(stack):
            for n in range(1, 51):
                w = 2 * math.pi * n / L
                # d-th derivative of cos(wx) is w^d cos(wx + d pi/2), of sin likewise
                exact_cos = amp * w**d * np.cos(w * x + 0.5 * math.pi * d)
                exact_sin = amp * w**d * np.sin(w * x + 0.5 * math.pi * d)
                assert np.max(np.abs(v[2 * n - 1] - exact_cos)) <= 1e-12 * amp * w**d
                assert np.max(np.abs(v[2 * n] - exact_sin)) <= 1e-12 * amp * w**d
        assert np.all(stack[0][0] == 1 / math.sqrt(L))
        assert not np.any(stack[4][0])
