import math

import numpy as np
import pytest

from breatherlab import breathers, linops
from breatherlab import stability as st
from breatherlab.specfun import ellip_e, ellip_k


def _central(f, x, h):
    """Central difference with one Richardson sweep: the finite-difference
    scheme the exact gradients replace, kept as their oracle."""

    def d(step):
        return (f(x + step) - f(x - step)) / (2.0 * step)

    return (4.0 * d(0.5 * h) - d(h)) / 3.0


def richardson_d_hg(beta, k, constraint, hk=1e-6, hb=1e-6):
    """D and HG from Richardson differences: of the closed forms at the locked
    m ("frozen"), or of ``KkshBreather.a1a2`` and ``solve_commensurability``'s
    mass, which re-solve the period lock at every displaced k ("resolved")."""
    if constraint == "frozen":
        m = st.solve_commensurability(k, beta).m
        a1a2 = lambda kk: st._a1a2(beta, kk, m)
        mass = lambda kk: st.CommensuratePair(
            beta, kk, m, ellip_k(kk), ellip_e(kk), ellip_k(m), ellip_e(m)).mass
    else:
        a1a2 = lambda kk: breathers.KkshBreather(beta=beta, k=kk).a1a2
        mass = lambda kk: st.solve_commensurability(kk, beta).mass
    hbeta = hb * max(1.0, beta)
    a1_k = _central(lambda kk: a1a2(kk)[0], k, hk)
    a2_k = _central(lambda kk: a1a2(kk)[1], k, hk)
    mass_k = _central(mass, k, hk)
    a1_b = _central(lambda b: breathers.KkshBreather(beta=b, k=k).a1a2[0], beta, hbeta)
    a2_b = _central(lambda b: breathers.KkshBreather(beta=b, k=k).a1a2[1], beta, hbeta)
    mass_b = _central(lambda b: st.solve_commensurability(k, b).mass, beta, hbeta)
    d = a1_k * a2_b - a2_k * a1_b
    return d, (a1_k * mass_b - a1_b * mass_k) / d


class TestCommensurability:
    def test_known_pair(self):
        pair = st.solve_commensurability_from_m(0.5)
        assert pair.k == pytest.approx(0.057, abs=1e-3)
        assert abs(pair.residual) <= 1e-12

    def test_round_trip(self):
        pair = st.solve_commensurability(0.0312)
        back = st.solve_commensurability_from_m(pair.m)
        assert back.k == pytest.approx(0.0312, abs=1e-10)

    def test_small_k_drives_m_to_one(self):
        assert st.solve_commensurability(1e-5).m > 0.999

    def test_limiting_k(self):
        assert st.find_kstar() == pytest.approx(0.05883626, abs=1e-7)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            st.solve_commensurability(0.06)
        with pytest.raises(ValueError):
            st.solve_commensurability(-0.01)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -1.0, 0.0])
    def test_bad_beta_rejected(self, beta):
        with pytest.raises(ValueError, match="beta must be positive and finite"):
            st.solve_commensurability(0.03, beta)
        with pytest.raises(ValueError, match="beta must be positive and finite"):
            st.stability_report(beta, 0.03)
        with pytest.raises(ValueError, match="beta must be positive and finite"):
            breathers.KkshBreather(beta=beta, k=0.03)

    def test_nan_residual_rejected(self, monkeypatch):
        monkeypatch.setattr(st.CommensuratePair, "residual", property(lambda pair: math.nan))
        with pytest.raises(ArithmeticError):
            st.solve_commensurability(0.03)

    def test_period_lock(self):
        pair = st.solve_commensurability(0.03, beta=1.2)
        left = 4 * ellip_k(pair.k) / pair.alpha
        right = 2 * ellip_k(pair.m) / pair.beta
        assert left == pytest.approx(right, rel=1e-10)

    def test_degenerate_endpoint_rejected(self):
        with pytest.raises(ValueError, match=r"k must lie in \(0, "):
            st.solve_commensurability(0.0)
        with pytest.raises(ValueError, match=r"^m must lie in \(0, 1\), got 1.0$"):
            st.solve_commensurability_from_m(1.0)


# the benchmark's k grid, 0.001:0.058:0.0005
GRID = [round(0.001 + 0.0005 * i, 10) for i in range(115)]


class TestLockSolver:
    def test_grid_matches_brentq_oracle(self):
        brentq = pytest.importorskip("scipy.optimize").brentq
        ellipk = pytest.importorskip("scipy.special").ellipk
        for k in GRID:
            pair = st.solve_commensurability(k)
            target = 16.0 * k * ellipk(k) ** 4
            m_ref = brentq(lambda m: (1.0 - m) * ellipk(m) ** 4 - target, 1e-15, 1.0 - 1e-15,
                           xtol=1e-300, rtol=4.0 * np.finfo(float).eps, maxiter=500)
            ref = st.CommensuratePair(1.0, k, m_ref, ellip_k(k), ellip_e(k), ellip_k(m_ref), ellip_e(m_ref))
            # both roots pass the gate, and their defects differ by less than it
            assert abs(ref.residual) <= ref.gate, k
            assert abs(pair.residual - ref.residual) <= pair.gate, k
            assert pair.m == pytest.approx(m_ref, rel=0, abs=1e-13), k

    def test_row_evaluates_few_elliptic_integrals(self, monkeypatch):
        calls = []
        for name in ("ellip_k", "ellip_e"):
            f = getattr(st, name)
            monkeypatch.setattr(st, name, lambda m, f=f: calls.append(m) or f(m))
        st.find_kstar()
        calls.clear()
        for k in GRID:
            st.stability_report(1.0, k)
        # 68 per row with a bisection solve and per-function integrals
        assert len(calls) / len(GRID) <= 16

    def test_pair_carries_the_integrals_at_k_and_m(self):
        pair = st.solve_commensurability(0.03)
        assert (pair.K_k, pair.E_k) == (ellip_k(0.03), ellip_e(0.03))
        assert (pair.K_m, pair.E_m) == (ellip_k(pair.m), ellip_e(pair.m))

    def test_solvers_keep_the_bisection_values(self):
        # the values the former bisection gave, to within their rounding band
        assert st.find_kstar() == pytest.approx(0.05883625352582661, rel=0, abs=1e-16)
        assert st.discriminant_root() == pytest.approx(0.0545126612091614, rel=0, abs=1e-15)
        for k in (1e-8, 0.001, 0.0312, 0.05, 0.058):
            assert st.solve_commensurability_from_m(st.solve_commensurability(k).m).k == pytest.approx(
                k, rel=1e-10)

    def test_smallest_k_still_solves(self):
        pair = st.solve_commensurability(2e-12)
        assert 1.0 - pair.m < 2e-15 and abs(pair.residual) <= pair.gate

    def test_k_just_below_kstar_solves(self):
        k = st.find_kstar()
        for _ in range(4):
            k = math.nextafter(k, 0.0)
            pair = st.solve_commensurability(k)
            assert 0.0 < pair.m < 1e-6 and abs(pair.residual) <= pair.gate

    def test_a_vanishing_newton_slope_bisects(self, monkeypatch):
        # with E = K (1 - m/2) the lock's slope 1 - 2 (E/K - (1 - m)) / m is
        # zero up to rounding, so each Newton step is refused
        st.find_kstar()
        monkeypatch.setattr(st, "ellip_e", lambda m: ellip_k(m) * (1.0 - m) + 0.5 * m * ellip_k(m))
        for k in (0.001, 0.03, 0.058):
            pair = st.solve_commensurability(k)
            assert abs(pair.residual) <= pair.gate

    def test_k_below_double_precision_rejected(self):
        with pytest.raises(ValueError, match=r"^k = 1e-12 needs 1 - m < 1e-15, which double precision cannot hold$"):
            st.solve_commensurability(1e-12)


class TestNewton:
    @staticmethod
    def cubic(x):
        # f = x^3 - 2, increasing; the Newton iterate in x
        f = x**3 - 2.0
        return f, x - f / (3.0 * x * x), x

    def test_converges_to_rounding(self):
        root, last = st._newton(self.cubic, 0.0, 4.0, 3.0)
        assert root == last and root == pytest.approx(2.0 ** (1.0 / 3.0), rel=4e-16)

    def test_bisects_when_a_step_leaves_the_bracket(self):
        seen = []

        def no_step(x):
            seen.append(x)
            return x - 0.3, math.nan, None

        root, _ = st._newton(no_step, 0.0, 1.0, 0.9)
        assert seen[1:3] == [0.45, 0.225] and root == pytest.approx(0.3, abs=1e-15)
        assert all(0.0 < x < 1.0 for x in seen)

    def test_nan_fails_closed(self):
        with pytest.raises(ArithmeticError, match="NaN"):
            st._newton(lambda x: (math.nan, x, None), 0.0, 1.0, 0.5)


class TestPeriodicMass:
    def test_aperiodic_limit(self):
        assert st.solve_commensurability(1e-4, 1.0).mass / 4.0 == pytest.approx(1.0, abs=1e-3)

    def test_decreasing_in_m_except_near_one(self):
        ms = np.linspace(0.1, 0.97, 15)
        masses = [st.solve_commensurability(st.solve_commensurability_from_m(m).k).mass for m in ms]
        assert all(b < a for a, b in zip(masses, masses[1:]))
        # beyond m ~ 0.98 the trend reverses on the way back to the line value
        hi = [st.solve_commensurability(st.solve_commensurability_from_m(m).k).mass for m in (0.985, 0.999)]
        assert hi[1] > hi[0]

    def test_scaling_in_beta(self):
        mass = st.solve_commensurability(0.03, 2.0).mass
        assert mass == pytest.approx(2 * st.solve_commensurability(0.03, 1.0).mass, rel=1e-12)


class TestVariationalCoefficients:
    def test_speed_combination_identity(self):
        # the first coefficient equals minus half the sum of the two phase speeds
        beta, k = 1.0, 0.02
        pair = st.solve_commensurability(k, beta)
        a1, _ = breathers.KkshBreather(beta=beta, k=k).a1a2
        delta = pair.alpha**2 * (1 + k) + 3 * beta**2 * (pair.m - 2)
        gamma = 3 * pair.alpha**2 * (1 + k) + beta**2 * (pair.m - 2)
        assert a1 == pytest.approx(-(delta + gamma) / 2.0, abs=1e-12)

    def test_line_limits(self):
        a1, a2 = breathers.KkshBreather(beta=1.0, k=1e-5).a1a2
        pair = st.solve_commensurability(1e-5)
        assert a1 == pytest.approx(2 * (1.0 - pair.alpha**2), abs=1e-4)
        assert a2 == pytest.approx((pair.alpha**2 + 1.0) ** 2, abs=1e-3)

    def test_endpoint_rejected(self):
        with pytest.raises(ValueError, match=r"k must lie in \(0, "):
            breathers.KkshBreather(beta=1.0, k=0.0).a1a2
        with pytest.raises(ValueError, match=r"k must lie in \(0, "):
            st.solve_commensurability(0.0, 1.0).mass


class TestDiscriminant:
    def test_root_location(self):
        root = st.discriminant_root()
        assert root == pytest.approx(0.0545, abs=0.002)

    def test_sign_function_values(self):
        assert st.discriminant_and_hg(1.0, 0.057)[1] < 0.0
        assert st.discriminant_and_hg(1.0, 0.03)[1] > 0.0

    def test_single_sign_change_and_colocation(self):
        ks = np.linspace(0.041, 0.0579, 40)
        d_signs = []
        hg_signs = []
        for k in ks:
            d, hg = st.discriminant_and_hg(1.0, k)
            d_signs.append(np.sign(d))
            hg_signs.append(np.sign(hg))
        d_flips = [ks[i] for i in range(1, len(ks)) if d_signs[i] != d_signs[i - 1]]
        hg_flips = [ks[i] for i in range(1, len(ks)) if hg_signs[i] != hg_signs[i - 1]]
        assert len(d_flips) == 1 and len(hg_flips) == 1
        assert abs(d_flips[0] - hg_flips[0]) < 0.002

    @pytest.mark.parametrize("constraint", ["frozen", "resolved"])
    def test_exact_gradients_match_richardson_oracle(self, constraint):
        # the oracle's own error is about 1e-9 here (step and roundoff)
        for beta in (0.5, 1.0, 2.0):
            for k in (0.001, 0.01, 0.03, 0.045, 0.057):
                d, hg = st.discriminant_and_hg(beta, k, constraint)
                d0, hg0 = richardson_d_hg(beta, k, constraint)
                assert d == pytest.approx(d0, rel=1e-8), (beta, k)
                assert hg == pytest.approx(hg0, rel=1e-8), (beta, k)

    def test_small_k_matches_oracle_with_scaled_step(self):
        # a fixed step of 1e-6 equals k here; the oracle steps by 1e-3 k instead
        k = 1e-6
        d, hg = st.discriminant_and_hg(1.0, k)
        d0, hg0 = richardson_d_hg(1.0, k, "frozen", hk=1e-3 * k)
        assert d == pytest.approx(d0, rel=1e-8) and hg == pytest.approx(hg0, rel=1e-8)
        # the resolved oracle re-solves m at k +- 1e-9: one ulp of m is 1.5e-8
        # of 1 - m = 7e-9, over a step of 1e-3 k, so its D is good to about 1e-5
        d, hg = st.discriminant_and_hg(1.0, k, "resolved")
        d0, hg0 = richardson_d_hg(1.0, k, "resolved", hk=1e-3 * k)
        assert d < 0 and d == pytest.approx(d0, rel=1e-5)
        assert hg == pytest.approx(hg0, rel=1e-8)

    def test_gate_fails_closed_on_nan(self):
        grad = (1.0, 2.0, 3.0)
        with pytest.raises(ArithmeticError):
            st._discriminant((math.nan, 2.0, 3.0), grad)
        with pytest.raises(ArithmeticError):
            st._discriminant(grad, (1.0, 2.0, math.nan))

    @pytest.mark.parametrize("beta", [1e-70, 1e300])
    def test_out_of_range_terms_rejected(self, beta):
        # D scales as beta^5: these underflow or overflow instead of giving a verdict
        with pytest.raises(ArithmeticError):
            st.stability_report(beta, 0.03)

    def test_resolved_convention_available(self):
        # the derivative along the constrained family has no sign change; it
        # is the convention under which the inverse-direction identity holds
        d, hg = st.discriminant_and_hg(1.0, 0.057, constraint="resolved")
        assert d < 0 and hg > 0
        assert linops.kksh_inverse_direction_residual(1.0, 0.03) < 1e-4

    def test_unknown_convention_rejected(self):
        with pytest.raises(ValueError):
            st.discriminant_and_hg(1.0, 0.03, constraint="bogus")


class TestReport:
    def test_verdicts(self):
        assert st.stability_report(1.0, 0.03).verdict == "stable-candidate"
        assert st.stability_report(1.0, 0.057).verdict == "unstable-candidate"
        root = st.discriminant_root()
        assert st.stability_report(1.0, root).verdict == "degenerate"

    def test_one_commensurability_solve_per_row(self, monkeypatch):
        calls = []
        solve = st.solve_commensurability
        monkeypatch.setattr(st, "solve_commensurability", lambda *a: calls.append(a) or solve(*a))
        st.stability_report(1.0, 0.03)
        assert len(calls) == 1

    def test_csv_row_shape(self):
        rep = st.stability_report(1.0, 0.03)
        row = rep.csv_row()
        assert len(row.split(",")) == len(st.StabilityReport.CSV_COLUMNS.split(","))
        assert row.endswith("stable-candidate")


class TestSgCheck:
    def test_closed_values(self):
        assert st.sg_weinstein_check(0.5, 0.0) == pytest.approx(16.0, rel=1e-6)
        assert st.sg_weinstein_check(0.5, 0.7) == pytest.approx(39.52, rel=1e-6)

    def test_positive_on_grid(self):
        for beta in np.linspace(0.2, 0.9, 10):
            for v in np.linspace(-0.7, 0.7, 10):
                val = st.sg_weinstein_check(float(beta), float(v))
                assert val > 0.0
                assert val == pytest.approx((8.0 / beta) * (1 + 3 * v * v), rel=1e-5)
