import math

import numpy as np
import pytest

from breatherlab import linops
from breatherlab import stability as st
from breatherlab.specfun import ellip_k


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

    def test_nan_residual_rejected(self, monkeypatch):
        monkeypatch.setattr(st.CommensuratePair, "residual", property(lambda pair: math.nan))
        with pytest.raises(ArithmeticError):
            st.solve_commensurability(0.03)

    def test_period_lock(self):
        pair = st.solve_commensurability(0.03, beta=1.2)
        left = 4 * ellip_k(pair.k) / pair.alpha
        right = 2 * ellip_k(pair.m) / pair.beta
        assert left == pytest.approx(right, rel=1e-10)

    def test_degenerate_endpoint(self):
        pair = st.solve_commensurability(0.0)
        assert pair.m == 1.0 and pair.alpha == 0.0 and math.isinf(pair.period)


class TestPeriodicMass:
    def test_aperiodic_limit(self):
        assert st.periodic_mass(1.0, 1e-4) / 4.0 == pytest.approx(1.0, abs=1e-3)

    def test_decreasing_in_m_except_near_one(self):
        ms = np.linspace(0.1, 0.97, 15)
        masses = [st.periodic_mass(1.0, st.solve_commensurability_from_m(m).k) for m in ms]
        assert all(b < a for a, b in zip(masses, masses[1:]))
        # beyond m ~ 0.98 the trend reverses on the way back to the line value
        hi = [st.periodic_mass(1.0, st.solve_commensurability_from_m(m).k) for m in (0.985, 0.999)]
        assert hi[1] > hi[0]

    def test_scaling_in_beta(self):
        assert st.periodic_mass(2.0, 0.03) == pytest.approx(2 * st.periodic_mass(1.0, 0.03), rel=1e-12)


class TestVariationalCoefficients:
    def test_speed_combination_identity(self):
        # the first coefficient equals minus half the sum of the two phase speeds
        beta, k = 1.0, 0.02
        pair = st.solve_commensurability(k, beta)
        a1, _ = st.coeffs_a1a2(beta, k)
        delta = pair.alpha**2 * (1 + k) + 3 * beta**2 * (pair.m - 2)
        gamma = 3 * pair.alpha**2 * (1 + k) + beta**2 * (pair.m - 2)
        assert a1 == pytest.approx(-(delta + gamma) / 2.0, abs=1e-12)

    def test_line_limits(self):
        a1, a2 = st.coeffs_a1a2(1.0, 1e-5)
        pair = st.solve_commensurability(1e-5)
        assert a1 == pytest.approx(2 * (1.0 - pair.alpha**2), abs=1e-4)
        assert a2 == pytest.approx((pair.alpha**2 + 1.0) ** 2, abs=1e-3)

    def test_endpoint_values(self):
        a1, a2 = st.coeffs_a1a2(1.0, 0.0)
        assert a1 == pytest.approx(2.0, rel=1e-14)
        assert a2 == pytest.approx(1.0, rel=1e-14)


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

    def test_step_robustness(self):
        d1, h1 = st.discriminant_and_hg(1.0, 0.045)
        d2, h2 = st.discriminant_and_hg(1.0, 0.045, hb=0.5e-6, hk=0.5e-6)
        assert abs(d1 - d2) / abs(d1) < 1e-5
        assert abs(h1 - h2) / abs(h1) < 1e-5

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
