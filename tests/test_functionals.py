import math
from dataclasses import replace

import numpy as np
import pytest

from breatherlab import breathers as br
from breatherlab import cli
from breatherlab import functionals as fn
from breatherlab import jets, quadrature
from breatherlab import stability as st
from breatherlab.quadrature import MAX_NODES, QuadratureError, TrapezoidPlan, checked_integral, doubling_levels

import field_oracle
import form_oracles
import gardner_form_oracles
import loop_oracles
from legendre_oracle import LegendrePlan, panel_order


class TestClosedFormValues:
    def test_sg_energy_is_sixteen_beta(self):
        for beta, v in ((0.5, 0.7), (0.3, 0.0), (0.8, 0.4)):
            fam = br.SgBreather(beta=beta, v=v, x1=0.2, x2=-0.4)
            assert fn.evaluate_functional("energy", fam) == pytest.approx(16 * beta, rel=1e-8)

    def test_sg_momentum(self):
        fam = br.SgBreather(beta=0.5, v=0.7)
        assert fn.evaluate_functional("momentum", fam) == pytest.approx(-2.8, rel=1e-8)

    def test_mkdv_mass_is_four_beta(self):
        for alpha, beta in ((0.5, 1.0), (1.5, 1.0), (2.5, 1.0), (0.2, 3.0)):
            fam = br.MkdvBreather(alpha=alpha, beta=beta, x1=0.7)
            assert fn.evaluate_functional("mass", fam) == pytest.approx(4.0 * beta, rel=1e-9)

    def test_beta_derivatives_of_energy_and_momentum(self):
        h = 1e-5
        for v in (0.0, 0.35, 0.7):
            fam = br.SgBreather(beta=0.5, v=v)
            dE = (
                fn.evaluate_functional("energy", replace(fam, beta=0.5 + h))
                - fn.evaluate_functional("energy", replace(fam, beta=0.5 - h))
            ) / (2 * h)
            dP = (
                fn.evaluate_functional("momentum", replace(fam, beta=0.5 + h))
                - fn.evaluate_functional("momentum", replace(fam, beta=0.5 - h))
            ) / (2 * h)
            assert dE == pytest.approx(16.0, abs=1e-5)
            assert dP == pytest.approx(-8 * v, abs=1e-5)


def _drift(kind, fam, times):
    """Max change of a functional from its value at the first time."""
    values = [fn.evaluate_functional(kind, fam, t=t) for t in times]
    return max(abs(v - values[0]) for v in values[1:])


class TestConservation:
    def test_sg_second_order_functional_conserved(self):
        fam = br.SgBreather(beta=0.5, v=0.7)
        assert _drift("f", fam, [0.0, 0.7, 2.1]) < 1e-8

    def test_mkdv_mass_conserved(self):
        fam = br.MkdvBreather(alpha=1.2, beta=1.0)
        assert _drift("mass", fam, [0.0, 1.0, 5.0]) < 1e-9

    def test_sg_lyapunov_with_moving_shifts(self):
        # every piece is invariant under phase translations
        fam = br.SgBreather(beta=0.5, v=0.7)
        values = [fn.evaluate_functional("lyapunov", replace(fam, x1=math.sin(t), x2=t * t), t=t)
                  for t in (0.0, 0.7, 2.1)]
        assert max(abs(v - values[0]) for v in values[1:]) < 1e-8

    def test_gardner_third_functional_conserved(self):
        fam = br.GardnerBreather(alpha=0.5, beta=1.0, mu=0.1)
        assert _drift("f", fam, [0.0, 0.6, 1.7]) < 1e-8

    def test_periodic_functionals_conserved(self):
        fam = br.KkshBreather(beta=1.0, k=0.03, x1=0.1)
        for kind in ("mass", "energy", "f", "lyapunov"):
            assert _drift(kind, fam, [0.0, 0.4, 1.3]) < 1e-8

    def test_nonzero_mean_functionals_conserved(self):
        fam = br.NonzeroMeanBreather(mu=1.3, c1=0.9, p=2, q=3)
        for kind in ("mass", "energy", "f", "lyapunov"):
            assert _drift(kind, fam, [0.0, 0.5, 1.1]) < 1e-8


class TestStationaryResiduals:
    @pytest.mark.parametrize(
        "family",
        [
            br.MkdvBreather(alpha=2.5, beta=1.0, x1=0.3, x2=-0.1),
            br.MkdvBreather(alpha=0.5, beta=0.7),
            br.MkdvBreather(alpha=1.2, beta=1.4, x1=1.0),
            br.GardnerBreather(alpha=0.5, beta=1.0, mu=0.1),
            br.GardnerBreather(alpha=1.0, beta=0.8, mu=-0.4, x1=0.2),
            br.GardnerBreather(alpha=0.7, beta=1.2, mu=1.0),
            br.KkshBreather(beta=1.0, k=0.03),
            br.KkshBreather(beta=0.7, k=0.01, x1=0.5),
            br.KkshBreather(beta=1.3, k=0.055),
            br.NonzeroMeanBreather(mu=1.3, c1=0.9, p=2, q=3),
            br.NonzeroMeanBreather(mu=2.9096582464459835, c1=1.65, p=22, q=23),
            br.NonzeroMeanBreather(mu=1.0, c1=1.2, p=3, q=5),
            br.MkdvSoliton(c=1.3),
            br.GardnerSoliton(c=1.3, mu=0.4),
        ],
        ids=lambda f: f"{f.kind}",
    )
    def test_scalar_families(self, family):
        assert fn.stationary_residual(family, t=0.3) < 1e-8

    @pytest.mark.parametrize("beta,v", [(0.5, 0.7), (0.3, 0.0), (0.9, -0.5)])
    def test_sg_pair(self, beta, v):
        res1, res2 = fn.stationary_residual(br.SgBreather(beta=beta, v=v, x1=0.2), t=0.4)
        assert res1 < 1e-9 and res2 < 1e-9

    def test_kink_with_matching_constants(self):
        # any first constant works; the second must vanish for a static kink
        kink = br.SgKink(v=0.0, x0=0.3)
        for a in (0.37, -0.8, 2.0):
            res1, res2 = fn.stationary_residual(kink, ab=(a, 0.0))
            assert res1 < 1e-9 and res2 < 1e-9

    def test_kink_second_equation_free_of_both_constants(self):
        kink = br.SgKink(v=0.0)
        for a, b in ((0.37, -1.2), (-0.8, 0.55)):
            _, res2 = fn.stationary_residual(kink, ab=(a, b))
            assert res2 < 1e-9

    def test_kink_first_equation_pins_the_momentum_constant(self):
        # the first equation's residual is exactly |b|/2 * B_x, so any b != 0
        # leaves a unit relative defect; this pins the failure mode of the
        # broader "any pair" reading
        kink = br.SgKink(v=0.0)
        res1, _ = fn.stationary_residual(kink, ab=(0.37, -1.2))
        assert res1 == pytest.approx(1.0, abs=1e-10)

    def test_kink_requires_explicit_constants(self):
        with pytest.raises(ValueError):
            fn.stationary_residual(br.SgKink(v=0.0))


class TestShiftInvariance:
    def test_line_functionals_invariant_under_shifts(self):
        fam = br.MkdvBreather(alpha=1.5, beta=1.0)
        for kind in ("mass", "energy", "f", "lyapunov"):
            base = fn.evaluate_functional(kind, fam)
            moved = fn.evaluate_functional(kind, replace(fam, x1=fam.x1 + 0.37))
            assert abs(moved - base) < 1e-9 * max(1.0, abs(base))
        fam = br.SgBreather(beta=0.5, v=0.4)
        for kind in ("energy", "momentum", "f", "lyapunov"):
            base = fn.evaluate_functional(kind, fam)
            moved = fn.evaluate_functional(kind, replace(fam, x1=fam.x1 + 0.59))
            assert abs(moved - base) < 1e-9 * max(1.0, abs(base))


class TestPeriodicMass:
    def test_closed_form_matches_quadrature(self):
        for k in (0.005, 0.01, 0.02, 0.03, 0.05):
            fam = br.KkshBreather(beta=1.0, k=k)
            direct = fn.evaluate_functional("mass", fam)
            closed = st.solve_commensurability(k, 1.0).mass
            assert direct == pytest.approx(closed, rel=1e-7)


class TestExpansion:
    @staticmethod
    def _smooth_pair():
        def zf(X):
            return jets.exp(-0.25 * (X - 0.4) * (X - 0.4)) * jets.sin(X * 1.1)

        def wf(X):
            return jets.exp(-0.3 * X * X) * jets.cos(X * 0.7 + 0.2)

        return form_oracles.jet_direction(zf, wf)

    def test_zero_perturbation(self):
        fam = br.SgBreather(beta=0.5, v=0.3)
        lhs, rem = fn.expansion_check(fam, self._smooth_pair(), 0.0)
        assert lhs == 0.0 and rem == 0.0

    def test_difference_matches_remainder(self):
        fam = br.SgBreather(beta=0.5, v=0.3)
        for eps in (1e-2, 1e-3):
            lhs, rem = fn.expansion_check(fam, self._smooth_pair(), eps)
            assert abs(lhs - rem) < 1e-10

    def test_kernel_direction_perturbation(self):
        fam = br.SgBreather(beta=0.5, v=0.3)

        def kernel(x):
            f = fam.eval(0.0, x, deg=4)
            return (tuple(f.partial(nx=j, n1=1) for j in range(3)),
                    tuple(f.partial(nt=1, nx=j, n1=1) for j in range(3)))

        lhs, rem = fn.expansion_check(fam, kernel, 1e-3)
        assert abs(lhs - rem) < 1e-10

    def test_cubic_scaling(self):
        fam = br.SgBreather(beta=0.5, v=0.3)
        values = [abs(fn.expansion_check(fam, self._smooth_pair(), eps)[0]) for eps in (1e-2, 1e-3, 1e-4)]
        slope = (math.log(values[0]) - math.log(values[2])) / (math.log(1e-2) - math.log(1e-4))
        assert slope >= 2.7

    def test_unresolved_direction_raises(self):
        # a jump at x = 0.3 leaves both sums drifting under node doubling
        fam = br.SgBreather(beta=0.5, v=0.3)

        def jump(x):
            g = np.exp(-x * x) * (x > 0.3)
            return (g, -2.0 * x * g, (4.0 * x * x - 2.0) * g), (np.zeros_like(x), np.zeros_like(x))

        with pytest.raises(QuadratureError, match="not converged"):
            fn.expansion_check(fam, jump, 1e-2)


def test_mean_value_requires_torus():
    with pytest.raises(ValueError):
        fn.mean_value(br.MkdvBreather(alpha=1.0, beta=1.0))


def test_checked_integral_rejects_nan():
    with pytest.raises(QuadratureError):
        checked_integral(lambda x: np.full_like(x, np.nan), TrapezoidPlan(period=1.0, n_nodes=8))


def test_a_plan_holds_at_most_max_nodes():
    assert TrapezoidPlan(period=1.0, n_nodes=MAX_NODES).n_nodes == MAX_NODES
    with pytest.raises(ValueError, match=f"needs {MAX_NODES + 1} nodes, more than the {MAX_NODES} allowed"):
        TrapezoidPlan(period=1.0, n_nodes=MAX_NODES + 1)


def test_doubling_levels_evaluate_each_node_once():
    plan = TrapezoidPlan(period=3.7, n_nodes=8)
    calls = []

    def evaluate(x):
        calls.append(x)
        return [np.cos(x), (2, np.sin(x)), 1.5]

    for level, (got, grids) in zip(range(4), doubling_levels(plan, evaluate)):
        x, _ = got.nodes_weights(2)
        assert got.n_nodes == 8 << level and len(calls) == level + 1
        assert np.array_equal(np.sort(np.concatenate(calls)), x)
        assert np.array_equal(grids[0], np.cos(x)) and np.array_equal(grids[1][1], np.sin(x))
        assert grids[1][0] == 2 and grids[2] == 1.5


def test_doubling_stops_at_max_nodes():
    levels = list(doubling_levels(TrapezoidPlan(period=1.0, n_nodes=MAX_NODES // 4), lambda x: x[:0]))
    assert [plan.n_nodes for plan, _ in levels] == [MAX_NODES // 4, MAX_NODES // 2, MAX_NODES]


def test_doubling_levels_evaluate_blocks_of_at_most_node_block_nodes():
    # 3000 nodes at the first level, then 3000, 6000 and 12,000 new ones
    plan = TrapezoidPlan(period=3.7, n_nodes=1500)
    calls, seen = [], []

    def evaluate(x):
        calls.append(x)
        return [np.cos(x), (2, np.sin(x)), 1.5]

    for level, (got, grids) in zip(range(4), doubling_levels(plan, evaluate)):
        x, _ = got.nodes_weights(2)
        new = x if level == 0 else x[1::2]
        # the fewest near-equal blocks, in node order
        sizes = [c.size for c in calls]
        assert len(sizes) == math.ceil(new.size / quadrature.NODE_BLOCK) > 1
        assert max(sizes) <= quadrature.NODE_BLOCK and max(sizes) - min(sizes) <= 1
        assert np.array_equal(np.concatenate(calls), new)
        seen += calls
        calls.clear()
        # each node of the level once, over this level's calls and the earlier ones
        assert np.array_equal(np.sort(np.concatenate(seen)), x)
        assert np.array_equal(grids[0], np.cos(x)) and np.array_equal(grids[1][1], np.sin(x))
        assert grids[1][0] == 2 and grids[2] == 1.5


class TestNodeBlocks:
    """Every evaluator is pointwise, so a sum evaluated in blocks of
    ``NODE_BLOCK`` nodes is bitwise the sum of whole-level evaluations."""

    def test_the_weinstein_pairing_is_unchanged(self, monkeypatch):
        fam = br.SgBreather(beta=0.1, v=0.99)
        assert 2 * quadrature.window_plan(fam, 4.0 * fam.wavenumber).n_nodes > quadrature.NODE_BLOCK
        blocked = st.sg_weinstein_check(0.1, 0.99)
        monkeypatch.setattr(quadrature, "NODE_BLOCK", 10**9)
        assert st.sg_weinstein_check(0.1, 0.99).hex() == blocked.hex()

    def test_a_far_doubling_torus_functional_is_unchanged(self, monkeypatch, capsys):
        sizes, block = [], quadrature.NODE_BLOCK
        evaluate = br.KkshBreather.eval

        def recorded(family, t, x, deg=jets.DEFAULT_DEG):
            sizes.append(np.size(x))
            return evaluate(family, t, x, deg)

        monkeypatch.setattr(br.KkshBreather, "eval", recorded)
        argv = ["conserved", "--family", "kksh", "--beta", "1", "--k", "1e-4", "--kind", "f"]
        assert cli.main(argv) == 0
        blocked = capsys.readouterr().out
        assert max(sizes) <= block
        monkeypatch.setattr(quadrature, "NODE_BLOCK", 10**9)
        sizes.clear()
        assert cli.main(argv) == 0
        assert max(sizes) > block and capsys.readouterr().out == blocked


def test_a_nan_density_stops_a_settling_plan_at_its_first_level():
    calls = []
    with pytest.raises(QuadratureError):
        checked_integral(lambda x: calls.append(x) or np.full_like(x, math.nan),
                         TrapezoidPlan(period=1.0, n_nodes=8, settle=True))
    assert len(calls) == 1


@pytest.mark.parametrize("family, most", [
    (br.KkshBreather(beta=1.0, k=0.03), 128),
    (br.KkshBreather(beta=0.5, k=0.001), 128),
    (br.KkshBreather(beta=1.0, k=0.058, x1=0.3), 64),
    # at 512 nodes its F drifts by 3.2e-6
    (br.NonzeroMeanBreather(**gardner_form_oracles.NONZERO_MEAN_CASE), 1024),
], ids=["kksh", "kksh-narrow", "kksh-wide", "nonzero-mean"])
def test_torus_densities_settle_on_the_4096_node_values(family, most):
    plan = fn.family_plan(family)
    assert plan.settle and plan.n_nodes == 8
    dense = TrapezoidPlan(period=family.period, n_nodes=4096)
    for name, density in fn._integrand_table(family).items():
        nodes = []

        def integrand(x):
            nodes.append(x)
            return density(fn.field_arrays(family, 0.0, x))

        value = checked_integral(integrand, plan)[0]
        # each node once, on the levels up to the settled one
        x = np.sort(np.concatenate(nodes))
        assert x.size <= 2 * most and np.array_equal(x, TrapezoidPlan(family.period, x.size // 2).nodes_weights(2)[0])
        want = checked_integral(integrand, dense)[0]
        assert abs(value - want) <= 1e-13 * max(abs(want), 1.0), name


def test_checked_integral_evaluates_once_on_the_fine_nodes():
    # the Gaussian's trapezoid error at step 0.6 is about 4e-12, so the drift
    # is well above rounding and well below the gate
    plan = TrapezoidPlan(period=12.0, n_nodes=20, start=-6.0)
    calls = []
    value, drift = checked_integral(lambda x: calls.append(x) or np.exp(-x * x), plan)
    assert len(calls) == 1 and np.array_equal(calls[0], plan.nodes_weights(2)[0])
    x1, w1 = plan.nodes_weights(1)
    direct = float(np.dot(w1, np.exp(-x1 * x1)))
    assert 1e-13 < drift <= 1e-9
    assert abs(drift - abs(value - direct) / max(abs(value), abs(direct), 1.0)) <= 1e-15


def _density(kind, family, t):
    if kind == "lyapunov":
        coefficients = fn._lyapunov_coefficients(family)
        return lambda x: fn._density(family, coefficients, fn.field_arrays(family, t, x))
    return lambda x: fn._integrand_table(family)[kind](fn.field_arrays(family, t, x))


class TestTrapezoidWindows:
    """The line functionals on trapezoid windows, against an independent rule."""

    @pytest.mark.parametrize("family", [
        br.MkdvBreather(alpha=0.5, beta=1.0, x1=0.3), br.MkdvBreather(alpha=1.5, beta=0.5),
        br.MkdvBreather(alpha=0.2, beta=3.0),
        br.GardnerBreather(alpha=0.5, beta=1.0, mu=0.3), br.GardnerBreather(alpha=0.5, beta=1.0, mu=1.0),
        br.SgBreather(beta=0.5, v=0.7), br.SgBreather(beta=0.8, v=0.3, x1=0.2), br.SgBreather(beta=0.3, v=0.9),
        br.MkdvSoliton(c=1.3), br.GardnerSoliton(c=1.3, mu=0.3),
    ], ids=lambda f: f.kind)
    def test_functionals_match_gauss_legendre_panels(self, family):
        # the panel order resolves 24 wavenumber, with 4 nodes to spare for
        # the sixth powers of the profile
        t, b = 0.7, family.decay_rate
        plan = LegendrePlan(family.envelope_center(t), 20.0 / b, panel_order(24.0 * family.wavenumber, b) + 4)
        x, w = plan.nodes_weights(2)
        kinds = sorted(fn._integrand_table(family)) + (["lyapunov"] if isinstance(family, br.Breather) else [])
        for kind in kinds:
            want = float(np.dot(w, _density(kind, family, t)(x)))
            assert abs(fn.evaluate_functional(kind, family, t) - want) <= 1e-12 * abs(want)

    def test_a_narrower_strip_fails_the_drift_gate(self):
        # the window rule's strip term 72 b, cut to 48 b, leaves Gardner's F
        # at mu = 1 with a drift of 9.5e-7
        family = br.GardnerBreather(alpha=0.5, beta=1.0, mu=1.0)
        b = family.decay_rate
        band = 2.0 * 6.0 * family.wavenumber + 48.0 * b
        n_nodes = math.ceil(20.0 * band / (math.pi * b))
        plan = TrapezoidPlan(40.0 / b, n_nodes, start=family.envelope_center(0.0) - 20.0 / b)
        with pytest.raises(QuadratureError, match="not converged"):
            checked_integral(_density("f", family, 0.0), plan)


class TestBatchedPdeResidual:
    @pytest.mark.parametrize("n_points", [1, 7, 50, 100])
    @pytest.mark.parametrize("family", loop_oracles.PDE_FAMILIES, ids=lambda f: f.kind)
    def test_equals_the_per_point_loop(self, family, n_points):
        # the batched residual draws with seed 0, the loop's default
        expected = loop_oracles.pde_residual_loop(family, n_points)
        assert fn.pde_residual(family, n_points) == expected

    @pytest.mark.parametrize("family", loop_oracles.PDE_FAMILIES, ids=lambda f: f.kind)
    def test_one_eval_over_all_points(self, family, monkeypatch):
        calls = loop_oracles.count_evals(monkeypatch, type(family))
        fn.pde_residual(family, n_points=50)
        assert calls == [(50,)]

    def test_nan_at_one_point_propagates(self, monkeypatch):
        family = br.MkdvBreather(alpha=0.5, beta=1.0)
        x_bad = loop_oracles.sample_xs(50, 0)[17]
        loop_oracles.plant_nan(monkeypatch, br.MkdvBreather, x_bad)
        # the per-point loop folds with Python max, which drops the NaN
        assert math.isfinite(loop_oracles.pde_residual_loop(family, n_points=50))
        assert math.isnan(fn.pde_residual(family, n_points=50))


class TestNonzeroMeanIsGardnerInTheShiftedField:
    """The nonzero-mean functionals and stationary equation are Gardner's with
    quadratic coefficient 3 mu in w = u - mu; the earlier mKdV-about-mu forms
    must give the same numbers to roundoff."""

    family = br.NonzeroMeanBreather(**gardner_form_oracles.NONZERO_MEAN_CASE)

    @pytest.mark.parametrize("t", [0.0, 0.7])
    def test_integrands(self, t):
        x, _ = TrapezoidPlan(period=self.family.period, n_nodes=4096).nodes_weights(2)
        f = fn.field_arrays(self.family, t, x)
        shifted = gardner_form_oracles.shifted_mkdv_integrands(self.family.mu)
        table = fn._integrand_table(self.family)
        assert sorted(table) == sorted(shifted)
        for name, integrand in shifted.items():
            expected = integrand(f)
            assert np.max(np.abs(table[name](f) - expected)) <= 1e-14 * np.max(np.abs(expected))

    @pytest.mark.parametrize("t", [0.0, 0.7])
    def test_stationary_equation(self, t):
        fam = self.family
        f = fam.eval(t, np.linspace(0.0, fam.period, 200, endpoint=False), deg=4)
        shifted = gardner_form_oracles.shifted_stationary_terms(fam, f)
        terms = fn._mkdv_terms(f, *fam.a1a2, fam.quadratic, fam.level)
        scale = max(np.max(np.abs(term)) for term in shifted)
        assert np.max(np.abs(sum(terms) - sum(shifted))) <= 1e-14 * scale


@pytest.mark.parametrize("beta,k", [(1.0, 0.03), (0.5, 0.001), (2.0, 0.05), (1.0, 1e-5)])
def test_kksh_multipliers_equal_the_period_lock_oracle(beta, k):
    assert br.KkshBreather(beta=beta, k=k).a1a2 == st._a1a2(beta, k, st.solve_commensurability(k, beta).m)


def test_kink_has_no_lyapunov_combination():
    with pytest.raises(ValueError, match="no Lyapunov combination"):
        fn.evaluate_functional("lyapunov", br.SgKink(v=0.4))


class TestDensityDegrees:
    """Each density evaluates the field at the degree it reads."""

    families = [
        br.MkdvBreather(alpha=0.5, beta=1.0, x1=0.3), br.MkdvBreather(alpha=1.5, beta=0.5),
        br.GardnerBreather(alpha=0.5, beta=1.0, mu=0.3), br.GardnerBreather(alpha=0.5, beta=1.0, mu=1.0),
        br.SgBreather(beta=0.5, v=0.7), br.SgBreather(beta=0.1, v=0.99),
        br.KkshBreather(beta=1.0, k=0.03), br.KkshBreather(beta=0.5, k=0.001),
        br.NonzeroMeanBreather(**gardner_form_oracles.NONZERO_MEAN_CASE),
        br.MkdvSoliton(c=1.5), br.GardnerSoliton(c=1.5, mu=0.3), br.SgKink(v=0.4),
    ]

    @pytest.mark.parametrize("t", [0.0, 0.7])
    @pytest.mark.parametrize("family", families, ids=lambda f: f.kind)
    def test_every_kind_matches_the_degree_2_route(self, family, t):
        table = fn._integrand_table(family)
        accepted = sorted(table) + (["lyapunov"] if isinstance(family, br.Breather) else [])
        for kind in accepted:
            def density(x):
                f = field_oracle.field_arrays_deg2(family, t, x)
                return (fn._density(family, fn._lyapunov_coefficients(family), f) if kind == "lyapunov"
                        else table[kind](f))

            want = checked_integral(density, fn.family_plan(family, t))[0]
            assert repr(fn.evaluate_functional(kind, family, t)) == repr(want), kind
        for kind in {"mass", "energy", "momentum", "f", "lyapunov"} - set(accepted):
            with pytest.raises(ValueError):
                fn.evaluate_functional(kind, family, t)

    @pytest.mark.parametrize("family", [br.MkdvBreather(alpha=0.5, beta=1.0), br.SgBreather(beta=0.5, v=0.7)],
                             ids=lambda f: f.kind)
    def test_field_arrays_hold_the_grids_of_their_degree(self, family):
        x = np.linspace(-3.0, 3.0, 7)
        wave = isinstance(family, br.WaveFamily)
        want = [{"u"}, {"u", "ux"} | ({"ut"} if wave else set()),
                {"u", "ux", "uxx"} | ({"ut", "utx"} if wave else set())]
        full = field_oracle.field_arrays_deg2(family, 0.7, x)
        for deg in range(3):
            f = fn.field_arrays(family, 0.7, x, deg)
            assert set(f) == want[deg]
            for name, grid in f.items():
                assert np.array_equal(grid.view(np.uint64), full[name].view(np.uint64))

    def test_a_density_above_its_degree_raises(self, monkeypatch):
        # F reads uxx: at degree 1 it finds no grid, instead of reading a zero
        monkeypatch.setitem(fn.DENSITY_DEG, "f", 1)
        with pytest.raises(KeyError, match="uxx"):
            fn.evaluate_functional("f", br.MkdvBreather(alpha=0.5, beta=1.0))
