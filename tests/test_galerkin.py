import argparse
import math
from dataclasses import dataclass, replace

import numpy as np
import pytest

import fd_oracle
import form_oracles
from legendre_oracle import LegendrePlan, panel_order
from breatherlab import breathers as br
from breatherlab import cli
from breatherlab import galerkin as gk
from breatherlab import linops, quadrature
from breatherlab import stability as st
from breatherlab.quadrature import MAX_NODES, TrapezoidPlan
from breatherlab.specfun import FourierBasis, HermiteBasis, hermite_values


def ladder_matrix(n_total):
    """Exact first-derivative matrix on Hermite coefficients."""
    d = np.zeros((n_total, n_total))
    for n in range(n_total):
        if n - 1 >= 0:
            d[n - 1, n] = math.sqrt(n / 2.0)
        if n + 1 < n_total:
            d[n + 1, n] = -math.sqrt((n + 1) / 2.0)
    return d


class TestAssembly:
    def test_constant_coefficient_operator_matches_ladder_algebra(self):
        # z'''' + c2 z'' + c0 z in the Hermite basis has entries given exactly
        # by the derivative ladder recurrences
        op = fd_oracle.FreeOperator(br.MkdvBreather(alpha=1.5, beta=1.0))
        n_max = 30
        prob = gk.hermite_problem(op, n_max)
        assembled = gk.assemble(prob)
        pad = n_max + 1 + 8
        d = ladder_matrix(pad)
        c2 = -2 * (1.0 - 1.5**2)
        c0 = (1.0 + 1.5**2) ** 2
        exact_full = np.linalg.matrix_power(d, 4) + c2 * (d @ d) + c0 * np.eye(pad)
        exact = exact_full[: n_max + 1, : n_max + 1]
        assert np.max(np.abs(assembled.matrix - exact)) < 1e-10

    def test_free_operator_spectrum_bounded_by_symbol(self):
        alpha = 1.5
        op = fd_oracle.FreeOperator(br.MkdvBreather(alpha=alpha, beta=1.0))
        assembled, spec, _ = gk.solve_problem(gk.hermite_problem(op, 120))
        # symbol s(xi) = xi^4 + 2(1-a^2) xi^2 + (1+a^2)^2, minimised in xi
        c2 = 2 * (1.0 - alpha**2)
        s_min = (1 + alpha**2) ** 2 - (c2 / 2.0) ** 2 if c2 < 0 else (1 + alpha**2) ** 2
        assert np.all(spec.values >= s_min - 1e-9)
        assert spec.values[0] <= 1.05 * s_min

    def test_fourier_laplacian_exact(self):
        L = 3.7
        basis = FourierBasis(period=L, count_n=6)
        plan = TrapezoidPlan(period=L, n_nodes=512)
        x, w = plan.nodes_weights()
        v0, _, v2 = basis.stack(x, 2)
        m = (v0 * w[None, :]) @ (-v2).T
        spec = gk.eig_sym(0.5 * (m + m.T))
        expected = sorted([0.0] + [(2 * math.pi * n / L) ** 2 for n in range(1, 7) for _ in (0, 1)])
        assert np.allclose(spec.values, expected, atol=1e-10)

    def test_self_adjointness_of_breather_assemblies(self):
        cases = [
            gk.hermite_problem(linops.operator_for(br.MkdvBreather(alpha=0.5, beta=1.0, x1=0.8)), 60),
            gk.hermite_problem(linops.operator_for(br.SgBreather(beta=0.5, v=0.7, x1=0.1)), 24),
            gk.fourier_problem(linops.operator_for(br.KkshBreather(beta=1.0, k=0.03, x1=0.1)), 40),
        ]
        for prob in cases:
            assembled = gk.assemble(prob)
            assert assembled.asymmetry <= 1e-8
            assert assembled.drift <= 1e-9

    def test_block_operator_evaluates_coefficients_once_per_assembly(self, monkeypatch):
        prob = gk.hermite_problem(linops.operator_for(br.SgBreather(beta=0.5, v=0.7, x1=0.1)), 24)
        grids = []
        coefficients = linops.SgBlockOperator.coefficients

        def recorded(op, x):
            grids.append(np.array(x))
            return coefficients(op, x)

        monkeypatch.setattr(linops.SgBlockOperator, "coefficients", recorded)
        # several node blocks in each half of the fine nodes
        monkeypatch.setattr(quadrature, "NODE_BLOCK", 64)
        gk.assemble(prob)
        # once, on the N + 1 nonnegative fine nodes and their exact negatives
        (x,) = grids
        n_nodes = prob.plan.n_nodes
        assert n_nodes // 2 > quadrature.NODE_BLOCK
        plus, minus = np.split(x, 2)
        assert plus.size == n_nodes + 1 and np.all(plus >= 0.0)
        assert np.array_equal(minus, -plus)

    def test_node_blocks_do_not_change_the_matrix(self, monkeypatch):
        prob = gk.hermite_problem(linops.operator_for(br.MkdvBreather(alpha=0.5, beta=1.0, x1=0.8)), 40)
        monkeypatch.setattr(quadrature, "NODE_BLOCK", 64)
        blocked = gk.assemble(prob).matrix
        assert prob.plan.nodes_weights(2)[0][::2].size > 4 * quadrature.NODE_BLOCK
        monkeypatch.setattr(quadrature, "NODE_BLOCK", 10**9)
        whole = gk.assemble(prob).matrix
        assert np.max(np.abs(blocked - whole)) <= 1e-14 * np.max(np.abs(whole))

    @pytest.mark.parametrize("problem", [
        gk.hermite_problem(linops.operator_for(br.MkdvBreather(alpha=0.5, beta=1.0, x1=0.8)), 20),
        gk.hermite_problem(linops.operator_for(br.SgBreather(beta=0.8, v=0.3, x1=0.2)), 8),
        gk.fourier_problem(linops.operator_for(br.KkshBreather(beta=1.0, k=0.03, x1=0.1)), 10),
    ], ids=["mkdv", "sg", "kksh"])
    def test_matrix_reproduces_the_applied_quadratic_form(self, problem):
        matrix = gk.assemble(problem).matrix
        x, w_quad = problem.plan.nodes_weights(2)
        stack = problem.basis.stack(x, 4)
        rng = np.random.default_rng(7)
        for _ in range(3):
            coeff = rng.standard_normal(problem.dim)
            fields = [[part @ s for s in stack] for part in np.split(coeff, problem.operator.slots)]
            direct = form_oracles.applied_form(problem.operator, x, w_quad, *fields)
            assert coeff @ matrix @ coeff == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("asymmetry, drift", [(math.nan, 0.0), (0.0, math.nan)])
    def test_quality_gate_rejects_nan(self, asymmetry, drift):
        assembled = gk.AssembledMatrix(matrix=np.eye(2), asymmetry=asymmetry, drift=drift)
        with pytest.raises(gk.AssemblyError):
            assembled.require_quality()


def _sweep_problems(preset):
    """The problems of a line preset's rows, built as its sweep builds them."""
    args = cli.build_parser().parse_args(cli.PRESETS[preset].split())
    values = cli._parse_values(args.values)
    return [cli._problem(cli._family_from_args(argparse.Namespace(**{**vars(args), args.param: v})), args.n)
            for v in values]


class TestSharedStack:
    """Rows that share a basis and a plan share each node block's stack."""

    @pytest.mark.parametrize("preset", ["fig8", "fig14-left"])
    def test_shared_projection_equals_one_problem_calls(self, preset):
        problems = _sweep_problems(preset)
        assert len({(p.basis, p.plan) for p in problems}) == 1
        for shared, problem in zip(gk._levels(problems), problems):
            alone = gk._levels([problem])[0]
            assert all(np.array_equal(a, b) for a, b in zip(shared, alone))

    def test_one_stack_per_node_block_per_level(self, monkeypatch, capsys):
        calls = []
        stack = HermiteBasis.stack

        def counted(basis, x, orders):
            calls.append(np.size(x))
            return stack(basis, x, orders)

        monkeypatch.setattr(HermiteBasis, "stack", counted)
        assert cli.main(["table", "--preset", "fig8"]) == 0
        # one stack on the nonnegative even fine nodes and one on the odd ones
        n_nodes = _sweep_problems("fig8")[0].plan.n_nodes
        assert len(calls) == 2 * math.ceil((n_nodes // 2 + 1) / quadrature.NODE_BLOCK) == 2
        assert sum(calls) == n_nodes + 1

    def test_assemble_all_keeps_the_order_of_mixed_problems(self):
        mkdv = [gk.hermite_problem(linops.operator_for(br.MkdvBreather(alpha=0.5, beta=1.0, x1=x1)), 20)
                for x1 in (0.1, 0.5)]
        problems = [mkdv[0], _kksh_problem(10, beta=1.0, k=0.03, x1=0.1), mkdv[1],
                    gk.hermite_problem(linops.operator_for(br.SgBreather(beta=0.5, v=0.3, x1=0.1)), 8)]
        for together, problem in zip(gk.assemble_all(problems), problems):
            alone = gk.assemble(problem)
            assert np.array_equal(together.matrix, alone.matrix)
            assert (together.asymmetry, together.drift) == (alone.asymmetry, alone.drift)


class TestLineProjection:
    """Each slot block contracts its terms with the stack in one pass."""

    @pytest.mark.parametrize("problems", [
        [gk.hermite_problem(linops.operator_for(br.MkdvBreather(alpha=0.5, beta=1.0, x1=0.8)), 40)],
        _sweep_problems("fig14-right"),
    ], ids=["mkdv", "fig14-right"])
    def test_matches_the_applied_projection(self, problems):
        eps = np.finfo(float).eps
        for refine in (1, 2):
            x, w = problems[0].plan.nodes_weights(refine)
            for got, want in zip(form_oracles.project(problems, x, w), form_oracles.project_applied(problems, x, w)):
                assert np.max(np.abs(got - want)) <= 4 * eps * np.max(np.abs(want))

    def test_fig14_right_rows_are_even_in_x1(self):
        # the benchmark's symmetry tolerance; the rows agree to 1e-13 or better
        values = cli._parse_values(cli.build_parser().parse_args(cli.PRESETS["fig14-right"].split()).values)
        rows = dict(zip(values, gk.solve_problems(_sweep_problems("fig14-right"))))
        for x1 in (0.1, 0.2, 0.3):
            plus, minus = (rows[s * x1][1].values[:4] for s in (1.0, -1.0))
            assert np.max(np.abs(plus - minus)) <= 1e-9

    def test_a_term_above_the_stack_order_is_refused(self):
        with pytest.raises(ValueError, match="order"):
            gk._block_coefficients([(0, 0, gk.STACK_ORDERS + 1, 1.0)], 4)


class TestParityFold:
    """Each half of the fine Hermite nodes is summed from the basis stack on
    its nonnegative nodes: f_k^(r)(-x) = (-1)^(k + r) f_k^(r)(x), so the even
    rows take g(x) + g(-x) and the odd rows g(x) - g(-x), g = L f."""

    @pytest.mark.parametrize("problems", [
        [gk.hermite_problem(linops.operator_for(br.MkdvBreather(alpha=0.5, beta=1.0, x1=0.8)), 40)],
        [gk.hermite_problem(linops.operator_for(br.GardnerBreather(alpha=0.5, beta=1.0, mu=0.3, x1=0.2)), 20)],
        [gk.hermite_problem(linops.operator_for(br.SgBreather(beta=0.8, v=0.3, x1=0.2)), 8)],
        # two slots, with the order-1 couplers b1_1 and b2_1
        _sweep_problems("fig14-right"),
    ], ids=["mkdv", "gardner", "sg", "fig14-right"])
    @pytest.mark.parametrize("parity", [0, 1], ids=["N-even", "N-odd"])
    def test_folded_halves_equal_the_plain_sum_on_the_mirrored_nodes(self, problems, parity, monkeypatch):
        monkeypatch.setattr(quadrature, "NODE_BLOCK", 64)
        plan = replace(problems[0].plan, n_nodes=problems[0].plan.n_nodes + parity)
        problems = [replace(problem, plan=plan) for problem in problems]
        x, w, split = gk._folded_nodes(plan)
        assert plan.n_nodes % 2 == parity and x.size - split > quadrature.NODE_BLOCK
        coefs = [gk._mirrored_coefficients(problem.operator, x) for problem in problems]
        eps = np.finfo(float).eps
        for lo, hi in ((0, split), (split, x.size)):
            mirrored = np.concatenate([x[lo:hi], -x[lo:hi]]), np.concatenate([w[lo:hi], w[lo:hi]])
            for got, want in zip(gk._fold(problems, coefs, x, w, lo, hi), form_oracles.project(problems, *mirrored)):
                assert np.max(np.abs(got - want)) <= 4 * eps * np.max(np.abs(want))

    def test_an_off_centre_plan_is_refused(self):
        problem = gk.hermite_problem(linops.operator_for(br.MkdvBreather(alpha=0.5, beta=1.0, x1=0.8)), 20)
        shifted = replace(problem, plan=replace(problem.plan, start=problem.plan.start + 0.5))
        with pytest.raises(ValueError, match="centred on 0"):
            gk.assemble(shifted)


class TestHermitePlan:
    """The window comes from the basis, the step from the three scales."""

    @pytest.mark.parametrize("n", [1, 50, 160, 300])
    def test_window_edge_is_below_the_tail_bound(self, n):
        plans = [gk.default_hermite_plan(linops.operator_for(br.MkdvBreather(alpha=0.5, beta=beta)), n)
                 for beta in (0.05, 1.0, 3.0)]
        edges = {-plan.start for plan in plans}
        assert len(edges) == 1
        edge = edges.pop()
        assert all(plan.period == 2.0 * edge for plan in plans)
        x = np.array([-edge, edge])
        # the stack reads f_0..f_n; the n + 4 row checks the margin the window keeps
        stacked = list(HermiteBasis(count=n + 1).stack(x, 4)) + [hermite_values(n + 4, x)]
        assert max(np.max(np.abs(v)) for v in stacked) < 6e-24

    @pytest.mark.parametrize("alpha, beta, n", [(0.2, 10.0, 20), (24.0, 1.0, 10), (12.0, 1.0, 160)])
    def test_narrow_and_fast_profiles_pass_the_drift_gate(self, alpha, beta, n):
        assembled = gk.assemble(gk.hermite_problem(linops.operator_for(br.MkdvBreather(alpha=alpha, beta=beta)), n))
        assert assembled.drift <= 1e-10


def _gauss_legendre(problem):
    """The problem on composite Gauss-Legendre panels over the same window,
    an independent rule: the panel order resolves the basis pair's
    wavenumber 2 x_t + 2 k, or the potential's 6 k, and the decay rate."""
    fam = problem.operator.family
    half_width = -problem.plan.start
    wavenumber = max(2.0 * (half_width - 8.0) + 2.0 * fam.wavenumber, 6.0 * fam.wavenumber)
    return replace(problem, plan=LegendrePlan(0.0, half_width, panel_order(wavenumber, fam.decay_rate)))


class TestNestedLevels:
    """The N coarse Hermite nodes are every other one of the 2N fine ones,
    so each node is evaluated once."""

    @pytest.mark.parametrize("problem", [
        gk.hermite_problem(linops.operator_for(br.MkdvBreather(alpha=0.5, beta=1.0, x1=0.8)), 40),
        gk.hermite_problem(linops.operator_for(br.GardnerBreather(alpha=0.5, beta=1.0, mu=0.3, x1=0.2)), 20),
        gk.hermite_problem(linops.operator_for(br.SgBreather(beta=0.8, v=0.3, x1=0.2)), 8),
    ], ids=["mkdv", "gardner", "sg"])
    def test_coarse_matrix_is_twice_the_even_node_sum(self, problem):
        (x1, w1), (x2, w2) = problem.plan.nodes_weights(1), problem.plan.nodes_weights(2)
        assert np.array_equal(x1, x2[::2]) and np.array_equal(w1, 2.0 * w2[::2])
        coarse, fine, nodes = gk._levels([problem])[0]
        assert nodes == x2.size
        x, w, split = gk._folded_nodes(problem.plan)
        coefs = [gk._mirrored_coefficients(problem.operator, x)]
        even, odd = (gk._fold([problem], coefs, x, w, *ends)[0] for ends in ((0, split), (split, x.size)))
        assert np.array_equal(coarse, 2.0 * even)
        assert np.array_equal(fine, even + odd)
        direct = form_oracles.project([problem], x1, w1)[0]
        assert np.max(np.abs(coarse - direct)) <= 1e-15 * np.max(np.abs(direct))

    @pytest.mark.parametrize("preset", ["fig2", "fig4", "fig8", "fig14-left", "fig14-right"])
    def test_eigenvalues_match_a_gauss_legendre_assembly(self, preset):
        problems = _sweep_problems(preset)
        for problem, assembled in zip(problems, gk.assemble_all(problems)):
            legendre = _gauss_legendre(problem)
            m = form_oracles.project([legendre], *legendre.plan.nodes_weights(2))[0]
            want, got = np.linalg.eigvalsh(0.5 * (m + m.T)), np.linalg.eigvalsh(assembled.matrix)
            # the four a table prints; the rest, up to 9e4 at n = 164, to rounding
            assert np.max(np.abs(got[:4] - want[:4])) <= 1e-10
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [1, 40, 160, 300])
    def test_drift_over_the_parameter_grid(self, n):
        grid = (0.05, 0.2, 0.5, 1.0, 3.0)
        families = [br.MkdvBreather(alpha=a, beta=b, x1=0.3) for a in grid for b in grid]
        families += [br.GardnerBreather(alpha=a, beta=b, mu=mu, x1=0.3)
                     for a, b in ((0.05, 3.0), (0.5, 1.0), (1.0, 1.0), (3.0, 0.05)) for mu in (0.01, 0.3, 0.6)]
        families += [br.SgBreather(beta=b, v=v, x1=0.3) for b in (0.05, 0.5, 0.95) for v in (0.0, 0.5, 0.95)]
        drifts = {fam: gk._assembled(*gk._levels([cli._problem(fam, n)])[0]).drift for fam in families}
        assert max(drifts.values()) <= 1e-11, max(drifts, key=drifts.get)

    def test_half_the_rule_fails_the_drift_gate(self):
        # the narrow profile's strip sets the step: 48 decay_rate of its band
        problem = gk.hermite_problem(linops.operator_for(br.MkdvBreather(alpha=0.2, beta=3.0)), 40)
        assert gk.assemble(problem).drift <= 1e-11
        halved = replace(problem, plan=replace(problem.plan, n_nodes=problem.plan.n_nodes // 2))
        with pytest.raises(gk.AssemblyError, match="drift"):
            gk.assemble(halved)


def _preset_problems(preset):
    """The problems of a preset's rows: a sweep's, or its one spectrum's."""
    args = cli.build_parser().parse_args(cli.PRESETS[preset].split())
    if args.command == "spectrum":
        return [cli._problem(cli._family_from_args(args), cli._basis_size(args))]
    return _sweep_problems(preset)


def _kksh_problem(n, **params):
    return gk.fourier_problem(linops.operator_for(br.KkshBreather(**params)), n)


class TestTorusNodeRule:
    """The assembly starts at the smallest power of two N > 4n (and at least
    8), where the index p - q of the transforms never wraps, and doubles N
    until the node-doubling drift reaches rounding."""

    @pytest.mark.parametrize("n, n_nodes", [(0, 8), (2, 16), (40, 256), (50, 256), (63, 256), (64, 512)])
    def test_rule_values(self, n, n_nodes):
        assert _kksh_problem(n, beta=1.0, k=0.03).plan.n_nodes == n_nodes

    @pytest.mark.parametrize("n", [0, 2, 5])
    def test_small_bases_pass_the_drift_gate(self, n):
        # 4 (2n + 1) nodes would alias the narrow profile's own harmonics
        assert gk.assemble(_kksh_problem(n, beta=1.0, k=0.0005, x1=0.1)).drift <= 1e-12

    @pytest.mark.parametrize("n", [40, 50])
    @pytest.mark.parametrize("k", [0.0005, 0.03, 0.058836252])
    def test_rule_matches_4096_nodes(self, n, k):
        prob = _kksh_problem(n, beta=1.0, k=k, x1=0.1)
        dense = replace(prob, plan=TrapezoidPlan(period=prob.plan.period, n_nodes=4096))
        m, m_dense = gk.assemble(prob).matrix, gk.assemble(dense).matrix
        assert np.max(np.abs(m - m_dense)) <= 1e-9 * np.max(np.abs(m_dense))
        low, low_dense = (gk.eig_sym(a).values[:4] for a in (m, m_dense))
        assert np.max(np.abs(low - low_dense)) <= 1e-8

    @pytest.mark.parametrize("preset", ["fig20", "fig22", "fig24", "table-6-9"])
    def test_preset_rows_match_4096_nodes(self, preset):
        eps = np.finfo(float).eps
        for problem in _preset_problems(preset):
            assembled = gk.assemble(problem)
            assert assembled.nodes == 2 * problem.plan.n_nodes  # accepted at the first level
            x, _ = TrapezoidPlan(problem.plan.period, 4096).nodes_weights()
            op = problem.operator
            dense = gk._project_torus(problem.basis, op.terms(op.coefficients(x)), x.size)
            dense = 0.5 * (dense + dense.T)
            assert np.max(np.abs(assembled.matrix - dense)) <= 4 * eps * np.max(np.abs(dense))

    def test_each_node_is_evaluated_once_across_doublings(self, monkeypatch):
        # at n = 2 the rule starts at 16 nodes, which the narrow profile outgrows
        prob = _kksh_problem(2, beta=1.0, k=0.0005, x1=0.1)
        grids = []
        coefficients = linops.ScalarOperator.coefficients

        def recorded(op, x):
            grids.append(np.array(x))
            return coefficients(op, x)

        monkeypatch.setattr(linops.ScalarOperator, "coefficients", recorded)
        assembled = gk.assemble(prob)
        assert len(grids) > 2
        x = np.concatenate(grids)
        accepted, _ = TrapezoidPlan(prob.plan.period, assembled.nodes // 2).nodes_weights(2)
        assert x.size == assembled.nodes and np.array_equal(np.sort(x), accepted)
        # the doubled levels' grids are those of one evaluation on their nodes
        monkeypatch.setattr(linops.ScalarOperator, "coefficients", coefficients)
        op = prob.operator
        direct = gk._project_torus(prob.basis, op.terms(op.coefficients(accepted)), accepted.size)
        assert np.array_equal(assembled.matrix, 0.5 * (direct + direct.T))

    def test_node_blocks_do_not_change_a_far_doubling_matrix(self, monkeypatch):
        # the matrix of spectrum --family kksh --beta 1 --k 1e-4 --n 2
        prob = _kksh_problem(2, beta=1.0, k=1e-4)
        grids, block = [], quadrature.NODE_BLOCK
        coefficients = linops.ScalarOperator.coefficients

        def recorded(op, x):
            grids.append(np.array(x))
            return coefficients(op, x)

        monkeypatch.setattr(linops.ScalarOperator, "coefficients", recorded)
        blocked = gk.assemble(prob)
        assert blocked.nodes == 16384
        # blocks of at most NODE_BLOCK nodes, each accepted node in one of them once
        accepted, _ = TrapezoidPlan(prob.plan.period, blocked.nodes // 2).nodes_weights(2)
        assert max(x.size for x in grids) <= block
        assert np.array_equal(np.sort(np.concatenate(grids)), accepted)
        monkeypatch.setattr(quadrature, "NODE_BLOCK", 10**9)
        grids.clear()
        whole = gk.assemble(prob)
        assert max(x.size for x in grids) > block
        assert whole.nodes == blocked.nodes and np.array_equal(whole.matrix, blocked.matrix)
        assert (whole.asymmetry, whole.drift) == (blocked.asymmetry, blocked.drift)

    def test_a_jump_in_a_coefficient_reaches_the_cap_and_fails_closed(self):
        # the trapezoid sum of a step converges like 1/N: no level settles
        sizes = []

        @dataclass(frozen=True)
        class StepOperator(linops.ScalarOperator):
            def coefficients(self, x):
                sizes.append(np.size(x))
                return np.where(x < 0.5 * self.family.period, 1.0, -1.0), 0.0, 0.0

        op = StepOperator(br.KkshBreather(beta=1.0, k=0.03, x1=0.1))
        with pytest.raises(gk.AssemblyError, match="drift"):
            gk.assemble(gk.fourier_problem(op, 2))
        assert sum(sizes) == 2 * MAX_NODES

    def test_a_nan_coefficient_stops_the_doubling_and_fails_closed(self):
        sizes = []

        @dataclass(frozen=True)
        class NanOperator(linops.ScalarOperator):
            def coefficients(self, x):
                sizes.append(np.size(x))
                c0, c1, c2 = super().coefficients(x)
                return np.where(x == 0.0, math.nan, c0), c1, c2

        prob = gk.fourier_problem(NanOperator(br.KkshBreather(beta=1.0, k=0.03, x1=0.1)), 2)
        with pytest.raises(gk.AssemblyError):
            gk.assemble(prob)
        assert sizes == [2 * prob.plan.n_nodes]


class TestTorusProjection:
    """The FFT projection against the basis-stack sum ``form_oracles.project``."""

    @pytest.mark.parametrize("n, params", [
        (40, dict(beta=1.0, k=0.058836240, x1=0.1)),  # fig20's first k
        (50, dict(beta=1.0, k=0.0005, x1=0.1)),
        (50, dict(beta=1.0, k=0.03, x1=0.1)),
        (50, dict(beta=1.0, k=0.05, x1=0.1)),
        (40, dict(beta=1.0, k=st.solve_commensurability_from_m(0.5).k)),  # table-6-9
    ])
    def test_matches_the_stack_sum(self, n, params):
        prob = _kksh_problem(n, **params)
        for refine in (1, 2):
            x, w = prob.plan.nodes_weights(refine)
            stack = form_oracles.project([prob], x, w)[0]
            fft = gk._project_torus(prob.basis, prob.operator.terms(prob.operator.coefficients(x)), x.size)
            assert np.max(np.abs(fft - stack)) <= 1e-14 * np.max(np.abs(stack))

    def test_matches_the_stack_sum_on_two_slots(self):
        # every slot block holds grid terms of orders 0 to 3 and constant
        # terms of orders 1 and 3, which trade each cos_q column for sin_q
        @dataclass(frozen=True)
        class TwoSlotOperator:
            family: object
            slots = 2

            def coefficients(self, x):
                k = 2.0 * math.pi / self.family.period
                return [np.exp(np.cos(k * x + j)) * np.sin((j % 3 + 1) * k * x + 0.3 * j) for j in range(16)]

            @staticmethod
            def terms(c):
                return [(i, j, r, c[4 * (2 * i + j) + r]) for i in range(2) for j in range(2) for r in range(4)] + [
                    (i, j, r, 0.7 * (i + 1) - 0.4 * r * j) for i in range(2) for j in range(2) for r in (1, 3)]

        op = TwoSlotOperator(br.KkshBreather(beta=1.0, k=0.03, x1=0.1))
        prob = gk.fourier_problem(op, 12)
        for refine in (1, 2):
            x, w = prob.plan.nodes_weights(refine)
            stack = form_oracles.project([prob], x, w)[0]
            fft = gk._project_torus(prob.basis, op.terms(op.coefficients(x)), x.size)
            assert np.max(np.abs(fft - stack)) <= 1e-14 * np.max(np.abs(stack))

    def test_constant_coefficient_operator_is_diagonal(self):
        # every term is a constant, so no FFT is taken: the matrix is the
        # symbol w^4 + a1 w^2 + a2 at each trig mode
        op = fd_oracle.FreeOperator(linops.operator_for(br.KkshBreather(beta=1.0, k=0.03, x1=0.1)).family)
        prob = gk.fourier_problem(op, 20)
        m = gk.assemble(prob).matrix
        a1, a2 = op.family.a1a2
        omega = 2.0 * math.pi / op.family.period * np.repeat(np.arange(21), 2)[1:]
        expected = np.diag(omega**4 + a1 * omega**2 + a2)
        assert np.max(np.abs(m - expected)) <= 1e-14 * np.max(np.abs(m))

    def test_aliased_sum_matches_and_fails_the_drift_gate(self):
        # 64 nodes carry modes up to 32 only: (p - q) mod N wraps for n = 40
        op = linops.operator_for(br.KkshBreather(beta=1.0, k=0.03, x1=0.1))
        period = op.family.period
        prob = gk.GalerkinProblem(op, FourierBasis(period=period, count_n=40), TrapezoidPlan(period=period, n_nodes=64))
        for refine in (1, 2):
            x, w = prob.plan.nodes_weights(refine)
            stack = form_oracles.project([prob], x, w)[0]
            fft = gk._project_torus(prob.basis, prob.operator.terms(prob.operator.coefficients(x)), x.size)
            # 1e-13: at 64 nodes the stack sum itself is 1.7e-14 of max|M| from
            # a long-double sum of the same terms
            assert np.max(np.abs(fft - stack)) <= 1e-13 * np.max(np.abs(stack))
        levels = [form_oracles.project([prob], *prob.plan.nodes_weights(refine))[0] for refine in (1, 2)]
        with pytest.raises(gk.AssemblyError, match="drift"):
            gk._assembled(*levels, 128).require_quality()
        # the assembly doubles past the failing levels, to the rule's matrix
        settled = gk.assemble(prob)
        assert settled.nodes > 2 * prob.plan.n_nodes and settled.drift <= gk.ROUNDING_DRIFT
        rule = gk.assemble(_kksh_problem(40, beta=1.0, k=0.03, x1=0.1)).matrix
        assert np.max(np.abs(settled.matrix - rule)) <= 1e-14 * np.max(np.abs(rule))

    def test_asymmetry_flags_c1_off_c2_prime(self):
        @dataclass(frozen=True)
        class SkewOperator(linops.ScalarOperator):
            def coefficients(self, x):
                c0, c1, c2 = super().coefficients(x)
                return c0, c1 + np.cos(2 * math.pi * x / self.family.period), c2

        fam = br.KkshBreather(beta=1.0, k=0.03, x1=0.1)
        sound = linops.operator_for(fam)
        skew = SkewOperator(sound.family)
        prob = gk.fourier_problem(skew, 40)
        assembled = gk._assembled(*gk._levels([prob])[0])
        assert assembled.asymmetry > gk.ASYMMETRY_FLAG
        with pytest.raises(gk.AssemblyError, match="asymmetry"):
            assembled.require_quality()
        x, w = prob.plan.nodes_weights(2)
        stack = form_oracles.project([prob], x, w)[0]
        stack_asymmetry = np.max(np.abs(stack - stack.T)) / np.max(np.abs(stack))
        assert assembled.asymmetry == pytest.approx(stack_asymmetry, rel=1e-6)

    def test_coefficients_evaluated_once_per_level(self, monkeypatch):
        prob = _kksh_problem(40, beta=1.0, k=0.03, x1=0.1)
        sizes = []
        coefficients = linops.ScalarOperator.coefficients

        def counted(op, x):
            sizes.append(np.size(x))
            return coefficients(op, x)

        monkeypatch.setattr(linops.ScalarOperator, "coefficients", counted)
        gk.assemble(prob)
        # once, on the 2N nodes: the N-node level reads every other value
        assert sizes == [prob.plan.nodes_weights(2)[0].size]

    @pytest.mark.parametrize("period, n_nodes", [(1.0, 8), (3.7, 4096), (math.pi, 1000), (106.7, 4096)])
    def test_trapezoid_levels_are_nested(self, period, n_nodes):
        plan = TrapezoidPlan(period=period, n_nodes=n_nodes)
        (x1, w1), (x2, w2) = plan.nodes_weights(1), plan.nodes_weights(2)
        assert np.array_equal(x1, x2[::2])
        assert np.array_equal(w1, 2.0 * w2[::2])

    @pytest.mark.parametrize("k", [0.0005, 0.01, 0.03, 0.05, 0.058836240])
    def test_coefficient_grids_are_nested(self, k):
        prob = _kksh_problem(40, beta=1.0, k=k, x1=0.1)
        coarse = prob.operator.coefficients(prob.plan.nodes_weights(1)[0])
        fine = prob.operator.coefficients(prob.plan.nodes_weights(2)[0])
        for c1, c2 in zip(coarse, fine):
            assert np.array_equal(c1, c2[::2])


class TestEigSym:
    def test_diagonal(self):
        spec = gk.eig_sym(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(spec.values, [1.0, 2.0, 3.0])

    def test_two_by_two(self):
        spec = gk.eig_sym(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(spec.values, [-1.0, 1.0])

    def test_trace_identity_random(self):
        rng = np.random.default_rng(21)
        a = rng.normal(size=(50, 50))
        m = 0.5 * (a + a.T)
        spec = gk.eig_sym(m, vectors=True)
        assert np.sum(spec.values) == pytest.approx(np.trace(m), rel=1e-10)
        assert spec.residual <= 1e-9 * np.linalg.norm(m, 2)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            gk.eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("vectors", [False, True])
    def test_non_finite_entry_raises(self, bad, vectors):
        # LAPACK returns [0, -0] for the NaN matrix and NaNs for the inf one
        with pytest.raises(ArithmeticError, match="non-finite"):
            gk.eig_sym(np.array([[bad, 0.0], [0.0, 1.0]]), vectors=vectors)


class TestClassify:
    def test_counts(self):
        spec = gk.Spectrum(values=np.array([-4.2, -0.03, 0.02, 1.7, 2.5]))
        cls = gk.classify(spec, kernel_tol=0.1)
        assert (cls.n_neg, cls.kernel_dim, cls.gap) == (1, 2, 1.7)

    def test_empty_gap(self):
        spec = gk.Spectrum(values=np.array([-1.0, 0.0]))
        cls = gk.classify(spec, kernel_tol=0.5)
        assert math.isinf(cls.gap)

    @pytest.mark.parametrize("values", [[math.nan, 1.0], [-1.0, math.inf], [-math.inf, 0.0]])
    def test_non_finite_value_raises(self, values):
        with pytest.raises(ArithmeticError, match="non-finite"):
            gk.classify(gk.Spectrum(values=np.array(values)), kernel_tol=0.1)

    def test_bad_kernel_tol_fails_before_assembly(self, monkeypatch):
        monkeypatch.setattr(gk, "assemble_all", lambda *args, **kwargs: pytest.fail("assembled"))
        with pytest.raises(ValueError, match="kernel tolerance"):
            gk.solve_problems([_kksh_problem(4, beta=1.0, k=0.03)], kernel_tol=math.nan)

    def test_positive_tol_required(self):
        spec = gk.Spectrum(values=np.array([0.0]))
        with pytest.raises(ValueError):
            gk.classify(spec, kernel_tol=0.0)


@pytest.fixture(scope="module")
def mkdv_160():
    fam = br.MkdvBreather(alpha=0.5, beta=1.0, x1=0.09)
    op = linops.operator_for(fam)
    prob = gk.hermite_problem(op, 160)
    return fam, op, prob, gk.assemble(prob)


class TestSpectralInvariants:

    def test_rayleigh_ritz_monotonicity(self, mkdv_160):
        # nested principal submatrices realise the nested-subspace projections
        _, _, _, assembled = mkdv_160
        m = assembled.matrix
        lam = [np.linalg.eigvalsh(m[: n + 1, : n + 1])[0] for n in (40, 80, 120, 160)]
        for a, b in zip(lam, lam[1:]):
            assert b <= a + 1e-9

    def test_kernel_capture_hermite(self, mkdv_160):
        _, op, prob, assembled = mkdv_160
        x, _ = prob.plan.nodes_weights(2)
        f = op.family.eval(0.0, x, deg=1)
        for sel in ((1, 0), (0, 1)):
            z = f.partial(n1=sel[0], n2=sel[1])
            assert abs(form_oracles.rayleigh_quotient(prob, assembled.matrix, z)) <= 1e-3

    def test_kernel_capture_fourier(self):
        fam = br.KkshBreather(beta=1.0, k=0.03, x1=0.1)
        op = linops.operator_for(fam)
        prob = gk.fourier_problem(op, 40)
        assembled = gk.assemble(prob)
        x, _ = prob.plan.nodes_weights(2)
        f = op.family.eval(0.0, x, deg=1)
        for sel in ((1, 0), (0, 1)):
            z = f.partial(n1=sel[0], n2=sel[1])
            assert abs(form_oracles.rayleigh_quotient(prob, assembled.matrix, z)) <= 1e-8

    def test_shift_periodicity_of_spectrum(self):
        alpha = 0.5
        period = 2 * math.pi / alpha
        spectra = []
        for x1 in (0.7, 0.7 + period):
            fam = br.MkdvBreather(alpha=alpha, beta=1.0, x1=x1)
            _, spec, _ = gk.solve_problem(gk.hermite_problem(linops.operator_for(fam), 60))
            spectra.append(spec.values)
        assert np.max(np.abs(spectra[0] - spectra[1])) < 1e-8

    def test_sg_reflection_symmetry_at_rest(self):
        spectra = []
        for x1 in (0.35, -0.35):
            fam = br.SgBreather(beta=0.5, v=0.0, x1=x1)
            _, spec, _ = gk.solve_problem(gk.hermite_problem(linops.operator_for(fam), 24))
            spectra.append(spec.values)
        assert np.max(np.abs(spectra[0] - spectra[1])) < 1e-8


def test_matrix_csv_header():
    assembled = gk.AssembledMatrix(matrix=np.eye(2), asymmetry=0.0, drift=0.0)
    text = gk.matrix_csv(assembled, 1, "mkdv")
    lines = text.strip().split("\n")
    assert lines[0] == "# galerkin N=1 family=mkdv"
    assert len(lines) == 3


@pytest.mark.parametrize("family", [br.SgBreather(beta=0.5, v=0.3), br.MkdvBreather(alpha=0.5, beta=1.0)],
                         ids=lambda f: f.kind)
def test_a_matrix_at_the_dimension_bound_is_allowed(family):
    op = linops.operator_for(family)
    n_max = gk.MAX_DIM // op.slots - 1
    assert gk.hermite_problem(op, n_max).dim == gk.MAX_DIM
    with pytest.raises(ValueError, match=f"dimension {gk.MAX_DIM + op.slots}, more than the {gk.MAX_DIM} allowed"):
        gk.hermite_problem(op, n_max + 1)
