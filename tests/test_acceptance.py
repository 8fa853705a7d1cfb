"""Acceptance suite: one test (or test pair) per numbered criterion.

Each criterion is asserted at its stated tolerance and prints a PASS/FAIL
line.  Four clauses quoted reference statements that the printed operators
cannot produce.  Their tests check what the printed equations imply, against
independently computed values, and keep the quoted numbers as provenance:

* criterion 1, kink clause: the first stationary equation on the kink
  reduces to -(b - b_v(a))/2 u_x, so the constants are admissible for any a
  with b = b_v(a) (b = 0 for the static kink), not for arbitrary (a, b).
* criteria 3 and 4, eigenvalue tables: lambda_1 is compared with the banded
  finite-difference oracle in ``fd_oracle`` and lambda_4 with the closed-form
  bottom of the essential spectrum.  The quoted lambda_1 = -4.226 lies below
  the lowest lambda_1 over every shift (about -3.733), which no Rayleigh-Ritz
  projection can undershoot, and the quoted Gardner values (-2.19, -2.23)
  contradict the operator's own mu -> 0 limit (-3.70).
* criterion 9, slope window: the window [2, 3] is the alpha > beta growth
  law of |lambda_1|; the fitted slope over the whole grid (1.69) mixes in the
  alpha < beta law and is compared with the oracle's instead.  The quoted
  (alpha, lambda_1) pairs themselves give 1.50.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import fd_oracle
import form_oracles
from breatherlab import breathers as br
from breatherlab import functionals as fn
from breatherlab import galerkin as gk
from breatherlab import jets, linops
from breatherlab import stability as st


def report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num} ({label}): {status}{' - ' + detail if detail else ''}")


def spectrum_for(family, n):
    """n is the basis cutoff, except for the block case where it is the
    total matrix dimension (two slots)."""
    op = linops.operator_for(family)
    if family.kind == "sg":
        problem = gk.hermite_problem(op, n // 2 - 1)
    elif family.kind == "kksh":
        problem = gk.fourier_problem(op, n)
    else:
        problem = gk.hermite_problem(op, n)
    return gk.solve_problem(problem)


# ---------------------------------------------------------------------------
# criterion 1: exact identities
# ---------------------------------------------------------------------------

SCALAR_FAMILIES = [
    br.MkdvBreather(alpha=2.5, beta=1.0, x1=0.3, x2=-0.1),
    br.MkdvBreather(alpha=0.5, beta=0.7),
    br.MkdvBreather(alpha=1.2, beta=1.4, x1=1.0, x2=0.2),
    br.GardnerBreather(alpha=0.5, beta=1.0, mu=0.1, x1=0.1),
    br.GardnerBreather(alpha=1.0, beta=0.8, mu=-0.4),
    br.GardnerBreather(alpha=0.7, beta=1.2, mu=1.0, x1=0.5),
    br.KkshBreather(beta=1.0, k=0.03, x1=0.1),
    br.KkshBreather(beta=0.7, k=0.01),
    br.KkshBreather(beta=1.3, k=0.055, x1=0.4),
    br.NonzeroMeanBreather(mu=1.3, c1=0.9, p=2, q=3),
    br.NonzeroMeanBreather(mu=2.9096582464459835, c1=1.65, p=22, q=23),
    br.NonzeroMeanBreather(mu=1.0, c1=1.2, p=3, q=5),
]

SG_FAMILIES = [
    br.SgBreather(beta=0.5, v=0.7, x1=0.2),
    br.SgBreather(beta=0.3, v=0.0),
    br.SgBreather(beta=0.9, v=-0.5, x2=0.3),
]


def test_criterion1_stationary_and_pde_identities():
    worst_stat, worst_pde = 0.0, 0.0
    for fam in SCALAR_FAMILIES:
        worst_stat = max(worst_stat, fn.stationary_residual(fam, t=0.3))
        worst_pde = max(worst_pde, fn.pde_residual(fam, n_points=100))
    for fam in SG_FAMILIES:
        r1, r2 = fn.stationary_residual(fam, t=0.3)
        worst_stat = max(worst_stat, r1, r2)
        worst_pde = max(worst_pde, fn.pde_residual(fam, n_points=100))
    ok = worst_stat <= 1e-8 and worst_pde <= 1e-9
    report(1, "stationary + evolution identities", ok,
           f"max stationary {worst_stat:.2e}, max pde {worst_pde:.2e}")
    assert worst_stat <= 1e-8
    assert worst_pde <= 1e-9


QUOTED_KINK_CONSTANTS = ((0.37, -1.2), (-0.8, 0.55))


def kink_b_line(a, v):
    """The second constant the kink of velocity v admits for a given a."""
    return 2.0 * v * (a - (3.0 + v * v) / (4.0 * (1.0 - v * v)))


def test_criterion1_kink_arbitrary_constants():
    """Kink satisfies the stationary pair for arbitrary a with b = b_v(a).

    Substituting u = 4 arctan(exp(gamma (x - v t))) into the first stationary
    equation leaves exactly -(b - b_v(a))/2 u_x, with
    b_v(a) = 2 v (a - (3 + v^2) / (4 (1 - v^2))).  Both residuals therefore
    vanish for any a with b on that line, and only there; for the static
    kink that means b = 0.  Checked at the two quoted a values for the static
    kink and a moving kink.  Off the line the first residual is O(1), which
    the quoted pairs check.

    Provenance: the clause asked for two arbitrary pairs (a, b) with b != 0,
    QUOTED_KINK_CONSTANTS.  On the static kink the first equation is then
    -(b/2) u_x != 0, so that reading cannot hold; the quoted pairs are kept as
    a check that the second equation of the static kink is free of both
    constants.
    """
    worst = 0.0
    for v in (0.0, 0.4):
        kink = br.SgKink(v=v)
        for a, _ in QUOTED_KINK_CONSTANTS:
            worst = max(worst, *fn.stationary_residual(kink, ab=(a, kink_b_line(a, v))))
    static = br.SgKink(v=0.0)
    quoted = [fn.stationary_residual(static, ab=ab) for ab in QUOTED_KINK_CONSTANTS]
    worst_second = max(r2 for _, r2 in quoted)
    least_first = min(r1 for r1, _ in quoted)
    ok = worst <= 1e-9 and worst_second <= 1e-9 and least_first >= 0.1
    report(1, "kink with admissible constants", ok,
           f"max residual on b = b_v(a) {worst:.2e}; at quoted (a, b): "
           f"second {worst_second:.2e}, first {least_first:.2f}")
    assert worst <= 1e-9
    assert worst_second <= 1e-9
    assert least_first >= 0.1, "first equation lost its b-dependence"


# ---------------------------------------------------------------------------
# criterion 2: closed-form functionals
# ---------------------------------------------------------------------------


def test_criterion2_closed_form_functionals():
    h = 1e-5
    worst = {"exact": 0.0, "fd": 0.0}
    for beta in (0.3, 0.5, 0.8):
        for v in (0.0, 0.4, 0.7):
            fam = br.SgBreather(beta=beta, v=v)
            e = fn.evaluate_functional("energy", fam)
            p = fn.evaluate_functional("momentum", fam)
            worst["exact"] = max(
                worst["exact"],
                abs(e - 16 * beta) / (16 * beta),
                abs(p - (-8 * beta * v)) / max(abs(8 * beta * v), 1.0),
            )
            de = (
                fn.evaluate_functional("energy", replace(fam, beta=beta + h))
                - fn.evaluate_functional("energy", replace(fam, beta=beta - h))
            ) / (2 * h)
            dp = (
                fn.evaluate_functional("momentum", replace(fam, beta=beta + h))
                - fn.evaluate_functional("momentum", replace(fam, beta=beta - h))
            ) / (2 * h)
            worst["fd"] = max(
                worst["fd"], abs(de - 16) / 16, abs(dp + 8 * v) / max(8 * abs(v), 1.0)
            )
            q = linops.sg_scaling_quadratic_form(fam)
            q_ref = -32 * (1 + 3 * v * v) * beta
            pairing = st.sg_weinstein_check(beta, v)
            pairing_ref = (8.0 / beta) * (1 + 3 * v * v)
            worst["exact"] = max(
                worst["exact"], abs(q - q_ref) / abs(q_ref),
                abs(pairing - pairing_ref) / pairing_ref,
            )
    for beta in (0.3, 0.5, 0.8):
        fam = br.MkdvBreather(alpha=1.1, beta=beta)
        m = fn.evaluate_functional("mass", fam)
        worst["exact"] = max(worst["exact"], abs(m - 4 * beta) / (4 * beta))
    ok = worst["exact"] <= 1e-6 and worst["fd"] <= 1e-4
    report(2, "closed-form functionals", ok,
           f"exact {worst['exact']:.2e}, fd-limited {worst['fd']:.2e}")
    assert worst["exact"] <= 1e-6
    assert worst["fd"] <= 1e-4


# ---------------------------------------------------------------------------
# criteria 3 and 4: line spectra
# ---------------------------------------------------------------------------

FIG2_SHIFTS = (0.09, 0.81, 1.53, 2.15, 3.14)
FIG2_LAMBDA1 = (-4.226, -4.191, -3.491, -2.557, -1.507)
FIG2_LAMBDA4 = (1.776, 1.862, 1.886, 1.901, 1.915)
FIG4_SPOT = br.MkdvBreather(alpha=1.5, beta=1.0, x1=0.0)
FIG4_LAMBDA1 = -22.067
GARDNER_REFS = {0.01: (-2.192, 1.909), 0.1: (-2.228, 1.923)}

# how far above the continuum edge a converged Hermite basis may put its
# lowest continuum eigenvalue (0.036-0.075 measured at n = 160; n = 100
# already exceeds it)
BASIS_MARGIN = 0.1


def oracle_lambda1(family):
    """Lowest eigenvalue of the family's operator from the finite-difference oracle."""
    return fd_oracle.lowest_eigenvalues(linops.operator_for(family), 1)[0]


def edge_gap(family, value):
    """Distance of an eigenvalue above the bottom of the essential spectrum."""
    return value - fd_oracle.continuum_edge(family.alpha, family.beta)


@pytest.fixture(scope="module")
def mkdv_table_spectra():
    out = {}
    for x1 in FIG2_SHIFTS:
        fam = br.MkdvBreather(alpha=0.5, beta=1.0, x1=x1)
        out[x1] = spectrum_for(fam, 160)
    return out


def test_criterion3_classification(mkdv_table_spectra):
    ok = True
    for x1, (_, spec, cls) in mkdv_table_spectra.items():
        n_small = int(np.sum(np.abs(spec.values) <= 0.1))
        ok = ok and (n_small == 2) and (cls.n_neg == 1) and (cls.kernel_dim == 2)
    report(3, "unique negative eigenvalue + two-dimensional kernel", ok)
    assert ok


def test_criterion3_reference_eigenvalue_tables(mkdv_table_spectra):
    """Line-case eigenvalue tables against the finite-difference oracle.

    lambda_1 at the five fig-2 shifts (n = 160) and at the fig-4 spot
    (n = 164) must match the banded finite-difference oracle to 1e-3
    relative (measured <= 4e-5).  lambda_4 is the lowest continuum
    eigenvalue: the min-max principle forbids a Ritz value below the bottom
    of the essential spectrum, (alpha^2 + beta^2)^2 = 1.5625 here, and a
    converged basis keeps it within BASIS_MARGIN above it.

    Provenance: the quoted table FIG2_LAMBDA1 / FIG2_LAMBDA4 and the fig-4
    value FIG4_LAMBDA1 cannot come from the printed operator.  -4.226 at
    shift 0.09 lies below the lowest lambda_1 over every shift (about -3.733,
    reached near shift 0.5), and a Ritz projection cannot undershoot the true
    minimum, so no reparametrisation of the shift reproduces it.  At shift
    0.09 the Galerkin value is -3.7058 and the oracle's -3.7059; at the fig-4
    spot they are -19.5828 and -19.5835 (quoted -22.067).  The quoted
    lambda_4 values (1.78-1.92) are basis discretisations of the continuum,
    not eigenvalues.
    """
    rel1, gaps4 = [], []
    for x1 in FIG2_SHIFTS:
        fam = br.MkdvBreather(alpha=0.5, beta=1.0, x1=x1)
        _, spec, _ = mkdv_table_spectra[x1]
        l1_fd = oracle_lambda1(fam)
        rel1.append(abs(spec.values[0] - l1_fd) / abs(l1_fd))
        gaps4.append(edge_gap(fam, spec.values[3]))
    _, spec4, _ = spectrum_for(FIG4_SPOT, 164)
    l1_fd4 = oracle_lambda1(FIG4_SPOT)
    rel1.append(abs(spec4.values[0] - l1_fd4) / abs(l1_fd4))
    ok = max(rel1) <= 1e-3 and 0.0 <= min(gaps4) and max(gaps4) <= BASIS_MARGIN
    report(3, "reference eigenvalue tables", ok,
           f"max rel |dl1| vs oracle {max(rel1):.1e}, l4 above edge by "
           f"{min(gaps4):.3f}-{max(gaps4):.3f}, fig-4 l1 {spec4.values[0]:.4f} "
           f"(oracle {l1_fd4:.4f}, quoted {FIG4_LAMBDA1})")
    assert max(rel1) <= 1e-3
    assert min(gaps4) >= 0.0
    assert max(gaps4) <= BASIS_MARGIN


@pytest.fixture(scope="module")
def gardner_table_spectra():
    out = {}
    for mu in (0.01, 0.1):
        fam = br.GardnerBreather(alpha=0.5, beta=1.0, mu=mu)
        out[mu] = spectrum_for(fam, 160)
    return out


def test_criterion4_unique_negative_direction(gardner_table_spectra):
    ok = True
    for mu, (_, spec, cls) in gardner_table_spectra.items():
        ok = ok and int(np.sum(spec.values < -0.05)) == 1 and cls.kernel_dim == 2
    report(4, "unique negative eigenvalue", ok)
    assert ok


def test_criterion4_reference_eigenvalue_tables(gardner_table_spectra):
    """Gardner eigenvalue tables against the oracle and the mu -> 0 limit.

    With a converged basis (n = 160): lambda_1 matches the finite-difference oracle to 1e-3 relative, the two
    kernel eigenvalues stay within 0.05 of zero (measured 2e-4), lambda_4
    lies in [edge, edge + BASIS_MARGIN], and lambda_1 stays within 3 mu of
    the mKdV value from the oracle.  Every mu-dependent term of the Gardner
    coefficients is a bounded multiple of mu, and the mu -> 0 operator is
    the criterion-3 operator, so lambda_1 moves by O(mu) (measured 2.1 mu
    and 2.2 mu).

    Provenance: the quoted values GARDNER_REFS (lambda_1 = -2.192, -2.228)
    contradict that limit: they sit 1.5 away from the mKdV value -3.704 at
    mu = 0.01.  Galerkin n = 160 gives -3.7251 and -3.9273, the oracle the
    same to four digits.  The n = 50 basis gives -3.49 and -3.66 with the
    second kernel direction at 0.52 and 0.60, and fails the oracle, kernel
    and edge checks at both mu.
    """
    l1_mkdv = oracle_lambda1(br.MkdvBreather(alpha=0.5, beta=1.0))
    checks, detail = [], []
    for mu, (l1_ref, _) in GARDNER_REFS.items():
        fam = br.GardnerBreather(alpha=0.5, beta=1.0, mu=mu)
        _, spec, _ = gardner_table_spectra[mu]
        l1 = spec.values[0]
        l1_fd = oracle_lambda1(fam)
        kernel_pair = np.sort(np.abs(spec.values))[:2]
        checks += [
            abs(l1 - l1_fd) <= 1e-3 * abs(l1_fd),
            bool(np.all(kernel_pair <= 0.05)),
            0.0 <= edge_gap(fam, spec.values[3]) <= BASIS_MARGIN,
            abs(l1 - l1_mkdv) <= 3.0 * mu,
        ]
        detail.append(f"mu={mu}: l1={l1:.4f} (oracle {l1_fd:.4f}, quoted {l1_ref})")
    ok = all(checks)
    report(4, "reference eigenvalue tables", ok, "; ".join(detail))
    assert ok, detail


# ---------------------------------------------------------------------------
# criterion 5: wave-equation spectra
# ---------------------------------------------------------------------------


def test_criterion5_sg_spectra():
    checks = []
    left_cols = {}
    for v in [round(0.1 * i, 1) for i in range(8)]:
        fam = br.SgBreather(beta=0.5, v=v, x1=0.1)
        left_cols[v] = spectrum_for(fam, 50)
    _, spec0, _ = left_cols[0.0]
    checks.append(abs(spec0.values[0] - (-0.3932)) <= 0.02)
    checks.append(abs(spec0.values[3] - 0.2783) <= 0.02)
    _, spec7, _ = left_cols[0.7]
    checks.append(abs(spec7.values[0] - (-2.4203)) <= 0.1)
    right_cols = {}
    for x1 in [round(-0.4 + 0.1 * i, 1) for i in range(8)]:
        fam = br.SgBreather(beta=0.8, v=0.7, x1=x1)
        right_cols[x1] = spectrum_for(fam, 50)
    _, spec_r, _ = right_cols[0.0]
    checks.append(abs(spec_r.values[0] - (-5.194)) <= 0.1)
    class_ok = all(
        cls.n_neg == 1 and cls.kernel_dim == 2
        for _, _, cls in list(left_cols.values()) + list(right_cols.values())
    )
    checks.append(class_ok)
    ok = all(checks)
    report(5, "wave-equation spectra", ok,
           f"l1(v=0)={spec0.values[0]:.4f}, l1(v=0.7)={spec7.values[0]:.4f}, "
           f"l1(right)={spec_r.values[0]:.4f}")
    assert ok


# ---------------------------------------------------------------------------
# criterion 6: periodic spectra
# ---------------------------------------------------------------------------


def test_criterion6_periodic_spectra():
    k_half = st.solve_commensurability_from_m(0.5).k
    fam = br.KkshBreather(beta=1.0, k=k_half)
    _, spec, _ = spectrum_for(fam, 40)
    ok = abs(spec.values[0] - (-4.86)) <= 0.1
    ok = ok and abs(spec.values[1]) <= 1e-5 and abs(spec.values[2]) <= 1e-5
    ok = ok and abs(spec.values[3] - 35.35) <= 0.5
    fam22 = br.KkshBreather(beta=1.0, k=0.03, x1=0.1)
    _, spec22, _ = spectrum_for(fam22, 50)
    ok = ok and abs(spec22.values[0] - (-8.216)) <= 0.3
    ok = ok and abs(spec22.values[3] - 5.067) <= 0.3
    report(6, "periodic spectra", ok,
           f"first four at m=0.5: {np.round(spec.values[:4], 4)}")
    assert ok


# ---------------------------------------------------------------------------
# criterion 7: stability machinery
# ---------------------------------------------------------------------------


def test_criterion7_stability_machinery():
    pair = st.solve_commensurability_from_m(0.5)
    checks = {
        "m solve": abs(pair.k - 0.057) <= 1e-3,
        "k limit": abs(st.find_kstar() - 0.058836) <= 1e-4,
        "mass limit": abs(st.solve_commensurability(1e-4, 1.0).mass / 4.0 - 1.0) <= 1e-3,
        "root": abs(st.discriminant_root() - 0.0545) <= 0.002,
        "sign high": st.discriminant_and_hg(1.0, 0.057)[1] < 0,
        "sign low": st.discriminant_and_hg(1.0, 0.03)[1] > 0,
    }
    fam = br.KkshBreather(beta=1.0, k=0.03)
    direct = fn.evaluate_functional("mass", fam)
    checks["mass quadrature"] = abs(direct - st.solve_commensurability(0.03, 1.0).mass) <= 1e-7 * abs(direct)
    ok = all(checks.values())
    report(7, "periodic stability machinery", ok,
           ", ".join(f"{k}={'ok' if v else 'BAD'}" for k, v in checks.items()))
    assert ok, checks


# ---------------------------------------------------------------------------
# criterion 8: quadratic expansion
# ---------------------------------------------------------------------------


def test_criterion8_expansion():
    fam = br.SgBreather(beta=0.5, v=0.3)
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(5):
        a, b, w0, w1, s = rng.uniform(0.3, 1.5, size=5)
        x0, x1 = rng.uniform(-1.0, 1.0, size=2)

        def zf(X, a=a, w0=w0, x0=x0):
            return jets.exp(-a * (X - x0) * (X - x0)) * jets.sin(w0 * X)

        def wf(X, b=b, w1=w1, x1=x1, s=s):
            return jets.exp(-b * (X - x1) * (X - x1)) * jets.cos(w1 * X + s)

        lhs, rem = fn.expansion_check(fam, form_oracles.jet_direction(zf, wf), 1e-3)
        worst = max(worst, abs(lhs - rem))

    # along the scaling direction, the Weinstein pairing's
    lhs, rem = fn.expansion_check(fam, lambda x: linops.sg_scaling_direction(fam, x), 1e-3)
    scaling = abs(lhs - rem)

    def zf(X):
        return jets.exp(-0.25 * (X - 0.4) * (X - 0.4)) * jets.sin(X * 1.1)

    def wf(X):
        return jets.exp(-0.3 * X * X) * jets.cos(X * 0.7 + 0.2)

    direction = form_oracles.jet_direction(zf, wf)
    values = [abs(fn.expansion_check(fam, direction, eps)[0]) for eps in (1e-2, 1e-3, 1e-4)]
    slope = (math.log(values[0]) - math.log(values[2])) / (math.log(1e-2) - math.log(1e-4))
    ok = worst <= 1e-10 and scaling <= 1e-10 and slope >= 2.7
    report(8, "quadratic expansion", ok,
           f"max mismatch {worst:.2e}, along the scaling direction {scaling:.2e}, slope {slope:.3f}")
    assert worst <= 1e-10
    assert scaling <= 1e-10
    assert slope >= 2.7


# ---------------------------------------------------------------------------
# criterion 9: qualitative spectral curves
# ---------------------------------------------------------------------------

ALPHA_GRID = (0.5, 0.8, 1.2, 1.6, 2.0)


@pytest.fixture(scope="module")
def alpha_sweep():
    out = {}
    for alpha in ALPHA_GRID:
        fam = br.MkdvBreather(alpha=alpha, beta=1.0, x1=0.0)
        _, spec, _ = spectrum_for(fam, 160)
        out[alpha] = spec.values[0]
    return out


def test_criterion9_monotone_and_shift_period(alpha_sweep):
    mags = [abs(alpha_sweep[a]) for a in ALPHA_GRID]
    monotone = all(b > a for a, b in zip(mags, mags[1:]))
    period = 2 * math.pi / 0.5
    spectra = []
    for x1 in (0.7, 0.7 + period):
        fam = br.MkdvBreather(alpha=0.5, beta=1.0, x1=x1)
        _, spec, _ = spectrum_for(fam, 60)
        spectra.append(spec.values)
    shift_ok = float(np.max(np.abs(spectra[0] - spectra[1]))) <= 1e-8
    ok = monotone and shift_ok
    report(9, "monotone growth + shift periodicity", ok)
    assert ok


def test_criterion9_slope_window(alpha_sweep):
    """Growth exponent of |lambda_1| in the oscillation scaling alpha.

    For alpha > beta the symbol (xi^2 - (alpha^2 - beta^2))^2 + 4 alpha^2 beta^2
    has its minimum 4 alpha^2 beta^2 at xi^2 = alpha^2 - beta^2.  At that
    wave number the profile terms of the operator (5 B_x^2, 10 B B_xx,
    3 a1 B^2 and 5 B^2 z'') scale like alpha^2 at fixed beta, since B ~ beta
    and each x-derivative brings alpha; only 7.5 B^4 does not.  So |lambda_1|
    grows like alpha^2: exponent 2 is the alpha > beta law, and the window
    [2, 3] applies to the grid points above alpha = beta = 1.  Below
    alpha = beta the minimum is (alpha^2 + beta^2)^2 at xi = 0, nearly
    alpha-independent, so those two points follow a different law.  The test asserts that the
    slope over the alpha > beta points lies in [2, 3] (local slopes 2.17
    and 2.31; the oracle's tend back to 2, e.g. 2.09 over [4, 6]) and that
    the slope over the whole grid agrees with the oracle's within 0.01.

    Provenance: the clause asked for the whole-grid slope in [2, 3]; it is
    1.687 from both Galerkin and the oracle, and the quoted (alpha, lambda_1)
    pairs (0.5, -4.226) and (1.5, -22.067) themselves give 1.50.
    """
    logs_a = np.log(ALPHA_GRID)
    logs_l = np.log([abs(alpha_sweep[a]) for a in ALPHA_GRID])
    logs_fd = np.log([
        abs(oracle_lambda1(br.MkdvBreather(alpha=a, beta=1.0, x1=0.0))) for a in ALPHA_GRID
    ])
    slope = float(np.polyfit(logs_a, logs_l, 1)[0])
    slope_fd = float(np.polyfit(logs_a, logs_fd, 1)[0])
    above = np.array(ALPHA_GRID) > 1.0
    slope_above = float(np.polyfit(logs_a[above], logs_l[above], 1)[0])
    ok = abs(slope - slope_fd) <= 0.01 and 2.0 <= slope_above <= 3.0
    report(9, "growth-exponent window", ok,
           f"fitted slope {slope:.3f} (oracle {slope_fd:.3f}), "
           f"alpha > beta slope {slope_above:.3f}")
    assert abs(slope - slope_fd) <= 0.01
    assert 2.0 <= slope_above <= 3.0


# ---------------------------------------------------------------------------
# criterion 10: substitutions
# ---------------------------------------------------------------------------


def test_criterion10_substitution_notes(tmp_path):
    # raw eigenvalue-vs-shift data is emitted instead of polynomial fits
    from breatherlab import cli

    out = tmp_path / "curve.csv"
    rc = cli.main([
        "sweep", "--family", "mkdv", "--alpha", "0.5", "--n", "24",
        "--param", "x1", "--values", "0.0,1.0,2.0", "--out", str(out),
    ])
    rows = [l for l in out.read_text().split("\n") if l and not l.startswith("#")]
    ok = rc == 0 and len(rows) == 4
    report(10, "property substitutions", ok,
           "digit-exact table reproduction and fit curves are out of contract; "
           "raw eigenvalue data is emitted instead")
    assert ok
