"""The benchmark's three workloads: each operation, how it is called and how
its output is checked.

An operation is one call into the program's public entry points, either
``cli.main(argv)`` or ``stability.sg_weinstein_check(beta, v)``.  Its check
compares the output with references computed apart from the program
(bench/references.json, regenerated by bench/refs.py) or with properties the
method must have.  A check returns an :class:`Outcome`: whether the operation
passed and the error figures that feed the ``digits`` metric.

Two operations fail on every run because of faults in the program, and are
kept and counted as failed (see KNOWN_FAILURES).
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass, field
from typing import Callable

# ---------------------------------------------------------------------------
# parameters the benchmark keeps for itself (not read from the program)
# ---------------------------------------------------------------------------

STABILITY_BETAS = (0.5, 1.0, 2.0)
STABILITY_GRID = "0.001:0.058:0.0005"
KKSH_MASS_CASE = (1.0, 0.03)
WEINSTEIN_GRID = tuple((b, v) for b in (0.1, 0.5, 0.9) for v in (0.0, 0.99))

# (alpha, beta) of the scalar line presets, for the continuum edge
LINE_SCALAR = {"fig2": (0.5, 1.0), "fig4": (1.5, 1.0), "fig8": (0.5, 1.0)}
LINE_PARAMS = {
    "fig2": [0.09, 0.81, 1.53, 2.15, 3.14],
    "fig4": [0.0, 0.99, 1.57, 2.51, 3.14],
    "fig8": [round(-0.04 + 0.01 * i, 2) for i in range(9)],
    "fig14-left": [round(0.1 * i, 1) for i in range(8)],
    "fig14-right": [round(-0.4 + 0.1 * i, 1) for i in range(8)],
}
FIG8_MU = 0.01

# k values of the periodic presets (beta = 1, x1 = 0.1); fig20's last value
# lies above k* and is skipped by the program, so it has no reference
TORUS_PARAMS = {
    "fig20": [0.058836240 + 2e-9 * i for i in range(8)],
    "fig22": [0.01, 0.02, 0.03, 0.04, 0.05],
    "fig24": [0.0005 + 0.001 * i for i in range(10)],
}
TORUS_X1 = 0.1

FOURIER_KERNEL_TOL = 1e-5  # the program's default kernel tolerance on the torus

LAMBDA1_REL_TOL = 1e-3     # line lambda_1 against the finite-difference oracle
SYMMETRY_TOL = 1e-9        # fig14-right rows at +x1 and -x1
TORUS_TOL = 1e-6           # torus eigenvalues against collocation, times max(1, |ref|)
PRINTED_REL_TOL = 1e-12    # stability columns with closed forms
DERIVATIVE_REL_TOL = 1e-6  # D and HG against exact derivatives
IDENTITY_TOL = 1e-9        # residuals, drifts, Baecklund diagnostics
WEINSTEIN_REL_TOL = 1e-7
MASS_REL_TOL = 1e-9

KNOWN_FAILURES = {
    "spectra": {"table fig8"},
    "identity-checks": {"residual sg-kink"},
}


def stability_ks() -> list[float]:
    """The k grid 0.001:0.058:0.0005 as decimals."""
    return [round(0.001 + 0.0005 * i, 10) for i in range(115)]


# ---------------------------------------------------------------------------
# outcomes and output parsing
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    ok: bool = True
    errors: list = field(default_factory=list)  # error figures that feed `digits`
    why: list = field(default_factory=list)

    def require(self, cond: bool, why: str):
        if not cond:
            self.ok = False
            self.why.append(why)


def digits(errors) -> float:
    """Correct significant digits implied by the worst error figure, capped at 16."""
    worst = max((abs(e) for e in errors), default=0.0)
    if not worst > 0.0:
        return 16.0 if worst == 0.0 else 0.0
    return min(16.0, max(0.0, -math.log10(worst)))


def csv_rows(text: str) -> list[dict]:
    """Rows of a CSV body (after the '#' header) as dicts of the printed strings."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        return []
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def half_unit(printed: str) -> float:
    """Half a unit in the last printed place (10 decimals, fixed or scientific)."""
    x = float(printed)
    if "e" in printed.lower():
        return 0.5e-10 * 10.0 ** math.floor(math.log10(abs(x))) if x else 0.5e-10
    return 0.5e-10


def match(values, wanted, tol=1e-9):
    """Index of each wanted parameter in the printed parameter list, or None."""
    out = []
    for w in wanted:
        hits = [i for i, v in enumerate(values) if abs(v - w) <= tol]
        out.append(hits[0] if len(hits) == 1 else None)
    return out


def nearest(table, value, tol=1e-9):
    """Reference entry whose parameter is within tol of value."""
    for param, ref in table:
        if abs(param - value) <= tol:
            return ref
    return None


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


@dataclass
class Op:
    name: str
    call: Callable[[], str]
    check: Callable[[str], Outcome]


def cli_call(program, argv):
    """Run cli.main in-process; the output text, or raise on a nonzero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = program.cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _line_check(preset, refs):
    wanted = LINE_PARAMS[preset]
    lam1 = [(float(p), v) for p, v in refs.get(preset, {}).items()]

    def check(text):
        res = Outcome()
        rows = csv_rows(text)
        pname = "v" if preset == "fig14-left" else "x1"
        params = [float(r[pname]) for r in rows]
        res.require(len(rows) == len(wanted) and None not in match(params, wanted),
                    f"rows {params} != {wanted}")
        for r in rows:
            eig = [float(r[f"eig{i}"]) for i in range(1, 5)]
            res.require(r["n_neg"] == "1" and r["kernel_dim"] == "2",
                        f"{pname}={r[pname]}: n_neg={r['n_neg']} kernel_dim={r['kernel_dim']}")
            res.errors += [float(r["asymmetry"]), float(r["drift"])]
            if preset in LINE_SCALAR:
                alpha, beta = LINE_SCALAR[preset]
                edge = (alpha**2 + beta**2) ** 2 if alpha <= beta else 4.0 * alpha**2 * beta**2
                res.require(eig[3] >= edge, f"{pname}={r[pname]}: lambda_4 {eig[3]} below edge {edge}")
                ref = nearest(lam1, float(r[pname]))
                res.require(ref is not None and abs(eig[0] - ref) <= LAMBDA1_REL_TOL * abs(ref),
                            f"{pname}={r[pname]}: lambda_1 {eig[0]} vs oracle {ref}")
        if preset == "fig14-right":
            by = {round(float(r["x1"]), 6): [float(r[f"eig{i}"]) for i in range(1, 5)] for r in rows}
            for x1 in (0.1, 0.2, 0.3):
                plus, minus = by.get(x1), by.get(-x1)
                if plus is None or minus is None:
                    res.require(False, f"missing x1=+-{x1}")
                    continue
                diff = max(abs(a - b) for a, b in zip(plus, minus))
                res.require(diff <= SYMMETRY_TOL, f"x1=+-{x1}: rows differ by {diff:.2e}")
                res.errors.append(diff / max(1.0, max(abs(a) for a in plus)))
        return res

    return check


def _torus_row(res, label, eig, ref, classification=None):
    for got, want in zip(eig, ref):
        err = abs(got - want) / max(1.0, abs(want))
        res.require(err <= TORUS_TOL, f"{label}: eigenvalue {got} vs collocation {want}")
        res.errors.append(err)
    if classification is None:
        tol = FOURIER_KERNEL_TOL
        classification = (sum(v < -tol for v in eig), sum(abs(v) <= tol for v in eig))
    if abs(eig[0]) > FOURIER_KERNEL_TOL:
        res.require(classification == (1, 2), f"{label}: n_neg, kernel_dim = {classification}")


def _torus_check(preset, refs):
    def check(text):
        res = Outcome()
        if preset == "table-6-9":
            rows = csv_rows(text)
            eig = [float(r["eigenvalue"]) for r in rows[:4]]
            res.require(len(eig) == 4, "fewer than four eigenvalues")
            _torus_row(res, preset, eig, refs[preset]["eigenvalues"])
            return res
        table = [(float(k), v) for k, v in refs[preset].items()]
        rows = csv_rows(text)
        ks = [float(r["k"]) for r in rows]
        res.require(len(rows) == len(table) and None not in match(ks, [k for k, _ in table], 1e-12),
                    f"rows {ks} != references")
        for r in rows:
            k = float(r["k"])
            ref = nearest(table, k, 1e-12)
            if ref is None:
                continue
            eig = [float(r[f"eig{i}"]) for i in range(1, 5)]
            res.errors += [float(r["asymmetry"]), float(r["drift"])]
            _torus_row(res, f"k={r['k']}", eig, ref, (int(r["n_neg"]), int(r["kernel_dim"])))
        return res

    return check


def _close(res, label, printed, ref, rel):
    got = float(printed)
    err = abs(got - ref)
    res.require(err <= rel * abs(ref) + 1.01 * half_unit(printed), f"{label}: {got} vs {ref}")
    res.errors.append(err / max(abs(ref), 1e-300))


def _stability_check(beta, refs):
    ref = refs[repr(beta)]
    table = [(float(k), row) for k, row in ref["rows"].items()]

    def check(text):
        res = Outcome()
        rows = csv_rows(text)
        ks = [float(r["k"]) for r in rows]
        res.require(len(rows) == len(table) and None not in match(ks, [k for k, _ in table], 1e-12),
                    f"beta={beta}: k grid differs from the reference grid")
        signs = []
        for r in rows:
            k = float(r["k"])
            want = nearest(table, k, 1e-12)
            if want is None:
                continue
            label = f"beta={beta} k={r['k']}"
            for col in ("m", "alpha", "L", "mass", "a1", "a2"):
                _close(res, f"{label} {col}", r[col], want[col], PRINTED_REL_TOL)
            for col in ("D", "HG"):
                _close(res, f"{label} {col}", r[col], want[col], DERIVATIVE_REL_TOL)
            verdict = "stable-candidate" if want["HG"] > 0 else "unstable-candidate"
            res.require(r["verdict"] == verdict, f"{label}: verdict {r['verdict']}")
            signs.append((k, float(r["D"])))
        changes = [(a[0], b[0]) for a, b in zip(signs, signs[1:]) if (a[1] > 0) != (b[1] > 0)]
        root = ref["d_root"]
        res.require(len(changes) == 1 and changes[0][0] < root <= changes[0][1],
                    f"beta={beta}: D changes sign in {changes}, oracle root {root}")
        return res

    return check


def _residual_check(text):
    res = Outcome()
    rows = csv_rows(text)
    res.require(bool(rows), "no residual rows")
    for r in rows:
        val = float(r["value"])
        res.require(val <= IDENTITY_TOL, f"{r['check']} = {val}")
        res.errors.append(val)
    return res


def _conserved_check(mass_ref=None):
    def check(text):
        res = Outcome()
        values = [float(r["value"]) for r in csv_rows(text)]
        drift_lines = [ln for ln in text.splitlines() if ln.startswith("# max drift:")]
        res.require(len(values) >= 2 and len(drift_lines) == 1, "missing values or drift line")
        drift = max(abs(v - values[0]) for v in values) if values else math.inf
        printed = float(drift_lines[0].split(":")[1]) if drift_lines else math.inf
        res.require(printed <= IDENTITY_TOL and drift <= IDENTITY_TOL,
                    f"drift {printed} (printed), {drift} (from values)")
        res.errors.append(printed)
        if mass_ref is not None:
            for r in csv_rows(text):
                _close(res, f"mass at t={r['t']}", r["value"], mass_ref, MASS_REL_TOL)
        return res

    return check


def _backlund_check(text):
    res = Outcome()
    vals = {r["quantity"]: float(r["value"]) for r in csv_rows(text)}
    for name in ("superposition_vs_closed_form", "seed_relation_residual", "periodicity_defect"):
        val = vals.get(name, math.inf)
        res.require(val <= IDENTITY_TOL, f"{name} = {val}")
        res.errors.append(val)
    return res


def _weinstein_check(beta, v):
    exact = (8.0 / beta) * (1.0 + 3.0 * v * v)

    def check(text):
        res = Outcome()
        err = abs(float(text) - exact) / exact
        res.require(err <= WEINSTEIN_REL_TOL, f"beta={beta} v={v}: {text} vs {exact}")
        res.errors.append(err)
        return res

    return check


RESIDUAL_CASES = {
    "mkdv": ["--alpha", "0.5", "--beta", "1"],
    "gardner": ["--alpha", "0.5", "--beta", "1", "--mu", "0.1"],
    "sg": ["--beta", "0.5", "--v", "0.7"],
    "kksh": ["--beta", "1", "--k", "0.03"],
    "nonzero-mean": ["--mu", "2.9096582464", "--c1", "1.65", "--p", "22", "--q", "23"],
    "mkdv-soliton": ["--c", "1.5"],
    "gardner-soliton": ["--c", "1.5", "--mu", "0.3"],
    "sg-kink": ["--v", "0.4"],
}


def build(workload: str, program, refs: dict) -> list[Op]:
    """The workload's fixed operation list.  The first one is the set-up probe."""
    ref = refs[workload]

    def cli_op(name, argv, check):
        return Op(name, lambda: cli_call(program, argv), check)

    if workload == "spectra":
        # line presets (Hermite basis) first, then the periodic ones (Fourier basis)
        line = ["fig14-right", "fig14-left", "fig8", "fig2", "fig4"]
        torus = ["table-6-9", "fig20", "fig22", "fig24"]
        return ([cli_op(f"table {p}", ["table", "--preset", p], _line_check(p, ref)) for p in line]
                + [cli_op(f"table {p}", ["table", "--preset", p], _torus_check(p, ref)) for p in torus])
    if workload == "stability-sweep":
        return [cli_op(f"stability beta={b}", ["stability", "--beta", repr(b), "--k", STABILITY_GRID],
                       _stability_check(b, ref)) for b in (1.0, 0.5, 2.0)]
    if workload == "identity-checks":
        ops = [cli_op(f"residual {fam}", ["residual", "--family", fam] + args, _residual_check)
               for fam, args in RESIDUAL_CASES.items()]
        beta, k = KKSH_MASS_CASE
        times = ["--times", "0,0.7,2.1"]
        ops += [
            cli_op("conserved sg energy",
                   ["conserved", "--family", "sg", "--beta", "0.5", "--v", "0.7", "--kind", "energy"] + times,
                   _conserved_check()),
            cli_op("conserved kksh mass",
                   ["conserved", "--family", "kksh", "--beta", repr(beta), "--k", repr(k),
                    "--kind", "mass"] + times,
                   _conserved_check(ref["kksh_mass"])),
            cli_op("conserved mkdv f",
                   ["conserved", "--family", "mkdv", "--alpha", "0.5", "--beta", "1", "--kind", "f"] + times,
                   _conserved_check()),
            cli_op("backlund", ["backlund", "--c1", "1.65", "--c2", "2.95", "--p", "22", "--q", "23"],
                   _backlund_check),
        ]
        for b, v in WEINSTEIN_GRID:
            ops.append(Op(f"weinstein beta={b} v={v}",
                          lambda b=b, v=v: repr(program.stability.sg_weinstein_check(b, v)),
                          _weinstein_check(b, v)))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("spectra", "stability-sweep", "identity-checks")
