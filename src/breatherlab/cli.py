"""Batch command-line front end: named presets, free-form runs, CSV/JSON output.

Every run echoes its fully resolved configuration (including derived
constants) into '#'-prefixed header lines, making output files
self-describing and byte-reproducible.

Exit codes: 0 success, 2 parameter/validation failure, 3 numerical-quality
failure (quadrature drift, matrix asymmetry, eigensolver diagnostics, a
floating-point overflow or invalid operation anywhere in the run, or a NaN or
infinite residual or diagnostic about to be printed).

``main`` sets the process's allocator policy once, before it parses
anything: on glibc it fixes the mmap threshold at 32 MiB and the trim
threshold at 64 MiB (mallopt(3)), the values glibc's own dynamic rule ends
at, so the heap that one node block frees is kept for the next instead of
being trimmed and faulted back in.  It is set here, at the command line
that owns its process, and never at import, so a host that imports the
package keeps its allocator as it was; where there is no ``mallopt`` it
does nothing.  No printed value depends on it.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from . import breathers, functionals, galerkin, linops, stability
from .galerkin import AssemblyError
from .quadrature import QuadratureError


def fmt(x) -> str:
    """CSV number format: '.' decimal, scientific only for small magnitudes."""
    # floats first: a Python float or an np.float64 needs no conversion
    if not isinstance(x, float):
        if isinstance(x, (int, np.integer)):
            return str(int(x))
        x = float(x)
    if x == 0.0:
        return "0"
    if abs(x) < 1e-3:
        return f"{x:.10e}"
    return f"{x:.10f}"


# Most points an a:b:step grid may hold.
MAX_GRID_POINTS = 10_000


def _parse_values(spec: str) -> list[float]:
    """Value list: comma-separated, or an a:b:step range (inclusive ends)."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid {spec!r} must be a:b:step")
        a, b, step = (float(s) for s in parts)
        if not all(math.isfinite(v) for v in (a, b, step)):
            raise ValueError(f"grid {spec!r} needs finite a, b and step")
        if not (step > 0.0 and a <= b):
            raise ValueError(f"grid {spec!r} needs step > 0 and a <= b")
        if not (b - a) / step < MAX_GRID_POINTS:
            raise ValueError(f"grid {spec!r} holds more than {MAX_GRID_POINTS} points")
        n = int(round((b - a) / step))
        vals = [a + i * step for i in range(n + 1)]
        return [v for v in vals if v <= b + 1e-12]
    return [float(s) for s in spec.split(",")]


def _check_n_eigs(n_eigs: int) -> None:
    if n_eigs < 1:
        raise ValueError(f"--n-eigs must be at least 1, got {n_eigs}")


def _check_finite_values(pairs) -> None:
    """Fail closed on a non-finite number about to be printed."""
    for name, value in pairs:
        if not math.isfinite(value):
            raise ArithmeticError(f"{name} is {value}")


def _config_tokens(path: str) -> list[str]:
    """The key=value lines of a config file as '--key=value' flags."""
    tokens = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {line!r}")
            key, val = line.split("=", 1)
            tokens.append(f"--{key.strip().replace('_', '-')}={val.strip()}")
    return tokens


# ---------------------------------------------------------------------------
# family construction
# ---------------------------------------------------------------------------


# the family parameters, none with a CLI default, and their types: a given one
# must name a field of the chosen family (kksh also takes m, to find its k)
_FAMILY_PARAMS = {"beta": float, "v": float, "alpha": float, "mu": float, "k": float, "m": float,
                  "c": float, "c1": float, "c2": float, "p": int, "q": int, "x1": float, "x2": float}
# the scaling a family takes when --beta is not given
DEFAULT_BETA = 1.0


def _not_applying(args, names, family: str) -> None:
    """Refuse a given flag among ``names`` that --family ``family`` ignores."""
    for name in names:
        if getattr(args, name, None) is not None:
            raise ValueError(f"--{name.replace('_', '-')} does not apply to --family {family}")


def _family_from_args(args) -> object:
    """The family named by ``args.family``, built from the attributes of
    ``args`` that name its dataclass fields; a None attribute is not given."""
    cls = breathers.FAMILIES[args.family]
    fields = dataclasses.fields(cls)
    takes = {f.name for f in fields} | ({"m"} if cls is breathers.KkshBreather else set())
    _not_applying(args, [name for name in _FAMILY_PARAMS if name not in takes], args.family)
    kwargs = {f.name: getattr(args, f.name) for f in fields
              if getattr(args, f.name, None) is not None}
    beta_defaulted = "beta" in takes and "beta" not in kwargs
    if beta_defaulted:
        kwargs["beta"] = DEFAULT_BETA
    if cls is breathers.KkshBreather:
        m = getattr(args, "m", None)
        if "k" in kwargs and m is not None:
            raise ValueError("kksh takes --k or --m, not both")
        if "k" not in kwargs:
            if m is None:
                raise ValueError("kksh needs --k or --m")
            kwargs["k"] = stability.solve_commensurability_from_m(m).k
    for f in fields:
        if f.name not in kwargs and f.default is dataclasses.MISSING:
            raise ValueError(f"{args.family} needs --{f.name}")
    try:
        return cls(**kwargs)
    except ValueError as err:
        # a message that names beta says where its value came from
        if beta_defaulted and "beta" in str(err):
            raise ValueError(f"{err} (--beta was not given and took its default {DEFAULT_BETA})") from None
        raise


def _basis_size(args) -> int:
    """--n (default 80), or half of --dim-total, the size of sg's two-block
    matrix; the two set the same size, so only one may be given."""
    if args.dim_total is None:
        return 80 if args.n is None else args.n
    if args.family != "sg":
        raise ValueError(f"--dim-total applies to the sg family only, got --family {args.family}")
    if args.n is not None:
        raise ValueError("--dim-total sets the basis size, so --n does not apply")
    if args.dim_total < 2 or args.dim_total % 2:
        raise ValueError(f"--dim-total must be even and at least 2, got {args.dim_total}")
    return args.dim_total // 2


def _family_config(family) -> dict:
    cfg = {"family": family.kind}
    cfg.update({key: getattr(family, key) for key in _FAMILY_PARAMS if hasattr(family, key)})
    if family.domain == "torus":
        cfg["L"] = family.period
    return cfg


def _config_lines(cfg: dict) -> list[str]:
    items = " ".join(f"{k}={fmt(v) if isinstance(v, float) else v}" for k, v in sorted(cfg.items()))
    return [f"# config: {items}"]


def _write_text(path, text: str):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# spectrum machinery shared by spectrum/sweep/table
# ---------------------------------------------------------------------------


def _problem(family, n: int, t: float = 0.0):
    """The Galerkin problem of the family's operator at time t: n Hermite
    functions per slot for a two-slot (wave) operator, n + 1 for a scalar one
    on the line, and 2n + 1 trig functions on the torus."""
    op = linops.operator_for(family, t)
    if family.domain == "torus":
        return galerkin.fourier_problem(op, n)
    return galerkin.hermite_problem(op, n - 1 if op.slots == 2 else n)


def _gap_text(cls) -> str:
    return "inf" if math.isinf(cls.gap) else fmt(cls.gap)


def _spectrum_payload(family, n, t, problem, assembled, spectrum, cls, n_eigs):
    """The run's configuration, with the phase of the operator's normal form
    at time t, and its leading eigenvalues, classification and diagnostics."""
    cfg = _family_config(family)
    cfg.update({"n": n, "t": t, "x1_normal": problem.operator.family.x1})
    return {
        "config": cfg,
        "eigenvalues": [float(v) for v in spectrum.values[:n_eigs]],
        "classification": {
            "n_neg": cls.n_neg,
            "kernel_dim": cls.kernel_dim,
            "gap": None if math.isinf(cls.gap) else cls.gap,
        },
        "diagnostics": {"asymmetry": assembled.asymmetry, "quadrature_drift": assembled.drift,
                        "nodes": assembled.nodes},
    }


_EIG_HEADER = [
    "# columns: leading eigenvalues (ascending) of the projected linearized operator",
    "# n_neg / kernel_dim / gap: counts below -tol, within tol of zero, and first value above tol",
    "# asymmetry, drift: relative matrix asymmetry before symmetrization, node-doubling drift",
]


def cmd_spectrum(args) -> int:
    _check_n_eigs(args.n_eigs)
    if not math.isfinite(args.t):
        raise ValueError(f"--t must be finite, got {args.t}")
    family = _family_from_args(args)
    n = _basis_size(args)
    problem = _problem(family, n, args.t)
    assembled, spectrum, cls = galerkin.solve_problem(problem, args.kernel_tol)
    payload = _spectrum_payload(family, n, args.t, problem, assembled, spectrum, cls, args.n_eigs)
    if args.dump_matrix:
        _write_text(args.dump_matrix, galerkin.matrix_csv(assembled, n, family.kind))
    if args.format == "json":
        _write_text(args.out, json.dumps(payload, sort_keys=True, indent=2) + "\n")
        return 0
    lines = _config_lines(payload["config"]) + _EIG_HEADER
    lines.append("eig_index,eigenvalue")
    for i, v in enumerate(payload["eigenvalues"]):
        lines.append(f"{i + 1},{fmt(v)}")
    lines.append(f"# classification: n_neg={cls.n_neg} kernel_dim={cls.kernel_dim} gap={_gap_text(cls)}")
    lines.append(f"# diagnostics: asymmetry={assembled.asymmetry:.3e} quadrature_drift={assembled.drift:.3e}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


# Most matrix entries a sweep may hold at once: eight matrices at MAX_DIM.
MAX_SWEEP_ENTRIES = 8 * galerkin.MAX_DIM**2


def cmd_sweep(args) -> int:
    _check_n_eigs(args.n_eigs)
    values = _parse_values(args.values)
    # a field the CLI does not pass to the constructor would sweep nothing
    params = [f.name for f in dataclasses.fields(breathers.FAMILIES[args.family])
              if f.name in _FAMILY_PARAMS]
    if args.param not in params:
        raise ValueError(f"--param must be one of {params} for {args.family}, got {args.param!r}")
    n = _basis_size(args)
    families = (_family_from_args(argparse.Namespace(**{**vars(args), args.param: val})) for val in values)
    first = next(families)
    problems = [_problem(first, n)]
    # every row's matrices are held until the last row is solved, and every
    # row has the dimension of the first
    dim = problems[0].dim
    if len(values) * dim * dim > MAX_SWEEP_ENTRIES:
        raise ValueError(f"the sweep would hold {len(values)} matrices of dimension {dim}, more than "
                         f"{MAX_SWEEP_ENTRIES} entries (8 x {galerkin.MAX_DIM}^2) allowed")
    # each row holds all its columns
    if args.n_eigs > dim:
        raise ValueError(f"--n-eigs {args.n_eigs} exceeds the matrix dimension {dim}")
    problems += [_problem(family, n) for family in families]
    cfg = _family_config(first)
    cfg.update({"n": n, "sweep": args.param})
    lines = _config_lines(cfg) + _EIG_HEADER
    lines.append(args.param + "," + ",".join(f"eig{i + 1}" for i in range(args.n_eigs))
                 + ",n_neg,kernel_dim,gap,asymmetry,drift")
    for val, (assembled, spectrum, cls) in zip(values, galerkin.solve_problems(problems, args.kernel_tol)):
        lines.append(
            ",".join([fmt(val)] + [fmt(v) for v in spectrum.values[:args.n_eigs]])
            + f",{cls.n_neg},{cls.kernel_dim},{_gap_text(cls)},{assembled.asymmetry:.3e},{assembled.drift:.3e}"
        )
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# table presets
# ---------------------------------------------------------------------------


# each preset is the command line of the sweep or spectrum it runs; a value
# list that starts with '-' joins its flag with '=', so that it is not read
# as a flag
PRESETS = {
    "fig2": "sweep --family mkdv --beta 1 --alpha 0.5 --n 160 --param x1"
            " --values 0.09,0.81,1.53,2.15,3.14",
    "fig4": "sweep --family mkdv --beta 1 --alpha 1.5 --n 164 --param x1"
            " --values 0,0.99,1.57,2.51,3.14",
    "fig8": "sweep --family gardner --beta 1 --alpha 0.5 --mu 0.01 --n 160 --param x1"
            " --values=-0.04,-0.03,-0.02,-0.01,0,0.01,0.02,0.03,0.04",
    "fig14-left": "sweep --family sg --beta 0.5 --x1 0.1 --n 25 --param v"
                  " --values 0,0.1,0.2,0.3,0.4,0.5,0.6,0.7",
    "fig14-right": "sweep --family sg --beta 0.8 --v 0.7 --n 25 --param x1"
                   " --values=-0.4,-0.3,-0.2,-0.1,0,0.1,0.2,0.3",
    "fig20": "sweep --family kksh --beta 1 --x1 0.1 --n 40 --param k"
             " --values 0.05883624:0.058836252:2e-9",
    "fig22": "sweep --family kksh --beta 1 --x1 0.1 --n 50 --param k"
             " --values 0.01,0.02,0.03,0.04,0.05",
    "fig24": "sweep --family kksh --beta 1 --x1 0.1 --n 50 --param k"
             " --values 0.0005:0.0095:0.001",
    "table-6-9": "spectrum --family kksh --beta 1 --m 0.5 --n 40",
}


def cmd_table(args) -> int:
    if args.preset not in PRESETS:
        raise ValueError(f"unknown preset {args.preset!r}; choose from {sorted(PRESETS)}")
    run = build_parser().parse_args(
        PRESETS[args.preset].split() + [f"--n-eigs={args.n_eigs}", f"--out={args.out}"])
    return run.func(run)


# ---------------------------------------------------------------------------
# residual / conserved / stability / backlund
# ---------------------------------------------------------------------------


def cmd_residual(args) -> int:
    family = _family_from_args(args)
    if not math.isfinite(args.t):
        raise ValueError(f"--t must be finite, got {args.t}")
    if args.grid_points < 2:
        raise ValueError(f"--grid-points must be at least 2, got {args.grid_points}")
    if args.grid_points > MAX_GRID_POINTS:
        raise ValueError(f"--grid-points must be at most {MAX_GRID_POINTS}, got {args.grid_points}")
    if family.domain == "torus":
        # a torus family's grid spans its period
        _not_applying(args, ("grid_lo", "grid_hi"), args.family)
        x = np.linspace(0.0, family.period, args.grid_points, endpoint=False)
    else:
        lo = -10.0 if args.grid_lo is None else args.grid_lo
        hi = 10.0 if args.grid_hi is None else args.grid_hi
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"--grid-lo and --grid-hi must be finite, got {lo} and {hi}")
        if not lo < hi:
            raise ValueError(f"--grid-lo must lie below --grid-hi, got {lo} and {hi}")
        x = np.linspace(lo, hi, args.grid_points)
    ab = None
    if args.family == "sg-kink":
        a = 0.0 if args.a is None else args.a
        b = family.admissible_b(a) if args.b is None else args.b
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError(f"--a and --b must be finite, got {a} and {b}")
        ab = (a, b)
    else:
        # only the kink admits a line of (a, b); a breather fixes its own
        _not_applying(args, ("a", "b"), args.family)
    stat = functionals.stationary_residual(family, x=x, t=args.t, ab=ab)
    pde = functionals.pde_residual(family, n_points=50)
    cfg = _family_config(family)
    lines = _config_lines(cfg)
    lines.append("# stationary: max |equation| / max-term, over the grid; pde: max absolute defect")
    lines.append("check,value")
    if isinstance(stat, tuple):
        rows = [("stationary_first", stat[0]), ("stationary_second", stat[1])]
    else:
        rows = [("stationary", stat)]
    rows.append(("pde", pde))
    _check_finite_values(rows)
    lines += [f"{name},{fmt(value)}" for name, value in rows]
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_conserved(args) -> int:
    family = _family_from_args(args)
    times = [float(s) for s in args.times.split(",")]
    if not all(math.isfinite(t) for t in times):
        raise ValueError(f"--times must be finite, got {args.times!r}")
    values = [functionals.evaluate_functional(args.kind, family, t=t) for t in times]
    drift = max(abs(v - values[0]) for v in values[1:]) if len(values) > 1 else 0.0
    cfg = _family_config(family)
    cfg["kind"] = args.kind
    lines = _config_lines(cfg)
    lines.append("# value of the conserved functional at each requested time")
    lines.append("t,value")
    for t, v in zip(times, values):
        lines.append(f"{fmt(t)},{fmt(v)}")
    lines.append(f"# max drift: {drift:.6e}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_stability(args) -> int:
    beta = args.beta
    reports = [stability.stability_report(beta, k) for k in _parse_values(args.k)]
    lines = [f"# config: beta={fmt(beta)} k_grid={args.k}"]
    lines.append("# columns: parameters, derived constants, closed-form mass, variational")
    lines.append("# coefficients, frozen-constraint discriminant D and sign function HG")
    worst = max(rep.residual_to_gate for rep in reports)
    lines.append(f"# max commensurability residual / gate: {worst:.1e}")
    lines.append(stability.StabilityReport.CSV_COLUMNS)
    for rep in reports:
        lines.append(rep.csv_row(fmt=fmt))
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_backlund(args) -> int:
    if args.mu is not None and args.c2 is not None:
        raise ValueError("backlund takes --mu or --c2, not both")
    if args.mu is None:
        if args.c2 is None:
            raise ValueError("backlund needs --mu or --c2")
        mu = breathers.solve_mean_level(args.c1, args.c2, args.p, args.q)
    else:
        mu = args.mu
    family, perm, seed = breathers.backlund_construct(mu, args.c1, args.p, args.q)
    mean = functionals.mean_value(family)
    cfg = _family_config(family)
    lines = _config_lines(cfg)
    lines.append("# superposition construction diagnostics")
    lines.append("quantity,value")
    rows = [
        ("mu", mu),
        ("c2", family.c2),
        ("L", family.period),
        ("superposition_vs_closed_form", perm),
        ("seed_relation_residual", seed),
        ("spatial_mean", mean),
        ("periodicity_defect", breathers.periodicity_check(family)),
    ]
    _check_finite_values(rows)
    lines += [f"{name},{fmt(value)}" for name, value in rows]
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_family_options(p: argparse.ArgumentParser):
    p.add_argument("--family", required=True, choices=list(breathers.FAMILIES))
    for name, kind in _FAMILY_PARAMS.items():
        p.add_argument(f"--{name}", type=kind, default=None,
                       help=f"default {DEFAULT_BETA}" if name == "beta" else None)


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (nothing mutates it)."""
    parser = argparse.ArgumentParser(
        prog="breatherlab",
        description="Numerical laboratory for breather solutions: elliptic "
                    "identities, linearized spectra and stability diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="key=value file; flags override")
        p.add_argument("--out", default="-", help="output path ('-' = stdout)")

    p = sub.add_parser("spectrum", help="eigenvalues of the projected linearized operator")
    _add_family_options(p)
    p.add_argument("--n", type=int, default=None, help="basis cutoff (Hermite index / trig count); default 80")
    p.add_argument("--dim-total", type=int, default=None,
                   help="total matrix dimension for the coupled wave-equation case")
    p.add_argument("--kernel-tol", type=float, default=None)
    p.add_argument("--n-eigs", type=int, default=8)
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--dump-matrix", default=None, help="write the assembled matrix as CSV")
    common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("sweep", help="spectrum across a parameter range")
    _add_family_options(p)
    p.add_argument("--n", type=int, default=None, help="default 80")
    p.add_argument("--dim-total", type=int, default=None)
    p.add_argument("--kernel-tol", type=float, default=None)
    p.add_argument("--n-eigs", type=int, default=4)
    p.add_argument("--param", required=True)
    p.add_argument("--values", required=True, help="v1,v2,... or a:b:step")
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("table", help="named benchmark presets")
    p.add_argument("--preset", required=True)
    p.add_argument("--n-eigs", type=int, default=4)
    common(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("residual", help="stationary and evolution-equation residuals")
    _add_family_options(p)
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--grid-lo", type=float, default=None, help="line families only; default -10")
    p.add_argument("--grid-hi", type=float, default=None, help="line families only; default 10")
    p.add_argument("--grid-points", type=int, default=200)
    p.add_argument("--a", type=float, default=None,
                   help="first variational constant (kink): any value is admissible; default 0")
    p.add_argument("--b", type=float, default=None,
                   help="second variational constant (kink): admissible only at "
                        "b = 2v(a - (3+v^2)/(4(1-v^2))), the default; b = 0 when static")
    common(p)
    p.set_defaults(func=cmd_residual)

    p = sub.add_parser("conserved", help="conserved-functional values over time")
    _add_family_options(p)
    p.add_argument("--kind", required=True,
                   choices=["mass", "energy", "momentum", "f", "lyapunov"])
    p.add_argument("--times", default="0,1,2")
    common(p)
    p.set_defaults(func=cmd_conserved)

    p = sub.add_parser("stability", help="periodic-breather stability diagnostics over k")
    p.add_argument("--beta", type=float, default=DEFAULT_BETA)
    p.add_argument("--k", required=True, help="k values: v1,v2,... or a:b:step")
    common(p)
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("backlund", help="construct the nonzero-mean breather and verify it")
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--c1", type=float, required=True)
    p.add_argument("--c2", type=float, default=None)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_backlund)

    return parser


# mallopt(3) parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.lru_cache(maxsize=None)
def _retain_heap() -> None:
    """Keep freed heap for reuse, once per process (see the module docstring).

    Setting either threshold switches off glibc's dynamic adjustment of both,
    so both are set: the mmap threshold at glibc's 64-bit ceiling
    (DEFAULT_MMAP_THRESHOLD_MAX, 32 MiB) and the trim threshold at twice it,
    as the dynamic rule would.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        mallopt(_M_TRIM_THRESHOLD, 64 << 20)
    except (OSError, AttributeError, TypeError):
        pass


def main(argv=None) -> int:
    _retain_heap()
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # an overflow or invalid operation raises FloatingPointError, an
        # ArithmeticError, instead of printing a warning and going on
        with np.errstate(over="raise", invalid="raise"):
            if args.config:
                # argparse keeps the last value of a flag, so the command line wins
                args = parser.parse_args(argv[:1] + _config_tokens(args.config) + argv[1:])
            return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (QuadratureError, AssemblyError, ArithmeticError) as err:
        print(f"numerical-quality failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
