"""Batch command-line front end: named presets, free-form runs, CSV/JSON output.

Every run echoes its fully resolved configuration (including derived
constants) into '#'-prefixed header lines, making output files
self-describing and byte-reproducible.

Exit codes: 0 success, 2 parameter/validation failure, 3 numerical-quality
failure (quadrature drift, matrix asymmetry, eigensolver diagnostics, a
floating-point overflow or invalid operation anywhere in the run, or a NaN or
infinite residual or diagnostic about to be printed).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import breathers, functionals, galerkin, linops, stability
from .galerkin import AssemblyError
from .quadrature import QuadratureError


def fmt(x) -> str:
    """CSV number format: '.' decimal, scientific only for small magnitudes."""
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
        a, b, step = (float(s) for s in spec.split(":"))
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


# family parameters with no CLI default, and their types: a given one must
# name a field of the chosen family (kksh also takes m, to find its k)
_FAMILY_PARAMS = {"alpha": float, "mu": float, "k": float, "m": float, "c": float,
                  "c1": float, "c2": float, "p": int, "q": int}
# the scaling a family takes when --beta is not given
DEFAULT_BETA = 1.0


def _family_from_args(args) -> object:
    """The family named by ``args.family``, built from the attributes of
    ``args`` that name its dataclass fields; a None attribute is not given."""
    cls = breathers.FAMILIES[args.family]
    fields = dataclasses.fields(cls)
    takes = {f.name for f in fields} | ({"m"} if cls is breathers.KkshBreather else set())
    for name in _FAMILY_PARAMS:
        if getattr(args, name, None) is not None and name not in takes:
            raise ValueError(f"--{name} does not apply to --family {args.family}")
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
    """--n, or half of --dim-total, the size of sg's two-block matrix."""
    if args.dim_total is None:
        return args.n
    if args.family != "sg":
        raise ValueError(f"--dim-total applies to the sg family only, got --family {args.family}")
    if args.dim_total < 2 or args.dim_total % 2:
        raise ValueError(f"--dim-total must be even and at least 2, got {args.dim_total}")
    return args.dim_total // 2


def _family_config(family) -> dict:
    cfg = {"family": family.kind}
    for key in ("alpha", "beta", "mu", "v", "k", "m", "c", "c1", "c2", "p", "q", "x1", "x2"):
        if hasattr(family, key):
            val = getattr(family, key)
            cfg[key] = val
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


def _spectral_run(family, n: int, kernel_tol=None, t: float = 0.0, n_eigs=None):
    """Assemble, solve and classify; ``n_eigs``, when given, must not exceed
    the matrix dimension, so that every CSV row holds all its columns."""
    op = linops.operator_for(family, t)
    if family.kind == "sg":
        problem = galerkin.hermite_problem(op, n - 1)
    elif family.kind == "kksh":
        problem = galerkin.fourier_problem(op, n)
    else:
        problem = galerkin.hermite_problem(op, n)
    if n_eigs is not None and n_eigs > problem.dim:
        raise ValueError(f"--n-eigs {n_eigs} exceeds the matrix dimension {problem.dim}")
    assembled, spectrum, cls = galerkin.solve_problem(problem, kernel_tol=kernel_tol)
    return problem, assembled, spectrum, cls


def _spectrum_payload(family, n, assembled, spectrum, cls, n_eigs=None):
    vals = spectrum.values if n_eigs is None else spectrum.values[:n_eigs]
    cfg = _family_config(family)
    cfg["n"] = n
    nf = breathers.normal_form(family)
    cfg["x1_normal"] = nf.x1
    return {
        "config": {k: (float(v) if isinstance(v, (int, float, np.floating)) and k not in ("family",)
                       else v) for k, v in cfg.items()},
        "eigenvalues": [float(v) for v in vals],
        "classification": {
            "n_neg": cls.n_neg,
            "kernel_dim": cls.kernel_dim,
            "gap": None if math.isinf(cls.gap) else cls.gap,
        },
        "diagnostics": {"asymmetry": assembled.asymmetry, "quadrature_drift": assembled.drift},
    }


_EIG_HEADER = [
    "# columns: leading eigenvalues (ascending) of the projected linearized operator",
    "# n_neg / kernel_dim / gap: counts below -tol, within tol of zero, and first value above tol",
    "# asymmetry, drift: relative matrix asymmetry before symmetrization, node-doubling drift",
]


def cmd_spectrum(args) -> int:
    _check_n_eigs(args.n_eigs)
    family = _family_from_args(args)
    n = _basis_size(args)
    problem, assembled, spectrum, cls = _spectral_run(family, n, args.kernel_tol, args.t)
    payload = _spectrum_payload(family, n, assembled, spectrum, cls, args.n_eigs)
    if args.dump_matrix:
        tag = family.kind
        _write_text(args.dump_matrix, galerkin.matrix_csv(assembled, n, tag))
    if args.format == "json":
        _write_text(args.out, json.dumps(payload, sort_keys=True, indent=2) + "\n")
        return 0
    lines = _config_lines(payload["config"]) + _EIG_HEADER
    lines.append("eig_index,eigenvalue")
    for i, v in enumerate(payload["eigenvalues"]):
        lines.append(f"{i + 1},{fmt(v)}")
    c = payload["classification"]
    lines.append(f"# classification: n_neg={c['n_neg']} kernel_dim={c['kernel_dim']} gap={fmt(c['gap']) if c['gap'] is not None else 'inf'}")
    d = payload["diagnostics"]
    lines.append(f"# diagnostics: asymmetry={d['asymmetry']:.3e} quadrature_drift={d['quadrature_drift']:.3e}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _sweep_rows(base_args, param, values, n, kernel_tol, n_eigs):
    rows = []
    for val in values:
        args = argparse.Namespace(**vars(base_args))
        setattr(args, param, val)
        family = _family_from_args(args)
        _, assembled, spectrum, cls = _spectral_run(family, n, kernel_tol, n_eigs=n_eigs)
        rows.append((val, spectrum.values[:n_eigs], cls, assembled))
    return rows


def _sweep_csv(param, rows, cfg, n_eigs) -> str:
    lines = _config_lines(cfg) + _EIG_HEADER
    lines.append(param + "," + ",".join(f"eig{i + 1}" for i in range(n_eigs))
                 + ",n_neg,kernel_dim,gap,asymmetry,drift")
    for val, vals, cls, assembled in rows:
        gap = fmt(cls.gap) if not math.isinf(cls.gap) else "inf"
        lines.append(
            ",".join([fmt(val)] + [fmt(v) for v in vals])
            + f",{cls.n_neg},{cls.kernel_dim},{gap},{assembled.asymmetry:.3e},{assembled.drift:.3e}"
        )
    return "\n".join(lines) + "\n"


def cmd_sweep(args) -> int:
    _check_n_eigs(args.n_eigs)
    values = _parse_values(args.values)
    family = _family_from_args(args)
    # a field the CLI does not pass to the constructor would sweep nothing
    params = [f.name for f in dataclasses.fields(family) if hasattr(args, f.name)]
    if args.param not in params:
        raise ValueError(f"--param must be one of {params} for {args.family}, got {args.param!r}")
    n = _basis_size(args)
    rows = _sweep_rows(args, args.param, values, n, args.kernel_tol, args.n_eigs)
    cfg = _family_config(family)
    cfg.update({"n": n, "sweep": args.param})
    _write_text(args.out, _sweep_csv(args.param, rows, cfg, args.n_eigs))
    return 0


# ---------------------------------------------------------------------------
# table presets
# ---------------------------------------------------------------------------


def _preset_fig20_ks():
    return [0.058836240 + 2e-9 * i for i in range(7)]


PRESETS = {
    "fig2": dict(family="mkdv", beta=1.0, alpha=0.5, n=160, param="x1",
                 values=[0.09, 0.81, 1.53, 2.15, 3.14]),
    "fig4": dict(family="mkdv", beta=1.0, alpha=1.5, n=164, param="x1",
                 values=[0.0, 0.99, 1.57, 2.51, 3.14]),
    "fig8": dict(family="gardner", beta=1.0, alpha=0.5, mu=0.01, n=50, param="x1",
                 values=[round(-0.04 + 0.01 * i, 2) for i in range(9)]),
    "fig14-left": dict(family="sg", beta=0.5, x1=0.1, n=25, param="v",
                       values=[round(0.1 * i, 1) for i in range(8)]),
    "fig14-right": dict(family="sg", beta=0.8, v=0.7, n=25, param="x1",
                        values=[round(-0.4 + 0.1 * i, 1) for i in range(8)]),
    "fig20": dict(family="kksh", beta=1.0, x1=0.1, n=40, param="k", values=_preset_fig20_ks()),
    "fig22": dict(family="kksh", beta=1.0, x1=0.1, n=50, param="k",
                  values=[0.01, 0.02, 0.03, 0.04, 0.05]),
    "fig24": dict(family="kksh", beta=1.0, x1=0.1, n=50, param="k",
                  values=[0.0005 + 0.001 * i for i in range(10)]),
    "table-6-9": dict(family="kksh", beta=1.0, m=0.5, n=40, param=None, values=None),
}


def cmd_table(args) -> int:
    if args.preset not in PRESETS:
        raise ValueError(f"unknown preset {args.preset!r}; choose from {sorted(PRESETS)}")
    spec = argparse.Namespace(**PRESETS[args.preset])
    n_eigs = args.n_eigs
    _check_n_eigs(n_eigs)
    if spec.param is None:
        family = _family_from_args(spec)
        _, assembled, spectrum, cls = _spectral_run(family, spec.n)
        cfg = _family_config(family)
        cfg.update({"n": spec.n, "preset": args.preset})
        lines = _config_lines(cfg) + _EIG_HEADER
        lines.append("eig_index,eigenvalue")
        for i, v in enumerate(spectrum.values[:n_eigs]):
            lines.append(f"{i + 1},{fmt(v)}")
        _write_text(args.out, "\n".join(lines) + "\n")
        return 0
    rows = _sweep_rows(spec, spec.param, spec.values, spec.n, None, n_eigs)
    cfg = {"preset": args.preset, "family": spec.family, "n": spec.n}
    _write_text(args.out, _sweep_csv(spec.param, rows, cfg, n_eigs))
    return 0


# ---------------------------------------------------------------------------
# residual / conserved / stability / backlund
# ---------------------------------------------------------------------------


def cmd_residual(args) -> int:
    family = _family_from_args(args)
    if not math.isfinite(args.t):
        raise ValueError(f"--t must be finite, got {args.t}")
    if not (math.isfinite(args.grid_lo) and math.isfinite(args.grid_hi)):
        raise ValueError(
            f"--grid-lo and --grid-hi must be finite, got {args.grid_lo} and {args.grid_hi}"
        )
    if not args.grid_lo < args.grid_hi:
        raise ValueError(
            f"--grid-lo must lie below --grid-hi, got {args.grid_lo} and {args.grid_hi}"
        )
    if args.grid_points < 2:
        raise ValueError(f"--grid-points must be at least 2, got {args.grid_points}")
    if family.domain == "torus":
        x = np.linspace(0.0, family.period, args.grid_points, endpoint=False)
    else:
        lo, hi = args.grid_lo, args.grid_hi
        x = np.linspace(lo, hi, args.grid_points)
    ab = None
    if args.family == "sg-kink":
        b = family.admissible_b(args.a) if args.b is None else args.b
        if not (math.isfinite(args.a) and math.isfinite(b)):
            raise ValueError(f"--a and --b must be finite, got {args.a} and {b}")
        ab = (args.a, b)
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
    lines.append(stability.StabilityReport.CSV_COLUMNS)
    for rep in reports:
        lines.append(rep.csv_row(fmt=fmt))
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_backlund(args) -> int:
    if args.mu is None:
        if args.c2 is None:
            raise ValueError("backlund needs --mu or --c2")
        mu = breathers.solve_mean_level(args.c1, args.c2, args.p, args.q)
    else:
        mu = args.mu
    family = breathers.backlund_construct(mu, args.c1, args.p, args.q)
    rng = np.random.default_rng(7)
    xs = breathers._pole_free_points(family, 0.0, rng, 40)
    perm = float(np.max(np.abs(
        breathers.permutability_profile(family, 0.0, xs) - family.eval(0.0, xs, deg=1).value
    )))
    seed = breathers.backlund_seed_residual(family, 0.0, xs)
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
    p.add_argument("--beta", type=float, default=None, help=f"default {DEFAULT_BETA}")
    p.add_argument("--v", type=float, default=0.0)
    for name, kind in _FAMILY_PARAMS.items():
        p.add_argument(f"--{name}", type=kind, default=None)
    p.add_argument("--x1", type=float, default=0.0)
    p.add_argument("--x2", type=float, default=0.0)


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--n", type=int, default=80, help="basis cutoff (Hermite index / trig count)")
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
    p.add_argument("--n", type=int, default=80)
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
    p.add_argument("--grid-lo", type=float, default=-10.0)
    p.add_argument("--grid-hi", type=float, default=10.0)
    p.add_argument("--grid-points", type=int, default=200)
    p.add_argument("--a", type=float, default=0.0,
                   help="first variational constant (kink): any value is admissible")
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
    p.add_argument("--beta", type=float, default=1.0)
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


def main(argv=None) -> int:
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
