"""Regenerate bench/references.json, the references the benchmark checks against.

Run from the repository root:

    python3 bench/refs.py

It takes about ten seconds and needs scipy and pytest (for tests/fd_oracle.py).
Every value here is computed apart from the program's own solution path:

- line spectra: lambda_1 of each fig2 / fig4 / fig8 row from the banded
  finite-difference eigensolver in tests/fd_oracle.py;
- torus spectra: the leading four eigenvalues of each fig20 / fig22 / fig24 /
  table-6-9 row from a Fourier-collocation eigensolver (below) on the
  symmetric form z'''' + (c2 z')' + c0 z, with c0 and c2 taken from
  ``op.coefficients`` on a 128-point periodic grid;
- stability sweep: each row's locked modulus, scaling, period, mass,
  variational coefficients, D and HG from scipy's elliptic integrals and the
  exact k-derivatives at frozen m, plus the root of D;
- identity checks: the closed-form mass of the periodic breather.

The benchmark itself never imports scipy, so the measured process carries
only the program's own memory.
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np
from scipy.linalg import eigh
from scipy.optimize import brentq
from scipy.special import ellipe, ellipk

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))
sys.path.insert(0, os.path.join(HERE, "..", "tests"))

import workloads  # noqa: E402  (bench/ is on sys.path as the script's directory)

COLLOCATION_POINTS = 128


# ---------------------------------------------------------------------------
# periodic lock, mass and the exact frozen-m derivatives (scipy only)
# ---------------------------------------------------------------------------


def locked_m(k: float) -> float:
    """m solving 16 k K(k)^4 = (1 - m) K(m)^4."""
    target = 16.0 * k * ellipk(k) ** 4
    return brentq(lambda m: (1.0 - m) * ellipk(m) ** 4 - target, 1e-15, 1.0 - 1e-15,
                  xtol=1e-300, rtol=4.0 * np.finfo(float).eps, maxiter=500)


def locked_k(m: float) -> float:
    target = (1.0 - m) * ellipk(m) ** 4
    return brentq(lambda k: 16.0 * k * ellipk(k) ** 4 - target, 1e-18, 0.06,
                  xtol=1e-300, rtol=4.0 * np.finfo(float).eps, maxiter=500)


def kksh_mass(beta: float, k: float, m: float) -> float:
    Kk, Ek, Km, Em = ellipk(k), ellipe(k), ellipk(m), ellipe(m)
    return 4.0 * beta * (Em + 4.0 * (Kk / Km) * (Ek - Kk))


def stability_row(beta: float, k: float) -> dict:
    """Every numeric column of one stability row, with exact derivatives."""
    m = locked_m(k)
    Kk, Ek, Km = ellipk(k), ellipe(k), ellipk(m)
    alpha = beta * ((1.0 - m) / k) ** 0.25
    a2sq = alpha * alpha
    a4 = a2sq * a2sq
    a1 = 2.0 * (beta**2 * (2.0 - m) - a2sq * (1.0 + k))
    a2 = a4 * (1.0 + k * k - 26.0 * k) + 2.0 * a2sq * beta**2 * (2.0 - m) * (1.0 + k) + beta**4 * m * m
    mass = kksh_mass(beta, k, m)
    # k-derivatives at frozen m: d(alpha^2)/dk = -alpha^2/(2k), d(alpha^4)/dk = -alpha^4/k
    da2sq = -a2sq / (2.0 * k)
    da4 = -a4 / k
    da1_dk = -2.0 * (da2sq * (1.0 + k) + a2sq)
    da2_dk = (da4 * (1.0 + k * k - 26.0 * k) + a4 * (2.0 * k - 26.0)
              + 2.0 * beta**2 * (2.0 - m) * (da2sq * (1.0 + k) + a2sq))
    dK = (Ek - (1.0 - k) * Kk) / (2.0 * k * (1.0 - k))
    dE = (Ek - Kk) / (2.0 * k)
    dmass_dk = 16.0 * beta / Km * (dK * (Ek - Kk) + Kk * (dE - dK))
    # beta-homogeneity: a1 ~ beta^2, a2 ~ beta^4, mass ~ beta (m does not depend on beta)
    da1_db, da2_db, dmass_db = 2.0 * a1 / beta, 4.0 * a2 / beta, mass / beta
    d = da1_dk * da2_db - da2_dk * da1_db
    hg = (da1_dk * dmass_db - da1_db * dmass_dk) / d
    return {"m": m, "alpha": alpha, "L": 4.0 * Kk / alpha, "mass": mass,
            "a1": a1, "a2": a2, "D": d, "HG": hg}


def d_root(beta: float) -> float:
    return brentq(lambda k: stability_row(beta, k)["D"], 0.05, 0.058, xtol=1e-14)


# ---------------------------------------------------------------------------
# Fourier collocation on the torus
# ---------------------------------------------------------------------------


def fourier_d1(n: int, period: float) -> np.ndarray:
    """Skew-symmetric spectral first-derivative matrix on n equispaced points."""
    j = np.arange(n)
    diff = j[:, None] - j[None, :]
    with np.errstate(divide="ignore"):
        d1 = 0.5 * (-1.0) ** diff / np.tan(np.pi * diff / n)
    d1[diff == 0] = 0.0
    return d1 * (2.0 * np.pi / period)


def fourier_d4(n: int, period: float) -> np.ndarray:
    """Symmetric spectral fourth-derivative matrix (symbol xi^4, Nyquist kept)."""
    xi = 2.0 * np.pi / period * np.fft.fftfreq(n, 1.0 / n)
    return np.real(np.fft.ifft(np.fft.fft(np.eye(n), axis=0) * (xi**4)[:, None], axis=0))


def collocation_eigenvalues(family) -> np.ndarray:
    """Lowest four eigenvalues of the periodic operator by Fourier collocation."""
    from breatherlab import linops

    n = COLLOCATION_POINTS
    op = linops.operator_for(family)
    period = family.period
    x = np.arange(n) * (period / n)
    c0, _, c2 = op.coefficients(x)
    d1 = fourier_d1(n, period)
    d4 = fourier_d4(n, period)
    mat = d4 + d1 @ (c2[:, None] * d1) + np.diag(c0)
    mat = 0.5 * (mat + mat.T)
    return eigh(mat, eigvals_only=True, subset_by_index=(0, 3))


# ---------------------------------------------------------------------------
# assembly of the reference file
# ---------------------------------------------------------------------------


def line_refs() -> dict:
    import fd_oracle
    from breatherlab import breathers, linops

    out = {}
    for name, (alpha, beta) in workloads.LINE_SCALAR.items():
        rows = {}
        for x1 in workloads.LINE_PARAMS[name]:
            if name == "fig8":
                fam = breathers.GardnerBreather(alpha=alpha, beta=beta, mu=workloads.FIG8_MU, x1=x1)
            else:
                fam = breathers.MkdvBreather(alpha=alpha, beta=beta, x1=x1)
            rows[repr(x1)] = float(fd_oracle.lowest_eigenvalues(linops.operator_for(fam), 1)[0])
        out[name] = rows
    return out


def torus_refs() -> dict:
    from breatherlab import breathers

    out = {}
    kstar = brentq(lambda k: 16.0 * k * ellipk(k) ** 4 - (math.pi / 2.0) ** 4, 0.05, 0.06, xtol=1e-300)
    for name, values in workloads.TORUS_PARAMS.items():
        rows = {}
        for k in values:
            if not k < kstar:
                continue  # inadmissible: the program skips it too
            fam = breathers.KkshBreather(beta=1.0, k=k, x1=workloads.TORUS_X1)
            rows[repr(k)] = collocation_eigenvalues(fam).tolist()
        out[name] = rows
    k = locked_k(0.5)
    fam = breathers.KkshBreather(beta=1.0, k=k)
    out["table-6-9"] = {"k": k, "eigenvalues": collocation_eigenvalues(fam).tolist()}
    return out


def stability_refs() -> dict:
    out = {}
    for beta in workloads.STABILITY_BETAS:
        rows = {repr(k): stability_row(beta, k) for k in workloads.stability_ks()}
        out[repr(beta)] = {"rows": rows, "d_root": d_root(beta)}
    return out


def identity_refs() -> dict:
    beta, k = workloads.KKSH_MASS_CASE
    return {"kksh_mass": kksh_mass(beta, k, locked_m(k))}


def main() -> int:
    refs = {
        "spectra": {**line_refs(), **torus_refs()},
        "stability-sweep": stability_refs(),
        "identity-checks": identity_refs(),
    }
    path = os.path.join(HERE, "references.json")
    with open(path, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
