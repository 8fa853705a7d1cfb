"""Galerkin projection of the linearized operators and spectral classification.

The matrix is the quadrature of the literal application of the operator,
never a pre-symmetrized form: M_ij = sum over the nodes of w f_i op.apply(f_j).
Each operator's formula lives only in ``linops``.

On the line (Hermite basis, Gauss-Legendre panels) ``op.apply`` runs on the
whole basis derivative stack, over fixed blocks of nodes.  On the torus the
trapezoid rule on N uniform nodes is a discrete Fourier transform, so the
same sum is formed from transforms: in the complex basis e^{i w_p x},

    M_pq = sum over r of c^_r[(p - q) mod N] (i w_q)^r,   c^_r = fft(c_r) / N,

with c_4 = 1 (so its part is w_q^4 on the diagonal, aliased where
p - q = 0 mod N), and the real basis follows by a fixed unitary change of
basis.  The c_r are the list ``op.coefficients`` returns, the same list
``op.apply`` sums, so this is exactly the trapezoid sum of the literal
application, aliasing included, without building the basis stack.

The asymmetry of M, measured before symmetrization, is a genuine quality
metric for the operator coefficients (on the torus it still tests
c1 = c2') and the quadrature.  Assembly runs at two node densities; the
entry drift between them is reported and must stay below 1e-9 for a healthy
run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linops import SgBlockOperator
from .quadrature import LinePlan, TorusPlan, panel_order
from .specfun import FourierBasis, HermiteBasis

ASYMMETRY_FLAG = 1e-6
DRIFT_FLAG = 1e-9
# Nodes per assembly block.  A block holds its basis stack (five (size, nodes)
# arrays) and the operator applied to it, so the block size bounds assembly
# memory: mKdV at n = 160 (3150 nodes at the finer level) peaks at 23 MiB with
# 2048-node blocks and at 32 MiB with the whole grid at once.
NODE_BLOCK = 2048


class AssemblyError(RuntimeError):
    """Raised when asymmetry or quadrature drift exceeds the quality gates."""


@dataclass(frozen=True)
class GalerkinProblem:
    operator: object
    basis: object
    plan: object

    @property
    def dim(self) -> int:
        """Matrix dimension: the basis size, once per slot of the operator."""
        return (2 if isinstance(self.operator, SgBlockOperator) else 1) * self.basis.size


def default_hermite_plan(operator, n_basis: int) -> LinePlan:
    """Window from the basis alone, panel order from both scales of w f_i L[f_j].

    Every term carries a basis function, so the half width is the turning
    point x_t = sqrt(2(n + 5)) of the stacked indices plus a Gaussian-tail
    margin of 8; there every stacked |f_k^(r)| is below 6e-24 for n <= 300.
    The wavenumber is the basis pair's 2 x_t plus the profile's 2 freq, or
    the potential's 6 freq where that is larger.
    """
    fam = operator.family
    freq = fam.osc_frequency
    turning = math.sqrt(2.0 * (n_basis + 5))
    wavenumber = max(2.0 * turning + 2.0 * freq, 6.0 * freq)
    return LinePlan(center=0.0, half_width=turning + 8.0, order=panel_order(wavenumber, fam.decay_rate))


def hermite_problem(operator, n_max: int) -> GalerkinProblem:
    """Problem over Hermite functions f_0..f_{n_max}."""
    return GalerkinProblem(operator, HermiteBasis(count=n_max + 1), default_hermite_plan(operator, n_max))


def fourier_problem(operator, n_max: int) -> GalerkinProblem:
    """Problem over the 2 n_max + 1 trig functions on the operator's period."""
    period = operator.family.period
    return GalerkinProblem(operator, FourierBasis(period=period, count_n=n_max), TorusPlan(period=period))


@dataclass(frozen=True)
class AssembledMatrix:
    matrix: np.ndarray  # symmetrized
    asymmetry: float    # max |M - M^T| before symmetrization, relative to max |entry|
    drift: float        # max entry change under node doubling, relative to max |entry|

    def require_quality(self):
        if not (self.asymmetry <= ASYMMETRY_FLAG):
            raise AssemblyError(f"matrix asymmetry {self.asymmetry:.3e} flags an operator or quadrature bug")
        if not (self.drift <= DRIFT_FLAG):
            raise AssemblyError(f"assembly drift {self.drift:.3e} under node doubling")


def _project(problem: GalerkinProblem, x, w) -> np.ndarray:
    """M_ij = sum over the nodes of w f_i op.apply(f_j), block by block."""
    op, basis = problem.operator, problem.basis
    block = isinstance(op, SgBlockOperator)
    m = np.zeros((problem.dim, problem.dim))
    for lo in range(0, x.size, NODE_BLOCK):
        xb = x[lo:lo + NODE_BLOCK]
        stack = basis.stack(xb, 4)
        rows = stack[0] * w[lo:lo + NODE_BLOCK]
        if block:
            c = op.coefficients(xb)
            zero = (0.0,) * 5
            z_rows = op.rows(c, stack, zero)
            w_rows = op.rows(c, zero, stack)
            m += np.block([[rows @ z_rows[0].T, rows @ w_rows[0].T],
                           [rows @ z_rows[1].T, rows @ w_rows[1].T]])
        else:
            m += rows @ op.apply(xb, stack).T
    return m


def _real_trig_change(count_n: int) -> np.ndarray:
    """Unitary T with [const, cos_1, sin_1, ...] = [e_-n, ..., e_n] T, where
    e_p = e^{i w_p x} / sqrt(L) and the rows run over p = -n..n."""
    t = np.zeros((2 * count_n + 1, 2 * count_n + 1), dtype=complex)
    t[count_n, 0] = 1.0
    h = math.sqrt(0.5)
    for k in range(1, count_n + 1):
        t[count_n + k, 2 * k - 1] = t[count_n - k, 2 * k - 1] = h
        t[count_n + k, 2 * k], t[count_n - k, 2 * k] = -1j * h, 1j * h
    return t


def _project_torus(problem: GalerkinProblem, x, w) -> np.ndarray:
    """The trapezoid sum of ``_project`` on a TorusPlan's N uniform nodes
    (weights w = L/N), formed from the FFTs of the coefficient grids."""
    op, basis = problem.operator, problem.basis
    n_nodes = x.size
    p = np.arange(-basis.count_n, basis.count_n + 1)
    omega = 2.0 * math.pi * p / basis.period
    wrap = (p[:, None] - p[None, :]) % n_nodes
    m = np.where(wrap == 0, omega**4, 0.0)
    for r, c in enumerate(op.coefficients(x)):
        m = m + (np.fft.fft(c) / n_nodes)[wrap] * (1j * omega) ** r
    t = _real_trig_change(basis.count_n)
    return (t.conj().T @ m @ t).real


def assemble(problem: GalerkinProblem, check_quality: bool = True) -> AssembledMatrix:
    """Dense projected matrix, symmetrized after the asymmetry is recorded."""
    project = _project_torus if isinstance(problem.basis, FourierBasis) else _project
    mats = [project(problem, *problem.plan.nodes_weights(refine)) for refine in (1, 2)]
    m = mats[1]
    scale = max(1.0, float(np.max(np.abs(m))))
    drift = float(np.max(np.abs(mats[1] - mats[0]))) / scale
    asymmetry = float(np.max(np.abs(m - m.T))) / scale
    out = AssembledMatrix(matrix=0.5 * (m + m.T), asymmetry=asymmetry, drift=drift)
    if check_quality:
        out.require_quality()
    return out


# ---------------------------------------------------------------------------
# symmetric eigensolve and classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Spectrum:
    values: np.ndarray
    vectors: Optional[np.ndarray] = None
    residual: float = 0.0

    def __post_init__(self):
        v = np.asarray(self.values)
        if np.any(np.diff(v) < 0):
            raise ValueError("eigenvalues must be sorted ascending")


def eig_sym(matrix: np.ndarray, vectors: bool = False) -> Spectrum:
    """Eigen-decomposition of a symmetric matrix, values ascending.

    Backed by the LAPACK symmetric solver; when vectors are requested the
    max residual ||M v - lambda v|| is verified against 1e-9 ||M||.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if float(np.max(np.abs(m - m.T))) > 1e-12 * max(1.0, float(np.max(np.abs(m)))):
        raise ValueError("matrix must be symmetric; symmetrize before solving")
    if not vectors:
        vals = np.linalg.eigvalsh(m)
        return Spectrum(values=vals)
    vals, vecs = np.linalg.eigh(m)
    resid = float(np.max(np.abs(m @ vecs - vecs * vals[None, :])))
    scale = float(np.linalg.norm(m, 2))
    if resid > 1e-9 * max(scale, 1.0):
        raise ArithmeticError(f"eigenpair residual {resid:.3e} exceeds 1e-9 ||M||")
    return Spectrum(values=vals, vectors=vecs, residual=resid)


@dataclass(frozen=True)
class Classification:
    n_neg: int
    kernel_dim: int
    gap: float
    kernel_tol: float


DEFAULT_KERNEL_TOL = {"hermite": 0.1, "fourier": 1e-5}


def classify(spectrum: Spectrum, kernel_tol: float) -> Classification:
    """Split the spectrum into negative part, numerical kernel and gap."""
    if not 0.0 < kernel_tol < math.inf:
        raise ValueError(f"kernel tolerance must be positive and finite, got {kernel_tol}")
    vals = spectrum.values
    n_neg = int(np.sum(vals < -kernel_tol))
    kernel = int(np.sum(np.abs(vals) <= kernel_tol))
    above = vals[vals > kernel_tol]
    gap = float(above[0]) if above.size else math.inf
    return Classification(n_neg=n_neg, kernel_dim=kernel, gap=gap, kernel_tol=kernel_tol)


def solve_problem(problem: GalerkinProblem, kernel_tol: Optional[float] = None):
    """Assemble, diagonalize and classify in one step."""
    assembled = assemble(problem)
    spectrum = eig_sym(assembled.matrix)
    if kernel_tol is None:
        key = "fourier" if isinstance(problem.basis, FourierBasis) else "hermite"
        kernel_tol = DEFAULT_KERNEL_TOL[key]
    return assembled, spectrum, classify(spectrum, kernel_tol)


def rayleigh_quotient(problem: GalerkinProblem, matrix: np.ndarray, values: np.ndarray) -> float:
    """Rayleigh quotient of a sampled field projected onto the basis."""
    x, w = problem.plan.nodes_weights(2)
    if len(values) != len(x):
        raise ValueError("sample the field on plan.nodes_weights(2) nodes")
    coeff = problem.basis.stack(x, 0)[0] @ (w * values)
    denom = float(coeff @ coeff)
    if isinstance(problem.operator, SgBlockOperator):
        raise ValueError("use the block variant for pair fields")
    return float(coeff @ matrix @ coeff) / denom


def matrix_csv(assembled: AssembledMatrix, n_basis: int, family_tag: str) -> str:
    """Row-major CSV dump of the assembled matrix for external cross-checks."""
    lines = [f"# galerkin N={n_basis} family={family_tag}"]
    for row in assembled.matrix:
        lines.append(",".join(repr(v) for v in row))
    return "\n".join(lines) + "\n"
