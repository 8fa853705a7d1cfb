"""Galerkin projection of the linearized operators and spectral classification.

The matrix is the quadrature of the literal application of the operator,
never a pre-symmetrized form: slot block (i, j) of M is the sum over the
nodes of w f L_ij[f], where L_ij sums the terms of row slot i and column
slot j in ``op.terms(op.coefficients(x))``, the operator's only statement.

On the line (Hermite basis, trapezoid nodes on a window [-X, X] centred on
0, at whose edge every basis function and derivative is below 1e-23) the sum
is folded onto x >= 0 by parity, f_k^(r)(-x) = (-1)^(k + r) f_k^(r)(x).  Each
slot block's terms become one (orders, nodes) coefficient array, a constant
broadcast and an absent order zero, evaluated once per assembly on the
nonnegative nodes and their exact negatives.  Over blocks of
``quadrature.NODE_BLOCK`` nonnegative nodes, one ``einsum`` contracts the
basis derivative stack, one (orders, size, nodes) array built from f_0..f_n
alone (f' by the lowering relation, the higher orders by the Hermite
equation), with the coefficients at x, and one with those at -x times
(-1)^r; the even rows' product with the sum of the two images and the odd
rows' with their difference then add the block, at half the flops of one
product over x and -x.  Problems that share a basis and a plan (the rows of a
sweep) share each node block's stack: ``assemble_all`` builds it once and
adds each problem's block sum to its own matrix, in the order that problem
alone would add it.  On the torus the trapezoid rule on N uniform nodes is a
discrete Fourier transform, so the cos/sin matrix is read off the
coefficients' transforms c^ = fft(c) / N, with no complex matrix and no
change of basis: each grid term reads c^ at the Toeplitz index p - q and the
Hankel index p + q of the modes' frequencies, whose real and imaginary parts
give the cos and the sin rows, a derivative of order r scales column q by
+-w_q^r (and trades cos_q for sin_q when r is odd), and a constant is the
grid whose transform is c at index 0.
So this is exactly the trapezoid sum of the literal application, aliasing
included.

The asymmetry of M, measured before symmetrization, is a genuine quality
metric for the operator coefficients (on the torus it still tests c1 = c2')
and the quadrature.  Assembly runs at two node densities; the entry drift
between them is reported and must stay below ``quadrature.DRIFT_TOL`` = 1e-9
for a healthy run.  On both bases the trapezoid levels are nested (the N
nodes are every other one of the 2N, bitwise), so each node is evaluated
once, on the 2N nodes: on the torus the N-node sum reads every other
coefficient value, and on the line the fold of the even nodes, at the fine
weight, is half the N-node matrix and the folds of the even and the odd
nodes add to the 2N-node one.  A torus assembly sizes itself: it starts at
the fewest nodes at which p - q never wraps and doubles N, evaluating only
the new nodes, while the drift stays above ``quadrature.ROUNDING_DRIFT``; at
``quadrature.MAX_NODES`` the 1e-9 gate decides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import quadrature
from .quadrature import DRIFT_TOL, ROUNDING_DRIFT, TrapezoidPlan, doubling_levels
from .specfun import FourierBasis, HermiteBasis

ASYMMETRY_FLAG = 1e-6
# Highest derivative order in the basis stack: the operators are of fourth order
STACK_ORDERS = 4
# Hermite node counts are rounded up to a multiple of this: see default_hermite_plan
NODE_STEP = 64
# Largest matrix dimension a problem may have.  The presets and the tests go
# up to 600 (n = 300 on the two-slot sine-Gordon operator).  At the bound a
# `spectrum` process peaks at 80 MB on the torus (kksh, n = 511), and on the
# line at 125 MB for mkdv (n = 1023) and 74 MB for sg (n = 511 per slot).  A
# larger problem is refused before any node or matrix is made.
MAX_DIM = 1024


class AssemblyError(RuntimeError):
    """Raised when asymmetry or quadrature drift exceeds the quality gates."""


@dataclass(frozen=True)
class GalerkinProblem:
    operator: object
    basis: object
    plan: object

    def __post_init__(self):
        if self.dim > MAX_DIM:
            raise ValueError(f"the Galerkin matrix would have dimension {self.dim}, more than the {MAX_DIM} allowed")

    @property
    def dim(self) -> int:
        """Matrix dimension: the basis size, once per slot of the operator."""
        return self.operator.slots * self.basis.size


def default_hermite_plan(operator, n_basis: int) -> TrapezoidPlan:
    """Trapezoid nodes on the window [-X, X) of the basis, centred on 0 (the
    assembly folds it by parity), at a step from the three scales of
    w f_i L[f_j].

    Every term carries a basis function, so X = sqrt(2(n + 5)) + 8: the
    stack reads f_0..f_n, whose outer turning point is sqrt(2n + 1), and
    both the five extra indices and the Gaussian-tail 8 are margin.  At X
    every stacked |f_k^(r)| is at most 9.8e-24 (at n = 0) and below 6e-24
    for 1 <= n <= 300; a window of sqrt(2n + 1) + 8 would leave 1.2e-14 at
    n = 0 and 8.3e-22 at n = 10.  So the truncated rule acts as a periodic
    one and converges geometrically.  The coarse step is H = 2 pi / K with
    K = 2X (the basis pair's band: Hermite functions are their own Fourier
    transforms) + 6k (the potential's harmonics) + 48 decay_rate (the
    profile's complex singularities lie pi / (2 decay_rate) off the line;
    for mKdV at alpha 0.2, beta 3, n 40 a strip term of 40 decay_rate leaves
    a drift of 1.3e-12, and 48 one of 6e-15).  N = 2X / H is rounded up to a
    multiple of NODE_STEP, so that the rows of a sweep, whose scales move a
    little, share one plan and so one stack per node block.
    """
    fam = operator.family
    half_width = math.sqrt(2.0 * (n_basis + 5)) + 8.0
    band = 2.0 * half_width + 6.0 * fam.wavenumber + 48.0 * fam.decay_rate
    n_nodes = NODE_STEP * math.ceil(half_width * band / (math.pi * NODE_STEP))
    return TrapezoidPlan(2.0 * half_width, n_nodes, start=-half_width)


def hermite_problem(operator, n_max: int) -> GalerkinProblem:
    """Problem over Hermite functions f_0..f_{n_max}."""
    return GalerkinProblem(operator, HermiteBasis(count=n_max + 1), default_hermite_plan(operator, n_max))


def fourier_problem(operator, n_max: int) -> GalerkinProblem:
    """Problem over the 2 n_max + 1 trig functions on the operator's period.

    Its plan is where the assembly starts: the fewest trapezoid nodes, a
    power of two (and at least 8), at which the index p - q of the
    coefficients' transforms never wraps, N > 4 n_max.  The assembly doubles
    N from there until the node-doubling drift reaches rounding
    (``_settled_torus``)."""
    period = operator.family.period
    n_nodes = max(8, 1 << (4 * n_max).bit_length())
    return GalerkinProblem(operator, FourierBasis(period=period, count_n=n_max), TrapezoidPlan(period, n_nodes))


@dataclass(frozen=True)
class AssembledMatrix:
    matrix: np.ndarray  # symmetrized
    asymmetry: float    # max |M - M^T| before symmetrization, relative to max |entry|
    drift: float        # max entry change under node doubling, relative to max |entry|
    nodes: int = 0      # trapezoid nodes of the accepted (fine) level

    def require_quality(self):
        if not (self.asymmetry <= ASYMMETRY_FLAG):
            raise AssemblyError(f"matrix asymmetry {self.asymmetry:.3e} flags an operator or quadrature bug")
        if not (self.drift <= DRIFT_TOL):
            raise AssemblyError(f"assembly drift {self.drift:.3e} under node doubling")


def _folded_nodes(plan) -> tuple[np.ndarray, np.ndarray, int]:
    """(x, w, split): the nonnegative nodes of the even fine nodes, then
    those of the odd ones (from ``split`` on), with their weights.

    Fine node j of a window [-X, X) centred on 0 is x_j = -X + j h, for
    j = 0..2N - 1, and its mirror is node 2N - j, of the same parity.  So
    each half is its nodes 0, x_{N+1}..x_{2N-1} and X (x_N is 0 up to an
    ulp of X) and their exact negatives, which the nodes x_j, j < N, miss by
    up to an ulp of X.  The nodes 0 and X carry half the fine weight on each
    side: the sum is the classical trapezoid rule on [-X, X], which moves
    half the weight of the periodic rule's node -X to X, where every stacked
    value is below 1e-23."""
    if plan.start != -0.5 * plan.period:
        raise ValueError(f"a Hermite plan must be centred on 0, this one starts at {plan.start}")
    n = plan.n_nodes
    x, w = plan.nodes_weights(2)
    x, w = np.append(x[n:], -x[0]), np.append(w[n:], w[0])
    x[0] = 0.0
    w[0] *= 0.5
    w[n] *= 0.5
    # node n + m is even when m = n mod 2
    order = np.concatenate([np.arange(n % 2, n + 1, 2), np.arange(1 - n % 2, n + 1, 2)])
    return x[order], w[order], n // 2 + 1


def _mirrored_coefficients(op, x) -> dict:
    """Each slot block's coefficient array (``_block_coefficients``) at the
    nodes x and at -x, from one evaluation, as one (top + 1, 2, x.size)
    array: [r, 0] at x, and [r, 1] at -x times (-1)^r, the sign that an
    r-th derivative takes under x -> -x."""
    coefs = {}
    for key, c in _block_coefficients(op.terms(op.coefficients(np.concatenate([x, -x]))), 2 * x.size).items():
        coefs[key] = c = c.reshape(len(c), 2, x.size)
        c[1::2, 1] *= -1.0
    return coefs


def _fold(problems, coefs, x, w, start: int, stop: int) -> list[np.ndarray]:
    """Slot block (i, j) of each M summed over the nodes x[start:stop] >= 0
    and their negatives, for problems that share one basis, from the basis
    stack at x alone.

    f_k^(r)(-x) = (-1)^(k + r) f_k^(r)(x), so the contraction of the stack
    with the coefficients at -x times (-1)^r (``_mirrored_coefficients``) is
    (-1)^k g_k(-x), where g_k = L_ij f_k, and the sum over x and -x of
    w f_k g_l is that over x of w f_k (g_l(x) + (-1)^k g_l(-x)): the even
    rows take the sum of the images and the odd rows their difference.
    Each node block's stack is built once, and each matrix gets the same
    sum, in the same order, as it would alone."""
    basis = problems[0].basis
    n = basis.size
    mats = [np.zeros((p.dim, p.dim)) for p in problems]
    step = quadrature.NODE_BLOCK
    for lo in range(start, stop, step):
        hi = min(lo + step, stop)
        stack = basis.stack(x[lo:hi], STACK_ORDERS)
        rows = stack[0] * w[lo:hi]
        image, mirror = np.empty_like(rows), np.empty_like(rows)
        for blocks, m in zip(coefs, mats):
            for (i, j), c in blocks.items():
                np.einsum("rnx,rx->nx", stack[:len(c)], c[:, 0, lo:hi], out=image)
                np.einsum("rnx,rx->nx", stack[:len(c)], c[:, 1, lo:hi], out=mirror)
                mirror[1::2] *= -1.0  # now the image at -x
                block = m[i * n:(i + 1) * n, j * n:(j + 1) * n]
                block[0::2] += rows[0::2] @ (image + mirror).T
                block[1::2] += rows[1::2] @ (image - mirror).T
        del stack, rows, image, mirror  # freed before the next node block's stack is built
    return mats


def _block_coefficients(terms, n_nodes: int) -> dict:
    """Each slot block's terms as one (top + 1, n_nodes) array: row r sums the
    coefficients of derivative order r, a constant broadcast over the
    nodes, an order with no term zero."""
    tops: dict = {}
    for row, col, r, _ in terms:
        if r > STACK_ORDERS:
            raise ValueError(f"the basis stack holds derivatives up to order {STACK_ORDERS}, a term needs {r}")
        tops[row, col] = max(r, tops.get((row, col), 0))
    coefs = {key: np.zeros((top + 1, n_nodes)) for key, top in tops.items()}
    for row, col, r, c in terms:
        coefs[row, col][r] += c
    return coefs


def _project_torus(basis: FourierBasis, terms, n_nodes: int) -> np.ndarray:
    """The trapezoid sum of w f L[f] on ``n_nodes`` uniform nodes, read off
    the grids' transforms c^ = fft(c) / N.

    The cos_p and sin_p rows of column cos_q are the real part and minus the
    imaginary part of (2/L) int c e^{-i w_p x} d^r cos_q = A + B, and those
    of column sin_q the same parts of -i (A - B), where A = (i w_q)^r c^[p - q]
    and B = (-i w_q)^r c^[p + q] read the transform at the Toeplitz and the
    Hankel index, p, q = 0..n.  So an even order scales column q by
    +-w_q^r, and an odd one also trades cos_q for sin_q.  The constant mode
    cos_0 takes 1 / sqrt(2) in its row and in its column.  A constant c is
    the grid whose transform is c at index 0 alone: it lands on the diagonal
    (for odd r, on the cos/sin partner), and on its aliases when the level
    is too coarse for the basis.  Each slot block sums its terms in a fixed
    order, constants first, then the grids by ascending order (another order
    moves eigenvalues near 1e-9)."""
    n = basis.count_n
    omega = 2.0 * math.pi * np.arange(n + 1) / basis.period
    # c^ is read at -2n..2n, mod N so that a level too coarse for the basis aliases as the stack sum does
    index = np.arange(-2 * n, 2 * n + 1) % n_nodes
    # each slot is summed as [cos_0, sin_0, cos_1, sin_1, ...]; sin_0 = 0 is dropped at the end
    side = 2 * (n + 1)
    slots = 1 + max(row for row, *_ in terms)
    m = np.zeros((slots * side, slots * side))
    blocks: dict = {}
    for row, col, r, c in sorted(terms, key=lambda term: (np.ndim(term[3]) > 0, term[2])):
        blocks.setdefault((row, col), []).append((r, c))
    for (row, col), group in blocks.items():
        band = np.array([np.fft.fft(c)[index] / n_nodes if np.ndim(c) else np.where(index == 0, c, 0.0) + 0j
                         for _, c in group])
        windows = sliding_window_view(band, n + 1, axis=1)  # [t, i, j] reads c^ at i + j - 2n
        toeplitz, hankel = windows[:, n:2 * n + 1, ::-1], windows[:, 2 * n:]
        up = np.array([(1, 1j, -1, -1j)[r % 4] * omega**r for r, _ in group])  # (i w_q)^r
        a = np.einsum("tpq,tq->pq", toeplitz, up)
        b = np.einsum("tpq,tq->pq", hankel, up.conj())
        w_cos, w_sin = a + b, -1j * (a - b)
        block = m[row * side:(row + 1) * side, col * side:(col + 1) * side]
        block[0::2, 0::2] += w_cos.real
        block[1::2, 0::2] -= w_cos.imag
        block[0::2, 1::2] += w_sin.real
        block[1::2, 1::2] -= w_sin.imag
    sin_0 = np.arange(1, slots * side, side)
    m = np.delete(np.delete(m, sin_0, 0), sin_0, 1)
    cos_0 = np.arange(slots) * basis.size
    m[cos_0] *= math.sqrt(0.5)
    m[:, cos_0] *= math.sqrt(0.5)
    return m


def _settled_torus(problem) -> tuple[np.ndarray, np.ndarray, int]:
    """(coarse, fine, fine node count) of a torus problem: the plan doubles
    while the node-doubling drift stays above ROUNDING_DRIFT, up to
    MAX_NODES.  Each node is evaluated once: the first N-node sum reads every
    other coefficient value of the 2N nodes, and each doubling evaluates only
    its new nodes and keeps the last fine matrix as its coarse one."""
    basis, op = problem.basis, problem.operator
    fine = None
    for plan, terms in doubling_levels(problem.plan, lambda x: op.terms(op.coefficients(x))):
        if fine is None:
            fine = _project_torus(basis, [(i, j, r, c[::2] if np.ndim(c) else c) for i, j, r, c in terms],
                                  plan.n_nodes)
        coarse, fine = fine, _project_torus(basis, terms, 2 * plan.n_nodes)
        if not _drift(coarse, fine) > ROUNDING_DRIFT:  # a NaN stops too: the gates reject it
            break
    return coarse, fine, 2 * plan.n_nodes


def _levels(problems) -> list[tuple[np.ndarray, np.ndarray, int]]:
    """(coarse, fine, fine node count) of problems that share one basis and
    one plan.

    The N coarse trapezoid nodes are every other one of the 2N fine ones,
    so each node is evaluated once, on the 2N nodes.  On the line each
    problem's coefficients are evaluated once, on the nonnegative nodes of
    both halves and their negatives (``_folded_nodes``), and each half is
    summed from the basis stack on its nonnegative nodes (``_fold``)."""
    if isinstance(problems[0].basis, FourierBasis):
        return [_settled_torus(problem) for problem in problems]
    plan = problems[0].plan
    x, w, split = _folded_nodes(plan)
    coefs = [_mirrored_coefficients(problem.operator, x) for problem in problems]
    # at the fine weight the even nodes sum to half the coarse matrix,
    # bitwise: the coarse weight is twice the fine one, and scaling by 2 is exact
    even, odd = _fold(problems, coefs, x, w, 0, split), _fold(problems, coefs, x, w, split, x.size)
    return [(2.0 * e, e + o, 2 * plan.n_nodes) for e, o in zip(even, odd)]


def _scale(matrix: np.ndarray) -> float:
    return max(1.0, float(np.max(np.abs(matrix))))


def _drift(coarse: np.ndarray, fine: np.ndarray) -> float:
    """Largest entry change between the levels, relative to max |entry|."""
    return float(np.max(np.abs(fine - coarse))) / _scale(fine)


def _assembled(coarse: np.ndarray, fine: np.ndarray, nodes: int) -> AssembledMatrix:
    """The fine matrix symmetrized, with its asymmetry and the drift from the coarse one."""
    asymmetry = float(np.max(np.abs(fine - fine.T))) / _scale(fine)
    return AssembledMatrix(matrix=0.5 * (fine + fine.T), asymmetry=asymmetry, drift=_drift(coarse, fine),
                           nodes=nodes)


def assemble_all(problems) -> list[AssembledMatrix]:
    """Dense projected matrices, in the order of ``problems``.

    Problems that share a basis and a plan (the rows of a line sweep) are
    assembled together, sharing each node block's basis stack; each group
    is finished before the next one starts.
    """
    groups: dict = {}
    for i, problem in enumerate(problems):
        groups.setdefault((problem.basis, problem.plan), []).append(i)
    out = [None] * len(problems)
    for members in groups.values():
        for i, levels in zip(members, _levels([problems[i] for i in members])):
            out[i] = _assembled(*levels)
            out[i].require_quality()
    return out


def assemble(problem: GalerkinProblem) -> AssembledMatrix:
    """Dense projected matrix, symmetrized after the asymmetry is recorded."""
    return assemble_all([problem])[0]


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
    max residual ||M v - lambda v|| is verified against 1e-9 ||M||.  A NaN
    or infinite entry raises ArithmeticError: LAPACK would return numbers.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(m)):
        raise ArithmeticError("matrix has non-finite entries")
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


DEFAULT_KERNEL_TOL = {HermiteBasis: 0.1, FourierBasis: 1e-5}


def _check_kernel_tol(kernel_tol: float) -> None:
    if not 0.0 < kernel_tol < math.inf:
        raise ValueError(f"kernel tolerance must be positive and finite, got {kernel_tol}")


def classify(spectrum: Spectrum, kernel_tol: float) -> Classification:
    """Split the spectrum into negative part, numerical kernel and gap."""
    _check_kernel_tol(kernel_tol)
    vals = spectrum.values
    if not np.all(np.isfinite(vals)):
        raise ArithmeticError("spectrum has non-finite values")
    n_neg = int(np.sum(vals < -kernel_tol))
    kernel = int(np.sum(np.abs(vals) <= kernel_tol))
    above = vals[vals > kernel_tol]
    gap = float(above[0]) if above.size else math.inf
    return Classification(n_neg=n_neg, kernel_dim=kernel, gap=gap)


def solve_problems(problems, kernel_tol: Optional[float] = None) -> list:
    """Assemble (as ``assemble_all``), diagonalize and classify each problem."""
    if kernel_tol is not None:
        _check_kernel_tol(kernel_tol)  # before any assembly
    results = []
    for problem, assembled in zip(problems, assemble_all(problems)):
        spectrum = eig_sym(assembled.matrix)
        tol = DEFAULT_KERNEL_TOL[type(problem.basis)] if kernel_tol is None else kernel_tol
        results.append((assembled, spectrum, classify(spectrum, tol)))
    return results


def solve_problem(problem: GalerkinProblem, kernel_tol: Optional[float] = None):
    """Assemble, diagonalize and classify in one step."""
    return solve_problems([problem], kernel_tol)[0]


def matrix_csv(assembled: AssembledMatrix, n_basis: int, family_tag: str) -> str:
    """Row-major CSV dump of the assembled matrix for external cross-checks."""
    lines = [f"# galerkin N={n_basis} family={family_tag}"]
    for row in assembled.matrix:
        lines.append(",".join(repr(v) for v in row))
    return "\n".join(lines) + "\n"
