"""Trapezoid quadrature plans for line and torus integrals.

Every integral uses the trapezoid rule on N uniform nodes (``TrapezoidPlan``):
on the torus from 0, and on a line window, past whose ends the integrand is
negligible, from the window's left end.  It converges geometrically once N
covers the bandwidth of the integrand (Trefethen and Weideman, SIAM Rev. 56
(2014) 385), and its N nodes are every other one of its 2N, bitwise.
``window_plan`` sizes a line window from the profile's decay rate and the
integrand's top harmonic.  ``checked_integral`` evaluates the integrand once,
on the 2N nodes, and reads the N-node value from the even ones: the drift
between the two levels must stay below a relative 1e-9 or the result is
rejected.  No plan has a default size, and none may exceed ``MAX_NODES``.
A torus sum sizes itself instead: ``doubling_levels`` evaluates its grids on
nested levels, each node once, and the sum stops at the first level whose
node-doubling drift is at ``ROUNDING_DRIFT`` of its rounding scale (a
``checked_integral`` on a plan that settles, or a torus Galerkin matrix), or
at ``MAX_NODES``, where the sum's own drift gate decides.  Every grid of
``doubling_levels``, and so of every ``checked_integral``, is evaluated in
the fewest near-equal blocks of at most ``NODE_BLOCK`` nodes and joined in
node order: the evaluators are pointwise, so the grids are those of one
evaluation on all the nodes, bitwise, while the jets behind them are held
for one block at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

DRIFT_TOL = 1e-9
# Most nodes a plan may hold.  The sine-Gordon functionals at (beta, v) =
# (0.5, 0.999999) take 108,497.  At this bound, with grids evaluated in
# ``NODE_BLOCK`` blocks, a process peaks near 55 MB in a line functional (sg
# F at v = 0.9999998295516412), 59 MB in a torus functional that doubles up
# to it (KKSH F at k = 1e-5, x1 = 0.3) and 54 MB in the Weinstein pairing
# (beta 0.5, v = 0.9999999242451595); in one block they took 0.26, 0.32 and
# 0.46 GB.  A larger plan is refused before any node is made, and a torus
# sum that doubles to the bound stops there.
MAX_NODES = 1 << 18
# Most nodes one block of work holds.  ``doubling_levels`` calls its
# evaluator on blocks of at most this many nodes, so every
# ``checked_integral`` and every self-sizing torus sum holds the jets of one
# block at a time: a degree-2 jet on 1024 nodes is 72 KiB, below glibc's
# default 128 KiB mmap threshold.  The Hermite line fold stacks this many
# nonnegative nodes per block (x and -x together, 2 NODE_BLOCK nodes): a
# block holds its basis stack (a (5, size, NODE_BLOCK) array), the weighted
# values and one slot block's two images, so the block size bounds assembly
# memory: mKdV at n = 160 (1792 fine nodes, summed as two halves of 449 and
# 448 nonnegative nodes, one block each) peaks at 5.5 MiB of Python
# allocations, and at 3.4 MiB at NODE_BLOCK = 256.
NODE_BLOCK = 1024

# Node-doubling drift below which a self-sizing torus sum stops doubling:
# 64 eps of its rounding scale (max |entry| of a Galerkin matrix, the
# integral of |density| for a functional).  Converged levels read up to
# 6 eps on KKSH matrices and 24 eps on the nonzero-mean densities.
ROUNDING_DRIFT = 2.0**-46


class QuadratureError(RuntimeError):
    """Raised when node doubling moves an integral by more than the tolerance."""


@dataclass(frozen=True)
class TrapezoidPlan:
    """Periodic trapezoid rule on [start, start + period): equal weights,
    uniform nodes.  The torus starts at 0; a line window whose integrands
    vanish to rounding at both ends is a torus that starts at its left end.
    A plan that settles (a torus functional's) is only the level where
    ``checked_integral`` starts doubling."""

    period: float
    n_nodes: int
    start: float = 0.0
    settle: bool = False

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError("period must be positive")
        if self.n_nodes < 8:
            raise ValueError("need at least 8 nodes")
        if self.n_nodes > MAX_NODES:
            raise ValueError(
                f"the quadrature plan needs {self.n_nodes} nodes, more than the {MAX_NODES} allowed"
            )

    def nodes_weights(self, refine: int = 1):
        n = self.n_nodes * refine
        x = self.start + np.arange(n) * (self.period / n)
        w = np.full(n, self.period / n)
        return x, w


def window_plan(family, harmonic: float, t: float = 0.0) -> TrapezoidPlan:
    """The window [c - 20/b, c + 20/b) about the envelope centre c at time t,
    where b is the decay rate and a quadratic density is down by e^-40, for
    an integrand whose top harmonic is ``harmonic``.  The coarse step is
    2 pi / K with K = 2 harmonic + 72 b: the profile's complex singularities
    lie pi / (2 b) off the line, and at 48 b instead of 72 b Gardner's F at
    mu = 1 drifts by 9.5e-7."""
    b = family.decay_rate
    band = 2.0 * harmonic + 72.0 * b
    n_nodes = max(8, math.ceil(20.0 * band / (math.pi * b)))
    return TrapezoidPlan(40.0 / b, n_nodes, start=family.envelope_center(t) - 20.0 / b)


def checked_integral(f, plan):
    """Integrate f(x) with the plan and verify stability under node doubling.

    f is evaluated once on each node, on the 2N nodes.  A plan that settles
    doubles, evaluating only the new nodes (``doubling_levels``), while the
    2N- and N-node values differ by more than ROUNDING_DRIFT of the integral
    of |f| (at least 1), the scale of the sum's own rounding, up to
    ``MAX_NODES``.  Returns ``(value, drift)``: the last level's 2N-node
    value and its change from the N-node one, which is twice the even-node
    sum (the coarse weight is twice the fine one, and scaling by 2 is
    exact), relative to max(|values|, 1).  Raises QuadratureError if the
    drift exceeds DRIFT_TOL.
    """
    for plan, y in doubling_levels(plan, f):
        _, w = plan.nodes_weights(2)
        fine, coarse = float(np.dot(w, y)), 2.0 * float(np.dot(w[::2], y[::2]))
        # a NaN stops too: the gate below rejects it
        if not (plan.settle and abs(fine - coarse) > ROUNDING_DRIFT * max(float(np.dot(w, np.abs(y))), 1.0)):
            break
    drift = abs(fine - coarse) / max(abs(coarse), abs(fine), 1.0)
    if not (drift <= DRIFT_TOL):
        raise QuadratureError(
            f"quadrature not converged: node doubling moved the integral by {drift:.3e}"
        )
    return fine, drift


def _interleave(even, odd):
    """The grids of a doubled level from those of its even and odd nodes:
    arrays interleave, and everything else (constants, labels) is kept, in
    the same nesting of tuples and lists."""
    if isinstance(even, (tuple, list)):
        return type(even)(_interleave(e, o) for e, o in zip(even, odd))
    if np.ndim(even) == 0:
        return even
    out = np.empty(2 * even.size, dtype=np.result_type(even, odd))
    out[::2], out[1::2] = even, odd
    return out


def _joined(parts):
    """The grids of consecutive node blocks joined in node order: arrays
    concatenate, and everything else is kept from the first block, in the
    same nesting of tuples and lists."""
    first = parts[0]
    if len(parts) == 1:
        return first
    if isinstance(first, (tuple, list)):
        return type(first)(_joined(p) for p in zip(*parts))
    if np.ndim(first) == 0:
        return first
    return np.concatenate(parts)


def _blocked(evaluate, x):
    """``evaluate`` on the fewest near-equal blocks of at most ``NODE_BLOCK``
    of the nodes x, joined in node order."""
    return _joined([evaluate(part) for part in np.array_split(x, -(-x.size // NODE_BLOCK))])


def doubling_levels(plan, evaluate):
    """Yield ``(plan, grids)`` for ``plan`` and each doubling of it, up to
    ``MAX_NODES``, where grids is ``evaluate`` on the plan's 2N nodes.

    Each node is evaluated once: the 2N nodes of a plan are the even ones of
    the next plan's 4N, bitwise, so a doubled level evaluates only its odd
    nodes.  ``evaluate`` is called on blocks of at most ``NODE_BLOCK``
    nodes, so it must be pointwise; it returns an array, or tuples and lists
    of arrays among values that do not depend on the nodes.  The next level
    is made only when the caller asks for it.
    """
    x, _ = plan.nodes_weights(2)
    grids = _blocked(evaluate, x)
    while True:
        yield plan, grids
        if plan.n_nodes >= MAX_NODES:
            return
        plan = replace(plan, n_nodes=2 * plan.n_nodes)
        x, _ = plan.nodes_weights(2)
        grids = _interleave(grids, _blocked(evaluate, x[1::2]))
