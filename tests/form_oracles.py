"""Quadratic-form oracles for the Galerkin matrices.

``applied_form`` is the route the matrices must reproduce: the weighted sum
over the nodes of each field times its row of the operator, applied by
``linops.apply`` to the fields' derivative grids.  ``rayleigh_quotient``
reads a sampled field's quotient off an assembled matrix.
``project`` is the plain stack sum over the nodes that the Galerkin
matrices take, on the line folded by parity and on the torus read off the
coefficients' transforms, and ``project_applied`` is its earlier form: each
column slot's terms applied by ``linops.apply`` to the basis stack, term by
term, and each row slot's image summed by its own product.
``jet_direction`` turns two jet-built perturbations into a direction
``x -> (z, w)`` of derivative grids, the form the identity checks take.
"""

import numpy as np

from breatherlab import galerkin as gk
from breatherlab import jets, linops, quadrature


def jet_direction(zf, wf):
    """The direction x -> (z, w) whose grids are the x-derivatives of orders
    0..2 of the jet callables zf and wf (position jet in, jet out)."""

    def grids(fun, x):
        jet = fun(jets.Jet2.variable(np.asarray(x, dtype=float), 0, deg=2))
        return tuple(jet.partial(i, 0) for i in range(3))

    return lambda x: (grids(zf, x), grids(wf, x))


def applied(op, x, *fields):
    """The operator's rows on the fields' derivative grids."""
    return linops.apply(op.terms(op.coefficients(x)), *fields)


def applied_form(op, x, w_quad, *fields):
    """sum over the nodes of w z_i (L z)_i, from ``linops.apply``."""
    images = applied(op, x, *fields)
    return float(np.dot(w_quad, sum(field[0] * image for field, image in zip(fields, images))))


def rayleigh_quotient(problem, matrix, values) -> float:
    """Rayleigh quotient of a scalar field sampled on ``plan.nodes_weights(2)``
    and projected onto the basis."""
    x, w = problem.plan.nodes_weights(2)
    if len(values) != len(x):
        raise ValueError("sample the field on plan.nodes_weights(2) nodes")
    if problem.operator.slots != 1:
        raise ValueError("one sampled field: the operator must have one slot")
    coeff = problem.basis.stack(x, 0)[0] @ (w * values)
    return float(coeff @ matrix @ coeff) / float(coeff @ coeff)


def project(problems, x, w):
    """Slot block (i, j) of each M as the plain sum over the nodes of
    w f (L_ij f), taken node block by node block, for problems that share
    one basis: each node block's stack is built once, and each slot block's
    terms are contracted with it in one ``einsum`` and added by one product
    with the weighted values."""
    basis = problems[0].basis
    n = basis.size
    mats = [np.zeros((p.dim, p.dim)) for p in problems]
    step = 2 * quadrature.NODE_BLOCK
    for lo in range(0, x.size, step):
        xb = x[lo:lo + step]
        stack = basis.stack(xb, gk.STACK_ORDERS)
        rows = stack[0] * w[lo:lo + step]
        image = np.empty_like(rows)
        for problem, m in zip(problems, mats):
            op = problem.operator
            for (i, j), coef in gk._block_coefficients(op.terms(op.coefficients(xb)), xb.size).items():
                np.einsum("rnx,rx->nx", stack[:len(coef)], coef, out=image)
                m[i * n:(i + 1) * n, j * n:(j + 1) * n] += rows @ image.T
    return mats


def project_applied(problems, x, w):
    """``project`` by ``linops.apply``: the same node blocks and the same
    weighted products, with each image summed term by term."""
    basis = problems[0].basis
    n = basis.size
    mats = [np.zeros((p.dim, p.dim)) for p in problems]
    step = 2 * quadrature.NODE_BLOCK
    for lo in range(0, x.size, step):
        xb = x[lo:lo + step]
        stack = basis.stack(xb, gk.STACK_ORDERS)
        rows = stack[0] * w[lo:lo + step]
        for problem, m in zip(problems, mats):
            op = problem.operator
            terms = op.terms(op.coefficients(xb))
            for j in range(op.slots):
                # column j's terms read the stack in slot j only
                for i, image in enumerate(linops.apply([t for t in terms if t[1] == j], *(stack,) * op.slots)):
                    m[i * n:(i + 1) * n, j * n:(j + 1) * n] += rows @ image.T
    return mats
