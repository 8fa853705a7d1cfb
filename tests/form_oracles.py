"""Quadratic-form oracles for the Galerkin matrices.

``applied_form`` is the route the matrices must reproduce: the weighted sum
over the nodes of each field times its row of the operator, applied by
``linops.apply`` to the fields' derivative grids.  ``rayleigh_quotient``
reads a sampled field's quotient off an assembled matrix.
"""

import numpy as np

from breatherlab import linops


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
