"""Self-check of the finite-difference oracle on the constant-coefficient operator."""

import numpy as np

import fd_oracle
from breatherlab import breathers as br


def test_zero_potential_box_approaches_edge_from_above():
    alpha, beta = 0.5, 1.0
    op = fd_oracle.FreeOperator(br.MkdvBreather(alpha=alpha, beta=beta))
    edge = fd_oracle.continuum_edge(alpha, beta)  # (alpha^2 + beta^2)^2 for alpha < beta

    # the hinged stencil is diagonal in the sine basis: exact box eigenvalues
    width, intervals = fd_oracle.HALF_WIDTH, fd_oracle.INTERVALS
    h = 2.0 * width / intervals
    s = 4.0 * np.sin(np.arange(1, 4) * np.pi / (2 * intervals)) ** 2 / h**2
    a1, a2 = op.family.a1a2
    closed = s**2 + a1 * s + a2
    box = fd_oracle.box_eigenvalues(op, 3, width, intervals)
    assert np.max(np.abs(box - closed)) <= 1e-6

    # the lowest box eigenvalue closes in on the edge from above: near xi = 0
    # the symbol is edge + a1 xi^2, and the lowest mode of a box of half
    # width w has xi = pi / 2w
    for w in (20.0, 40.0):
        gap = fd_oracle.lowest_eigenvalues(op, 1, half_width=w)[0] - edge
        assert gap > 0.0
        assert abs(gap / (a1 * (np.pi / (2.0 * w)) ** 2) - 1.0) <= 1e-2
