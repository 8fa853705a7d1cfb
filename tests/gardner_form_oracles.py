"""The nonzero-mean breather's functionals and stationary equation as they
were written before they became Gardner's in w = u - mu.

Both are mKdV expanded about the background level mu, term by term; the
program now evaluates the Gardner forms with quadratic coefficient 3 mu on
the shifted field instead, so these serve as an independent reference.
"""

# the benchmark's nonzero-mean case (bench/workloads.py RESIDUAL_CASES)
NONZERO_MEAN_CASE = dict(mu=2.9096582464, c1=1.65, p=22, q=23)


def shifted_mkdv_integrands(mu):
    """Background-level forms: powers of (u - mu) except in the gradient terms."""

    def mass(f):
        return 0.5 * (f["u"] - mu) ** 2

    def energy(f):
        w, ux = f["u"] - mu, f["ux"]
        return 0.5 * ux**2 - mu * w**3 - 0.25 * w**4

    def third(f):
        w, ux, uxx = f["u"] - mu, f["ux"], f["uxx"]
        return (
            0.5 * uxx**2
            - 5.0 * mu * w * ux**2
            + 2.5 * mu**2 * w**4
            - 2.5 * w**2 * ux**2
            + 1.5 * mu * w**5
            + 0.25 * w**6
        )

    return {"mass": mass, "energy": energy, "f": third}


def shifted_stationary_terms(family, f):
    """Terms of the stationary equation of the nonzero-mean breather, given
    the profile's field jet f."""
    mu, c1, c2 = family.mu, family.c1, family.c2
    B = f.value
    Bx, Bxx, B4 = f.partial(nx=1), f.partial(nx=2), f.partial(nx=4)
    W = B - mu
    return [
        B4,
        -(c1 + c2 - 4 * mu**2) * (Bxx + 3 * mu * W**2 + W**3),
        (c1 - 2 * mu**2) * (c2 - 2 * mu**2) * W,
        5.0 * W * Bx**2,
        5.0 * W**2 * Bxx,
        1.5 * W**5,
        5.0 * mu * Bx**2,
        7.5 * mu * W**4,
        10.0 * mu * W * Bxx,
        10.0 * mu**2 * W**3,
    ]
