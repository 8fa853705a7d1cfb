"""Field grids for the functional densities, all from one degree-2 jet.

Each density now evaluates the field at the degree it reads; this is the
single degree-2 route that every density used before, kept as the reference
that the lower degrees must reproduce bit for bit.
"""

from breatherlab.breathers import WaveFamily


def field_arrays_deg2(family, t, x) -> dict:
    """u, ux and uxx, and for a wave family ut and utx, from one degree-2 jet."""
    f = family.eval(t, x, deg=2)
    out = {"u": f.value, "ux": f.partial(nx=1), "uxx": f.partial(nx=2)}
    if isinstance(family, WaveFamily):
        out.update(ut=f.partial(nt=1), utx=f.partial(nt=1, nx=1))
    return out
