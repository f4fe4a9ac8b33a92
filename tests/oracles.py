"""Test-side oracles: symbolic calculus the checker itself never needs."""

from nilgeo.polynomials import Poly, PolyMatrix


def partial(p, i):
    """The derivative in variable i of a `Poly`, or entrywise of a
    `PolyMatrix`."""
    if isinstance(p, PolyMatrix):
        return PolyMatrix([[partial(q, i) for q in row] for row in p.rows])
    return Poly(
        p.nvars,
        {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in p.terms.items() if e[i]},
    )
