"""Answers read off the Fraction ``exactla.rref``: the tests' oracles for ``kernel_basis`` and ``subspace_equal``."""

from fractions import Fraction

from depthforge.exactla import rref


def rref_kernel(rows, cols):
    """One vector per free column, ascending: 1 there, 0 at the other free columns, -rref[r][free] at pivot r."""
    reduced, pivots = rref(rows, cols)
    basis = []
    for free in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[free] = Fraction(1)
        for row, p in zip(reduced, pivots):
            v[p] = -row[free]
        basis.append(tuple(v))
    return basis


def rref_spans_equal(first, second, degree):
    """Whether two groups of degree-``degree`` ``BivarPoly`` span one space.

    They do when their nonzero RREF rows over every monomial agree.
    """
    monomials = [(degree - b, b) for b in range(degree + 1)]

    def row_space(group):
        reduced, pivots = rref([[p.coeffs.get(mono, 0) for mono in monomials] for p in group], len(monomials))
        return reduced[: len(pivots)]

    return row_space(first) == row_space(second)
