"""The canonical kernel basis read off ``exactla.rref``: the tests' oracle for ``kernel_basis``."""

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
