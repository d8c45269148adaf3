"""The coset functions phi_1, phi_2 on GL2(Z/nZ) and their full value tables.

They descend from the quotient by +-P (P = upper triangular with bottom row
(0 1)).  :class:`CosetFn` stores every value, so that the invariance is a
property the tests check by enumeration rather than a chosen representative.
No command of the package needs the tables; the acceptance and unit tests do.
:func:`gl2_elements` enumerates the group for them, and for the matrix-by-matrix
oracle of the Bernoulli sum chain.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterator

from depthforge.eisenstein import Mat, _check_phi_args, bernoulli_poly_eval, is_invertible


def gl2_elements(n: int) -> Iterator[Mat]:
    """The invertible 2x2 matrices over Z/nZ, in row-major tuple order, one at a time.

    The level is checked when called; the matrices, about n^4 of them, are
    made as they are read.
    """
    if n < 2:
        raise ValueError("level must be >= 2")
    return (g for g in itertools.product(range(n), repeat=4) if is_invertible(g, n))


def phi(k: int, n: int, which: int, g: Mat) -> Fraction:
    """Value of the coset function phi_1 (entry c) or phi_2 (entry d) at g:
    (n^(k+1)/(k+2)) * B_{k+2}(<entry/n>)."""
    _check_phi_args(k, n, g)
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    entry = g[2] if which == 1 else g[3]
    return Fraction(n ** (k + 1), k + 2) * bernoulli_poly_eval(k + 2, Fraction(entry % n, n))


def mat_mul(g: Mat, h: Mat, n: int) -> Mat:
    a, b, c, d = g
    e, f, x, y = h
    return ((a * e + b * x) % n, (a * f + b * y) % n, (c * e + d * x) % n, (c * f + d * y) % n)


def mat_neg(g: Mat, n: int) -> Mat:
    return tuple((-t) % n for t in g)  # type: ignore[return-value]


def units(n: int) -> list[int]:
    return [u for u in range(n) if gcd(u, n) == 1]


@dataclass
class CosetFn:
    """A rational function on GL2(Z/nZ) stored as a full value table."""

    k: int
    n: int
    values: dict[Mat, Fraction]

    @classmethod
    def tabulate(cls, k: int, n: int, which: int) -> "CosetFn":
        return cls(k, n, {g: phi(k, n, which, g) for g in gl2_elements(n)})

    def pm_parabolic_invariant(self) -> bool:
        """True iff the table is invariant under left +-P(Z/nZ) action.

        Checked by full enumeration: value((u v; 0 1) g) == value(g) for
        every unit u and every v, and value(-g) == value(g).
        """
        parabolic = [(u, v, 0, 1) for u in units(self.n) for v in range(self.n)]
        for g, val in self.values.items():
            if self.values[mat_neg(g, self.n)] != val:
                return False
            for pmat in parabolic:
                if self.values[mat_mul(pmat, g, self.n)] != val:
                    return False
        return True
