"""B_n(x) by Horner's rule in Fractions: the tests' oracle for the integer Horner of ``bernoulli_poly_eval``."""

from fractions import Fraction

from depthforge.eisenstein import bernoulli_polynomial


def fraction_horner(n: int, x: Fraction) -> Fraction:
    """B_n(x), each Horner step a Fraction product and sum, reduced as it goes."""
    acc = Fraction(0)
    for c in reversed(bernoulli_polynomial(n)):
        acc = acc * x + c
    return acc
