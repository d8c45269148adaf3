"""Sparse polynomials store no zero coefficient, whatever arithmetic made them.

``NCPoly``, ``BivarPoly`` and ``Character`` drop zero terms only in their
constructors; arithmetic just accumulates.  These properties compare each
operation with a plain-dict oracle and check that no zero is stored, with
exact cancellations (``p - p``, ``p + (-1)*p``) among the inputs.

The general substitution ``x -> ax + by, y -> cx + dy`` lives here only, as
``o_compose``: the period-polynomial identities that ``is_period_poly``
reads off the coefficients are decided through it, in the same order.
"""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthforge.exactla import QMatrix, kernel_basis
from depthforge.ncalg import NCPoly, derivation_apply, nc_mul
from depthforge.periodpoly import BivarPoly, _three_term, candidate_pairs, is_period_poly, period_space
from depthforge.repcalc import Character

rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
words = st.text(alphabet="01", max_size=4)
nc_dicts = st.dictionaries(words, rationals, max_size=5)
char_dicts = st.dictionaries(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), st.integers(-3, 3), max_size=5)


def nonzero(d):
    return {k: v for k, v in d.items() if v != 0}


def o_add(*dicts, scales=None):
    out = {}
    for d, s in zip(dicts, scales or [1] * len(dicts)):
        for k, v in d.items():
            out[k] = out.get(k, 0) + s * v
    return nonzero(out)


def o_mul(p, q, combine):
    out = {}
    for k1, v1 in p.items():
        for k2, v2 in q.items():
            k = combine(k1, k2)
            out[k] = out.get(k, 0) + v1 * v2
    return nonzero(out)


def nc_terms(p: NCPoly):
    assert all(c != 0 for c in p.terms.values())
    return p.terms


def bivar_terms(p: BivarPoly):
    assert all(c != 0 for c in p.coeffs.values())
    return p.coeffs


def char_terms(p: Character):
    assert all(c != 0 for c in p.coeffs.values())
    return p.coeffs


@settings(deadline=None)
@given(nc_dicts, nc_dicts, rationals)
def test_ncpoly_arithmetic_matches_oracle(a, b, scalar):
    p, q = NCPoly(a), NCPoly(b)
    a, b = nonzero(a), nonzero(b)
    assert nc_terms(p) == a
    assert nc_terms(p + q) == o_add(a, b)
    assert nc_terms(p - q) == o_add(a, b, scales=[1, -1])
    assert nc_terms(scalar * p) == o_add(a, scales=[scalar])
    assert nc_terms(nc_mul(p, q)) == o_mul(a, b, str.__add__)
    assert nc_terms(p - p) == {}
    assert nc_terms(p + (-1) * p) == {}
    assert nc_terms(nc_mul(p, q) - nc_mul(p, q)) == {}
    # a(x) on a polynomial in e1 alone is zero: no e0 letter to act on
    e1_only = NCPoly({w.replace("0", "1"): c for w, c in a.items()})
    assert nc_terms(derivation_apply(q, e1_only)) == {}


@st.composite
def bivar_dicts(draw, degree):
    monomials = st.integers(0, degree).map(lambda i: (i, degree - i))
    return draw(st.dictionaries(monomials, rationals, max_size=degree + 1))


def o_compose(f, degree, a, b, c, d):
    """Substitute x -> a x + b y, y -> c x + d y by expanding every power."""
    out = {}
    for (p, q), coeff in f.items():
        for i in range(p + 1):
            for j in range(q + 1):
                mono = (i + j, degree - i - j)
                term = coeff * comb(p, i) * a**i * b ** (p - i) * comb(q, j) * c**j * d ** (q - j)
                out[mono] = out.get(mono, 0) + term
    return nonzero(out)


@settings(deadline=None)
@given(st.data(), st.integers(0, 5), rationals)
def test_bivarpoly_arithmetic_matches_oracle(data, degree, scalar):
    a, b = data.draw(bivar_dicts(degree)), data.draw(bivar_dicts(degree))
    p, q = BivarPoly(degree, a), BivarPoly(degree, b)
    a, b = nonzero(a), nonzero(b)
    assert bivar_terms(p) == a
    assert bivar_terms(p + q) == o_add(a, b)
    assert bivar_terms(p + (-1) * q) == o_add(a, b, scales=[1, -1])
    assert bivar_terms(scalar * p) == o_add(a, scales=[scalar])
    assert bivar_terms(p + (-1) * p) == {}


@st.composite
def period_candidates(draw):
    """``(degree, coeffs)``: a pair combination, a period-space combination or
    any polynomial of odd degree, sometimes perturbed by one monomial, so that
    each identity fails sometimes."""
    m = draw(st.integers(2, 8))
    degree = 2 * m
    base = draw(st.sampled_from(["pairs", "periods", "odd degree"]))
    if base == "odd degree":  # all x-exponents of one parity, so exactly one of x and y is odd
        degree += 1
        exponents = st.sampled_from(range(draw(st.integers(0, 1)), degree, 2))
        f = draw(st.dictionaries(exponents.map(lambda a: (a, degree - a)), rationals.filter(bool), min_size=1, max_size=3))
    elif base == "pairs":
        pairs = draw(st.dictionaries(st.integers(1, m - 1), rationals, max_size=3))
        f = o_add(*[{(2 * i, 2 * (m - i)): 1, (2 * (m - i), 2 * i): -1} for i in pairs], scales=list(pairs.values()))
    else:
        basis = period_space(degree + 2).basis
        f = o_add(*[b.coeffs for b in basis], scales=draw(st.lists(rationals, min_size=len(basis), max_size=len(basis))))
    if draw(st.booleans()):
        a = draw(st.one_of(st.just(degree), st.integers(0, degree)))  # x^degree alone breaks f(x,0) = 0
        f = o_add(f, {(a, degree - a): draw(rationals)})
    return degree, f


def o_three_term(f, degree):
    return o_add(f, o_compose(f, degree, 1, -1, 1, 0), o_compose(f, degree, 0, -1, 1, -1))


def o_period_verdict(f, degree):
    """``is_period_poly``'s ``(ok, failed)``, each identity decided by substitution."""
    if o_compose(f, degree, 1, 0, 0, 0):
        return False, "f(x,0) = 0"
    if o_compose(f, degree, -1, 0, 0, 1) != f or o_compose(f, degree, 1, 0, 0, -1) != f:
        return False, "evenness in each variable"
    if o_add(f, o_compose(f, degree, 0, 1, 1, 0)):
        return False, "antisymmetry f(x,y) + f(y,x) = 0"
    if o_three_term(f, degree):
        return False, "three-term relation f(x,y) + f(x-y,x) + f(-y,x-y) = 0"
    return True, None


@settings(deadline=None)
@given(period_candidates())
def test_period_identities_match_substitution_oracle(case):
    degree, f = case
    p = BivarPoly(degree, f)
    assert nonzero(_three_term(degree, f)) == o_three_term(f, degree)
    check = is_period_poly(p)
    assert (check.ok, check.failed) == o_period_verdict(f, degree)


@settings(deadline=None)
@given(st.data(), st.integers(0, 12))
def test_three_term_keeps_integers_integral(data, degree):
    f = data.draw(st.dictionaries(st.integers(0, degree).map(lambda a: (a, degree - a)), st.integers(-5, 5), max_size=5))
    sums = _three_term(degree, f)
    assert all(type(c) is int for c in sums.values())
    assert nonzero(sums) == o_three_term(f, degree)
    fractions = _three_term(degree, {mono: Fraction(c, 3) for mono, c in f.items()})
    assert all(type(c) is Fraction for c in fractions.values())


@pytest.mark.parametrize("weight", range(4, 73, 2))
def test_period_space_is_the_kernel_of_the_oracle_images(weight):
    """The canonical basis solved from o_three_term's images of the candidates."""
    m = (weight - 2) // 2
    candidates = [{(2 * i, 2 * j): 1, (2 * j, 2 * i): -1} for i, j in candidate_pairs(m)]
    images = [o_three_term(f, 2 * m) for f in candidates]
    rows = [[image.get((2 * m - b, b), 0) for image in images] for b in range(2 * m + 1)]
    basis = [
        BivarPoly(2 * m, o_add(*candidates, scales=vector)).leading_normalized()
        for vector in kernel_basis(QMatrix(rows, cols=len(candidates)))
    ]
    assert period_space(weight).basis == basis


@settings(deadline=None)
@given(char_dicts, char_dicts)
def test_character_arithmetic_matches_oracle(a, b):
    p, q = Character(a), Character(b)
    a, b = nonzero(a), nonzero(b)
    assert char_terms(p) == a
    assert char_terms(p + q) == o_add(a, b)
    assert char_terms(p - q) == o_add(a, b, scales=[1, -1])
    assert char_terms(p * q) == o_mul(a, b, lambda m1, m2: (m1[0] + m2[0], m1[1] + m2[1]))
    assert char_terms(p - p) == {}
    assert char_terms(p + Character({m: -c for m, c in a.items()})) == {}
    assert char_terms(p * q - q * p) == {}
