"""Sparse polynomials store no zero coefficient, whatever arithmetic made them.

``NCPoly``, ``BivarPoly`` and ``Character`` drop zero terms only in their
constructors; arithmetic just accumulates.  These properties compare each
operation with a plain-dict oracle and check that no zero is stored, with
exact cancellations (``p - p``, ``p + (-1)*p``) among the inputs.
"""

from fractions import Fraction
from math import comb

from hypothesis import given, settings
from hypothesis import strategies as st

from depthforge.ncalg import NCPoly, derivation_apply, nc_mul, word_to_str
from depthforge.periodpoly import BivarPoly
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
    return {word_to_str(w): c for w, c in p.terms.items()}


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
@given(st.data(), st.integers(0, 5), rationals, st.tuples(*[st.integers(-2, 2)] * 4))
def test_bivarpoly_arithmetic_matches_oracle(data, degree, scalar, subst):
    a, b = data.draw(bivar_dicts(degree)), data.draw(bivar_dicts(degree))
    p, q = BivarPoly(degree, a), BivarPoly(degree, b)
    a, b = nonzero(a), nonzero(b)
    assert bivar_terms(p) == a
    assert bivar_terms(p + q) == o_add(a, b)
    assert bivar_terms(p - q) == o_add(a, b, scales=[1, -1])
    assert bivar_terms(scalar * p) == o_add(a, scales=[scalar])
    assert bivar_terms(p.compose_linear(*subst)) == o_compose(a, degree, *subst)
    assert bivar_terms(p - p) == {}
    assert bivar_terms(p + (-1) * p) == {}
    # x -> -x, y -> -y multiplies a degree-d polynomial by (-1)^d
    flipped = p.compose_linear(-1, 0, 0, -1)
    assert bivar_terms(flipped - (-1) ** degree * p) == {}


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
