"""Noncommutative polynomials on the letters e0, e1.

Elements of the free Lie algebra on two generators are stored by their
faithful expansion in the word basis of the tensor algebra: a word is a string
over ``"0"`` (e0) and ``"1"`` (e1), the format of
:func:`depthforge.depthlie.depth2_word_basis`, and a polynomial a finite
``word -> Fraction`` map.  *Weight* is word length, *depth* the number of
``e1`` letters, ``w.count("1")``.

No pipeline computes with this module: it is the general word algebra, with
exact untruncated products, that the closed-form depth-2 bracket of
:mod:`depthforge.depthlie` is tested against.

The derivation ``a(X)`` is defined on generators by ``a(X)(e0) = [e0, X]``
and ``a(X)(e1) = 0`` and extended by the Leibniz rule.  The induced bracket

    {X, Y} = a(X)(Y) - a(Y)(X) + [X, Y]

is the unique one making ``X -> a(X)`` a Lie-algebra homomorphism into
derivations, i.e. ``a({X,Y}) = a(X)a(Y) - a(Y)a(X)``; the test suite checks
that identity rather than assuming it.  (A global sign flip of the bracket
would leave every relation kernel computed downstream unchanged.)
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .exactla import as_fraction

E0 = "0"
E1 = "1"


class NCPoly:
    """A finite Fraction-linear combination of words, each a string over "0" and "1".

    Zero coefficients are never stored: the constructor drops them, so
    arithmetic only accumulates and hands its raw sums to the constructor.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[str, object] | None = None):
        sums: dict[str, Fraction] = {}
        for w, value in (terms or {}).items():
            if not isinstance(w, str) or w.strip(E0 + E1):
                raise ValueError("invalid word %r: a word is a string over '0' and '1'" % (w,))
            sums[w] = sums.get(w, 0) + as_fraction(value)
        self.terms = {w: c for w, c in sums.items() if c}

    # -- queries -----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def coefficient(self, w: str) -> Fraction:
        return self.terms.get(w, Fraction(0))

    def weight_component(self, n: int) -> "NCPoly":
        """The part of weight (word length) exactly ``n``."""
        return NCPoly({w: c for w, c in self.terms.items() if len(w) == n})

    def depth_component(self, d: int) -> "NCPoly":
        """The part of depth (number of e1 letters) exactly ``d``."""
        return NCPoly({w: c for w, c in self.terms.items() if w.count(E1) == d})

    # -- arithmetic ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def __neg__(self) -> "NCPoly":
        return NCPoly({w: -c for w, c in self.terms.items()})

    def __add__(self, other: "NCPoly") -> "NCPoly":
        if not isinstance(other, NCPoly):
            return NotImplemented
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return NCPoly(out)

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, NCPoly):
            return nc_mul(self, other)
        return self._scaled(other)

    def __rmul__(self, scalar):
        return self._scaled(scalar)

    def _scaled(self, scalar) -> "NCPoly":
        c = as_fraction(scalar)
        return NCPoly({w: c * v for w, v in self.terms.items()})

    def __repr__(self) -> str:
        if not self.terms:
            return "NCPoly(0)"
        return "NCPoly(%s)" % " + ".join("%s*%s" % (c, w or "1") for w, c in sorted(self.terms.items()))


def generators() -> tuple[NCPoly, NCPoly]:
    """The pair (e0, e1)."""
    return NCPoly({E0: 1}), NCPoly({E1: 1})


def nc_mul(p: NCPoly, q: NCPoly) -> NCPoly:
    """Concatenation product."""
    out: dict[str, Fraction] = {}
    qitems = list(q.terms.items())
    for w1, c1 in p.terms.items():
        for w2, c2 in qitems:
            w = w1 + w2
            out[w] = out.get(w, 0) + c1 * c2
    return NCPoly(out)


def lie_bracket(p: NCPoly, q: NCPoly) -> NCPoly:
    """[p, q] = pq - qp."""
    return nc_mul(p, q) - nc_mul(q, p)


def ad_pow(x: NCPoly, n: int, y: NCPoly) -> NCPoly:
    """Iterated bracket ad(x)^n (y) = [x, [x, ... [x, y]]]."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out = y
    for _ in range(n):
        out = lie_bracket(x, out)
    return out


def derivation_apply(x: NCPoly, y: NCPoly) -> NCPoly:
    """Apply the derivation a(x) to y.

    a(x) sends e0 to [e0, x] and e1 to 0, and acts on a word by the Leibniz
    rule: replace each e0 letter in turn by [e0, x] and sum the results.
    """
    pieces = list(lie_bracket(NCPoly({E0: 1}), x).terms.items())
    out: dict[str, Fraction] = {}
    for w, c in y.terms.items():
        for i, ltr in enumerate(w):
            if ltr != E0:
                continue
            pre, suf = w[:i], w[i + 1 :]
            for bw, bc in pieces:
                nw = pre + bw + suf
                out[nw] = out.get(nw, 0) + c * bc
    return NCPoly(out)


def ihara_bracket(x: NCPoly, y: NCPoly) -> NCPoly:
    """{x, y} = a(x)(y) - a(y)(x) + [x, y]."""
    return derivation_apply(x, y) - derivation_apply(y, x) + lie_bracket(x, y)
