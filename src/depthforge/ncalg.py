"""Depth-truncated noncommutative polynomials on the letters e0, e1.

Elements of the free Lie algebra on two generators are stored by their
faithful expansion in the word basis of the tensor algebra: a word is a tuple
over ``{E0, E1}``, a polynomial a finite ``word -> Fraction`` map.  *Weight*
is word length, *depth* the number of ``e1`` letters.

Every :class:`NCPoly` carries a ``depth_cap`` (``None`` meaning no cap), and
multiplication discards any produced word whose depth exceeds the cap.  The
words of depth > d form a two-sided ideal that the derivations below
preserve, so working under a cap is an exact quotient computation, not an
approximation: all identities hold verbatim on the retained words.  Helpers
that construct elements default to ``DEFAULT_DEPTH_CAP = 3``, which is ample
for the depth-2 relation computations this package exists for (the full
weight-w word space has 2^w words; depth <= 2 only O(w^2)).

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
from typing import Iterable, Mapping

from .exactla import as_fraction, parse_rational

E0 = 0
E1 = 1

DEFAULT_DEPTH_CAP = 3

Word = tuple[int, ...]

_ZERO = Fraction(0)


def word_from_str(s: str) -> Word:
    """Parse a word from its string form over {"0", "1"}, e.g. ``"00101"``."""
    w = tuple(int(ch) for ch in s)
    if any(letter not in (E0, E1) for letter in w):
        raise ValueError("invalid word string %r: letters must be 0 or 1" % (s,))
    return w


def word_to_str(w: Word) -> str:
    return "".join(str(letter) for letter in w)


def word_weight(w: Word) -> int:
    return len(w)


def word_depth(w: Word) -> int:
    return sum(1 for letter in w if letter == E1)


def _check_cap(cap) -> int | None:
    if cap is None:
        return None
    if not isinstance(cap, int) or isinstance(cap, bool) or cap < 1:
        raise ValueError("depth_cap must be a positive integer or None, got %r" % (cap,))
    return cap


def _min_cap(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class NCPoly:
    """A finite Fraction-linear combination of words, with a depth cap.

    Arithmetic combines caps by taking the minimum (``None`` acting as
    infinity) and eagerly drops words beyond the result's cap.  Zero
    coefficients are never stored.
    """

    __slots__ = ("terms", "depth_cap")

    def __init__(self, terms: Mapping | Iterable | None = None, depth_cap: int | None = None):
        cap = _check_cap(depth_cap)
        clean: dict[Word, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else (terms or ())
        for key, value in items:
            w = word_from_str(key) if isinstance(key, str) else tuple(key)
            if any(letter not in (E0, E1) for letter in w):
                raise ValueError("invalid word %r" % (key,))
            c = as_fraction(value)
            if c == 0 or (cap is not None and word_depth(w) > cap):
                continue
            acc = clean.get(w, _ZERO) + c
            if acc:
                clean[w] = acc
            else:
                clean.pop(w, None)
        self.terms = clean
        self.depth_cap = cap

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, depth_cap: int | None = None) -> "NCPoly":
        return cls({}, depth_cap)

    @classmethod
    def from_word(cls, w, coeff=1, depth_cap: int | None = None) -> "NCPoly":
        return cls({w if isinstance(w, str) else tuple(w): coeff}, depth_cap)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def coefficient(self, w) -> Fraction:
        key = word_from_str(w) if isinstance(w, str) else tuple(w)
        return self.terms.get(key, _ZERO)

    def weight_component(self, n: int) -> "NCPoly":
        """The part of weight (word length) exactly ``n``."""
        return NCPoly({w: c for w, c in self.terms.items() if len(w) == n}, self.depth_cap)

    def depth_component(self, d: int) -> "NCPoly":
        """The part of depth (number of e1 letters) exactly ``d``."""
        return NCPoly({w: c for w, c in self.terms.items() if word_depth(w) == d}, self.depth_cap)

    def truncated(self, depth_cap: int | None) -> "NCPoly":
        """The image of this element under the (possibly tighter) cap."""
        return NCPoly(self.terms, _min_cap(self.depth_cap, _check_cap(depth_cap)))

    # -- arithmetic ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self.terms == other.terms and self.depth_cap == other.depth_cap

    __hash__ = None

    def __neg__(self) -> "NCPoly":
        return NCPoly({w: -c for w, c in self.terms.items()}, self.depth_cap)

    def __add__(self, other: "NCPoly") -> "NCPoly":
        if not isinstance(other, NCPoly):
            return NotImplemented
        cap = _min_cap(self.depth_cap, other.depth_cap)
        out = dict(self.terms)
        for w, c in other.terms.items():
            acc = out.get(w, _ZERO) + c
            if acc:
                out[w] = acc
            else:
                out.pop(w, None)
        return NCPoly(out, cap)

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
        if c == 0:
            return NCPoly.zero(self.depth_cap)
        return NCPoly({w: c * v for w, v in self.terms.items()}, self.depth_cap)

    # -- serialisation ---------------------------------------------------------

    def to_json_obj(self) -> dict[str, str]:
        """JSON-ready map, word string -> rational string, in word order."""
        return {word_to_str(w): str(c) for w, c in sorted(self.terms.items())}

    @classmethod
    def from_json_obj(cls, data: Mapping[str, str], depth_cap: int | None = None) -> "NCPoly":
        if not isinstance(data, Mapping):
            raise ValueError("an NCPoly is a JSON object of word -> coefficient, got %r" % (data,))
        return cls({word_from_str(k): parse_rational(v) for k, v in data.items()}, depth_cap)

    def __repr__(self) -> str:
        if not self.terms:
            return "NCPoly(0)"
        bits = []
        for w, c in sorted(self.terms.items()):
            bits.append("%s*%s" % (c, word_to_str(w) or "1"))
        cap = "" if self.depth_cap is None else ", cap=%d" % self.depth_cap
        return "NCPoly(%s%s)" % (" + ".join(bits), cap)


def letter(which: int, depth_cap: int | None = DEFAULT_DEPTH_CAP) -> NCPoly:
    """The single-letter word e0 (``which=E0``) or e1 (``which=E1``)."""
    if which not in (E0, E1):
        raise ValueError("letter must be E0 or E1")
    return NCPoly({(which,): 1}, depth_cap)


def generators(depth_cap: int | None = DEFAULT_DEPTH_CAP) -> tuple[NCPoly, NCPoly]:
    """The pair (e0, e1) under a common depth cap."""
    return letter(E0, depth_cap), letter(E1, depth_cap)


def nc_mul(p: NCPoly, q: NCPoly) -> NCPoly:
    """Concatenation product, truncated to the minimum of the two caps."""
    cap = _min_cap(p.depth_cap, q.depth_cap)
    out: dict[Word, Fraction] = {}
    qitems = [(w, c, word_depth(w)) for w, c in q.terms.items()]
    for w1, c1 in p.terms.items():
        d1 = word_depth(w1)
        for w2, c2, d2 in qitems:
            if cap is not None and d1 + d2 > cap:
                continue
            w = w1 + w2
            acc = out.get(w, _ZERO) + c1 * c2
            if acc:
                out[w] = acc
            else:
                out.pop(w, None)
    return NCPoly(out, cap)


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
    cap = _min_cap(x.depth_cap, y.depth_cap)
    e0_poly = letter(E0, x.depth_cap)
    image = lie_bracket(e0_poly, x)
    pieces = [(w, c, word_depth(w)) for w, c in image.terms.items()]
    out: dict[Word, Fraction] = {}
    for w, c in y.terms.items():
        for i, ltr in enumerate(w):
            if ltr != E0:
                continue
            pre, suf = w[:i], w[i + 1 :]
            base_depth = word_depth(pre) + word_depth(suf)
            for bw, bc, bd in pieces:
                if cap is not None and base_depth + bd > cap:
                    continue
                nw = pre + bw + suf
                acc = out.get(nw, _ZERO) + c * bc
                if acc:
                    out[nw] = acc
                else:
                    out.pop(nw, None)
    return NCPoly(out, cap)


def ihara_bracket(x: NCPoly, y: NCPoly) -> NCPoly:
    """{x, y} = a(x)(y) - a(y)(x) + [x, y]."""
    return derivation_apply(x, y) - derivation_apply(y, x) + lie_bracket(x, y)


def weight_component(p: NCPoly, n: int) -> NCPoly:
    return p.weight_component(n)


def depth_component(p: NCPoly, d: int) -> NCPoly:
    return p.depth_component(d)
