"""GL2 character calculus: symmetric powers, Tate twists, tensor products.

A representation is tracked purely through its character on the diagonal
torus diag(t1, t2), a Laurent polynomial in t1, t2 with nonnegative integer
coefficients.  The irreducible objects are Sym^u(V)(v) for u >= 0 and an
integer twist v, with

    char(Sym^u(V)(v)) = (t1^u + t1^(u-1) t2 + ... + t2^u) * (t1 t2)^(-v),

i.e. twisting by (v) multiplies by det^(-v); twists add under tensor.  The
sign of the twist is pinned by requiring the Clebsch-Gordan rule to read

    Sym^k tensor Sym^l = Sym^(k+l) + Sym^(k+l-2)(-1) + ... + Sym^(k-l)(-l)

verbatim for k >= l.  With twists, Sym^k(V)(a) tensor Sym^l(V)(b) is the sum of
Sym^(k+l-2i)(V)(a+b-i) over i = 0..min(k, l), and :func:`tensor_decompose`
folds its factors pairwise by that rule, never forming a character.
:func:`character_decompose` decomposes an arbitrary genuine character by
highest-weight peeling instead: the lexicographically largest monomial
t1^a t2^b always has a >= b and belongs to Sym^(a-b)(V)(-b); subtract and
repeat.  Peeling is the independent oracle the fold is tested against, and
both list components by descending highest weight (a, b) = (u - v, -v).
:func:`check_no_eisenstein_component` folds the twisted products
Sym^n1(V)(n1+1+r1) tensor Sym^n2(V)(n2+1+r2) over a grid of n_i and r_i by
the same rule, reading each product as (u, v) -> multiplicity pairs with no
label object made.  That is the sweep ``verify cgshape`` reports: no
component is the Eisenstein Sym^(2n)(V)(2n+1), and every one is
Sym^u(V)(u+1+w) with w >= 1.

The bigrading view relabels a monomial t1^a t2^b as the pair (2b, a+b)
(twice the lower-triangular grading, total weight), used for dimension
bookkeeping of associated graded pieces.
"""

from __future__ import annotations

import itertools
import re
from typing import Mapping, Sequence

TorusMonomial = tuple[int, int]

_LABEL_RE = re.compile(r"Sym([0-9]+)\((-?[0-9]+)\)")


class IrrepLabel:
    """The irreducible Sym^u(V)(v): symmetric power u >= 0, twist v.

    Immutable and hashable; equal exactly when u and v are.
    """

    __slots__ = ("u", "v")

    def __init__(self, u: int, v: int = 0):
        if type(u) is not int or type(v) is not int:  # a bool or float would print as another label
            raise ValueError("a label's power and twist must be ints, got %r and %r" % (u, v))
        if u < 0:
            raise ValueError("symmetric power must be >= 0, got %r" % (u,))
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    def __setattr__(self, name, value):
        raise AttributeError("IrrepLabel is immutable")

    def __reduce__(self):  # copy and pickle rebuild through __init__, not setattr
        return IrrepLabel, (self.u, self.v)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IrrepLabel):
            return NotImplemented
        return self.u == other.u and self.v == other.v

    def __hash__(self) -> int:
        return hash((self.u, self.v))

    def __repr__(self) -> str:
        return "IrrepLabel(%d, %d)" % (self.u, self.v)

    def __str__(self) -> str:
        return "Sym%d(%d)" % (self.u, self.v)

    @classmethod
    def parse(cls, text: str) -> "IrrepLabel":
        m = _LABEL_RE.fullmatch(text.strip())
        if not m:
            raise ValueError("bad irrep label %r (expected 'Sym{u}({v})')" % (text,))
        return cls(int(m.group(1)), int(m.group(2)))


class Character:
    """Laurent polynomial in t1, t2 with integer coefficients.

    Zero coefficients are never stored: the constructor drops them, so
    arithmetic only accumulates.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping | None = None):
        sums: dict[TorusMonomial, int] = {}
        for (a, b), value in (coeffs or {}).items():
            if not type(a) is type(b) is type(value) is int:
                raise ValueError("a character maps int exponents to int coefficients, got %r: %r" % ((a, b), value))
            sums[a, b] = sums.get((a, b), 0) + value
        self.coeffs = {m: c for m, c in sums.items() if c}

    @classmethod
    def one(cls) -> "Character":
        return cls({(0, 0): 1})

    def dimension(self) -> int:
        """Coefficient sum: the dimension of the underlying representation."""
        return sum(self.coeffs.values())

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Character):
            return NotImplemented
        return self.coeffs == other.coeffs

    __hash__ = None

    def __add__(self, other: "Character") -> "Character":
        if not isinstance(other, Character):
            return NotImplemented
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0) + c
        return Character(out)

    def __sub__(self, other: "Character") -> "Character":
        if not isinstance(other, Character):
            return NotImplemented
        return self + Character({m: -c for m, c in other.coeffs.items()})

    def __mul__(self, other: "Character") -> "Character":
        if not isinstance(other, Character):
            return NotImplemented
        out: dict[TorusMonomial, int] = {}
        for (a1, b1), c1 in self.coeffs.items():
            for (a2, b2), c2 in other.coeffs.items():
                mono = (a1 + a2, b1 + b2)
                out[mono] = out.get(mono, 0) + c1 * c2
        return Character(out)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Character(0)"
        bits = ["%d*t1^%d*t2^%d" % (c, m[0], m[1]) for m, c in sorted(self.coeffs.items())]
        return "Character(%s)" % " + ".join(bits)


def irrep_char(label: IrrepLabel) -> Character:
    """Character of Sym^u(V)(v): (sum_i t1^(u-i) t2^i) * (t1 t2)^(-v)."""
    u, v = label.u, label.v
    return Character({(u - i - v, i - v): 1 for i in range(u + 1)})


def _fold(parts: dict[tuple[int, int], int], l: int, b: int) -> dict[tuple[int, int], int]:
    """The product of the components (u, v) -> multiplicity in ``parts`` with Sym^l(V)(b).

    Each Sym^k(V)(a) tensor Sym^l(V)(b) is the sum of Sym^(k+l-2i)(V)(a+b-i)
    over i = 0..min(k, l), the twisted Clebsch-Gordan rule.
    """
    folded: dict[tuple[int, int], int] = {}
    for (k, a), mult in parts.items():
        for i in range(min(k, l) + 1):
            key = (k + l - 2 * i, a + b - i)
            folded[key] = folded.get(key, 0) + mult
    return folded


def tensor_decompose(labels: Sequence[IrrepLabel]) -> list[IrrepLabel]:
    """Decompose a tensor product of irreducibles into irreducibles.

    Returns the multiset as a list (repeats allowed) by descending highest
    weight, the order :func:`character_decompose` peels in.  The factors are
    folded pairwise by :func:`_fold`, with the partial product kept as
    (u, v) -> multiplicity.
    """
    if not labels:
        raise ValueError("tensor_decompose needs at least one factor")
    first, *rest = labels
    parts = {(first.u, first.v): 1}
    for label in rest:
        parts = _fold(parts, label.u, label.v)
    # every component has the same total degree u - 2v, so descending (u, v)
    # is descending highest weight (u - v, -v)
    out: list[IrrepLabel] = []
    for u, v in sorted(parts, reverse=True):
        out.extend([IrrepLabel(u, v)] * parts[u, v])
    return out


def character_decompose(char: Character) -> list[IrrepLabel]:
    """Peel a genuine character into irreducible labels, highest weight first."""
    work = dict(char.coeffs)
    out: list[IrrepLabel] = []
    while work:
        a, b = max(work)
        mult = work[(a, b)]
        if mult < 0 or a < b:
            raise ValueError("not a genuine GL2 character: stuck at t1^%d*t2^%d x %d" % (a, b, mult))
        label = IrrepLabel(a - b, -b)
        for mono, c in irrep_char(label).coeffs.items():
            acc = work.get(mono, 0) - mult * c
            if acc:
                work[mono] = acc
            else:
                work.pop(mono, None)
        out.extend([label] * mult)
    return out


def check_no_eisenstein_component(max_sym: int, max_twist: int) -> tuple[int, bool, bool]:
    """Sweep the products Sym^n1(V)(n1+1+r1) tensor Sym^n2(V)(n2+1+r2) for the Eisenstein component.

    Runs over every n1, n2 <= ``max_sym`` and r1, r2 <= ``max_twist`` and
    returns ``(components, shapes_ok, forbidden_absent)``: the components
    counted over all products with multiplicity; whether every one has the
    shape Sym^u(V)(u+1+w) with w >= 1; and whether none is a forbidden
    Sym^(2n)(V)(2n+1), n >= 1.  The shape claim is the stronger (the forbidden
    labels have w = 0); both are reported.  A component has u <= n1 + n2, so
    the forbidden labels with n <= ``max_sym`` are all a product can reach.
    """
    if max_sym < 0 or max_twist < 0:
        raise ValueError("max_sym and max_twist must be >= 0, got %r and %r" % (max_sym, max_twist))
    forbidden = {(2 * n, 2 * n + 1) for n in range(1, max_sym + 1)}
    components = 0
    shapes_ok = forbidden_absent = True
    for n1, r1, n2, r2 in itertools.product(range(max_sym + 1), range(max_twist + 1), repeat=2):
        parts = _fold({(n1, n1 + 1 + r1): 1}, n2, n2 + 1 + r2)
        components += sum(parts.values())
        shapes_ok = shapes_ok and all(v - u - 1 >= 1 for u, v in parts)
        forbidden_absent = forbidden_absent and forbidden.isdisjoint(parts)
    return components, shapes_ok, forbidden_absent


def bigraded_dims(char: Character) -> dict[tuple[int, int], int]:
    """Relabel t1^a t2^b as the bigrade (2b, a+b) with its coefficient.

    Rejects characters with a negative coefficient (not genuine).  The
    relabeling is injective: (s, t) comes from t1^(t - s/2) t2^(s/2).
    """
    if any(c < 0 for c in char.coeffs.values()):
        raise ValueError("negative coefficient: not a genuine character")
    return {(2 * b, a + b): c for (a, b), c in char.coeffs.items()}
