"""Restricted even period polynomials.

A *restricted even period polynomial* of even degree 2m is a homogeneous
``f(x, y)`` with rational coefficients satisfying, as exact polynomial
identities,

    f(x, 0) = 0
    f(-x, y) = f(x, -y) = f(x, y)          (even in each variable)
    f(x, y) + f(y, x) = 0                  (antisymmetry)
    f(x, y) + f(x-y, x) + f(-y, x-y) = 0   (three-term relation)

The space of such polynomials of degree 2m is written ``S_w`` with
w = 2m + 2; its dimension matches the dimension of the space of weight-w
cusp forms, which is how the tests cross-check the solver.

:func:`period_space` solves for a basis.  The first three conditions are
built into the candidate spanning set ``x^(2i) y^(2j) - x^(2j) y^(2i)``
(i + j = m, 1 <= i < j), so only the three-term relation contributes matrix
rows, one per monomial ``x^(2m-b) y^b``.  The three-term image of a
candidate is itself antisymmetric: for f even and antisymmetric, swapping x
and y sends f(x, y) to -f(x, y), and f(x-y, x) and f(-y, x-y) each to minus
the other.  So row 2m - b is minus row b, the middle row is zero, and the
solve reads only the m rows with b < m.  The code does not rely on that
symmetry, which the tests check at every weight up to 200: the basis is
certified against all 2m + 1 rows, and as dropping rows can only enlarge a
kernel, a passing certificate proves it is the kernel of the full system.
:func:`is_period_poly` reads the first three identities off the
coefficients (no monomial ``x^a y^0``, no odd exponent, ``c(b,a) = -c(a,b)``).
The three-term relation is expanded in binomial sums on a plain ``{(a, b): c}``
map, one expansion shared by the check, which feeds it the coefficients times
the lcm of their denominators, and the solver, which feeds it each candidate
with coefficients 1 and -1: both run on integers.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence

from .exactla import QMatrix, Vector, _integer_rref, as_fraction, certify_kernel, kernel_basis, parse_rational

Monomial = tuple[int, int]

_MONOMIAL_RE = re.compile(r"x\^([0-9]+)\*y\^([0-9]+)")


class BivarPoly:
    """Homogeneous two-variable polynomial with Fraction coefficients.

    ``coeffs`` maps ``(a, b)`` with ``a + b == degree`` to the coefficient of
    ``x^a y^b``; :meth:`from_json_obj` reads the ``"x^a*y^b"`` keys of the
    wire format.  Zero coefficients are never stored: the constructor drops
    them, so arithmetic only accumulates.  The zero polynomial has an empty
    map but still carries its degree.
    """

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs: Mapping[Monomial, object] | None = None):
        if type(degree) is not int or degree < 0:
            raise ValueError("degree must be an int >= 0, got %r" % (degree,))
        terms: dict[Monomial, Fraction] = {}
        for (a, b), value in (coeffs or {}).items():
            if type(a) is not int or type(b) is not int:
                raise ValueError("exponents must be ints, got %r" % ((a, b),))
            if a < 0 or b < 0 or a + b != degree:
                raise ValueError("monomial x^%d*y^%d is not homogeneous of degree %d" % (a, b, degree))
            c = as_fraction(value)
            if c:
                terms[a, b] = c
        self.degree = degree
        self.coeffs = terms

    @classmethod
    def monomial(cls, a: int, b: int, coeff=1) -> "BivarPoly":
        return cls(a + b, {(a, b): coeff})

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return self.degree == other.degree and self.coeffs == other.coeffs

    __hash__ = None

    def __add__(self, other: "BivarPoly") -> "BivarPoly":
        if not isinstance(other, BivarPoly):
            return NotImplemented
        if self.degree != other.degree:
            raise ValueError("degree mismatch: %d vs %d" % (self.degree, other.degree))
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0) + c
        return BivarPoly(self.degree, out)

    def __mul__(self, scalar) -> "BivarPoly":
        c = as_fraction(scalar)
        return BivarPoly(self.degree, {m: c * v for m, v in self.coeffs.items()})

    __rmul__ = __mul__

    def leading_normalized(self) -> "BivarPoly":
        """Scale so the first nonzero coefficient in graded-lex order is 1.

        Graded-lex with x > y: monomials scan from ``x^deg`` down to
        ``y^deg``.  The zero polynomial is returned unchanged.
        """
        if not self.coeffs:
            return self
        lead = max(self.coeffs)  # largest x-power first, tuples compare lexicographically
        return self * (1 / self.coeffs[lead])

    # -- serialisation -----------------------------------------------------

    def to_json_obj(self) -> dict[str, str]:
        ordered = sorted(self.coeffs.items(), key=lambda kv: (-kv[0][0], -kv[0][1]))
        return {"x^%d*y^%d" % m: str(c) for m, c in ordered}

    @classmethod
    def from_json_obj(cls, data: Mapping[str, str], degree: int | None = None) -> "BivarPoly":
        if not isinstance(data, Mapping):
            raise ValueError("a polynomial is a JSON object of monomial -> coefficient, got %r" % (data,))
        if degree is None:
            if not data:
                raise ValueError("degree is required for an empty polynomial")
            degree = sum(_parse_monomial(next(iter(data))))
        values = [parse_rational(v) for v in data.values()]  # every value is read before any key
        coeffs: dict[Monomial, Fraction] = {}
        for key, c in zip(data, values):  # two spellings of one monomial ("x^2", "x^02") add up
            mono = _parse_monomial(key)
            coeffs[mono] = coeffs.get(mono, 0) + c
        return cls(degree, coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "BivarPoly(0, degree=%d)" % self.degree
        bits = ["%s*x^%d*y^%d" % (c, m[0], m[1]) for m, c in sorted(self.coeffs.items(), reverse=True)]
        return "BivarPoly(%s)" % " + ".join(bits)


def _parse_monomial(s: str) -> Monomial:
    m = _MONOMIAL_RE.fullmatch(s)
    if not m:
        raise ValueError("bad monomial key %r (expected 'x^a*y^b')" % (s,))
    return int(m.group(1)), int(m.group(2))


class PeriodCheck:
    """Outcome of :func:`is_period_poly`: ``ok`` iff all four identities hold, else the first that fails."""

    __slots__ = ("ok", "failed")

    def __init__(self, ok: bool, failed: str | None = None):
        self.ok = ok
        self.failed = failed

    def __repr__(self) -> str:
        return "PeriodCheck(ok)" if self.ok else "PeriodCheck(failed=%r)" % self.failed


def is_period_poly(f: BivarPoly) -> PeriodCheck:
    """Test the four defining identities; report the first one violated."""
    coeffs = f.coeffs
    if any(b == 0 for (a, b) in coeffs):
        return PeriodCheck(False, "f(x,0) = 0")
    if any(a % 2 or b % 2 for (a, b) in coeffs):
        return PeriodCheck(False, "evenness in each variable")
    # a partner missing from the map reads None, which is never -c
    if any(coeffs.get((b, a)) != -c for (a, b), c in coeffs.items()):
        return PeriodCheck(False, "antisymmetry f(x,y) + f(y,x) = 0")
    # the relation is linear, so it holds for f iff for f times the lcm of its denominators
    scale = lcm(*(c.denominator for c in coeffs.values()))
    if any(_three_term(f.degree, {m: c.numerator * (scale // c.denominator) for m, c in coeffs.items()}).values()):
        return PeriodCheck(False, "three-term relation f(x,y) + f(x-y,x) + f(-y,x-y) = 0")
    return PeriodCheck(True)


def _binomial_row(a: int) -> list[int]:
    """C(a, 0), ..., C(a, a), each from the last as C(a, i+1) = C(a, i) (a-i) / (i+1)."""
    row = [1]
    for i in range(a):
        row.append(row[-1] * (a - i) // (i + 1))
    return row


def _three_term(n: int, coeffs: Mapping[Monomial, object]) -> dict[Monomial, object]:
    """``f(x,y) + f(x-y,x) + f(-y,x-y)`` for ``f`` of degree ``n`` with ``coeffs``, expanded binomially.

    The raw sums, zeros included, in the type of the input: ints in, ints out.
    """
    out = dict(coeffs)
    for (a, b), c in coeffs.items():
        signed = (c, -c)
        # c (x-y)^a x^b = sum_i c C(a,i) (-1)^(a-i) x^(i+b) y^(a-i)
        for i, binom in enumerate(_binomial_row(a)):
            mono = (i + b, a - i)
            out[mono] = out.get(mono, 0) + binom * signed[(a - i) % 2]
        # c (-y)^a (x-y)^b = sum_j c C(b,j) (-1)^(n-j) x^j y^(n-j)
        for j, binom in enumerate(_binomial_row(b)):
            mono = (j, n - j)
            out[mono] = out.get(mono, 0) + binom * signed[(n - j) % 2]
    return out


class PeriodSpace:
    """The degree-(w-2) restricted even period polynomials, from a canonical kernel basis.

    ``vectors`` are the canonical ``kernel_basis`` vectors over
    ``candidate_pairs(m)``, m = w/2 - 1, that the space is built from;
    ``basis`` is made from them on each read, so a caller that compares
    vectors alone builds no polynomial.
    """

    __slots__ = ("weight", "vectors")

    def __init__(self, weight: int, vectors: Sequence[Vector]):
        self.weight = weight
        self.vectors = list(vectors)

    @property
    def basis(self) -> list[BivarPoly]:
        """The images of ``vectors`` under :func:`pair_to_poly`, each scaled by ``leading_normalized``."""
        return [pair_to_poly(self.weight // 2 - 1, vec).leading_normalized() for vec in self.vectors]

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def to_json_obj(self) -> dict:
        return {
            "weight": self.weight,
            "dim": self.dim,
            "basis": [p.to_json_obj() for p in self.basis],
        }


def candidate_pairs(m: int) -> list[tuple[int, int]]:
    """Exponent pairs (i, j), 1 <= i < j, i + j = m, in lexicographic order."""
    return [(i, m - i) for i in range(1, (m + 1) // 2)]


def pair_to_poly(m: int, vector: Sequence[Fraction]) -> BivarPoly:
    """Map coordinates ``(a_ij)`` over ``candidate_pairs(m)`` to ``sum a_ij (x^2i y^2j - x^2j y^2i)``."""
    pairs = candidate_pairs(m)
    if len(vector) != len(pairs):
        raise ValueError("m=%d has %d candidate pairs, got a vector of length %d" % (m, len(pairs), len(vector)))
    coeffs = {}
    for (i, j), c in zip(pairs, vector):
        coeffs[2 * i, 2 * j] = c
        coeffs[2 * j, 2 * i] = -c
    return BivarPoly(2 * m, coeffs)


def period_space(weight: int) -> PeriodSpace:
    """Solve for a basis of the weight-``weight`` period-polynomial space.

    The three-term rows of the candidates (see the module docstring) are
    solved on the m rows ``x^(2m-b) y^b`` with b < m and certified on all
    2m + 1; the space keeps the canonical kernel vectors, which
    ``verify_brown_criterion`` compares with its own.
    """
    if weight % 2 != 0 or weight < 4:
        raise ValueError("weight must be an even integer >= 4, got %r" % (weight,))
    m = (weight - 2) // 2
    pairs = candidate_pairs(m)
    images = [_three_term(2 * m, {(2 * i, 2 * j): 1, (2 * j, 2 * i): -1}) for i, j in pairs]
    rows = [[img.get((2 * m - b, b), 0) for img in images] for b in range(2 * m + 1)]
    basis = kernel_basis(QMatrix(rows[:m], cols=len(pairs)))
    certify_kernel(rows, len(pairs), basis)
    return PeriodSpace(weight, basis)


def subspace_equal(first: Sequence[BivarPoly], second: Sequence[BivarPoly]) -> bool:
    """Decide span(first) == span(second); raise ``ValueError`` unless every polynomial has one degree.

    Each group's coefficient rows, over every monomial, are reduced in
    integers by ``exactla._integer_rref``, and each nonzero reduced row is
    made canonical: divided by its gcd, with its pivot entry positive.  The
    RREF of a span is unique and each reduced row is a nonzero rational
    multiple of its RREF row, so the canonical rows agree exactly when the
    RREFs do.
    """
    polys = [*first, *second]
    if not polys:
        return True
    degree = polys[0].degree
    if any(p.degree != degree for p in polys):
        raise ValueError("all polynomials must share one degree")
    monomials = [(degree - b, b) for b in range(degree + 1)]

    def row_space(group: Sequence[BivarPoly]) -> list[list[int]]:
        rows = [[p.coeffs.get(mono, 0) for mono in monomials] for p in group]
        reduced, pivots = _integer_rref(rows, len(monomials))
        canonical = []
        for row, c in zip(reduced, pivots):
            g = gcd(*row) if row[c] > 0 else -gcd(*row)
            canonical.append([x // g for x in row])
        return canonical

    return row_space(first) == row_space(second)
