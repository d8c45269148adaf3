"""Depth-1 generators, the depth-2 bracket matrix, and its relation kernel.

The depth-graded Lie algebra of interest is generated in each odd weight
2m+1 >= 3 by a canonical element whose depth-1 leading term is

    f_{2m+1} = ad(e0)^{2m} (e1)  =  sum_a (-1)^a C(2m, a) e0^a e1 e0^{2m-a}.

For a target weight 2m+2 the Ihara brackets {f_{2i+1}, f_{2j+1}} over pairs
i < j, i + j = m land in the depth-2, weight-(2m+2) word space spanned by
``e0^a e1 e0^b e1 e0^c`` with a + b + c = 2m.  The matrix rows follow
:func:`depth2_word_basis`, which is (a, b) descending and spells each word
as a ``"01"`` string.

:func:`bracket_matrix` computes those brackets in closed form over ``int``.
For a depth-1 element X the Leibniz sum of ``a(X)`` over the e0 letters of
a depth-1 word telescopes:

    a(X)(e0^b e1 e0^d) = e0^b X e1 e0^d - X e0^b e1 e0^d
                         + e0^b e1 e0^d X - e0^b e1 X e0^d,

and ``{X, Y} = a(X)(Y) - a(Y)(X) + XY - YX``.  With X = sum_a x_a e0^a e1
e0^(n-a) and Y = sum_b y_b e0^b e1 e0^(k-b), the terms ``-X e0^b ...`` and
``XY`` cancel (likewise for Y), leaving six integer terms per product
x_a y_b, so each column is an O(w^2) sum.  The generic word algebra in
:mod:`depthforge.ncalg` (``ihara_bracket`` on :func:`sigma_leading`) is the
reference the tests compare this against.  The matrix is returned as
``(rows, cols)``, integer row tuples and a column count, the form that
:func:`depthforge.exactla.certify_kernel` and the tests' ``rref`` oracle take.

:func:`relation_kernel` solves for the kernel on m+1 rows only, the words
``e1 e0^b e1 e0^(2m-b)`` with b >= m.  A depth-2 Lie element is determined
by its coefficients at y0 = 0, which are exactly the 2m+1 words that begin
with ``e1`` (a = 0) (Brown, *Depth-graded motivic multiple zeta values*,
arXiv:1301.3053), and the rows of ``e1 e0^b e1 e0^(2m-b)`` and
``e1 e0^(2m-b) e1 e0^b`` are equal or opposite (the tests check m <= 40),
so the m+1 rows with b >= m carry the whole kernel.  The code relies on
neither fact.  Reversing a word,
``e0^a e1 e0^b e1 e0^c -> e0^c e1 e0^b e1 e0^a``, negates its row: that is
checked on every row by comparing tuples, with no products, and then
``M v = 0`` is checked in integers on the rows with a < c only.  A vector
kills a row exactly when it kills its negative, and a row with a = c is its
own negative, hence zero, so the two checks prove ``M v = 0`` on every row
of the full matrix.  Dropping rows can only enlarge a kernel, so a passing
certificate proves the two kernels equal, and since the canonical basis
depends only on the kernel, it is the basis the full matrix would give.

Writing the brackets as the columns of a matrix, a rational vector (a_ij)
over ``candidate_pairs(m)`` gives a relation

    sum a_ij [sigma_{2i+1}, sigma_{2j+1}] = 0   (depth-graded)

exactly when it lies in the matrix kernel; such vectors are the one relation
format, from :func:`relation_kernel` to the reports.  The criterion verified
by :func:`verify_brown_criterion` says these relations correspond, via
``periodpoly.pair_to_poly`` (``(i, j) -> x^2i y^2j - x^2j y^2i``), to the
restricted even period polynomials of weight 2m+2 -- an executable bridge
checked here by running both solvers independently and comparing their
kernels.  Both solve for vectors over ``candidate_pairs(m)``, and
``period_space`` keeps its canonical ``kernel_basis`` vectors; a canonical
basis is read off an RREF that depends only on the kernel, so the two lists
of vectors are equal exactly when the kernels are, with no normalization in
between, and a ``True`` trusts neither solver.
"""

from __future__ import annotations

from math import comb
from operator import add

from . import periodpoly
from .exactla import QMatrix, Vector, certify_kernel, kernel_basis
from .ncalg import NCPoly, ad_pow, generators
from .periodpoly import candidate_pairs


def sigma_leading(m: int) -> NCPoly:
    """The weight-(2m+1), depth-1 leading word expansion ad(e0)^2m (e1)."""
    if m < 1:
        raise ValueError("generators start at weight 3 (m >= 1), got m=%r" % (m,))
    e0, e1 = generators()
    return ad_pow(e0, 2 * m, e1)


def _depth2_indices(weight: int) -> list[tuple[int, int]]:
    """(a, b) of the depth-2 words e0^a e1 e0^b e1 e0^c of a weight, in row order."""
    n = weight - 2
    return [(a, b) for a in range(n, -1, -1) for b in range(n - a, -1, -1)]


def depth2_word_basis(weight: int) -> list[str]:
    """All depth-2 words of the given weight as ``"01"`` strings, ascending.

    Ascending words are (a, b) descending: more leading e0s sort first.
    """
    n = weight - 2
    return ["0" * a + "1" + "0" * b + "1" + "0" * (n - a - b) for a, b in _depth2_indices(weight)]


def _depth2_bracket(i: int, j: int) -> list[list[int]]:
    """{f_{2i+1}, f_{2j+1}} as ``out[a][b]``, the coefficient of e0^a e1 e0^b e1 e0^c.

    X = f_{2i+1} has x_a = (-1)^a C(2i, a) on e0^a e1 e0^(2i-a), Y likewise;
    each comment names the term of a(X)Y or of a(Y)X (which enters with a
    minus sign) that the product x_a y_b lands on.
    """
    n, k = 2 * i, 2 * j
    y = [(-1) ** b * comb(k, b) for b in range(k + 1)]
    out = [[0] * (n + k + 1) for _ in range(n + k + 1)]
    for a in range(n + 1):
        xa = (-1) ** a * comb(n, a)
        for b, yb in enumerate(y):
            xy = xa * yb
            out[a + b][n - a] += xy  # a(X)Y: e0^b X e1 e0^(k-b)
            out[b][k - b + a] += xy  # a(X)Y: e0^b e1 e0^(k-b) X
            out[b][a] -= xy  # a(X)Y: -e0^b e1 X e0^(k-b)
            out[a + b][k - b] -= xy  # a(Y)X: e0^a Y e1 e0^(n-a)
            out[a][n - a + b] -= xy  # a(Y)X: e0^a e1 e0^(n-a) Y
            out[a][b] += xy  # a(Y)X: -e0^a e1 Y e0^(n-a)
    return out


def bracket_matrix(m: int) -> tuple[list[tuple[int, ...]], int]:
    """The depth-2 bracket matrix at weight 2m+2, as integer rows and a column count.

    Columns follow ``candidate_pairs(m)`` (lexicographic pairs (i, j), i < j,
    i + j = m); rows follow :func:`depth2_word_basis`.  Column (i, j) holds
    the depth-2 component of the Ihara bracket {f_{2i+1}, f_{2j+1}},
    computed in closed form (see the module docstring).
    """
    if m < 2:
        raise ValueError("bracket matrix needs m >= 2, got %r" % (m,))
    columns = [_depth2_bracket(i, j) for i, j in candidate_pairs(m)]
    # each row is built at its final length (see exactla.kernel_basis on resized tuples)
    rows = [tuple([col[a][b] for col in columns]) for a, b in _depth2_indices(2 * m + 2)]
    return rows, len(columns)


def relation_kernel(m: int) -> list[Vector]:
    """Canonical kernel basis of :func:`bracket_matrix`, over ``candidate_pairs(m)``.

    Solved on the m+1 rows ``e1 e0^b e1 e0^(2m-b)`` with b >= m and certified
    on every row of the full matrix (see the module docstring); a failed check
    raises ``AssertionError`` naming a row of the full matrix.
    """
    rows, cols = bracket_matrix(m)
    basis = kernel_basis(QMatrix(rows[-(2 * m + 1) : -m], cols=cols))
    certify_kernel(rows, cols, basis, _reversal_half(m, rows))
    return basis


def _reversal_half(m: int, rows: list[tuple[int, ...]]) -> list[int]:
    """Indices of the bracket rows with a < c, once reversal is seen to negate every row.

    Row (a, b) sits at index T(2m - a) + c, with T(k) = k(k+1)/2 and
    c = 2m - a - b (:func:`_depth2_indices`), so its reversal (c, b) sits at
    T(2m - c) + a.  Raises ``AssertionError`` naming the (a, b) of the first
    pair whose rows are not opposite.
    """
    n = 2 * m
    half = []
    for i, (a, b) in enumerate(_depth2_indices(n + 2)):
        c = n - a - b
        if a > c:
            continue
        if any(map(add, rows[i], rows[(n - c) * (n - c + 1) // 2 + a])):
            raise AssertionError(
                "the bracket row of (a, b) = (%d, %d) is not minus the row of its reversal (%d, %d)" % (a, b, c, b)
            )
        if a < c:
            half.append(i)
    return half


class BrownReport:
    """Bracket-relation kernel vs period space at one weight; :meth:`to_json_obj` is the ``verify brown`` case."""

    __slots__ = ("weight", "kernel_dim", "period_dim", "in_space", "spans")

    def __init__(self, weight: int, kernel_dim: int, period_dim: int, in_space: bool, spans: bool):
        self.weight = weight
        self.kernel_dim = kernel_dim
        self.period_dim = period_dim
        self.in_space = in_space
        self.spans = spans

    @property
    def matches(self) -> bool:
        return self.in_space and self.spans and self.kernel_dim == self.period_dim

    def to_json_obj(self) -> dict:
        return {
            "weight": self.weight,
            "pairs": [list(p) for p in candidate_pairs(self.weight // 2 - 1)],
            "kernel_dim": self.kernel_dim,
            "period_dim": self.period_dim,
            "in_space": self.in_space,
            "spans": self.spans,
            "match": self.matches,
        }


def verify_brown_criterion(m: int) -> BrownReport:
    """Check that bracket relations = period polynomials at weight 2m+2.

    Reports whether the image of each kernel vector under ``pair_to_poly``
    satisfies the four period identities (decided by the defining equations,
    not by the period solver) and whether the kernel basis equals the
    independently solved ``period_space(2m+2).vectors``, which holds exactly
    when the kernels are equal (see the module docstring).
    """
    if m < 2:
        raise ValueError("criterion applies from m >= 2, got %r" % (m,))
    kernel = relation_kernel(m)
    space = periodpoly.period_space(2 * m + 2)
    return BrownReport(
        weight=2 * m + 2,
        kernel_dim=len(kernel),
        period_dim=space.dim,
        in_space=all(periodpoly.is_period_poly(periodpoly.pair_to_poly(m, vec)).ok for vec in kernel),
        spans=kernel == space.vectors,
    )
