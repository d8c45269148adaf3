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
``e1 e0^b e1 e0^(2m-b)`` with b >= m, and certifies it on the full matrix
with no theorem assumed.  Read e0^a e1 e0^b e1 e0^c as y0^a y1^b y2^c.
Every bracket column G is translation invariant, (d0 + d1 + d2) G = 0
(Brown, *Depth-graded motivic multiple zeta values*, arXiv:1301.3053,
section 6); on the coefficients, for all a + b + c = 2m - 1,

    (a+1) G[a+1][b] + (b+1) G[a][b+1] + (c+1) G[a][b] = 0,

which is checked in integers on every cell of every column.  A translation
invariant H satisfies H(y0, y1, y2) = H(0, y1 - y0, y2 - y0), so
H = sum_c v_c G_c vanishes once its coefficients with a = 0 do, and
``M v = 0`` is checked in integers on those 2m+1 rows, the words that begin
with ``e1``: the two checks prove ``M v = 0`` on every row.  The rows of
``e1 e0^b e1 e0^(2m-b)`` and ``e1 e0^(2m-b) e1 e0^b`` are equal or opposite
(the tests check m <= 40), which is why the m+1 rows carry the whole kernel.
Dropping rows can only enlarge a kernel, so a passing certificate proves the
two kernels equal, and since the canonical basis depends only on the kernel,
it is the basis the full matrix would give.

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
from typing import Iterator

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
    """{f_{2i+1}, f_{2j+1}} as the triangle ``out[a][b]``, a + b <= 2(i+j), the coefficient of e0^a e1 e0^b e1 e0^c.

    X = f_{2i+1} has x_a = (-1)^a C(2i, a) on e0^a e1 e0^(2i-a), Y likewise;
    each comment names the term of a(X)Y or of a(Y)X (which enters with a
    minus sign) that the product x_a y_b lands on.
    """
    n, k = 2 * i, 2 * j
    y = [(-1) ** b * comb(k, b) for b in range(k + 1)]
    out = [[0] * (n + k + 1 - a) for a in range(n + k + 1)]
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


def _bracket_columns(m: int) -> Iterator[list[list[int]]]:
    """The :func:`_depth2_bracket` triangle of every pair in ``candidate_pairs(m)``, in order, one at a time."""
    if m < 2:
        raise ValueError("bracket matrix needs m >= 2, got %r" % (m,))
    return (_depth2_bracket(i, j) for i, j in candidate_pairs(m))  # not a generator function: m is checked here


def bracket_matrix(m: int) -> tuple[list[tuple[int, ...]], int]:
    """The depth-2 bracket matrix at weight 2m+2, as integer rows and a column count.

    Columns follow ``candidate_pairs(m)`` (lexicographic pairs (i, j), i < j,
    i + j = m); rows follow :func:`depth2_word_basis`.  Column (i, j) holds
    the depth-2 component of the Ihara bracket {f_{2i+1}, f_{2j+1}},
    computed in closed form (see the module docstring).
    """
    columns = list(_bracket_columns(m))
    # each row is built at its final length (see exactla.kernel_basis on resized tuples)
    rows = [tuple([col[a][b] for col in columns]) for a, b in _depth2_indices(2 * m + 2)]
    return rows, len(columns)


def relation_kernel(m: int) -> list[Vector]:
    """Canonical kernel basis of :func:`bracket_matrix`, over ``candidate_pairs(m)``.

    Solved on the m+1 rows ``e1 e0^b e1 e0^(2m-b)`` with b >= m and proved on
    the full matrix by translation invariance (see the module docstring); a
    failed check raises ``AssertionError`` naming the column's pair (i, j) and
    cell (a, b), or the row among the 2m+1 with a = 0 (b = 2m first).
    """
    firsts = []  # each column's row a = 0; the rest of it is dropped once checked
    n = 2 * m
    for (i, j), g in zip(candidate_pairs(m), _bracket_columns(m)):
        # cell (a, b) is checked against the cells (a+1, b) and (a, b+1) after it,
        # so a wrong cell with c >= 1 is the first one named
        for a in range(n - 1, -1, -1):
            row, up = g[a], g[a + 1]
            for b in range(n - 1 - a, -1, -1):
                if (a + 1) * up[b] + (b + 1) * row[b + 1] + (n - a - b) * row[b]:
                    raise AssertionError(
                        "the bracket column of (i, j) = (%d, %d) is not translation invariant at (a, b) = (%d, %d)"
                        % (i, j, a, b)
                    )
        firsts.append(g[0])
    rows = [tuple([first[b] for first in firsts]) for b in range(n, -1, -1)]
    basis = kernel_basis(QMatrix(rows[: m + 1], cols=len(firsts)))
    certify_kernel(rows, len(firsts), basis)
    return basis


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
