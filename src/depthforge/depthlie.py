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
Read e0^a e1 e0^b e1 e0^c as y0^a y1^b y2^c.  With n = 2i, k = 2j the
bracket is six products of powers of differences (Brown, *Depth-graded
motivic multiple zeta values*, arXiv:1301.3053, section 6):

    G = (y1-y0)^n (y2-y0)^k + (y2-y1)^n (y1-y0)^k - (y2-y1)^n (y2-y0)^k
      - (y2-y0)^n (y1-y0)^k - (y1-y0)^n (y2-y1)^k + (y2-y0)^n (y2-y1)^k.

Each factor holds a variable the other lacks, so each term puts a single
product x_p y_q on y0^a y1^b y2^c, with x_t = (-1)^t C(n, t),
y_t = (-1)^t C(k, t) and p != q two of a, b, c; with their signs the six
terms give the 3x3 determinant of rows (1, 1, 1), x and y at (a, b, c):

    G[a][b] = x_a (y_b - y_c) + x_b (y_c - y_a) + x_c (y_a - y_b),

c = 2m - a - b, where x_t = 0 for t > n and y_t = 0 for t > k.  The tests
compare it with ``ihara_bracket`` (:mod:`depthforge.ncalg`) on
:func:`sigma_leading` and with the bracket scattered term by term.  The
matrix is returned as ``(rows, cols)``, integer row tuples and a column
count, the form :func:`depthforge.exactla.certify_kernel` and the tests'
``rref`` oracle take.

:func:`relation_kernel` solves for the kernel on m+1 rows only, the words
``e1 e0^b e1 e0^(2m-b)`` with b >= m, and certifies it on the full matrix
with no theorem assumed.  Each term of G is unchanged by y_t -> y_t + s, so
each column is translation invariant, (d0 + d1 + d2) G = 0, by algebra, and
so is H = sum_c v_c G_c: H(y0, y1, y2) = H(0, y1 - y0, y2 - y0) vanishes
once its coefficients with a = 0 do.  ``M v = 0`` is checked in integers on
those 2m+1 rows, the words that begin with ``e1``, which proves it on every
row.  Swapping b and c swaps two columns of the determinant, so the e1
rows b and 2m - b are opposite, which is why the m+1 rows carry the whole
kernel.  Dropping rows can only enlarge a kernel, so a passing certificate
proves the two kernels equal, and since the canonical basis depends only on
the kernel, it is the basis the full matrix would give.

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


def _bracket_rows(m: int, cells: list[tuple[int, int]]) -> tuple[list[tuple[int, ...]], int]:
    """The bracket matrix's rows (a, b) at weight 2m+2, one per cell of ``cells``, and its column count.

    Column (i, j) of row (a, b) is the determinant of the module docstring,
    read from x_t = (-1)^t C(2i, t) and y_t = (-1)^t C(2j, t), t <= 2m
    (``comb`` is 0 past 2i or 2j).
    """
    if m < 2:
        raise ValueError("bracket matrix needs m >= 2, got %r" % (m,))
    n = 2 * m

    def signed(k: int) -> list[int]:
        return [(-1) ** t * comb(k, t) for t in range(n + 1)]

    columns = [(signed(2 * i), signed(2 * j)) for i, j in candidate_pairs(m)]
    # each row is built at its final length (see exactla.kernel_basis on resized tuples)
    rows = [
        tuple([x[a] * (y[b] - y[c]) + x[b] * (y[c] - y[a]) + x[c] * (y[a] - y[b]) for x, y in columns])
        for a, b, c in ((a, b, n - a - b) for a, b in cells)
    ]
    return rows, len(columns)


def bracket_matrix(m: int) -> tuple[list[tuple[int, ...]], int]:
    """The depth-2 bracket matrix at weight 2m+2, as integer rows and a column count.

    Columns follow ``candidate_pairs(m)`` (lexicographic pairs (i, j), i < j,
    i + j = m); rows follow :func:`depth2_word_basis`.  Column (i, j) holds
    the depth-2 component of the Ihara bracket {f_{2i+1}, f_{2j+1}},
    computed in closed form (see the module docstring).
    """
    return _bracket_rows(m, _depth2_indices(2 * m + 2))


def relation_kernel(m: int) -> list[Vector]:
    """Canonical kernel basis of :func:`bracket_matrix`, over ``candidate_pairs(m)``.

    Solved on the m+1 rows ``e1 e0^b e1 e0^(2m-b)`` with b >= m and proved on
    the full matrix by translation invariance (see the module docstring); a
    failed certificate raises ``AssertionError`` naming the row among the
    2m+1 with a = 0 (b = 2m first).
    """
    rows, cols = _bracket_rows(m, [(0, b) for b in range(2 * m, -1, -1)])
    basis = kernel_basis(QMatrix(rows[: m + 1], cols=cols))
    certify_kernel(rows, cols, basis)
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
