"""The depth-2 Ihara bracket scattered product by product into a triangle: the tests' oracle for ``depthlie``'s rows.

For a depth-1 element X the Leibniz sum of ``a(X)`` over the e0 letters of
a depth-1 word telescopes:

    a(X)(e0^b e1 e0^d) = e0^b X e1 e0^d - X e0^b e1 e0^d
                         + e0^b e1 e0^d X - e0^b e1 X e0^d,

and ``{X, Y} = a(X)(Y) - a(Y)(X) + XY - YX``.  With X = sum_a x_a e0^a e1
e0^(n-a) and Y = sum_b y_b e0^b e1 e0^(k-b), the terms ``-X e0^b ...`` and
``XY`` cancel (likewise for Y), leaving six terms per product x_a y_b, which
:func:`_depth2_bracket` adds to the cells they land on.  ``depthlie``
evaluates each cell from a determinant instead; the tests compare the two.
"""

from math import comb


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
