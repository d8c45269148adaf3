"""Exact linear algebra over the rationals.

Scalars are ``int`` or :class:`fractions.Fraction`; no floats ever enter a
computation.  ``str(Fraction)`` already produces the wire format used by the
rest of the package (``"a/b"``, or ``"a"`` when the denominator is 1), and
:func:`parse_rational` parses it back at every input boundary, refusing
floats and malformed values with ``ValueError``.  Inside the package,
:func:`as_fraction` takes only an ``int`` or a ``Fraction``, and
:class:`QMatrix` keeps each entry as the one of the two it was given.

The row reduction here is deliberately boring: dense matrices, leftmost
nonzero pivot, no pivot-size heuristics.  :func:`_integer_rref` eliminates
fraction-free, as Bareiss does (Math. Comp. 22, 1968), but divides each
integer row combination by its gcd.  :func:`kernel_basis` reads the
canonical basis off its reduced rows, so its vectors equal those read off
the Fraction :func:`rref`, and ``periodpoly.subspace_equal`` compares spans
on its rows.  Both eliminations are fully deterministic, which the callers
rely on (kernel vectors are compared against frozen expected values and
emitted byte-identically in reports).  :func:`rref` has no caller in the package:
it is the tests' oracle, and it stays here only because the benchmark's
tracer (``perfbench/tracing.py``) wraps ``exactla.rref`` by name.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]

_RATIONAL_TEXT = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def as_fraction(x) -> Fraction:
    """Coerce an ``int`` or a ``Fraction`` to Fraction; raise ``TypeError`` for anything else.

    Floats would smuggle in rounding, a bool is no number, and text is read
    by :func:`parse_rational` alone (``Fraction("1e99999999")`` builds 10^99999999).
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError("expected an int or a Fraction in an exact computation, got %r" % (x,))


def parse_rational(x) -> Fraction:
    """Parse a rational arriving from outside the program (JSON or a flag).

    Accepts an ``int``, a ``Fraction`` or ``"a"`` or ``"a/b"`` in ASCII digits with
    an optional sign, such as ``"-3/4"``; raises ``ValueError`` for anything else
    (``Fraction`` alone reads ``"1e999999999"`` and builds 10^999999999) and b = 0.
    """
    if isinstance(x, bool) or not isinstance(x, (int, Fraction, str)):
        raise ValueError("expected an integer or a rational string such as \"1/3\", got %r" % (x,))
    try:
        if isinstance(x, str) and not _RATIONAL_TEXT.fullmatch(x):
            raise ValueError
        return Fraction(x)
    except (ValueError, ZeroDivisionError):
        raise ValueError("not a rational number: %r" % (x,)) from None


class QMatrix:
    """A dense matrix of ints and Fractions with a fixed rectangular shape: the argument of :func:`kernel_basis`.

    Instances are immutable.  ``cols`` must be given explicitly when
    constructing a matrix with zero rows, since the column count cannot be
    inferred from an empty row list.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Sequence], cols: int | None = None):
        rows = tuple(map(tuple, entries))
        for x in chain.from_iterable(rows):
            if type(x) is not int:
                as_fraction(x)  # a Fraction passes; a bool, float or text raises TypeError
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise ValueError("ragged rows: all rows must have equal length")
            if cols is not None and cols != ncols:
                raise ValueError("cols=%d disagrees with row length %d" % (cols, ncols))
        else:
            if cols is None:
                raise ValueError("a matrix with zero rows needs an explicit cols=")
            ncols = cols
        self.rows = len(rows)
        self.cols = ncols
        self.entries = rows


def rref(rows: Sequence[Sequence], cols: int) -> tuple[list[list[Fraction]], tuple[int, ...]]:
    """Reduced row echelon form of ``rows`` (``cols`` wide) and its pivot columns.

    Entries are coerced with :func:`as_fraction`, so ints become Fractions and
    anything else raises ``TypeError``.  Deterministic policy: scan columns left to
    right, take the first row at or below the current one with a nonzero
    entry, swap it up, scale the pivot to 1 and clear the whole column.  The
    pivot row is zero left of column c, so only columns c onwards are touched.
    """
    work = [[as_fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        sel = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if sel is None:
            continue
        work[r], work[sel] = work[sel], work[r]
        inv = 1 / work[r][c]
        pivot = [x * inv for x in work[r][c:]]
        work[r][c:] = pivot
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i][c:] = [x - f * y for x, y in zip(work[i][c:], pivot)]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work, tuple(pivots)


def _integer_rref(rows: Iterable[Sequence], cols: int) -> tuple[list[list[int]], list[int]]:
    """Gauss-Jordan in integers: the reduced rows of ``rows`` (``cols`` wide) and their pivot columns.

    Each row is scaled by the lcm of its denominators, then reduced with the
    pivot policy of :func:`rref`: a row with f in the pivot column c of
    pivot row r (p there), both divided by their gcd, becomes ``p row - f
    row_r``, divided by its gcd.  Row r is zero left of column c, so one
    pass over the whole row scales the entries there by p.  The first
    ``len(pivots)`` rows are their :func:`rref` rows times a nonzero
    integer, and the rest are zero.
    """
    work = []
    for row in rows:
        # a list, not a generator: tuple() resizes a generator's tuple, and CPython
        # keeps every resized tuple on a free list, so a long-lived caller grows
        scale = lcm(*[x.denominator for x in row])
        work.append([x.numerator * (scale // x.denominator) for x in row])
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        sel = next((i for i in range(r, len(work)) if work[i][c]), None)
        if sel is None:
            continue
        work[r], work[sel] = work[sel], work[r]
        pivot = work[r]
        for i, row in enumerate(work):
            if i != r and row[c]:
                g = gcd(pivot[c], row[c])
                p, f = pivot[c] // g, row[c] // g
                row = [p * x - f * y for x, y in zip(row, pivot)]
                g = gcd(*row)
                work[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work, pivots


def kernel_basis(m: QMatrix) -> list[Vector]:
    """Canonical basis of ``{v : m @ v = 0}``.

    One vector per free (non-pivot) column, in ascending column order: the
    free coordinate is set to 1, the other free coordinates to 0, and the
    pivot coordinates are read off the reduced rows.  With this
    normalisation the basis is unique, so results can be compared and
    serialised verbatim.

    The rows come from :func:`_integer_rref`.  A reduced row is its
    :func:`rref` row times its pivot entry, so ``v[pivot] = -row[f] / row[pivot]``.
    """
    work, pivots = _integer_rref(m.entries, m.cols)
    pivot_set = set(pivots)
    free_cols = [c for c in range(m.cols) if c not in pivot_set]
    basis: list[Vector] = []
    for f in free_cols:
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for row, p in zip(work, pivots):
            v[p] = Fraction(-row[f], row[p])
        basis.append(tuple(v))
    # rank-nullity, checked on every call: cheap and catches bookkeeping bugs
    if len(pivots) + len(basis) != m.cols:
        raise AssertionError("rank-nullity violated: %d + %d != %d" % (len(pivots), len(basis), m.cols))
    return basis


def certify_kernel(rows: Sequence[Sequence[int]], cols: int, basis: Sequence[Sequence[Fraction]]) -> None:
    """Raise ``AssertionError`` unless ``row . v == 0`` for every row in ``rows`` and every ``v`` in ``basis``.

    ``rows`` are the integer rows of a matrix with ``cols`` columns; a
    failure names the row by its index within ``rows``.  Each vector is
    scaled by the lcm of its denominators, which does not change whether a
    product is zero, so every product is taken in integers.
    """
    if not basis:
        return
    if any(len(v) != cols for v in basis):
        raise AssertionError("a kernel vector's length differs from cols %d" % cols)
    vectors = []
    for v in basis:
        scale = lcm(*[x.denominator for x in v])
        vectors.append([x.numerator * scale // x.denominator for x in v])
    # Pack the vectors side by side, ``bits`` apart, into one integer per
    # column: row . packed is sum_k (row . v_k) 2^(k bits), and as every
    # |row . v_k| < 2^(bits-1), it is zero only if every row . v_k is.
    biggest = max(map(abs, chain.from_iterable(rows)), default=0)
    bits = (biggest * max(sum(map(abs, v)) for v in vectors)).bit_length() + 1
    packed = [sum(v[c] << (k * bits) for k, v in enumerate(vectors)) for c in range(cols)]
    failed = next((i for i, row in enumerate(rows) if sum(map(mul, row, packed))), None)
    if failed is not None:
        raise AssertionError("the kernel basis fails row %d of the matrix" % failed)
