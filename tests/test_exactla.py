import random
from fractions import Fraction
from itertools import chain
from math import lcm

import pytest
from rref_oracle import rref_kernel

from depthforge.exactla import QMatrix, _integer_rref, as_fraction, certify_kernel, kernel_basis, parse_rational, rref


def F(x):
    return Fraction(x)


class TestQMatrix:
    def test_shape_and_entries(self):
        m = QMatrix([[1, 2], [3, 4], [5, 6]])
        assert (m.rows, m.cols) == (3, 2)
        assert m.entries[1][0] == 3
        assert tuple(row[1] for row in m.entries) == (F(2), F(4), F(6))

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            QMatrix([[1, 2], [3]])

    def test_empty_needs_cols(self):
        with pytest.raises(ValueError):
            QMatrix([])
        m = QMatrix([], cols=4)
        assert (m.rows, m.cols) == (0, 4)

    def test_floats_rejected(self):
        for bad in (0.5, 1.5):
            with pytest.raises(TypeError):
                QMatrix([[bad]])

    def test_int_entries_stay_int(self):
        m = QMatrix([[2**70, -3], [0, Fraction(1, 2)]])
        assert [[type(x) for x in row] for row in m.entries] == [[int, int], [int, Fraction]]
        assert m.entries[1][1] == Fraction(1, 2)

    @pytest.mark.parametrize("seed", range(8))
    def test_rational_rows_and_their_integer_scalings_share_a_kernel(self, seed):
        rng = random.Random(300 + seed)
        m = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 7))
        scales = [rng.randint(1, 9) * lcm(*(x.denominator for x in row)) for row in m.entries]
        scaled = [[int(x * s) for x in row] for row, s in zip(m.entries, scales)]
        assert all(type(x) is int for row in QMatrix(scaled).entries for x in row)
        assert kernel_basis(QMatrix(scaled)) == kernel_basis(m)

    @pytest.mark.parametrize("bad", ["1", "0.25", True])
    def test_text_and_bools_rejected(self, bad):
        with pytest.raises(TypeError):
            QMatrix([[1, bad]])
        with pytest.raises(TypeError):
            QMatrix([[bad]])


class TestAsFraction:
    @pytest.mark.parametrize("given", [0, -7, 2**70, Fraction(-2, 3)])
    def test_ints_and_fractions(self, given):
        assert as_fraction(given) == given
        assert type(as_fraction(given)) is Fraction

    @pytest.mark.parametrize("bad", ["1/2", "7", " 1.5e0 ", "1e9", True, False])
    def test_text_and_bools_rejected(self, bad):
        # text goes through parse_rational; Fraction() alone reads "1e99999999"
        # by building 10^99999999
        with pytest.raises(TypeError):
            as_fraction(bad)


class TestParseRational:
    @pytest.mark.parametrize(
        "given, value", [("-3/4", F("-3/4")), ("7", F(7)), (5, F(5)), (Fraction(2, 3), Fraction(2, 3))]
    )
    def test_accepts_exact_values(self, given, value):
        assert parse_rational(given) == value

    @pytest.mark.parametrize("bad", [1.5, True, None, [1], "1/0", "abc", "", "nan"])
    def test_rejects_with_value_error(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)


class TestRref:
    def test_rank_one_matrix(self):
        reduced, pivots = rref([[2, 4], [1, 2]], 2)
        assert reduced == [[1, 2], [0, 0]]
        assert pivots == (0,)

    def test_already_reduced(self):
        rows = [[1, 0, -1], [0, 1, 1]]
        reduced, pivots = rref(rows, 3)
        assert reduced == rows
        assert pivots == (0, 1)

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(25):
            m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            reduced, pivots = rref(m.entries, m.cols)
            again, pivots2 = rref(reduced, m.cols)
            assert again == reduced
            assert pivots2 == pivots

    def test_pivot_columns_strictly_increase(self):
        rng = random.Random(11)
        for _ in range(25):
            m = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
            _, pivots = rref(m.entries, m.cols)
            assert list(pivots) == sorted(set(pivots))

    def test_zero_matrix(self):
        zero = [[0, 0]] * 3
        reduced, pivots = rref(zero, 2)
        assert reduced == zero
        assert pivots == ()

    def test_int_rows_reduce_to_exact_fractions(self):
        reduced, pivots = rref([[2, 1, 0], [0, 3, 1]], 3)
        assert reduced == [[F(1), F(0), F("-1/6")], [F(0), F(1), F("1/3")]]
        assert all(type(x) is Fraction for row in reduced for x in row)
        assert pivots == (0, 1)

    def test_no_rows(self):
        assert rref([], 3) == ([], ())

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            rref([[1, 0.5]], 2)

    @pytest.mark.parametrize("bad", ["1/2", True])
    def test_text_and_bools_rejected(self, bad):
        with pytest.raises(TypeError):
            rref([[1, bad]], 2)


class TestKernel:
    def test_two_row_example(self):
        basis = kernel_basis(QMatrix([[1, 1, 0], [0, 1, 1]]))
        assert basis == [(F(1), F(-1), F(1))]

    def test_full_rank_square(self):
        assert kernel_basis(QMatrix([[1, 2], [3, 4]])) == []

    def test_identity_kernel_trivial(self):
        assert kernel_basis(QMatrix([[int(i == j) for j in range(5)] for i in range(5)])) == []

    def test_zero_map_kernel_is_standard_basis(self):
        basis = kernel_basis(QMatrix([[0, 0, 0]] * 2))
        assert basis == [
            (F(1), F(0), F(0)),
            (F(0), F(1), F(0)),
            (F(0), F(0), F(1)),
        ]

    @pytest.mark.parametrize("seed", range(8))
    def test_rank_nullity_and_annihilation(self, seed):
        rng = random.Random(100 + seed)
        m = _random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
        basis = kernel_basis(m)
        assert len(rref(m.entries, m.cols)[1]) + len(basis) == m.cols
        for v in basis:
            assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in m.entries)
        # each row scaled by the lcm of its denominators: integers, same kernel
        rows = [[int(x * lcm(*(y.denominator for y in row))) for x in row] for row in m.entries]
        certify_kernel(rows, m.cols, basis)

    def test_certify_rejects_wrong_vector(self):
        rows = [[1, 2, 0], [0, 2, -3]]
        (v,) = kernel_basis(QMatrix(rows))
        certify_kernel(rows, 3, [v])
        with pytest.raises(AssertionError):
            certify_kernel(rows, 3, [v, (v[0], v[1] + Fraction(1, 5), v[2])])
        with pytest.raises(AssertionError):
            certify_kernel(rows, 3, [v[:2]])

    # kernel (1, 1, 1, 1); each row meets the next one in a single column
    CHAIN = [[1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1]]

    def test_certify_names_a_failing_first_row(self):
        good, bad = (F(1), F(1), F(1), F(1)), (F(2), F(1), F(1), F(1))
        certify_kernel(self.CHAIN, 4, [good])
        with pytest.raises(AssertionError, match=r"fails row 0 of"):
            certify_kernel(self.CHAIN, 4, [good, bad])

    def test_certify_names_a_failing_last_row(self):
        good, bad = (F(1), F(1), F(1), F(1)), (F(1), F(1), F(1), F("3/2"))
        with pytest.raises(AssertionError, match=r"fails row 2 of"):
            certify_kernel(self.CHAIN, 4, [good, bad])

    def test_canonical_form_free_coordinates(self):
        # each kernel vector has a 1 in "its" free column and 0 in the others
        m = QMatrix([[1, 2, 0, 3], [0, 0, 1, -1]])
        basis = kernel_basis(m)
        assert len(basis) == 2
        assert (basis[0][1], basis[0][3]) == (F(1), F(0))
        assert (basis[1][1], basis[1][3]) == (F(0), F(1))


class TestKernelOracle:
    """``kernel_basis`` (integer elimination) against the basis read off the Fraction ``rref``."""

    KINDS = ("integer", "rational", "30-digit integer", "30-digit rational")

    def _entry(self, rng, kind):
        if rng.random() < 0.3:
            return 0
        big = 10**30 if kind.startswith("30-digit") else 9
        if kind.endswith("integer"):
            return rng.randint(-big, big)
        return Fraction(rng.randint(-big, big), rng.randint(1, big))

    def _matrix(self, rng, kind):
        rows, cols = rng.randint(0, 7), rng.randint(1, 8)
        entries = [[self._entry(rng, kind) for _ in range(cols)] for _ in range(rows)]
        shape = rng.randrange(4)
        if shape == 1 and rows:  # a dependent row, combining two others
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            first, second = rng.choice(entries), rng.choice(entries)
            entries.insert(rng.randint(0, rows), [a * x + b * y for x, y in zip(first, second)])
        elif shape == 2:  # a zero row
            entries.insert(rng.randint(0, rows), [0] * cols)
        elif shape == 3:  # a zero column
            c = rng.randrange(cols)
            entries = [row[:c] + [0] + row[c + 1 :] for row in entries]
        return entries, cols

    @pytest.mark.parametrize("kind", KINDS)
    def test_equals_the_basis_read_off_rref(self, kind):
        rng = random.Random("kernel oracle " + kind)
        for trial in range(1000):
            entries, cols = self._matrix(rng, kind)
            basis = kernel_basis(QMatrix(entries, cols=cols))
            assert basis == rref_kernel(entries, cols), (kind, trial, entries)
            assert all(type(x) is Fraction for v in basis for x in v)

    def test_unit_pivots_reduce_as_rref(self):
        # rows with a leading 1 in each column, mixed by small combinations: most pivots, divided by
        # their gcd with the entry below, are 1, so the row combinations subtract multiples of the pivot row
        rng = random.Random("unit pivots")
        for trial in range(300):
            cols = rng.randint(1, 9)
            leads = sorted(rng.sample(range(cols), rng.randint(1, cols)))
            echelon = [[0] * c + [1] + [rng.randint(-4, 4) for _ in range(cols - c - 1)] for c in leads]
            entries = [[sum(rng.randint(-2, 2) * row[k] for row in echelon) for k in range(cols)] for _ in range(rng.randint(0, 3))]
            entries += echelon
            rng.shuffle(entries)
            reduced, pivots = _integer_rref(entries, cols)
            oracle, oracle_pivots = rref(entries, cols)
            assert tuple(pivots) == oracle_pivots, (trial, entries)
            for row, exact, c in zip(reduced, oracle, pivots):
                assert [Fraction(x, row[c]) for x in row] == exact, (trial, entries)
            assert not any(chain.from_iterable(reduced[len(pivots) :]))
            assert kernel_basis(QMatrix(entries, cols=cols)) == rref_kernel(entries, cols), (trial, entries)


def _random_matrix(rng, rows, cols):
    return QMatrix(
        [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(cols)] for _ in range(rows)]
    )
