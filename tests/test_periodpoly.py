import random
from fractions import Fraction
from math import comb

import pytest
from rref_oracle import rref_spans_equal

from depthforge import periodpoly
from depthforge.exactla import kernel_basis
from depthforge.periodpoly import (
    BivarPoly,
    _three_term,
    candidate_pairs,
    is_period_poly,
    pair_to_poly,
    period_space,
    subspace_equal,
)

# x^2 y^2 (x^2 - y^2)^3, the first interesting restricted even period polynomial
GOLDEN_12 = BivarPoly(10, {(8, 2): 1, (6, 4): -3, (4, 6): 3, (2, 8): -1})


class TestBivarPoly:
    def test_requires_homogeneous(self):
        with pytest.raises(ValueError):
            BivarPoly(2, {(2, 0): 1, (1, 0): 1})

    def test_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            BivarPoly(1, {(2, -1): 1})

    def test_rejects_float_coefficients(self):
        with pytest.raises(TypeError):
            BivarPoly(2, {(2, 0): 0.5})

    @pytest.mark.parametrize("bad", ["1/2", " 1.5e0 ", True])
    def test_rejects_text_and_bool_coefficients(self, bad):
        with pytest.raises(TypeError):
            BivarPoly.monomial(2, 8, bad)
        with pytest.raises(TypeError):
            GOLDEN_12 * bad

    @pytest.mark.parametrize("degree,coeffs", [(4, {(2.0, 2): 1}), (4, {(True, 3): 1}), (4.0, {(2, 2): 1}), (True, {})])
    def test_rejects_non_int_exponents_and_degree(self, degree, coeffs):
        with pytest.raises(ValueError, match="int"):
            BivarPoly(degree, coeffs)

    def test_zero_carries_degree(self):
        z = BivarPoly(6)
        assert z.coeffs == {}
        assert z.degree == 6
        assert not z

    def test_monomial_constructor(self):
        p = BivarPoly.monomial(3, 1, coeff=Fraction(1, 2))
        assert p.degree == 4
        assert p.coeffs == {(3, 1): Fraction(1, 2)}

    def test_arithmetic(self):
        p = BivarPoly(2, {(2, 0): 1, (0, 2): 1})
        q = BivarPoly(2, {(2, 0): 1})
        assert (p + (-1) * q).coeffs == {(0, 2): Fraction(1)}
        assert (3 * q).coeffs == {(2, 0): Fraction(3)}
        assert not p + (-1) * p

    def test_add_degree_mismatch(self):
        with pytest.raises(ValueError):
            BivarPoly(2, {(2, 0): 1}) + BivarPoly(3, {(3, 0): 1})

    def test_leading_normalized(self):
        p = BivarPoly(10, {(8, 2): -2, (2, 8): 2})
        n = p.leading_normalized()
        assert n.coeffs[(8, 2)] == 1
        assert n.coeffs[(2, 8)] == -1

    def test_json_round_trip(self):
        obj = GOLDEN_12.to_json_obj()
        assert obj["x^8*y^2"] == "1"
        assert obj["x^6*y^4"] == "-3"
        assert BivarPoly.from_json_obj(obj) == GOLDEN_12

    def test_json_zero_needs_degree(self):
        assert not BivarPoly.from_json_obj({}, degree=4)
        with pytest.raises(ValueError):
            BivarPoly.from_json_obj({})

    def test_from_json_bad_monomial(self):
        with pytest.raises(ValueError):
            BivarPoly.from_json_obj({"x^2*z^2": "1"})

    @pytest.mark.parametrize("key", ["x^\u0662*y^\u0668", "x^2*y^\u0668", "x^2*y^8\n"])
    def test_from_json_key_takes_ascii_digits_only(self, key):
        # int() reads Arabic-Indic digits and re's $ matches before a final newline
        with pytest.raises(ValueError, match="expected 'x\\^a\\*y\\^b'"):
            BivarPoly.from_json_obj({key: "1"}, degree=10)
        with pytest.raises(ValueError, match="expected 'x\\^a\\*y\\^b'"):
            BivarPoly.from_json_obj({key: "1"})

    def test_from_json_sums_two_spellings_of_one_monomial(self):
        p = BivarPoly.from_json_obj({"x^2*y^8": "1", "x^02*y^8": "1/2", "x^8*y^2": "-1"})
        assert p == BivarPoly(10, {(2, 8): Fraction(3, 2), (8, 2): -1})
        assert not BivarPoly.from_json_obj({"x^2*y^8": "1", "x^2*y^008": "-1"})

    def test_from_json_reads_every_value_before_any_key(self):
        with pytest.raises(ValueError, match="not a rational number"):
            BivarPoly.from_json_obj({"x^2*y^8": "1", "x^2*z^8": "1", "x^8*y^2": "1.5"})


class TestIsPeriodPoly:
    def test_golden_weight12_passes(self):
        check = is_period_poly(GOLDEN_12)
        assert check.ok
        assert check.failed is None

    def test_zero_passes(self):
        assert is_period_poly(BivarPoly(10)).ok

    def test_pure_x_power_fails_boundary(self):
        check = is_period_poly(BivarPoly(10, {(10, 0): 1}))
        assert not check.ok
        assert check.failed == "f(x,0) = 0"

    def test_symmetric_fails_antisymmetry(self):
        p = BivarPoly(10, {(8, 2): 1, (2, 8): 1})
        check = is_period_poly(p)
        assert not check.ok
        assert check.failed == "antisymmetry f(x,y) + f(y,x) = 0"

    def test_odd_exponent_fails_evenness(self):
        p = BivarPoly(10, {(7, 3): 1, (3, 7): -1})
        check = is_period_poly(p)
        assert not check.ok
        assert check.failed == "evenness in each variable"

    def test_antisymmetric_even_but_not_three_term(self):
        p = BivarPoly(10, {(8, 2): 1, (2, 8): -1})
        check = is_period_poly(p)
        assert not check.ok
        assert check.failed == "three-term relation f(x,y) + f(x-y,x) + f(-y,x-y) = 0"


class TestPeriodSpace:
    @pytest.mark.parametrize("weight", [4, 6, 8, 10])
    def test_low_weights_trivial(self, weight):
        assert period_space(weight).dim == 0

    def test_weight12_is_golden(self):
        space = period_space(12)
        assert space.dim == 1
        assert space.basis[0] == GOLDEN_12

    def test_weight16_normalized(self):
        space = period_space(16)
        assert space.dim == 1
        lead = max(space.basis[0].coeffs)
        assert space.basis[0].coeffs[lead] == 1

    def test_weight24_dim2(self):
        space = period_space(24)
        assert space.dim == 2
        first, second = space.basis
        assert not subspace_equal([first], [second])  # independent
        assert all(b.coeffs[max(b.coeffs)] == 1 for b in space.basis)

    @pytest.mark.parametrize("weight", range(4, 31, 2))
    def test_every_basis_element_verifies(self, weight):
        for b in period_space(weight).basis:
            assert is_period_poly(b).ok
            assert b.degree == weight - 2

    def test_three_term_images_of_candidates_are_antisymmetric(self):
        # so the middle row is zero, and the rows x^(2m-b) y^b with b < m carry the kernel
        for weight in range(4, 201, 2):
            n = weight - 2
            for i, j in candidate_pairs(n // 2):
                image = _three_term(n, {(2 * i, 2 * j): 1, (2 * j, 2 * i): -1})
                assert len(image) == n + 1
                assert all(image[n - b] == -c for b, c in enumerate(image)), (weight, i, j)

    def test_binomial_rows_past_the_table_are_not_kept(self):
        for a in [*range(0, 206), 999, 1000]:
            assert periodpoly._binomial_row(a) == [comb(a, i) for i in range(a + 1)], a
        assert len(periodpoly._PASCAL) == periodpoly._PASCAL_DEGREE + 1

    def test_closed_form_columns_are_the_three_term_images(self):
        for weight in range(4, 201, 2):
            m = weight // 2 - 1
            images = [_three_term(2 * m, {(2 * i, 2 * j): 1, (2 * j, 2 * i): -1}) for i, j in candidate_pairs(m)]
            assert periodpoly._period_columns(m) == images, weight

    def test_wrong_kernel_vector_rejected(self, monkeypatch):
        def perturbed(matrix):
            basis = kernel_basis(matrix)
            return [basis[0][:-1] + (basis[0][-1] + 1,)]

        monkeypatch.setattr(periodpoly, "kernel_basis", perturbed)
        with pytest.raises(AssertionError):
            period_space(12)

    @staticmethod
    def _break_row(monkeypatch, row):
        period_columns = periodpoly._period_columns

        def broken(m):
            columns = period_columns(m)
            for column in columns:
                column[row] += 1
            return columns

        monkeypatch.setattr(periodpoly, "_period_columns", broken)

    def test_certificate_reads_the_rows_past_the_solved_half(self, monkeypatch):
        self._break_row(monkeypatch, 9)  # row b = n - 1 at weight 12, which the solve skips
        with pytest.raises(AssertionError, match="fails row 9 of the matrix"):
            period_space(12)

    def test_certificate_reads_the_even_rows_the_solve_skips(self, monkeypatch):
        self._break_row(monkeypatch, 2)  # an even row b < m: the solve reads only the odd ones
        with pytest.raises(AssertionError, match="fails row 2 of the matrix"):
            period_space(12)

    def test_odd_or_small_weight_rejected(self):
        with pytest.raises(ValueError):
            period_space(13)
        with pytest.raises(ValueError):
            period_space(2)

    def test_json_shape(self):
        obj = period_space(12).to_json_obj()
        assert obj["weight"] == 12
        assert obj["dim"] == 1
        assert obj["basis"][0]["x^8*y^2"] == "1"


class TestPairPolynomials:
    def test_candidate_pairs_weight12(self):
        assert candidate_pairs(5) == [(1, 4), (2, 3)]

    def test_candidate_pairs_small(self):
        assert candidate_pairs(1) == []
        assert candidate_pairs(2) == []
        assert candidate_pairs(3) == [(1, 2)]
        assert candidate_pairs(6) == [(1, 5), (2, 4)]

    def test_pair_poly_single_term(self):
        p = pair_to_poly(5, [Fraction(1), Fraction(0)])
        assert p.coeffs == {(2, 8): Fraction(1), (8, 2): Fraction(-1)}

    def test_pair_poly_zero(self):
        p = pair_to_poly(5, [Fraction(0), Fraction(0)])
        assert not p
        assert p.degree == 10

    def test_pair_poly_linear_combination(self):
        p = pair_to_poly(5, [Fraction(2), Fraction(3)])
        expected = 2 * BivarPoly(10, {(2, 8): 1, (8, 2): -1}) + 3 * BivarPoly(
            10, {(4, 6): 1, (6, 4): -1}
        )
        assert p == expected

    @pytest.mark.parametrize("vector", [[1, 2, 3], [1]])
    def test_pair_poly_refuses_a_vector_of_the_wrong_length(self, vector):
        # m = 5 has the two pairs (1, 4) and (2, 3); zip alone would drop or ignore a coordinate
        with pytest.raises(ValueError, match="m=5 has 2 candidate pairs, got a vector of length %d$" % len(vector)):
            pair_to_poly(5, [Fraction(c) for c in vector])

    def test_kernel_coefficients_give_golden(self):
        p = pair_to_poly(5, [Fraction(-1, 3), Fraction(1)])
        assert p.leading_normalized() == GOLDEN_12


class TestSubspaceEqual:
    def test_scaling_invariance(self):
        assert subspace_equal([GOLDEN_12], [Fraction(-7, 3) * GOLDEN_12])

    def test_empty_equal(self):
        assert subspace_equal([], [])

    def test_zero_polys_ignored(self):
        assert subspace_equal([GOLDEN_12, BivarPoly(10)], [GOLDEN_12])

    def test_distinct(self):
        other = BivarPoly(10, {(8, 2): 1, (2, 8): -1})
        assert not subspace_equal([GOLDEN_12], [other])

    def test_dimension_mismatch(self):
        assert not subspace_equal([GOLDEN_12], [])

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            subspace_equal([GOLDEN_12], [BivarPoly(2, {(2, 0): 1})])

    @pytest.mark.parametrize(
        "groups",
        [([GOLDEN_12, BivarPoly(4)], [GOLDEN_12]), ([GOLDEN_12], [BivarPoly(4)]), ([BivarPoly(4)], [BivarPoly(10)])],
    )
    def test_degree_of_a_zero_polynomial_is_checked(self, groups):
        with pytest.raises(ValueError, match="all polynomials must share one degree"):
            subspace_equal(*groups)

    def test_random_change_of_basis(self):
        rng = random.Random(99)
        basis = period_space(24).basis
        tried = 0
        for _ in range(12):
            m = [[Fraction(rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)]
            if m[0][0] * m[1][1] - m[0][1] * m[1][0] == 0:
                continue
            mixed = [
                m[0][0] * basis[0] + m[0][1] * basis[1],
                m[1][0] * basis[0] + m[1][1] * basis[1],
            ]
            assert subspace_equal(basis, mixed)
            tried += 1
        assert tried >= 5


class TestSubspaceOracle:
    """``subspace_equal`` (integer elimination, canonical rows) against the Fraction RREFs of ``rref_spans_equal``."""

    # kind: (families, share of nonzero coefficients); a dense row of independent 30-digit
    # denominators scales to a 1800-digit integer row, so that kind is kept sparser
    KINDS = {"small": (800, 0.7), "sparse": (800, 0.2), "30-digit denominators": (400, 0.3)}

    def _coeff(self, rng, kind):
        if kind == "30-digit denominators":
            return Fraction(rng.randint(-(10**30), 10**30), rng.randint(10**29, 10**30))
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    def _poly(self, rng, kind, degree):
        share = self.KINDS[kind][1]
        monomials = [(degree - b, b) for b in range(degree + 1) if rng.random() < share]
        return BivarPoly(degree, {mono: self._coeff(rng, kind) for mono in monomials})

    def _same_span(self, rng, group, kind, degree):
        """Scaled rows, each plus a multiple of a later one, shuffled, with zero and dependent rows added."""
        other = [(self._coeff(rng, kind) or 1) * p for p in group]
        for i in range(len(other) - 1):
            other[i] = other[i] + self._coeff(rng, kind) * other[rng.randint(i + 1, len(other) - 1)]
        if group and rng.random() < 0.5:
            other.append(self._coeff(rng, kind) * rng.choice(group) + rng.choice(group))
        if rng.random() < 0.3:
            other.append(BivarPoly(degree))
        rng.shuffle(other)
        return other

    def _family(self, rng, kind):
        degree = rng.randint(0, 60)
        group = [self._poly(rng, kind, degree) for _ in range(rng.randint(0, 5))]
        other = self._same_span(rng, group, kind, degree)
        change = rng.randrange(3)
        if change == 1 and other:  # drop a row, which may or may not shrink the span
            other.pop(rng.randrange(len(other)))
        elif change == 2:  # add a random row, usually outside the span
            other.insert(rng.randint(0, len(other)), self._poly(rng, kind, degree))
        return group, other, degree

    @pytest.mark.parametrize("kind", KINDS)
    def test_random_families_agree_with_the_fraction_rref(self, kind):
        rng = random.Random("span oracle " + kind)
        families = self.KINDS[kind][0]
        equal = 0
        for trial in range(families):
            first, second, degree = self._family(rng, kind)
            expected = rref_spans_equal(first, second, degree)
            assert subspace_equal(first, second) is expected, (kind, trial, first, second)
            equal += expected
        assert families // 4 < equal < 3 * families // 4, kind  # both answers are tested often

    @pytest.mark.parametrize("weight", range(12, 201, 4))
    def test_period_bases_under_triangular_changes_of_basis(self, weight):
        rng = random.Random("span oracle %d" % weight)
        basis = period_space(weight).basis
        degree = weight - 2
        for keep in (True, False):
            # a triangular change of basis with nonzero diagonal keeps the span; dropping a vector shrinks it
            other = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9)) * b for b in basis]
            for i in range(len(other) - 1):
                other[i] = other[i] + Fraction(rng.randint(-9, 9), rng.randint(1, 9)) * other[i + 1]
            if not keep:
                other.pop(rng.randrange(len(other)))
            assert subspace_equal(basis, other) is keep, (weight, keep)
            if weight <= 100:  # the Fraction RREF takes seconds a call at the top weights
                assert rref_spans_equal(basis, other, degree) is keep, (weight, keep)
