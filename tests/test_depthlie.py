from fractions import Fraction
from math import comb

import pytest

from depthforge import depthlie
from depthforge.depthlie import (
    BrownReport,
    bracket_matrix,
    depth2_word_basis,
    relation_kernel,
    sigma_leading,
    verify_brown_criterion,
)
from depthforge.exactla import QMatrix, kernel_basis
from depthforge.ncalg import NCPoly, ihara_bracket
from depthforge.periodpoly import candidate_pairs, is_period_poly, pair_to_poly


def oracle_sigma(m):
    # independent expansion: sum_k (-1)^k C(2m,k) e0^(2m-k) e1 e0^k
    terms = {}
    for k in range(2 * m + 1):
        word = "0" * (2 * m - k) + "1" + "0" * k
        terms[word] = Fraction((-1) ** k * comb(2 * m, k))
    return NCPoly(terms)


class TestSigmaLeading:
    def test_weight3(self):
        assert sigma_leading(1).terms == {"001": 1, "010": -2, "100": 1}

    def test_weight5(self):
        assert sigma_leading(2).terms == {"00001": 1, "00010": -4, "00100": 6, "01000": -4, "10000": 1}

    @pytest.mark.parametrize("m", range(1, 9))
    def test_matches_binomial_oracle(self, m):
        assert sigma_leading(m) == oracle_sigma(m)

    @pytest.mark.parametrize("m", range(1, 6))
    def test_shape(self, m):
        f = sigma_leading(m)
        assert len(f.terms) == 2 * m + 1
        assert f.weight_component(2 * m + 1) == f
        assert f.depth_component(1) == f

    def test_m_zero_rejected(self):
        with pytest.raises(ValueError):
            sigma_leading(0)


class TestWordBasis:
    @pytest.mark.parametrize("weight", range(2, 14, 2))
    def test_count(self, weight):
        assert len(depth2_word_basis(weight)) == comb(weight, 2)

    def test_weight12_count(self):
        assert len(depth2_word_basis(12)) == 66

    def test_sorted_and_depth2(self):
        for weight in range(2, 21):
            words = depth2_word_basis(weight)
            assert words == sorted(set(words)), weight
            assert all(w.count("1") == 2 and len(w) == weight for w in words)

    def test_below_two_empty(self):
        assert depth2_word_basis(1) == []


class TestBracketMatrix:
    def test_m2_has_no_columns(self):
        rows, cols = bracket_matrix(2)
        assert cols == 0
        assert rows == [()] * comb(6, 2)

    def test_m5_shape(self):
        rows, cols = bracket_matrix(5)
        assert (len(rows), cols) == (66, 2)
        assert all(type(x) is int for row in rows for x in row)

    def test_columns_are_depth2_brackets(self):
        # the closed form against the NCPoly word algebra, column by column
        sigma = {i: sigma_leading(i) for i in range(1, 20)}
        for m in range(2, 21):
            words = depth2_word_basis(2 * m + 2)
            columns = []
            for i, j in candidate_pairs(m):
                br = ihara_bracket(sigma[i], sigma[j]).depth_component(2)
                columns.append([br.coefficient(w) for w in words])
            expected = [tuple(col[r] for col in columns) for r in range(len(words))]
            assert bracket_matrix(m) == (expected, len(columns)), "m=%d" % m

    def test_m_below_two_rejected(self):
        with pytest.raises(ValueError):
            bracket_matrix(1)


class TestRelationKernel:
    def test_weight12_relation(self):
        # coordinates over candidate_pairs(5) = [(1, 4), (2, 3)]
        assert relation_kernel(5) == [(Fraction(-1, 3), Fraction(1))]

    def test_weight14_no_relation(self):
        assert relation_kernel(6) == []

    def test_weight24_two_relations(self):
        kernel = relation_kernel(11)
        assert len(kernel) == 2
        for vec in kernel:
            assert is_period_poly(pair_to_poly(11, vec)).ok

    def test_wrong_kernel_vector_rejected(self, monkeypatch):
        def perturbed(matrix):
            basis = kernel_basis(matrix)
            return [basis[0][:-1] + (basis[0][-1] + 1,)]

        monkeypatch.setattr(depthlie, "kernel_basis", perturbed)
        with pytest.raises(AssertionError):
            relation_kernel(5)

    @pytest.mark.parametrize("m", range(2, 9))
    def test_kernel_annihilates_matrix(self, m):
        rows, cols = bracket_matrix(m)
        for vec in relation_kernel(m):
            assert len(vec) == cols
            assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in rows)

    def test_e1_rows_give_the_full_kernel(self):
        # the full-matrix RREF survives only here, as the oracle
        for m in range(2, 31):
            rows, cols = bracket_matrix(m)
            assert relation_kernel(m) == kernel_basis(QMatrix(rows, cols=cols)), "m=%d" % m


class TestBrownCriterion:
    def test_weight12(self):
        report = verify_brown_criterion(5)
        assert isinstance(report, BrownReport)
        assert report.weight == 12
        assert report.kernel_dim == 1
        assert report.period_dim == 1
        assert report.in_space
        assert report.spans
        assert report.matches

    def test_weight14_trivially_matches(self):
        report = verify_brown_criterion(6)
        assert report.kernel_dim == 0
        assert report.period_dim == 0
        assert report.matches

    def test_json_fields(self):
        obj = verify_brown_criterion(5).to_json_obj()
        assert obj == {
            "weight": 12,
            "pairs": [[1, 4], [2, 3]],
            "kernel_dim": 1,
            "period_dim": 1,
            "in_space": True,
            "spans": True,
            "match": True,
        }

    def test_small_m_rejected(self):
        with pytest.raises(ValueError):
            verify_brown_criterion(1)


def test_ihara_antisymmetry_of_generators():
    f3, f5 = sigma_leading(1), sigma_leading(2)
    assert ihara_bracket(f5, f3) == -ihara_bracket(f3, f5)
