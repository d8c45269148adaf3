import random
from fractions import Fraction
from functools import lru_cache
from math import comb

import pytest
from rref_oracle import rref_kernel, rref_spans_equal

from depthforge import depthlie, periodpoly
from depthforge.depthlie import (
    BrownReport,
    bracket_matrix,
    depth2_word_basis,
    relation_kernel,
    sigma_leading,
    verify_brown_criterion,
)
from depthforge.exactla import kernel_basis
from depthforge.ncalg import NCPoly, ihara_bracket
from depthforge.periodpoly import candidate_pairs, is_period_poly, pair_to_poly, period_space


def oracle_sigma(m):
    # independent expansion: sum_k (-1)^k C(2m,k) e0^(2m-k) e1 e0^k
    terms = {}
    for k in range(2 * m + 1):
        word = "0" * (2 * m - k) + "1" + "0" * k
        terms[word] = Fraction((-1) ** k * comb(2 * m, k))
    return NCPoly(terms)


@lru_cache(maxsize=None)
def oracle_bracket_rows(m):
    # the bracket matrix from the NCPoly word algebra, rows in depth2_word_basis order
    words = depth2_word_basis(2 * m + 2)
    columns = []
    for i, j in candidate_pairs(m):
        br = ihara_bracket(sigma_leading(i), sigma_leading(j)).depth_component(2)
        columns.append([br.coefficient(w) for w in words])
    return [tuple(col[r] for col in columns) for r in range(len(words))]


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
        for m in range(2, 21):
            rows = oracle_bracket_rows(m)
            assert bracket_matrix(m) == (rows, len(candidate_pairs(m))), "m=%d" % m

    def test_reversal_negates_every_oracle_row(self):
        # reversing the "01" string maps e0^a e1 e0^b e1 e0^c to e0^c e1 e0^b e1 e0^a
        for m in range(2, 21):
            rows = oracle_bracket_rows(m)
            index = {w: r for r, w in enumerate(depth2_word_basis(2 * m + 2))}
            for w, r in index.items():
                assert rows[index[w[::-1]]] == tuple(-x for x in rows[r]), (m, w)

    def test_e1_rows_pair_up(self):
        # e1 e0^b e1 e0^(2m-b) and e1 e0^(2m-b) e1 e0^b: the solved rows b >= m hold one of each pair
        for m in range(2, 41):
            e1_rows = bracket_matrix(m)[0][-(2 * m + 1) :]  # b = 2m, ..., 0
            for row, twin in zip(e1_rows, reversed(e1_rows)):
                assert row == twin or row == tuple(-x for x in twin), "m=%d" % m

    def test_m_below_two_rejected(self):
        for call, m in ((bracket_matrix, 1), (relation_kernel, 1), (relation_kernel, 0)):
            with pytest.raises(ValueError):
                call(m)


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

    @staticmethod
    def perturbed_columns(monkeypatch, m):
        # relation_kernel reads these triangles; the caller changes one cell of them
        columns = list(depthlie._bracket_columns(m))
        monkeypatch.setattr(depthlie, "_bracket_columns", lambda _: columns)
        return columns

    # cells with c >= 1, so each is the first cell its defect reaches (see relation_kernel)
    @pytest.mark.parametrize(
        "m, col, a, b",
        [(5, 0, 3, 1), (5, 1, 6, 2), (5, 0, 1, 8), (5, 1, 0, 4), (5, 0, 0, 0), (12, 4, 0, 23), (12, 2, 9, 7)],
    )
    def test_broken_translation_invariance_is_named(self, monkeypatch, m, col, a, b):
        columns = self.perturbed_columns(monkeypatch, m)
        columns[col][a][b] += 1
        i, j = candidate_pairs(m)[col]
        with pytest.raises(AssertionError, match=r"\(i, j\) = \(%d, %d\) .* \(a, b\) = \(%d, %d\)$" % (i, j, a, b)):
            relation_kernel(m)

    @pytest.mark.parametrize("m", [5, 12, 30])
    def test_every_single_cell_perturbation_is_caught(self, monkeypatch, m):
        columns = self.perturbed_columns(monkeypatch, m)
        rng = random.Random(m)
        for _ in range(200):
            col, a = rng.randrange(len(columns)), rng.randrange(2 * m + 1)
            b, delta = rng.randrange(2 * m + 1 - a), rng.choice([-1, 1]) * rng.randint(1, 2**40)
            columns[col][a][b] += delta
            i, j = candidate_pairs(m)[col]
            with pytest.raises(AssertionError, match=r"\(i, j\) = \(%d, %d\) " % (i, j)):
                relation_kernel(m)
            columns[col][a][b] -= delta
        assert relation_kernel(m) == rref_kernel(*bracket_matrix(m))

    def test_certificate_failure_names_an_e1_row(self, monkeypatch):
        m = 11
        good = relation_kernel(m)[0]
        bad = good[:-1] + (good[-1] + 1,)
        monkeypatch.setattr(depthlie, "kernel_basis", lambda matrix: [bad])
        rows, _ = bracket_matrix(m)
        e1_rows = rows[-(2 * m + 1) :]  # b = 2m, ..., 0
        # the first e1 row that bad fails is named by its index among the 2m+1, not in the full matrix
        first = next(r for r, row in enumerate(e1_rows) if sum(x * y for x, y in zip(row, bad)))
        with pytest.raises(AssertionError, match="fails row %d of the matrix$" % first):
            relation_kernel(m)

    @pytest.mark.parametrize("m", range(2, 9))
    def test_kernel_annihilates_matrix(self, m):
        rows, cols = bracket_matrix(m)
        for vec in relation_kernel(m):
            assert len(vec) == cols
            assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in rows)

    def test_e1_rows_give_the_full_kernel(self):
        # the Fraction RREF of the full matrix is the oracle: it shares no code with kernel_basis
        for m in range(2, 31):
            rows, cols = bracket_matrix(m)
            assert relation_kernel(m) == rref_kernel(rows, cols), "m=%d" % m

    @pytest.mark.parametrize("m", [50, 75, 99])
    def test_e1_block_kernel_matches_rref_at_high_weight(self, m):
        rows, cols = bracket_matrix(m)
        assert relation_kernel(m) == rref_kernel(rows[-(2 * m + 1) : -m], cols)


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

    def test_short_period_basis_does_not_span(self, monkeypatch):
        # weight 24 has two relations; a period solver that loses one must fail the match
        monkeypatch.setattr(periodpoly, "period_space", lambda w: periodpoly.PeriodSpace(w, period_space(w).vectors[:1]))
        report = verify_brown_criterion(11)
        assert report.in_space is True
        assert report.spans is False
        assert report.matches is False
        assert (report.kernel_dim, report.period_dim) == (2, 1)

    def test_builds_no_period_basis(self, monkeypatch):
        # spans compares vectors and in_space reads pair_to_poly unscaled: no leading_normalized basis is made
        calls = []
        normalize = periodpoly.BivarPoly.leading_normalized
        monkeypatch.setattr(periodpoly.BivarPoly, "leading_normalized", lambda p: calls.append(p) or normalize(p))
        assert verify_brown_criterion(11).matches is True
        assert calls == []
        assert len(period_space(24).basis) == 2 and len(calls) == 2

    def test_wrong_relation_is_neither_in_space_nor_spanning(self, monkeypatch):
        # (1, 1) over [(1, 4), (2, 3)] is not the weight-12 relation (-1/3, 1)
        monkeypatch.setattr(depthlie, "relation_kernel", lambda m: [(Fraction(1), Fraction(1))])
        report = verify_brown_criterion(5)
        assert report.in_space is False
        assert report.spans is False
        assert report.matches is False

    def test_spans_agrees_with_the_general_span_comparison(self):
        # the Fraction RREFs of both spans over every monomial: the oracle for the basis comparison,
        # sharing no elimination code with spans or subspace_equal
        for m in range(2, 31):
            images = [pair_to_poly(m, vec) for vec in relation_kernel(m)]
            expected = rref_spans_equal(images, period_space(2 * m + 2).basis, 2 * m)
            assert expected is True, "m=%d" % m
            assert verify_brown_criterion(m).spans is expected, "m=%d" % m


def test_ihara_antisymmetry_of_generators():
    f3, f5 = sigma_leading(1), sigma_leading(2)
    assert ihara_bracket(f5, f3) == -ihara_bracket(f3, f5)
