import copy
import io
import itertools
import json
import pickle
import random
from contextlib import redirect_stdout

import pytest
from hypothesis import given
from hypothesis import strategies as st

from depthforge import cli, repcalc
from depthforge.repcalc import (
    Character,
    IrrepLabel,
    bigraded_dims,
    character_decompose,
    check_no_eisenstein_component,
    irrep_char,
    tensor_decompose,
)


class TestIrrepLabel:
    def test_str_and_parse(self):
        label = IrrepLabel(4, -2)
        assert str(label) == "Sym4(-2)"
        assert IrrepLabel.parse("Sym4(-2)") == label
        assert IrrepLabel.parse(" Sym0(0) ") == IrrepLabel(0, 0)

    def test_parse_rejects_garbage(self):
        for bad in ("Sym(1)", "Sym2", "sym2(1)", "Sym-1(0)", "Sym2(1)x"):
            with pytest.raises(ValueError):
                IrrepLabel.parse(bad)

    @pytest.mark.parametrize("bad", ["Sym\u0662(\u0663)", "Sym2(\u0663)", "Sym\u0662(3)", "Sym2(-\u0663)"])
    def test_parse_takes_ascii_digits_only(self, bad):
        # int() reads the Arabic-Indic digits, so a \d pattern would let these through
        with pytest.raises(ValueError, match="expected 'Sym"):
            IrrepLabel.parse(bad)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            IrrepLabel(-1, 0)

    @pytest.mark.parametrize("u,v", [(1.5, 0), (True, 2), (1, 2.5), (2, False), ("3", 0)])
    def test_rejects_non_int_power_and_twist(self, u, v):
        # a float or bool would print as another label: 1.5 as Sym1(0)
        with pytest.raises(ValueError, match="ints"):
            IrrepLabel(u, v)

    def test_twist_defaults_to_zero(self):
        assert IrrepLabel(3) == IrrepLabel(3, 0)

    def test_keyword_constructor(self):
        assert IrrepLabel(u=2, v=5) == IrrepLabel(2, 5)

    def test_hashable_and_immutable(self):
        assert hash(IrrepLabel(3, -1)) == hash(IrrepLabel(3, -1))
        assert len({IrrepLabel(3, -1), IrrepLabel(3, -1), IrrepLabel(3, 0)}) == 2
        assert IrrepLabel(3, -1) != IrrepLabel(3, 0)
        assert IrrepLabel(3, -1) != (3, -1)
        with pytest.raises(AttributeError):
            IrrepLabel(3, -1).u = 4
        assert pickle.loads(pickle.dumps(IrrepLabel(3, -1))) == copy.copy(IrrepLabel(3, -1)) == IrrepLabel(3, -1)


class TestCharacter:
    def test_drops_zeros_and_merges(self):
        c = Character({(1, 0): 2, (0, 1): 0})
        assert c.coeffs == {(1, 0): 2}

    def test_rejects_non_integer(self):
        # exponents and coefficients alike: int() would store (1.5, 0) as t1^1 and parse "3"
        for coeffs in ({(0, 0): 1.5}, {(1.5, 0): 1}, {("3", 0): 1}, {(0, True): 1}, {(0, 0): 1.0}, {(0, 0): True}):
            with pytest.raises(ValueError, match="int"):
                Character(coeffs)

    def test_dimension(self):
        assert irrep_char(IrrepLabel(4, 7)).dimension() == 5
        assert Character.one().dimension() == 1

    def test_arithmetic(self):
        t = Character({(1, 0): 1, (0, 1): 1})
        assert t * t == Character({(2, 0): 1, (1, 1): 2, (0, 2): 1})
        assert (t + t).coeffs == {(1, 0): 2, (0, 1): 2}
        assert (t - t).coeffs == {}


class TestIrrepChar:
    def test_trivial(self):
        assert irrep_char(IrrepLabel(0, 0)) == Character.one()

    def test_standard(self):
        assert irrep_char(IrrepLabel(1, 0)) == Character({(1, 0): 1, (0, 1): 1})

    def test_twist_multiplies_by_determinant_power(self):
        # char(Sym^u(v)) = char(Sym^u) * (t1 t2)^(-v): twisting by (1) divides
        # by t1 t2, so Sym2(1) sits in degrees (1,-1), (0,0), (-1,1)
        assert irrep_char(IrrepLabel(2, 1)) == Character({(1, -1): 1, (0, 0): 1, (-1, 1): 1})

    def test_twist_is_additive(self):
        a = irrep_char(IrrepLabel(3, 2))
        det_inv = irrep_char(IrrepLabel(0, 1))
        assert a == irrep_char(IrrepLabel(3, 0)) * det_inv * det_inv

    @pytest.mark.parametrize("u,v", [(0, 0), (3, 1), (5, -2)])
    def test_dimension_is_u_plus_one(self, u, v):
        assert irrep_char(IrrepLabel(u, v)).dimension() == u + 1


class TestTensorDecompose:
    def test_standard_square(self):
        assert tensor_decompose([IrrepLabel(1), IrrepLabel(1)]) == [
            IrrepLabel(2, 0),
            IrrepLabel(0, -1),
        ]

    @pytest.mark.parametrize("k", range(6))
    def test_unit_object(self, k):
        assert tensor_decompose([IrrepLabel(k), IrrepLabel(0)]) == [IrrepLabel(k, 0)]

    def test_clebsch_gordan_k3_l2(self):
        assert tensor_decompose([IrrepLabel(3), IrrepLabel(2)]) == [
            IrrepLabel(5, 0),
            IrrepLabel(3, -1),
            IrrepLabel(1, -2),
        ]

    @pytest.mark.parametrize("k", range(11))
    def test_clebsch_gordan_formula(self, k):
        for l in range(k + 1):
            expected = [IrrepLabel(k + l - 2 * i, -i) for i in range(l + 1)]
            assert tensor_decompose([IrrepLabel(k), IrrepLabel(l)]) == expected

    def test_twisted_product(self):
        got = tensor_decompose([IrrepLabel(2, 3), IrrepLabel(4, 5)])
        assert got == [IrrepLabel(6, 8), IrrepLabel(4, 7), IrrepLabel(2, 6)]

    def test_cube_has_multiplicity(self):
        got = tensor_decompose([IrrepLabel(1)] * 3)
        assert got == [IrrepLabel(3, 0), IrrepLabel(1, -1), IrrepLabel(1, -1)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tensor_decompose([])

    @pytest.mark.parametrize("seed", range(8))
    def test_character_sum_matches_product(self, seed):
        rng = random.Random(seed)
        labels = [
            IrrepLabel(rng.randint(0, 4), rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))
        ]
        product = Character.one()
        for l in labels:
            product = product * irrep_char(l)
        total = Character({})
        for comp in tensor_decompose(labels):
            total = total + irrep_char(comp)
        assert total == product


LABELS = st.builds(IrrepLabel, st.integers(0, 12), st.integers(-6, 15))


@given(st.lists(LABELS, min_size=1, max_size=5))
def test_fold_equals_peeling_of_character_product(labels):
    # the Clebsch-Gordan fold against peeling the product character, order included
    product = Character.one()
    for label in labels:
        product = product * irrep_char(label)
    assert tensor_decompose(labels) == character_decompose(product)


class TestCharacterDecompose:
    def test_round_trips_direct_sums(self):
        rng = random.Random(42)
        for _ in range(10):
            labels = [IrrepLabel(rng.randint(0, 5), rng.randint(-2, 2)) for _ in range(3)]
            total = Character({})
            for l in labels:
                total = total + irrep_char(l)
            assert sorted(character_decompose(total), key=str) == sorted(labels, key=str)

    def test_rejects_negative_multiplicity(self):
        bad = Character({(1, 0): -1, (0, 1): -1})
        with pytest.raises(ValueError):
            character_decompose(bad)

    def test_rejects_non_character(self):
        # t1^0 t2^2 alone cannot start a highest-weight string (a < b)
        with pytest.raises(ValueError):
            character_decompose(Character({(0, 2): 1}))


class TestNoEisensteinComponent:
    def test_two_square_factors(self):
        # Sym^2(V)(4) tensor Sym^2(V)(4) is n1 = n2 = 2, r1 = r2 = 1: in the sweep at (2, 1)
        decomp = tensor_decompose([IrrepLabel(2, 4), IrrepLabel(2, 4)])
        assert decomp == [IrrepLabel(4, 8), IrrepLabel(2, 7), IrrepLabel(0, 6)]
        assert all(c.v - c.u - 1 >= 1 for c in decomp)
        assert not {IrrepLabel(2, 3), IrrepLabel(4, 5)} & set(decomp)
        assert check_no_eisenstein_component(2, 1)[1:] == (True, True)

    def test_mixed_factors(self):
        # Sym^2(V)(4) tensor Sym^4(V)(6) is n1 = 2, n2 = 4, r1 = r2 = 1: in the sweep at (4, 1)
        decomp = tensor_decompose([IrrepLabel(2, 4), IrrepLabel(4, 6)])
        assert decomp == [IrrepLabel(6, 10), IrrepLabel(4, 9), IrrepLabel(2, 8)]
        assert all(c.v - c.u - 1 >= 1 for c in decomp)
        assert not {IrrepLabel(2 * n, 2 * n + 1) for n in range(1, 5)} & set(decomp)
        assert check_no_eisenstein_component(4, 1)[1:] == (True, True)

    def test_exhaustive_small_grid(self):
        # the sweep against each of its products decomposed on its own, into labels
        for max_sym, max_twist in [*itertools.product(range(5), range(3)), (10, 3), (12, 5)]:
            forbidden = {IrrepLabel(2 * n, 2 * n + 1) for n in range(1, max_sym + 1)}
            components, shapes_ok, forbidden_absent = 0, True, True
            for n1, r1, n2, r2 in itertools.product(range(max_sym + 1), range(max_twist + 1), repeat=2):
                decomp = tensor_decompose([IrrepLabel(n1, n1 + 1 + r1), IrrepLabel(n2, n2 + 1 + r2)])
                components += len(decomp)
                shapes_ok = shapes_ok and all(c.v - c.u - 1 >= 1 for c in decomp)
                forbidden_absent = forbidden_absent and not forbidden & set(decomp)
            expected = (components, shapes_ok, forbidden_absent)
            assert expected[1:] == (True, True)
            assert check_no_eisenstein_component(max_sym, max_twist) == expected, (max_sym, max_twist)

    def test_negative_bounds_rejected(self):
        for max_sym, max_twist in ((-1, 0), (0, -1), (-2, -2)):
            with pytest.raises(ValueError):
                check_no_eisenstein_component(max_sym, max_twist)

    def test_an_eisenstein_component_clears_both_flags(self, monkeypatch):
        # Sym^2(V)(3) is the forbidden label for n = 1, and its shift w = 0 is not >= 1
        fold = repcalc._fold
        monkeypatch.setattr(repcalc, "_fold", lambda parts, l, b: {**fold(parts, l, b), (2, 3): 1})
        assert check_no_eisenstein_component(1, 0) == (9, False, False)
        with redirect_stdout(io.StringIO()) as out:
            assert cli.main(["verify", "cgshape", "--max-sym", "1", "--max-twist", "0"]) == 1
        report = json.loads(out.getvalue())
        assert (report["ok"], report["shapes_ok"], report["forbidden_absent"]) == (False, False, False)


class TestBigrading:
    def test_standard(self):
        assert bigraded_dims(irrep_char(IrrepLabel(1, 0))) == {(0, 1): 1, (2, 1): 1}

    def test_trivial(self):
        assert bigraded_dims(Character.one()) == {(0, 0): 1}

    def test_total_dimension_preserved(self):
        c = irrep_char(IrrepLabel(4, 7)) + irrep_char(IrrepLabel(2, -1))
        assert sum(bigraded_dims(c).values()) == c.dimension()

    def test_rejects_virtual_characters(self):
        with pytest.raises(ValueError):
            bigraded_dims(Character.one() - irrep_char(IrrepLabel(1, 0)))

    @pytest.mark.parametrize("seed", range(6))
    def test_round_trip(self, seed):
        rng = random.Random(100 + seed)
        c = Character({})
        for _ in range(4):
            c = c + irrep_char(IrrepLabel(rng.randint(0, 5), rng.randint(-3, 3)))
        dims = bigraded_dims(c)
        # (s, t) = (2b, a + b) inverts to t1^(t - s/2) t2^(s/2)
        assert all(s % 2 == 0 for s, _ in dims)
        assert Character({(t - s // 2, s // 2): dim for (s, t), dim in dims.items()}) == c
