import random
from fractions import Fraction

import pytest

from depthforge.ncalg import (
    NCPoly,
    ad_pow,
    derivation_apply,
    generators,
    ihara_bracket,
    lie_bracket,
    nc_mul,
)

# ---------------------------------------------------------------------------
# Independent oracle: a tiny, self-contained word-polynomial calculator that
# shares no code with the package.  Polynomials are plain dicts word->Fraction
# (words are strings over "01"); everything is expanded from the definitions.
# ---------------------------------------------------------------------------


def o_add(p, q):
    out = dict(p)
    for w, c in q.items():
        out[w] = out.get(w, Fraction(0)) + c
        if not out[w]:
            del out[w]
    return out


def o_scale(c, p):
    return {w: c * v for w, v in p.items() if c * v}


def o_mul(p, q):
    out = {}
    for w1, c1 in p.items():
        for w2, c2 in q.items():
            w = w1 + w2
            out[w] = out.get(w, Fraction(0)) + c1 * c2
            if not out[w]:
                del out[w]
    return out


def o_bracket(p, q):
    return o_add(o_mul(p, q), o_scale(Fraction(-1), o_mul(q, p)))


def o_derivation(x, y):
    # a(x): e0 -> [e0, x], e1 -> 0, Leibniz on words
    image = o_bracket({"0": Fraction(1)}, x)
    out = {}
    for w, c in y.items():
        for i, ch in enumerate(w):
            if ch != "0":
                continue
            for bw, bc in image.items():
                nw = w[:i] + bw + w[i + 1 :]
                out[nw] = out.get(nw, Fraction(0)) + c * bc
                if not out[nw]:
                    del out[nw]
    return out


def o_ihara(x, y):
    return o_add(o_add(o_derivation(x, y), o_scale(Fraction(-1), o_derivation(y, x))), o_bracket(x, y))


def o_truncate(p, cap):
    return {w: c for w, c in p.items() if w.count("1") <= cap}


def truncated(p: NCPoly, cap):
    """The image of ``p`` modulo the words of depth > cap."""
    return NCPoly({w: c for w, c in p.terms.items() if w.count("1") <= cap})


def random_poly(rng, max_weight=5, terms=3):
    data = {}
    for _ in range(terms):
        w = "".join(rng.choice("01") for _ in range(rng.randint(1, max_weight)))
        data[w] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return NCPoly(data)


# ---------------------------------------------------------------------------
# words: "01" strings, weight = length, depth = number of "1"s
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,weight,depth",
    [("0", 1, 0), ("1", 1, 1), ("00101", 5, 2), ("", 0, 0), ("1111", 4, 4)],
)
def test_word_weight_depth(text, weight, depth):
    p = NCPoly({text: 1})
    assert p.terms == {text: 1}
    assert p.weight_component(weight) == p == p.depth_component(depth)
    assert not p.weight_component(weight + 1) and not p.depth_component(depth + 1)


def test_word_rejects_other_letters():
    for key in ("012", "e0", (0, 1), 1):
        with pytest.raises(ValueError):
            NCPoly({key: 1})


# ---------------------------------------------------------------------------
# NCPoly construction and arithmetic
# ---------------------------------------------------------------------------


class TestNCPoly:
    def test_zero_coefficients_dropped(self):
        p = NCPoly({"01": 1, "10": 0})
        assert p.terms == {"01": Fraction(1)}
        assert all(type(c) is Fraction for c in p.terms.values())

    def test_mul_trivial(self):
        e0, e1 = generators()
        assert nc_mul(e0, e1).terms == {"01": 1}

    def test_mul_distributes(self):
        e0, e1 = generators()
        assert ((e0 + e1) * e1).terms == {"01": 1, "11": 1}

    def test_scalar_mul(self):
        p = NCPoly({"01": Fraction(1, 2)})
        assert (2 * p).terms == {"01": 1}
        assert (p * Fraction(-2, 3)).terms == {"01": Fraction(-1, 3)}

    @pytest.mark.parametrize("bad", ["1/2", " 1.5e0 ", True])
    def test_text_and_bool_coefficients_rejected(self, bad):
        with pytest.raises(TypeError):
            NCPoly({"01": bad})
        with pytest.raises(TypeError):
            NCPoly({"01": 1}) * bad

    def test_components(self):
        p = NCPoly({"01": 1, "11": 2, "0": 5})
        assert p.weight_component(2).terms == {"01": 1, "11": 2}
        assert p.depth_component(2).terms == {"11": 2}
        assert not p.depth_component(3)

    @pytest.mark.parametrize("seed", range(6))
    def test_mul_associative(self, seed):
        rng = random.Random(seed)
        x, y, z = (random_poly(rng, max_weight=4) for _ in range(3))
        assert (x * y) * z == x * (y * z)

    @pytest.mark.parametrize("seed", range(6))
    def test_capped_equals_truncated_uncapped(self, seed):
        # the words of depth > 2 form a two-sided ideal
        rng = random.Random(50 + seed)
        x, y = random_poly(rng), random_poly(rng)
        capped = truncated(truncated(x, 2) * truncated(y, 2), 2)
        assert capped == truncated(x * y, 2)


# ---------------------------------------------------------------------------
# brackets and derivations against frozen values and the oracle
# ---------------------------------------------------------------------------


class TestBrackets:
    def test_self_bracket_vanishes(self):
        e0, _ = generators()
        assert not lie_bracket(e0, e0)

    def test_generator_bracket(self):
        e0, e1 = generators()
        assert lie_bracket(e0, e1).terms == {"01": 1, "10": -1}

    def test_nested_bracket_expansion(self):
        e0, e1 = generators()
        nested = lie_bracket(lie_bracket(e0, e1), e1)
        assert nested.terms == {"011": 1, "101": -2, "110": 1}

    @pytest.mark.parametrize(
        "n,expected",
        [
            (0, {"1": 1}),
            (1, {"01": 1, "10": -1}),
            (2, {"001": 1, "010": -2, "100": 1}),
        ],
    )
    def test_ad_pow_small(self, n, expected):
        e0, e1 = generators()
        assert ad_pow(e0, n, e1).terms == expected

    def test_ad_pow_negative_rejected(self):
        e0, e1 = generators()
        with pytest.raises(ValueError):
            ad_pow(e0, -1, e1)

    def test_derivation_on_generators(self):
        e0, e1 = generators()
        assert not derivation_apply(e1, e1)
        assert derivation_apply(e1, e0).terms == {"01": 1, "10": -1}

    def test_derivation_leibniz_on_square(self):
        e0, e1 = generators()
        lhs = derivation_apply(e1, e0 * e0)
        bracket = lie_bracket(e0, e1)
        assert lhs == bracket * e0 + e0 * bracket

    @pytest.mark.parametrize("seed", range(10))
    def test_oracle_agreement(self, seed):
        rng = random.Random(900 + seed)
        x, y = random_poly(rng), random_poly(rng)
        assert nc_mul(x, y).terms == o_mul(x.terms, y.terms)
        assert lie_bracket(x, y).terms == o_bracket(x.terms, y.terms)
        assert derivation_apply(x, y).terms == o_derivation(x.terms, y.terms)
        assert ihara_bracket(x, y).terms == o_ihara(x.terms, y.terms)

    @pytest.mark.parametrize("seed", range(6))
    def test_capped_bracket_equals_truncated_oracle(self, seed):
        rng = random.Random(333 + seed)
        x, y = random_poly(rng), random_poly(rng)
        # the bracket preserves the ideal of words of depth > 2
        capped = truncated(ihara_bracket(truncated(x, 2), truncated(y, 2)), 2)
        full = o_ihara(o_truncate(x.terms, 2), o_truncate(y.terms, 2))
        assert capped.terms == o_truncate(full, 2)


class TestIharaStructure:
    def test_antisymmetry_on_generator(self):
        e0, e1 = generators()
        f = ad_pow(e0, 2, e1)
        assert not ihara_bracket(f, f)

    def test_depth2_weight8_bracket_matches_oracle(self):
        # the bracket of the weight-3 and weight-5 generator leading terms
        e0, e1 = generators()
        f3 = ad_pow(e0, 2, e1)
        f5 = ad_pow(e0, 4, e1)
        value = ihara_bracket(f3, f5)
        expected = o_ihara(f3.terms, f5.terms)
        assert value.terms == expected
        assert value.depth_component(2) == value  # depth additivity: all depth 2
        assert value.weight_component(8) == value
        assert all(len(w) == 8 for w in value.terms)

    @pytest.mark.parametrize("seed", range(8))
    def test_homomorphism_to_derivations(self, seed):
        rng = random.Random(4000 + seed)
        x = random_poly(rng, max_weight=5)
        y = random_poly(rng, max_weight=5)
        bracket = ihara_bracket(x, y)
        for g in generators():
            lhs = derivation_apply(bracket, g)
            rhs = derivation_apply(x, derivation_apply(y, g)) - derivation_apply(
                y, derivation_apply(x, g)
            )
            assert lhs == rhs

    @pytest.mark.parametrize("seed", range(5))
    def test_jacobi(self, seed):
        rng = random.Random(7000 + seed)
        x, y, z = (random_poly(rng, max_weight=4, terms=2) for _ in range(3))
        total = (
            ihara_bracket(x, ihara_bracket(y, z))
            + ihara_bracket(y, ihara_bracket(z, x))
            + ihara_bracket(z, ihara_bracket(x, y))
        )
        assert not total

    @pytest.mark.parametrize("seed", range(5))
    def test_antisymmetry_random(self, seed):
        rng = random.Random(8000 + seed)
        x, y = random_poly(rng), random_poly(rng)
        assert ihara_bracket(x, y) == -ihara_bracket(y, x)

    def test_weight_and_depth_additivity(self):
        rng = random.Random(13)
        for _ in range(10):
            wx, wy = rng.randint(2, 4), rng.randint(2, 4)
            dx, dy = rng.randint(1, wx - 1), rng.randint(1, wy - 1)
            x = _random_bihomogeneous(rng, weight=wx, depth=dx)
            y = _random_bihomogeneous(rng, weight=wy, depth=dy)
            br = ihara_bracket(x, y)
            assert br.weight_component(wx + wy) == br
            assert br.depth_component(dx + dy) == br


def _random_bihomogeneous(rng, weight, depth):
    words = set()
    while len(words) < 2:
        bits = [1] * depth + [0] * (weight - depth)
        rng.shuffle(bits)
        words.add("".join(str(b) for b in bits))
    return NCPoly({w: Fraction(rng.randint(1, 5)) for w in words})
