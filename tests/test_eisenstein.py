import random
import tracemalloc
from fractions import Fraction
from math import comb, gcd, isqrt, lcm, prod

import pytest
from coset_oracle import CosetFn, gl2_elements, mat_mul, phi
from divisor_oracle import divisor_power_sum
from horner_oracle import fraction_horner
from hypothesis import example, given
from hypothesis import strategies as st

from depthforge import eisenstein
from depthforge.eisenstein import (
    ChainCheck,
    QExpansion,
    _kronecker_square,
    bernoulli_number,
    bernoulli_poly_eval,
    bernoulli_polynomial,
    check_bernoulli_sum_chain,
    delta_qexp,
    distribution_check,
    eisenstein_qexp,
    hecke_eigenvalue,
    hecke_factor,
    hecke_tp,
    is_invertible,
    phi_line_sum,
)

# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def at_bernoulli(n):
    """Akiyama-Tanigawa algorithm; yields the B_1 = +1/2 convention."""
    a = [Fraction(1, m + 1) for m in range(n + 1)]
    for j in range(1, n + 1):
        for m in range(n + 1 - j):
            a[m] = (m + 1) * (a[m] - a[m + 1])
    return a[0]


def recurrence_bernoulli(n):
    """B_0..B_n from sum_{k<=m} C(m+1,k) B_k = 0, in Fraction arithmetic."""
    values = []
    for m in range(n + 1):
        acc = sum(comb(m + 1, i) * values[i] for i in range(m))
        values.append(Fraction(1) if m == 0 else -acc / (m + 1))
    return tuple(values)


def subtraction_delta(prec):
    """Discriminant coefficients by multiplying in (1 - q^n) 24 times per n."""
    n_terms = prec - 1
    product = [0] * n_terms
    product[0] = 1
    for n in range(1, n_terms):
        for _ in range(24):
            for i in range(n_terms - 1, n - 1, -1):
                product[i] -= product[i - n]
    return tuple([0] + product)


def schoolbook_square(a):
    out = [0] * (2 * len(a) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(a):
            out[i + j] += x * y
    return out


def primes_upto(n):
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [p for p in range(n + 1) if sieve[p]]


def theta_octic_delta(prec):
    """Discriminant coefficients via q * (sum (-1)^k (2k+1) q^(k(k+1)/2))^8."""
    theta = [0] * prec
    k = 0
    while k * (k + 1) // 2 < prec:
        theta[k * (k + 1) // 2] = (-1) ** k * (2 * k + 1)
        k += 1
    power = [1] + [0] * (prec - 1)
    for _ in range(8):
        nxt = [0] * prec
        for i, ci in enumerate(power):
            if ci == 0:
                continue
            for j in range(prec - i):
                if theta[j]:
                    nxt[i + j] += ci * theta[j]
        power = nxt
    return [0] + power[: prec - 1]  # multiply by q


def normalised(series):
    """The coefficients of a q-expansion divided by its constant term."""
    return [c / series.coeffs[0] for c in series.coeffs]


def series_mul(a, b):
    """The product of two truncated series, to the shorter precision."""
    prec = min(len(a), len(b))
    return [sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(prec)]


def chain_by_matrix(k, p, entry):
    """The Bernoulli sum chain evaluated afresh at every g: the three sums and
    the line sum, with no sharing between matrices of one bottom row.  The sums
    run over alpha-rows of numerators of B_{k+2}(t/p) over their common
    denominator, so that p = 13 stays affordable.  Returns (ok, checked, first_failure)."""
    bval = [bernoulli_poly_eval(k + 2, Fraction(t, p)) for t in range(p)]
    denom = lcm(*(b.denominator for b in bval))
    num = [b.numerator * denom // b.denominator for b in bval]
    prefactor = Fraction(p ** (k + 1), k + 2)
    constant = Fraction(p, k + 2) * bernoulli_number(k + 2)
    for checked, g in enumerate(gl2_elements(p), start=1):
        c, d = g[2], g[3]
        alpha_rows = [sum(num[(a * c + b * d) % p] for b in range(p)) for a in range(p)]
        zero_slice, restricted, full = alpha_rows[0], sum(alpha_rows[1:]), sum(alpha_rows)
        lhs = prefactor * Fraction(restricted, denom)
        middle = prefactor * Fraction(full - zero_slice, denom)
        if not (lhs == middle == constant + phi_line_sum(k, p, g, entry)):
            return False, checked, g
    return True, checked, None


# ---------------------------------------------------------------------------
# Bernoulli numbers / polynomials
# ---------------------------------------------------------------------------


class TestBernoulli:
    @pytest.mark.parametrize(
        "n,value",
        [
            (0, Fraction(1)),
            (1, Fraction(-1, 2)),
            (2, Fraction(1, 6)),
            (3, Fraction(0)),
            (4, Fraction(-1, 30)),
            (12, Fraction(-691, 2730)),
        ],
    )
    def test_known_values(self, n, value):
        assert bernoulli_number(n) == value

    @pytest.mark.parametrize("n", range(21))
    def test_against_akiyama_tanigawa(self, n):
        expected = at_bernoulli(n)
        if n == 1:
            expected = -expected  # the two sign conventions differ only here
        assert bernoulli_number(n) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bernoulli_number(-1)

    def test_polynomial_coefficients(self):
        # B_2(X) = X^2 - X + 1/6, ascending order
        assert bernoulli_polynomial(2) == (Fraction(1, 6), Fraction(-1), Fraction(1))

    def test_poly_eval(self):
        assert bernoulli_poly_eval(4, Fraction(1, 5)) == Fraction(-29, 3750)
        assert bernoulli_poly_eval(4, 0) == Fraction(-1, 30)
        assert bernoulli_poly_eval(0, Fraction(7, 3)) == 1

    def test_eval_rejects_floats(self):
        with pytest.raises(TypeError):
            bernoulli_poly_eval(4, 0.2)

    @pytest.mark.parametrize("bad", ["0.5", "1/2", True])
    def test_eval_rejects_text_and_bools(self, bad):
        # Fraction() alone reads "0.5" as 1/2 and True as 1
        with pytest.raises(TypeError):
            bernoulli_poly_eval(2, bad)

    def test_eval_rejects_a_float_equal_to_a_cached_rational(self):
        # 0.5 == Fraction(1, 2) with the same hash, so a cache keyed on the raw
        # argument would answer the float from the rational's entry
        assert bernoulli_poly_eval(4, Fraction(1, 2)) == Fraction(7, 240)
        with pytest.raises(TypeError):
            bernoulli_poly_eval(4, 0.5)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_difference_equation(self, n):
        # B_n(x+1) - B_n(x) = n x^(n-1)
        for x in (Fraction(0), Fraction(1, 3), Fraction(-2, 7), Fraction(5)):
            lhs = bernoulli_poly_eval(n, x + 1) - bernoulli_poly_eval(n, x)
            assert lhs == n * x ** (n - 1)

    @pytest.mark.parametrize("n", range(11))
    def test_reflection(self, n):
        for x in (Fraction(1, 4), Fraction(2, 5)):
            assert bernoulli_poly_eval(n, 1 - x) == (-1) ** n * bernoulli_poly_eval(n, x)

    @pytest.mark.parametrize("n", range(61))
    def test_eval_matches_fraction_horner(self, n):
        # negative x, zero, integers, and denominators up to 10^6
        rng = random.Random(n)
        points = [Fraction(0), Fraction(1), Fraction(-3), Fraction(7), Fraction(-1, 2)]
        for bound in (10, 1000, 10**6):
            for _ in range(4):
                den = rng.randint(1, bound)
                points.append(Fraction(rng.randint(-3 * den, 3 * den), den))
        for x in points:
            assert bernoulli_poly_eval(n, x) == fraction_horner(n, x), (n, x)

    @pytest.mark.parametrize("x", [Fraction(1, 2), Fraction(1, 3), Fraction(-7, 5)])
    def test_eval_matches_fraction_horner_at_2000(self, x):
        assert bernoulli_poly_eval(2000, x) == fraction_horner(2000, x)

    def test_constant_term_is_bernoulli_number(self):
        for n in range(12):
            assert bernoulli_poly_eval(n, 0) == bernoulli_number(n)

    def test_matches_recurrence_through_300(self):
        assert tuple(bernoulli_number(n) for n in range(301)) == recurrence_bernoulli(300)

    def test_von_staudt_clausen_through_1000(self):
        # B_2k + sum of 1/p over the primes with (p - 1) | 2k is an integer,
        # so the denominator of B_2k is exactly the product of those primes
        primes = primes_upto(1001)
        for two_k in range(2, 1001, 2):
            clausen = [p for p in primes if two_k % (p - 1) == 0]
            value = bernoulli_number(two_k)
            assert value.denominator == prod(clausen), two_k
            assert (value + sum(Fraction(1, p) for p in clausen)).denominator == 1, two_k

    def test_cache_order_does_not_matter(self, monkeypatch):
        monkeypatch.setattr(eisenstein, "_BERNOULLI", [Fraction(1)])
        jumps = [bernoulli_number(n) for n in (600, 5, 1000)]
        assert len(eisenstein._BERNOULLI) == 2 * 601  # a miss at least doubles the cache
        jumped = eisenstein._BERNOULLI[:1001]
        monkeypatch.setattr(eisenstein, "_BERNOULLI", [Fraction(1)])
        ascending = [bernoulli_number(n) for n in range(1001)]
        assert jumped == ascending
        assert jumps == [ascending[600], ascending[5], ascending[1000]]


class TestFracAndDistribution:
    @pytest.mark.parametrize("n", range(9))
    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_distribution_holds(self, n, m):
        for x in (Fraction(0), Fraction(1, 2), Fraction(2, 7)):
            assert distribution_check(n, m, x)

    @pytest.mark.parametrize("bad", ["1/2", True])
    def test_distribution_rejects_text_and_bools(self, bad):
        with pytest.raises(TypeError):
            distribution_check(2, 3, bad)

    def test_distribution_rejects_bad_m(self):
        with pytest.raises(ValueError):
            distribution_check(2, 0, Fraction(0))


# ---------------------------------------------------------------------------
# GL2 coset functions
# ---------------------------------------------------------------------------


class TestGL2:
    @pytest.mark.parametrize("n,size", [(2, 6), (3, 48), (4, 96), (5, 480), (7, 2016)])
    def test_group_sizes(self, n, size):
        assert sum(1 for _ in gl2_elements(n)) == size

    def test_elements_are_invertible(self):
        for g in gl2_elements(4):
            assert is_invertible(g, 4)

    def test_mat_mul_mod(self):
        assert mat_mul((1, 1, 0, 1), (1, 0, 1, 1), 3) == (2, 1, 1, 1)

    def test_level_one_rejected(self):
        with pytest.raises(ValueError):
            gl2_elements(1)

    def test_elements_are_made_one_at_a_time(self):
        # all of GL2(F_13) held at once is 26,208 tuples, about 2 MB
        tracemalloc.start()
        try:
            assert sum(1 for _ in gl2_elements(13)) == 26208
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 200_000


class TestPhi:
    def test_frozen_values(self):
        # n^(k+1)/(k+2) * B_{k+2}(<entry/n>) at small arguments
        assert phi(2, 3, 1, (1, 0, 1, 1)) == Fraction(13, 120)
        assert phi(2, 3, 2, (1, 0, 1, 1)) == Fraction(13, 120)
        assert phi(2, 3, 1, (1, 0, 0, 1)) == Fraction(-9, 40)
        assert phi(2, 5, 1, (1, 0, 2, 1)) == Fraction(91, 120)
        assert phi(4, 3, 1, (1, 0, 1, 1)) == Fraction(-121, 252)

    def test_depends_only_on_named_entry(self):
        # same c entry, everything else different
        assert phi(2, 5, 1, (1, 0, 3, 1)) == phi(2, 5, 1, (2, 1, 3, 2))
        assert phi(2, 5, 2, (1, 0, 1, 3)) == phi(2, 5, 2, (0, 1, 2, 3))

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            phi(3, 5, 1, (1, 0, 1, 1))  # odd k
        with pytest.raises(ValueError):
            phi(2, 5, 3, (1, 0, 1, 1))  # which not in {1, 2}
        with pytest.raises(ValueError):
            phi(2, 4, 1, (1, 0, 2, 2))  # det 2 not invertible mod 4

    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("which", [1, 2])
    def test_coset_invariance(self, n, which):
        assert CosetFn.tabulate(2, n, which).pm_parabolic_invariant()

    def test_tabulate_covers_group(self):
        fn = CosetFn.tabulate(2, 3, 1)
        assert set(fn.values) == set(gl2_elements(3))


class TestPhiLineSum:
    def test_frozen_values(self):
        assert phi_line_sum(2, 3, (1, 0, 1, 1), "c") == Fraction(1, 120)
        assert phi_line_sum(2, 3, (1, 0, 0, 1), "c") == Fraction(27, 40)
        assert phi_line_sum(2, 3, (1, 0, 1, 1), entry="d") == Fraction(1, 120)

    def test_depends_only_on_vanishing(self):
        nonzero = {phi_line_sum(2, 5, g, "c") for g in gl2_elements(5) if g[2] % 5}
        zero = {phi_line_sum(2, 5, g, "c") for g in gl2_elements(5) if g[2] % 5 == 0}
        assert len(nonzero) == 1
        assert len(zero) == 1
        assert nonzero != zero

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            phi_line_sum(2, 4, (1, 0, 1, 1), "c")  # composite p
        with pytest.raises(ValueError):
            phi_line_sum(2, 3, (1, 0, 1, 1), entry="a")


class TestBernoulliSumChain:
    @pytest.mark.parametrize("k,p", [(2, 3), (2, 5), (4, 3)])
    def test_holds_for_entry_d(self, k, p):
        result = check_bernoulli_sum_chain(k, p)
        assert isinstance(result, ChainCheck)
        assert result.ok
        assert result.checked == sum(1 for _ in gl2_elements(p))
        assert result.first_failure is None

    def test_fails_for_entry_c(self):
        result = check_bernoulli_sum_chain(2, 3, entry="c")
        assert not result.ok
        assert result.first_failure == (0, 1, 1, 0)
        assert result.checked == 1

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            check_bernoulli_sum_chain(3, 3)  # odd k
        with pytest.raises(ValueError):
            check_bernoulli_sum_chain(2, 2)  # p = 2 excluded
        with pytest.raises(ValueError):
            check_bernoulli_sum_chain(2, 9)  # not prime

    @pytest.mark.parametrize("entry", ["c", "d"])
    @pytest.mark.parametrize("k", [2, 4, 6])
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_matches_matrix_by_matrix_evaluation(self, p, k, entry):
        result = check_bernoulli_sum_chain(k, p, entry)
        assert (result.ok, result.checked, result.first_failure) == chain_by_matrix(k, p, entry)


# ---------------------------------------------------------------------------
# q-expansions
# ---------------------------------------------------------------------------


class TestDivisorPowerSum:
    @pytest.mark.parametrize(
        "n,k,value", [(1, 11, 1), (6, 3, 252), (12, 0, 6), (2, 11, 2049), (4, 1, 7)]
    )
    def test_values(self, n, k, value):
        assert divisor_power_sum(n, k) == value

    def test_multiplicative_on_coprimes(self):
        rng = random.Random(7)
        for _ in range(20):
            a, b = rng.randint(1, 40), rng.randint(1, 40)
            if gcd(a, b) != 1:
                continue
            k = rng.choice([1, 3, 11])
            assert divisor_power_sum(a * b, k) == divisor_power_sum(a, k) * divisor_power_sum(b, k)


class TestQExpansion:
    def test_prec_is_the_number_of_coefficients(self):
        assert QExpansion(4, [Fraction(1, 240), 1, 9]).prec == 3
        assert eisenstein_qexp(4, 7).prec == len(eisenstein_qexp(4, 7).coeffs) == 7

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            QExpansion(4, (0.5, Fraction(1)))

    @pytest.mark.parametrize("bad", ["1/240", True])
    def test_rejects_text_and_bools(self, bad):
        with pytest.raises(TypeError):
            QExpansion(4, (bad, 1))

    def test_json_round_trip(self):
        f = QExpansion(12, (Fraction(691, 32760), Fraction(1), Fraction(2049)))
        obj = f.to_json_obj()
        assert obj == {"weight": 12, "prec": 3, "coeffs": ["691/32760", "1", "2049"]}
        assert QExpansion(obj["weight"], map(Fraction, obj["coeffs"])) == f

    def test_integer_coefficients_stay_ints(self):
        # every a_n of Delta and every a_n, n >= 1, of E_w is an integer, and is held as an int
        assert all(type(c) is int for c in delta_qexp(60).coeffs)
        for w in (4, 12, 24):
            e = eisenstein_qexp(w, 40)
            assert type(e.coeffs[0]) is Fraction
            assert all(type(c) is int for c in e.coeffs[1:])
        d, e12 = delta_qexp(60), eisenstein_qexp(12, 40)
        for f, p, lam in ((d, 2, -24), (d, 3, 252), (e12, 2, 2049)):
            value = hecke_eigenvalue(f, p)
            assert type(value) is int and value == lam
        t2 = hecke_tp(e12, 2)
        assert type(t2.coeffs[0]) is Fraction and t2.coeffs[0] == 2049 * e12.coeffs[0]
        assert all(type(c) is int for c in t2.coeffs[1:])

    def test_equality_compares_every_field(self):
        f = QExpansion(12, (0, 1))
        assert f == QExpansion(12, (Fraction(0), Fraction(1)))
        assert f != QExpansion(4, (0, 1))
        assert f != QExpansion(12, (0, 2))
        assert f != QExpansion(12, (0, 1, 0))
        assert f != (12, 2, (0, 1))


class TestEisensteinSeries:
    def test_weight4_head(self):
        e4 = eisenstein_qexp(4, 8)
        assert e4.coeffs[0] == Fraction(1, 240)
        assert e4.coeffs[1:] == (1, 9, 28, 73, 126, 252, 344)

    def test_weight12_head(self):
        e12 = eisenstein_qexp(12, 4)
        assert e12.coeffs[0] == Fraction(691, 65520)
        assert e12.coeffs[1] == 1
        assert e12.coeffs[2] == 2049
        assert e12.coeffs[3] == 177148

    @pytest.mark.parametrize("weight, prec", [*((w, 300) for w in range(4, 41, 2)), (200, 150), (1200, 150), (2000, 150)])
    def test_sieve_matches_trial_division(self, weight, prec):
        coeffs = eisenstein_qexp(weight, prec).coeffs
        assert coeffs[0] == -bernoulli_number(weight) / (2 * weight)
        assert coeffs[1:] == tuple(divisor_power_sum(n, weight - 1) for n in range(1, prec))

    def test_normalised_series_satisfy_the_weight_identities(self):
        # dim M_8 = dim M_10 = 1, and M_12 is spanned by E_4^3 and Delta, so with
        # a_0 = 1 these hold exactly; only the constant term -B_w / (2w) makes them hold
        prec = 12
        e4, e6, e8, e10 = (normalised(eisenstein_qexp(w, prec)) for w in (4, 6, 8, 10))
        assert series_mul(e4, e4) == e8
        assert series_mul(e4, e6) == e10
        cube, square = series_mul(series_mul(e4, e4), e4), series_mul(e6, e6)
        assert [x - y for x, y in zip(cube, square)] == [1728 * c for c in delta_qexp(prec).coeffs]

    def test_bad_weight(self):
        with pytest.raises(ValueError):
            eisenstein_qexp(2, 10)
        with pytest.raises(ValueError):
            eisenstein_qexp(7, 10)

    def test_bad_prec(self):
        assert eisenstein_qexp(4, 1).coeffs == (Fraction(1, 240),)
        for prec in (0, -3):
            with pytest.raises(ValueError, match="prec must be >= 1"):
                eisenstein_qexp(4, prec)


class TestDelta:
    TAU = {1: 1, 2: -24, 3: 252, 4: -1472, 5: 4830, 6: -6048, 7: -16744}

    def test_known_tau_values(self):
        d = delta_qexp(8)
        assert d.coeffs[0] == 0
        for n, tau in self.TAU.items():
            assert d.coeffs[n] == tau

    def test_against_theta_octic_oracle(self):
        prec = 40
        assert [int(c) for c in delta_qexp(prec).coeffs] == theta_octic_delta(prec)

    def test_matches_subtraction_loop(self):
        # the loop truncated at prec is the first prec terms of the loop run at
        # 600, since (1 - q^n) for n >= prec leaves those terms alone
        reference = subtraction_delta(600)
        for prec in range(2, 201):
            assert delta_qexp(prec).coeffs == reference[:prec], prec
        assert delta_qexp(600).coeffs == reference

    def test_ramanujan_congruence_mod_691(self):
        tau = delta_qexp(3000).coeffs
        for n in range(1, 3000):
            assert (tau[n] - divisor_power_sum(n, 11)) % 691 == 0, n

    def test_tau_at_prime_squares(self):
        tau = delta_qexp(50 * 50).coeffs
        for p in primes_upto(49):
            assert tau[p * p] == tau[p] ** 2 - p**11, p

    def test_weight_and_prec(self):
        d = delta_qexp(5)
        assert d.weight == 12
        assert d.prec == 5
        with pytest.raises(ValueError):
            delta_qexp(1)


class TestKroneckerSquare:
    @given(
        st.lists(
            st.one_of(st.just(0), st.integers(-3, 3), st.integers(-(2**200), 2**200)),
            min_size=1,
            max_size=40,
        )
    )
    @example([0])
    @example([7])
    @example([-(2**200)])
    @example([0, 0, 0])
    @example([2**200, -(2**200), 1, 0])
    def test_equals_schoolbook_square(self, a):
        assert _kronecker_square(a) == schoolbook_square(a)


class TestHecke:
    def test_tp_on_eisenstein(self):
        e12 = eisenstein_qexp(12, 60)
        t2 = hecke_tp(e12, 2)
        assert t2.prec == 30
        assert t2.coeffs == tuple(2049 * c for c in e12.coeffs[:30])

    def test_tp_on_delta(self):
        d = delta_qexp(60)
        t2 = hecke_tp(d, 2)
        assert t2.coeffs == tuple(-24 * c for c in d.coeffs[:30])

    def test_tp_precision_guard(self):
        with pytest.raises(ValueError):
            hecke_tp(delta_qexp(5), 3)  # output precision would be 1

    def test_tp_requires_prime(self):
        with pytest.raises(ValueError, match="prime"):
            hecke_tp(delta_qexp(20), 6)
        for p in (1, 0, -3):
            with pytest.raises(ValueError, match="prime"):
                hecke_tp(delta_qexp(20), p)

    def test_tp_checks_precision_before_primality(self):
        # 2^61 - 1 is prime; trial division would take about 10^9 steps
        with pytest.raises(ValueError, match="too small"):
            hecke_tp(eisenstein_qexp(4, 60), 2**61 - 1)
        with pytest.raises(ValueError, match="too small"):
            hecke_tp(delta_qexp(20), 15)  # composite, but 20 // 15 < 2 decides first

    def test_eigenvalue_eisenstein(self):
        assert hecke_eigenvalue(eisenstein_qexp(12, 60), 2) == 2049
        assert hecke_eigenvalue(eisenstein_qexp(12, 60), 3) == 177148

    def test_eigenvalue_delta(self):
        d = delta_qexp(60)
        assert hecke_eigenvalue(d, 2) == -24
        assert hecke_eigenvalue(d, 3) == 252

    def test_eigenvalue_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            hecke_eigenvalue(QExpansion(12, [2 * c for c in delta_qexp(20).coeffs]), 2)

    def test_eigenvalue_rejects_non_eigenform(self):
        pairs = zip(eisenstein_qexp(12, 40).coeffs, delta_qexp(40).coeffs)
        mix = QExpansion(12, [Fraction(e + d, 2) for e, d in pairs])
        assert mix.coeffs[1] == 1
        with pytest.raises(ValueError):
            hecke_eigenvalue(mix, 2)

    def test_eigenvalue_precision_guard(self):
        # hecke_tp's rule prec // p >= 2 decides, also where prec > p
        for prec, p in ((5, 5), (5, 7), (9, 5), (13, 7)):
            with pytest.raises(ValueError, match="too small"):
                hecke_eigenvalue(delta_qexp(prec), p)
        assert hecke_eigenvalue(delta_qexp(10), 5) == 4830


class TestHeckeFactor:
    def test_delta_at_2(self):
        res = hecke_factor(delta_qexp(30), 2)
        assert res.eigenvalue == -24
        assert res.value == 2073
        assert res.weil_ok is True

    def test_delta_at_3(self):
        res = hecke_factor(delta_qexp(40), 3)
        assert res.value == 176896
        assert res.weil_ok is True

    def test_nonvanishing_for_cusp_forms(self):
        for p in (2, 3, 5, 7):
            assert hecke_factor(delta_qexp(8 * p), p).value != 0

    def test_eisenstein_has_no_weil_bound(self):
        # cuspidality is read off a_0 = -B_w / w != 0
        assert hecke_factor(eisenstein_qexp(12, 30), 2).weil_ok is None

    def test_eisenstein_vanishes_when_allowed(self):
        res = hecke_factor(eisenstein_qexp(12, 30), 2)
        assert res.eigenvalue == 2049
        assert res.value == 0
        assert res.weil_ok is None

    def test_odd_weight_refused(self):
        with pytest.raises(ValueError, match="odd"):
            hecke_factor(QExpansion(11, delta_qexp(30).coeffs), 2)

    def test_json(self):
        obj = hecke_factor(delta_qexp(30), 2).to_json_obj()
        assert obj == {
            "eigenvalue": "-24",
            "value": "2073",
            "weil_ok": True,
        }
