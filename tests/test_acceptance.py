"""Acceptance gate: the nine headline checks, one test (and one printed
PASS/FAIL line) each.  Run with ``pytest -v -s tests/test_acceptance.py`` to
see the lines; every check is exact (Fraction arithmetic throughout) and
carries its own runtime budget.
"""

import random
import time
from fractions import Fraction
from math import isqrt

from coset_oracle import CosetFn
from divisor_oracle import divisor_power_sum

from depthforge.depthlie import relation_kernel, verify_brown_criterion
from depthforge.eisenstein import (
    check_bernoulli_sum_chain,
    delta_qexp,
    distribution_check,
    eisenstein_qexp,
    hecke_factor,
    hecke_tp,
)
from depthforge.ncalg import NCPoly, derivation_apply, generators, ihara_bracket
from depthforge.periodpoly import BivarPoly, pair_to_poly, period_space
from depthforge.repcalc import IrrepLabel, check_no_eisenstein_component, tensor_decompose


def report(number: int, ok: bool, description: str) -> bool:
    print("ACCEPTANCE %d %s: %s" % (number, "PASS" if ok else "FAIL", description))
    return ok


def test_criterion_1_period_space_dimensions():
    t0 = time.perf_counter()
    ok = True
    for w in range(4, 31, 2):
        expected = w // 12 - (1 if w % 12 == 2 else 0)
        ok = ok and period_space(w).dim == expected
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    assert report(1, ok, "period-space dimensions for weights 4..30 match the floor-formula oracle (%.2fs)" % elapsed)


def test_criterion_2_bracket_kernels_span_period_spaces():
    t0 = time.perf_counter()
    ok = True
    for weight in range(6, 27, 2):
        rep = verify_brown_criterion((weight - 2) // 2)
        ok = ok and rep.matches
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    assert report(2, ok, "depth-2 bracket kernels span the period spaces for all even weights 6..26 (%.2fs)" % elapsed)


def test_criterion_3_weight_12_relation():
    kernel = relation_kernel(5)
    ok = len(kernel) == 1
    if ok:
        image = pair_to_poly(5, kernel[0])
        golden = BivarPoly(10, {(8, 2): 1, (6, 4): -3, (4, 6): 3, (2, 8): -1})
        lead = image.coeffs.get(max(image.coeffs))
        ok = lead is not None and image == lead * golden
    assert report(3, ok, "the weight-12 relation kernel is one-dimensional with image proportional to x^2 y^2 (x^2 - y^2)^3")


def _random_homogeneous(rng: random.Random, weight: int) -> NCPoly:
    words = set()
    for _ in range(rng.randint(1, 3)):
        words.add("".join(rng.choice("01") for _ in range(weight)))
    terms = {w: Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 2)) for w in words}
    return NCPoly(terms)


def test_criterion_4_bracket_structure_randomized():
    t0 = time.perf_counter()
    rng = random.Random(20240814)
    gens = generators()
    ok = True
    inputs_used = 0

    for _ in range(40):  # homomorphism to derivations + antisymmetry
        x = _random_homogeneous(rng, rng.randint(1, 4))
        y = _random_homogeneous(rng, rng.randint(1, 4))
        inputs_used += 2
        br = ihara_bracket(x, y)
        ok = ok and br == -ihara_bracket(y, x)
        for g in gens:
            lhs = derivation_apply(br, g)
            rhs = derivation_apply(x, derivation_apply(y, g)) - derivation_apply(
                y, derivation_apply(x, g)
            )
            ok = ok and lhs == rhs

    for _ in range(20):  # Jacobi
        x, y, z = (_random_homogeneous(rng, rng.randint(1, 3)) for _ in range(3))
        inputs_used += 3
        total = (
            ihara_bracket(x, ihara_bracket(y, z))
            + ihara_bracket(y, ihara_bracket(z, x))
            + ihara_bracket(z, ihara_bracket(x, y))
        )
        ok = ok and not total

    for _ in range(20):  # weight/depth additivity on bihomogeneous inputs
        wx, wy = rng.randint(2, 4), rng.randint(2, 4)
        dx, dy = rng.randint(1, min(2, wx - 1)), rng.randint(1, min(2, wy - 1))
        bits_x = [1] * dx + [0] * (wx - dx)
        bits_y = [1] * dy + [0] * (wy - dy)
        rng.shuffle(bits_x)
        rng.shuffle(bits_y)
        x = NCPoly({"".join(map(str, bits_x)): 1})
        y = NCPoly({"".join(map(str, bits_y)): 1})
        inputs_used += 2
        br = ihara_bracket(x, y)
        ok = ok and br.weight_component(wx + wy) == br
        ok = ok and br.depth_component(dx + dy) == br

    elapsed = time.perf_counter() - t0
    ok = ok and inputs_used >= 100 and elapsed < 10.0
    assert report(4, ok, "bracket structure (derivation homomorphism, Jacobi, antisymmetry, additivity) on %d randomized inputs (%.2fs)" % (inputs_used, elapsed))


def test_criterion_5_bernoulli_chain_and_distribution():
    t0 = time.perf_counter()
    ok = True
    for k in (2, 4, 6):
        for p in (3, 5, 7):
            ok = ok and check_bernoulli_sum_chain(k, p).ok
    for n in range(9):
        for m in range(1, 7):
            for x in (Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(2, 7)):
                ok = ok and distribution_check(n, m, x)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    assert report(5, ok, "Bernoulli double-sum chain on all of GL2(F_p) for k in {2,4,6}, p in {3,5,7}, plus the distribution relation (%.2fs)" % elapsed)


def test_criterion_6_coset_function_invariance():
    t0 = time.perf_counter()
    ok = True
    for n in (3, 5, 7):
        for k in (2, 4):
            for which in (1, 2):
                ok = ok and CosetFn.tabulate(k, n, which).pm_parabolic_invariant()
    elapsed = time.perf_counter() - t0
    assert report(6, ok, "coset functions are +-parabolic invariant for n in {3,5,7}, k in {2,4}, exhaustively (%.2fs)" % elapsed)


def test_criterion_7_eisenstein_eigenforms():
    ok = True
    for w in range(4, 15, 2):
        series = eisenstein_qexp(w, 60)
        for p in (2, 3, 5):
            transformed = hecke_tp(series, p)
            scale = Fraction(1 + p ** (w - 1))
            ok = ok and transformed.coeffs == tuple(
                scale * c for c in series.coeffs[: transformed.prec]
            )
    assert report(7, ok, "T_p multiplies the weight-w Eisenstein series by 1 + p^(w-1), coefficientwise at precision 60")


def test_criterion_8_hecke_factor_nonvanishing():
    t0 = time.perf_counter()
    prec = 100
    d = delta_qexp(prec)
    primes = [p for p in range(2, 51) if all(p % q for q in range(2, isqrt(p) + 1))]
    ok = True
    for p in primes:
        res = hecke_factor(d, p)
        ok = ok and res.value != 0 and res.weil_ok is True
        ok = ok and res.eigenvalue**2 < 4 * p**11
    for n in range(1, 51):
        ok = ok and (d.coeffs[n] - divisor_power_sum(n, 11)) % 691 == 0
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    assert report(8, ok, "1 - a_p + p^11 is nonzero with the Weil bound for primes p <= 50, and a_n = sigma_11(n) mod 691 for n <= 50 (%.2fs)" % elapsed)


def test_criterion_9_character_engine():
    t0 = time.perf_counter()
    ok = True
    for k in range(11):  # tensor product rule, exact lists
        for l in range(k + 1):
            expected = [IrrepLabel(k + l - 2 * i, -i) for i in range(l + 1)]
            ok = ok and tensor_decompose([IrrepLabel(k), IrrepLabel(l)]) == expected
    # twisted component-shape sweep: Sym^n1 tensor Sym^n2 has min(n1, n2) + 1 components, at each of 4 x 4 twists
    components = 16 * sum(min(n1, n2) + 1 for n1 in range(7) for n2 in range(7))
    ok = ok and check_no_eisenstein_component(6, 3) == (components, True, True)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    assert report(9, ok, "tensor rule exact for 0 <= l <= k <= 10; twisted products (sym <= 6, shift <= 3) have no forbidden component (%.2fs)" % elapsed)
