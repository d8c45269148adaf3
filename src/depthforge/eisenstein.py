"""Bernoulli machinery, coset functions on GL2(Z/n), and q-expansions.

Three layers live here because they share the Bernoulli substrate:

* Bernoulli numbers (convention B_1 = -1/2, generating function t/(e^t - 1))
  and Bernoulli polynomials, exact over Fraction, plus the distribution
  relation ``sum_{a<m} B_n(x + a/m) = m^(1-n) B_n(mx)``.  The numbers come
  from the integer triangle of tangent numbers T_k (tan x = sum T_k
  x^(2k-1)/(2k-1)!) and ``B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1))``; see
  Brent and Harvey, *Fast computation of Bernoulli, tangent and secant
  numbers* (2011).  No Fraction enters before that last division.  Values
  B_n(a/b) come from an integer Horner pass, :func:`_bern_horner`: the
  coefficients times the lcm d of their denominators, summed as
  ``sum N_k a^k b^(n-k)`` and divided by d b^n once, at the end.

* The coset functions phi_1, phi_2 on GL2(Z/nZ),

      phi_which(g) = (n^(k+1)/(k+2)) * B_{k+2}(<entry/n>),

  entry = c for which=1 and d for which=2, where <.> is the representative
  in [0,1).  No command needs phi itself; it lives beside its value tables
  in the test oracle ``tests/coset_oracle.py``.  :func:`phi_line_sum` is the
  companion sum of the same integrand over all F_p-multiples of one matrix
  entry, and :func:`check_bernoulli_sum_chain` verifies, for every matrix in
  GL2(F_p), the rewriting of a unit-restricted double Bernoulli sum into
  ``p B_{k+2}/(k+2)`` plus such a line sum.  Every term depends on the
  matrix only through its bottom row, so the chain is evaluated once per
  bottom row (c, d) != (0, 0), the line sum once per value of its entry, and
  each matrix reads the verdict of its row; the walk over the matrices stops
  once every row is known to hold.  Each double sum counts its pairs
  (alpha, beta) by the residue of alpha c + beta d, then takes one dot
  product of those counts with the integer Horner values of B_{k+2}(t/p) on
  their least common denominator; the first two members of the chain are
  compared as those integers, and the last, once per entry value, is brought
  to their scale to meet the first as an integer.  The chain balances when
  the line sum reads entry d; ``entry`` is a parameter so both variants can
  be exercised (the c-variant fails, e.g. at the identity matrix).

* Exact q-expansions: Eisenstein series E_w with a_0 = -B_w / (2w) and
  a_n = sigma_{w-1}(n) (Stein, *Modular Forms: A Computational Approach*,
  2007, ch. 2), the modular form whose a_1 is 1, every a_n from one divisor
  sieve that raises each d^(w-1) once and adds it at every multiple of d;
  the discriminant cusp form Delta
  as q prod (1-q^n)^24, the Hecke operator T_p, and the scalar factor
  1 - a_p + p^(2m+1) of weight-(2m+2) eigenforms together with, on cusp
  forms (a_0 = 0), the Weil bound check a_p^2 < 4 p^(2m+1) that forces it
  to be nonzero.  Delta is q times the eighth power of Jacobi's
  ``prod (1-q^n)^3 = sum_k (-1)^k (2k+1) q^(k(k+1)/2)``, taken by squaring
  three times; each square is one big-int product (Kronecker substitution).
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, isqrt, lcm
from typing import Iterable

from .exactla import as_fraction

Mat = tuple[int, int, int, int]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, isqrt(n) + 1))

# -- Bernoulli numbers and polynomials ------------------------------------

_BERNOULLI: list[Fraction] = [Fraction(1)]


def _tangent_numbers(m: int) -> list[int]:
    """T_1, ..., T_m by Brent-Harvey's in-place integer triangle, O(m^2) steps."""
    t = [0] * (m + 1)  # t[0] unused
    if m:
        t[1] = 1
    for k in range(2, m + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, m + 1):
        for j in range(k, m + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[1:]


def bernoulli_number(n: int) -> Fraction:
    """B_n with B_1 = -1/2; B_2k from the tangent number T_k.

    ``_BERNOULLI`` caches B_0, B_1, ...  A miss refills it to at least twice
    its length, so a rising sequence of calls costs O(1) triangles amortised.
    """
    if n < 0:
        raise ValueError("Bernoulli index must be >= 0")
    size = len(_BERNOULLI)
    if n >= size:
        grown = max(n + 1, 2 * size)
        values = [Fraction(1), Fraction(-1, 2)]
        for k, t in enumerate(_tangent_numbers((grown - 1) // 2), start=1):
            values += [Fraction((-1) ** (k - 1) * 2 * k * t, 4**k * (4**k - 1)), Fraction(0)]
        _BERNOULLI.extend(values[size:grown])
    return _BERNOULLI[n]


@lru_cache(maxsize=None)
def bernoulli_polynomial(n: int) -> tuple[Fraction, ...]:
    """The coefficients of B_n(X) = sum_k C(n,k) B_k X^(n-k), by ascending power."""
    if n < 0:
        raise ValueError("Bernoulli index must be >= 0")
    return tuple(comb(n, i) * bernoulli_number(n - i) for i in range(n + 1))


@lru_cache(maxsize=2)  # bounded: the bernsum chain reads one n at b = p, and at b = 1 for the point 0
def _bern_scaled(n: int, b: int) -> tuple[tuple[int, ...], int]:
    """The integers N_k b^(n-k), k from n down to 0, and d b^n.

    d is the lcm of the denominators of the coefficients c_k of
    ``bernoulli_polynomial(n)``, so N_k = c_k d is an integer.  The products
    by powers of b are most of the cost of a value at large n, so the points
    that share n and b share them.
    """
    coeffs = bernoulli_polynomial(n)
    d = lcm(*[c.denominator for c in coeffs])
    scaled = []
    power = 1
    for c in reversed(coeffs):
        scaled.append(c.numerator * (d // c.denominator) * power)
        power *= b
    return tuple(scaled), d * b**n


def _bern_horner(n: int, b: int, numerators: Iterable[int]) -> tuple[list[int], int]:
    """B_n(a/b) for each a in ``numerators``, as integers over their least common denominator.

    Each value times d b^n (see :func:`_bern_scaled`) is ``sum N_k a^k
    b^(n-k)``, summed by Horner's rule in a.  One gcd of d b^n with all the
    sums then takes them to the lcm of the reduced values' denominators.
    """
    scaled, denominator = _bern_scaled(n, b)
    values = []
    for a in numerators:
        acc = 0
        for s in scaled:
            acc = acc * a + s
        values.append(acc)
    g = gcd(denominator, *values)
    return [v // g for v in values], denominator // g


@lru_cache(maxsize=1024)  # bounded: a long-lived caller meets ever new rationals x
def _bern_value(n: int, x: Fraction) -> Fraction:
    (value,), denominator = _bern_horner(n, x.denominator, [x.numerator])
    return Fraction(value, denominator)


def bernoulli_poly_eval(n: int, x) -> Fraction:
    """Exact value B_n(x) for rational x.

    ``x`` is coerced before the cache is read: ``0.5`` and ``Fraction(1, 2)`` hash
    and compare equal, so a cache on the raw ``x`` would answer the float, not refuse it.
    """
    return _bern_value(n, as_fraction(x))


def distribution_check(n: int, m: int, x) -> bool:
    """Verify sum_{a=0}^{m-1} B_n(x + a/m) = m^(1-n) B_n(m x) exactly."""
    if m < 1:
        raise ValueError("m must be >= 1")
    t = as_fraction(x)
    lhs = sum(bernoulli_poly_eval(n, t + Fraction(a, m)) for a in range(m))
    rhs = Fraction(m) ** (1 - n) * bernoulli_poly_eval(n, m * t)
    return lhs == rhs


# -- GL2 over Z/nZ ----------------------------------------------------------


def is_invertible(g: Mat, n: int) -> bool:
    a, b, c, d = g
    return gcd(a * d - b * c, n) == 1


def _check_phi_args(k: int, n: int, g: Mat) -> None:
    if k < 2 or k % 2 != 0:
        raise ValueError("k must be an even integer >= 2, got %r" % (k,))
    if n < 2:
        raise ValueError("level must be >= 2, got %r" % (n,))
    if not is_invertible(g, n):
        raise ValueError("matrix %r is not invertible mod %d" % (g, n))


def phi_line_sum(k: int, p: int, g: Mat, entry: str) -> Fraction:
    """-(p^(k+1)/(k+2)) * sum over alpha in F_p of B_{k+2}(<alpha*e/p>).

    ``e`` is the matrix entry named by ``entry`` ("c" or "d").  The value
    depends only on whether e vanishes mod p, by the distribution relation.
    """
    if entry not in ("c", "d"):
        raise ValueError("entry must be 'c' or 'd'")
    if not _is_prime(p):
        raise ValueError("p must be prime, got %r" % (p,))
    _check_phi_args(k, p, g)
    e = g[2] if entry == "c" else g[3]
    total = sum(bernoulli_poly_eval(k + 2, Fraction((alpha * e) % p, p)) for alpha in range(p))
    return -Fraction(p ** (k + 1), k + 2) * total


class ChainCheck:
    """Result of the GL2(F_p)-wide Bernoulli double-sum chain verification."""

    __slots__ = ("ok", "checked", "first_failure")

    def __init__(self, ok: bool, checked: int, first_failure: Mat | None = None):
        self.ok = ok
        self.checked = checked
        self.first_failure = first_failure


def check_bernoulli_sum_chain(k: int, p: int, entry: str = "d") -> ChainCheck:
    """Verify, for every g in GL2(F_p), the displayed equality chain

        (p^(k+1)/(k+2)) sum_{alpha in F_p^x, beta in F_p} B_{k+2}(<(alpha c + beta d)/p>)
          = (p^(k+1)/(k+2)) [ sum_{alpha, beta in F_p} - sum_{beta in F_p} B_{k+2}(<beta d/p>) ]
          = p B_{k+2}/(k+2) + phi_line_sum(k, p, g, entry)

    including the intermediate step (the subtracted single sum is the
    alpha = 0 slice, which runs over multiples of d).  The final rewrite
    balances for ``entry="d"``; ``entry="c"`` is accepted so the failing
    variant can be demonstrated.  ``checked`` counts the matrices in
    row-major order (a, b, c, d) up to the first failure, which is reported,
    or all (p^2 - 1)(p^2 - p) of them.
    """
    if k < 2 or k % 2 != 0:
        raise ValueError("k must be an even integer >= 2")
    if not _is_prime(p) or p == 2:
        raise ValueError("p must be an odd prime, got %r" % (p,))
    ival, scale = _bern_horner(k + 2, p, range(p))  # B_{k+2}(t/p) = ival[t] / scale
    prefactor = Fraction(p ** (k + 1), k + 2)
    constant = Fraction(p, k + 2) * bernoulli_number(k + 2)

    # Every term depends on g only through its bottom row (c, d) != (0, 0): the
    # chain is evaluated at the first g with a new row, and each g reads that
    # verdict.  All p^2 - 1 rows are met among the first p^3 + p of the p^4
    # tuples, the last at (1, 0, 0, p - 1), and once each holds, so does every
    # later matrix.  Each of the three sums counts its own pairs by the residue
    # t of alpha c + beta d, in small ints, and meets ival in one dot product.
    # The line sum reads only the entry e of the row, so the right-hand side is
    # formed once per e and brought to the scale of the sums; the first two
    # members share prefactor and scale, so they are compared as integers.
    def dot(residues: list[int]) -> int:
        return sum(ival[t] * n for t, n in Counter(residues).items())

    holds: dict[tuple[int, int], bool] = {}
    rhs: dict[int, Fraction] = {}
    checked = 0
    for g in itertools.product(range(p), repeat=4):
        a, b, c, d = g
        if (a * d - b * c) % p == 0:
            continue
        checked += 1
        if (c, d) not in holds:
            e = c if entry == "c" else d
            if e not in rhs:
                rhs[e] = (constant + phi_line_sum(k, p, g, entry)) * scale / prefactor
            restricted = dot([(alpha * c + beta * d) % p for alpha in range(1, p) for beta in range(p)])
            full = dot([(alpha * c + beta * d) % p for alpha in range(p) for beta in range(p)])
            zero_slice = dot([beta * d % p for beta in range(p)])
            holds[c, d] = restricted == full - zero_slice and restricted == rhs[e]
        if not holds[c, d]:
            return ChainCheck(False, checked, first_failure=g)
        if len(holds) == p * p - 1:
            break
    return ChainCheck(True, (p * p - 1) * (p * p - p))  # every matrix of GL2(F_p)


# -- q-expansions and the Hecke operator ------------------------------------


class QExpansion:
    """Truncated q-series sum a_n q^n, n < prec = len(coeffs), each a_n kept as the int or Fraction given."""

    __slots__ = ("weight", "prec", "coeffs")

    def __init__(self, weight: int, coeffs: Iterable[int | Fraction]):
        self.weight = weight
        self.coeffs = tuple(c if type(c) is int else as_fraction(c) for c in coeffs)
        self.prec = len(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QExpansion):
            return NotImplemented
        return (self.weight, self.coeffs) == (other.weight, other.coeffs)

    def __repr__(self) -> str:
        return "QExpansion(%r, %r)" % (self.weight, self.coeffs)

    def to_json_obj(self) -> dict:
        return {"weight": self.weight, "prec": self.prec, "coeffs": [str(c) for c in self.coeffs]}


def eisenstein_qexp(weight: int, prec: int) -> QExpansion:
    """E_weight with a_0 = -B_weight/(2 weight) and a_n = sigma_{weight-1}(n).

    This a_0 makes the series a modular form: divided by their a_0, for one,
    E_4^2 = E_8.

    The a_n come from one divisor sieve: each d^(weight-1), 0 < d < prec, is
    raised once and added to the coefficient of every multiple of d.
    """
    if weight < 4 or weight % 2 != 0:
        raise ValueError("weight must be an even integer >= 4, got %r" % (weight,))
    if prec < 1:
        raise ValueError("prec must be >= 1")
    coeffs = [-bernoulli_number(weight) / (2 * weight)] + [0] * (prec - 1)
    for d in range(1, prec):
        power = d ** (weight - 1)
        for n in range(d, prec, d):
            coeffs[n] += power
    return QExpansion(weight, coeffs)


def _kronecker_square(a: list[int]) -> list[int]:
    """Coefficients of (sum a_i x^i)^2 from one big-int product.

    No coefficient of the square exceeds ||a||_1^2 in absolute value, so each
    gets a slot of whole bytes with the top bit to spare for the sign.  Values
    go in and come out offset by half a slot, which makes every slot
    nonnegative: one ``int.from_bytes`` packs them and one ``to_bytes`` sliced
    per slot unpacks them, both in linear time.
    """
    width = (sum(map(abs, a)) ** 2).bit_length() // 8 + 1
    half = 1 << (8 * width - 1)
    chunk = half.to_bytes(width, "little")
    slots = 2 * len(a) - 1
    x = int.from_bytes(b"".join((c + half).to_bytes(width, "little") for c in a), "little")
    x -= int.from_bytes(chunk * len(a), "little")
    raw = (x * x + int.from_bytes(chunk * slots, "little")).to_bytes(width * slots, "little")
    return [int.from_bytes(raw[i : i + width], "little") - half for i in range(0, len(raw), width)]


def delta_qexp(prec: int) -> QExpansion:
    """The discriminant cusp form q prod_{n>=1} (1 - q^n)^24, weight 12."""
    if prec < 2:
        raise ValueError("prec must be >= 2")
    n_terms = prec - 1  # product truncated where q*(...) reaches prec
    series = [0] * n_terms  # prod (1 - q^n)^3, by Jacobi's identity
    k = 0
    while k * (k + 1) // 2 < n_terms:
        series[k * (k + 1) // 2] = (-1) ** k * (2 * k + 1)
        k += 1
    for _ in range(3):
        series = _kronecker_square(series)[:n_terms]
    return QExpansion(12, [0] + series)


def check_tp_prime(p: int, prec: int) -> None:
    """Raise ``ValueError`` if :func:`hecke_tp` would refuse ``p`` as not prime on a series of precision ``prec``.

    p < 2 is refused at once.  Primality is tested only where the output
    precision prec // p is at least 2: below that, T_p refuses the precision
    first, so the trial division only ever meets p <= prec/2.  Callers can
    refuse p with this before they build the series.
    """
    if p < 2 or (prec // p >= 2 and not _is_prime(p)):
        raise ValueError("p must be prime, got %r" % (p,))


def hecke_tp(f: QExpansion, p: int) -> QExpansion:
    """T_p: a_n -> a_{np} + p^(weight-1) a_{n/p} (second term only if p | n).

    The output precision is floor(prec/p); it must stay >= 2 to say anything.
    :func:`check_tp_prime` refuses p < 2 first and tests primality only
    where the precision passes, so a large p with a small prec is refused at
    once, for its precision.
    """
    check_tp_prime(p, f.prec)
    out_prec = f.prec // p
    if out_prec < 2:
        raise ValueError(
            "precision %d too small for T_%d (output would have %d coefficients)"
            % (f.prec, p, out_prec)
        )
    shift = p ** (f.weight - 1)
    coeffs = []
    for n in range(out_prec):
        value = f.coeffs[n * p]
        if n % p == 0:
            value += shift * f.coeffs[n // p]
        coeffs.append(value)
    return QExpansion(f.weight, coeffs)


def hecke_eigenvalue(f: QExpansion, p: int) -> int | Fraction:
    """The T_p-eigenvalue a_p of a normalized (a_1 = 1) eigenform, as f holds it.

    T_p f is compared with a_p f on each of its prec // p coefficients.
    Raises ValueError if :func:`hecke_tp` refuses (p is not prime, or
    prec // p < 2), if f is not normalized, or if T_p f != a_p f.
    """
    transformed = hecke_tp(f, p)
    if f.coeffs[1] != 1:
        raise ValueError("not normalized: a_1 = %s != 1" % (f.coeffs[1],))
    lam = f.coeffs[p]
    for n, value in enumerate(transformed.coeffs):
        if value != lam * f.coeffs[n]:
            raise ValueError(
                "not a T_%d-eigenform within precision: coefficient %d is %s, expected %s"
                % (p, n, value, lam * f.coeffs[n])
            )
    return lam


class HeckeFactorResult:
    """The scalar 1 - a_p + p^(w-1) with the Weil-bound side check, ints for an int a_p."""

    __slots__ = ("eigenvalue", "value", "weil_ok")

    def __init__(self, eigenvalue: int | Fraction, value: int | Fraction, weil_ok: bool | None):
        self.eigenvalue = eigenvalue
        self.value = value
        self.weil_ok = weil_ok  # None when the Weil bound does not apply (a_0 != 0)

    def to_json_obj(self) -> dict:
        return {"eigenvalue": str(self.eigenvalue), "value": str(self.value), "weil_ok": self.weil_ok}


def hecke_factor(f: QExpansion, p: int) -> HeckeFactorResult:
    """Evaluate 1 - a_p(f) + p^(w-1) on a normalized eigenform f of even weight w = 2m+2.

    Cuspidality is read off a_0.  For a cusp form (a_0 = 0) the Weil bound
    a_p^2 < 4 p^(w-1) is checked exactly (by squaring, no square roots) and
    reported as ``weil_ok``; it forces the factor to be nonzero.  For an
    Eisenstein series (a_0 != 0) the bound fails and the factor can vanish,
    so ``weil_ok`` is None.
    """
    if f.weight % 2:
        raise ValueError("weight %d is odd, and no full-level form has odd weight" % (f.weight,))
    lam = hecke_eigenvalue(f, p)  # first, so that f has the a_0 read next
    shift = p ** (f.weight - 1)
    weil_ok = None if f.coeffs[0] else lam * lam < 4 * shift
    return HeckeFactorResult(lam, 1 - lam + shift, weil_ok)
