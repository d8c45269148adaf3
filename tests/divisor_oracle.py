"""sigma_k(n) by trial division, one n at a time: the tests' oracle for the divisor sieve of ``eisenstein_qexp``."""

from math import isqrt


def divisor_power_sum(n: int, k: int) -> int:
    """sigma_k(n) = sum of d^k over positive divisors d of n."""
    total = 0
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            total += d**k
            if d != n // d:
                total += (n // d) ** k
    return total
