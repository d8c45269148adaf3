"""The ``api-warm`` workload: one long-lived library process.

This models a notebook or a test suite: the package is imported once and
called a few hundred times per pass, with caches warm.  Each pass is a fresh
draw from the workload seed.  The sizes of the expensive calls are a fixed
grid, the same in every pass, so the work per pass barely depends on the
seed; the seed draws the coefficients, labels, rational points, the order of
the calls and which calls repeat.  One small call in four repeats the inputs
of an earlier call of the same kind in the pass.  A pass over a different
draw runs first, untimed, to warm the caches.

Every call is checked against a fact that holds for any seed:

* ``verify_brown_criterion`` and ``period_space`` at weight w have dimension
  ``dim S_w = floor(w/12) - [w = 2 mod 12]``, and the criterion matches;
* ``is_period_poly`` and ``subspace_equal`` answer what the generator built
  in: members are rational combinations of a period basis, non-members add a
  single even monomial, which breaks antisymmetry;
* ``bernoulli_poly_eval`` agrees with an independent Akiyama-Tanigawa table;
  ``distribution_check`` holds; ``hecke_eigenvalue`` of ``E_k`` is
  ``1 + p^(k-1)``; ``tensor_decompose`` preserves dimension.

Usage: ``python3 perfbench/warm.py --seed N --seconds S --trace 0|1``.  Passes
run until S seconds after the start (at least three).  It prints one JSON
object with the timings, the operation counts and, when traced, the
per-layer aggregates.  Untraced, each pass runs between two timings of the
machine-speed reference (``speed.py``), and its pass and call times are also
given scaled by them; traced times are plain wall times.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction
from math import comb, prod

from depthforge import depthlie, eisenstein, periodpoly, repcalc

import speed
import tracing
from run import cusp_dim

BROWN_WEIGHTS = (6, 12, 18, 24, 30)
PERIOD_SPACE_WEIGHTS = (12, 24, 36, 48, 60, 72, 80)
MEMBER_WEIGHTS = tuple(w for w in range(12, 62, 2) if w % 12 != 2)  # dim S_w >= 1
PRIMES = (2, 3, 5, 7, 11, 13)
SMALL_KINDS = {"bern_eval": 80, "dist": 24, "tensor": 60, "hecke": 16}
REPEAT_EVERY = 4
MIN_PASSES = 3
BERN_MAX = 32


def _bernoulli_table(n: int) -> list[Fraction]:
    """B_0..B_n by the Akiyama-Tanigawa algorithm, with B_1 = -1/2."""
    out, a = [], []
    for m in range(n + 1):
        a.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        out.append(a[0])
    out[1] = -out[1]
    return out


BERNOULLI = _bernoulli_table(BERN_MAX)


def bernoulli_value(n: int, x: Fraction) -> Fraction:
    return sum(comb(n, k) * BERNOULLI[k] * x ** (n - k) for k in range(n + 1))


def _rational(rng: random.Random, bound: int = 9) -> Fraction:
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, bound), rng.randint(1, bound))


def _even_between(rng: random.Random, lo: int, hi: int) -> int:
    return 2 * rng.randint(lo // 2, hi // 2)


class Generator:
    """Draws the passes; the period bases are solved once, untimed, by the caller."""

    def __init__(self, rng: random.Random, bases: dict):
        self.rng = rng
        self.bases = bases

    def _combination(self, basis):
        poly = periodpoly.BivarPoly(basis[0].degree)
        for b in basis:
            poly = poly + _rational(self.rng) * b
        return poly

    def _member_call(self, w: int, truth: bool):
        rng = self.rng
        poly = self._combination(self.bases[w])
        if not truth:
            i = rng.randint(1, w // 2 - 2)
            poly = poly + periodpoly.BivarPoly.monomial(2 * i, w - 2 - 2 * i, _rational(rng))
        return ("is_period", (poly,), truth)

    def _subspace_call(self, w: int, truth: bool):
        rng = self.rng
        basis = self.bases[w]
        if truth:
            # a triangular change of basis with nonzero diagonal keeps the span
            other = [_rational(rng) * b for b in basis]
            for i in range(len(other) - 1):
                other[i] = other[i] + _rational(rng) * other[i + 1]
        else:
            other = basis[:-1]
        return ("subspace", (basis, other), truth)

    def _small_call(self, kind: str):
        rng = self.rng
        if kind == "bern_eval":
            den = rng.randint(2, 40)
            return (kind, (rng.randint(2, 30), Fraction(rng.randint(-2 * den, 2 * den), den)), None)
        if kind == "dist":
            den = rng.randint(2, 12)
            return (kind, (rng.randint(1, 24), rng.randint(1, 8), Fraction(rng.randint(-den, den), den)), True)
        if kind == "tensor":
            labels = []
            for _ in range(rng.randint(2, 4)):
                labels.append(repcalc.IrrepLabel(rng.randint(0, 8), rng.randint(-3, 12)))
            return (kind, (labels,), None)
        p = rng.choice(PRIMES)
        return (kind, (_even_between(rng, 4, 24), p * rng.randint(2, 8) + 1, p), None)

    def draw(self) -> list[tuple]:
        rng = self.rng
        weights = MEMBER_WEIGHTS
        calls = [("brown", ((w - 2) // 2,), None) for w in BROWN_WEIGHTS]
        calls += [("period_space", (w,), None) for w in PERIOD_SPACE_WEIGHTS]
        calls += [self._member_call(weights[i % len(weights)], i % 2 == 0) for i in range(24)]
        calls += [self._subspace_call(weights[2 * i % len(weights)], i % 2 == 0) for i in range(12)]
        for kind, count in SMALL_KINDS.items():
            calls += [self._small_call(kind) for _ in range(count)]
        rng.shuffle(calls)
        seen: dict[str, list] = {kind: [] for kind in SMALL_KINDS}
        for index, call in enumerate(calls):
            kind = call[0]
            if kind not in seen:
                continue
            if seen[kind] and len(seen[kind]) % REPEAT_EVERY == REPEAT_EVERY - 1:
                calls[index] = rng.choice(seen[kind])
            seen[kind].append(calls[index])
        return calls


def invoke(kind: str, args: tuple):
    """The timed library call."""
    if kind == "brown":
        return depthlie.verify_brown_criterion(*args)
    if kind == "period_space":
        return periodpoly.period_space(*args)
    if kind == "is_period":
        return periodpoly.is_period_poly(*args)
    if kind == "subspace":
        return periodpoly.subspace_equal(*args)
    if kind == "bern_eval":
        return eisenstein.bernoulli_poly_eval(*args)
    if kind == "dist":
        return eisenstein.distribution_check(*args)
    if kind == "tensor":
        return repcalc.tensor_decompose(*args)
    weight, prec, p = args
    return eisenstein.hecke_eigenvalue(eisenstein.eisenstein_qexp(weight, prec), p)


def check(kind: str, args: tuple, truth, result) -> bool:
    """The oracle: an invariant that holds whatever the seed drew."""
    if kind == "brown":
        w = 2 * args[0] + 2
        return result.matches and result.kernel_dim == result.period_dim == cusp_dim(w)
    if kind == "period_space":
        return result.dim == cusp_dim(args[0])
    if kind == "is_period":
        return result.ok is truth and (truth or result.failed.startswith("antisymmetry"))
    if kind in ("subspace", "dist"):
        return result is truth
    if kind == "bern_eval":
        return result == bernoulli_value(*args)
    if kind == "tensor":
        return sum(c.u + 1 for c in result) == prod(label.u + 1 for label in args[0])
    weight, _, p = args
    return result == 1 + p ** (weight - 1)


def canonical(kind: str, result) -> object:
    """A JSON form of a result, for comparing traced and untraced passes."""
    if kind in ("brown", "period_space"):
        return result.to_json_obj()
    if kind == "is_period":
        return [result.ok, result.failed]
    if kind == "tensor":
        return [str(c) for c in result]
    return str(result)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0


def run_pass(calls: list[tuple], tally: Tally | None) -> tuple[list[float], list]:
    """Time each call; check it when a tally is given (untimed)."""
    latencies, results = [], []
    clock = time.perf_counter
    for kind, args, truth in calls:
        start = clock()
        result = invoke(kind, args)
        latencies.append(clock() - start)
        results.append(canonical(kind, result))
        if tally is not None:
            tally.attempted += 1
            if not check(kind, args, truth, result):
                tally.failed += 1
                print("api-warm: wrong result for %s%r" % (kind, args), file=sys.stderr)
    return latencies, results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    bases = {w: periodpoly.period_space(w).basis for w in MEMBER_WEIGHTS}
    run_pass(Generator(random.Random("warm-up %d" % args.seed), bases).draw(), None)
    generator = Generator(random.Random(args.seed), bases)
    tally = Tally()
    out = {"pass_s": [], "call_ms": []}
    budget_end = started + args.seconds
    if not args.trace:
        out.update(raw_pass_s=[], references=[])
        while len(out["pass_s"]) < MIN_PASSES or time.perf_counter() < budget_end:
            calls = generator.draw()
            before = speed.reference()
            latencies, _ = run_pass(calls, tally)
            after = speed.reference()
            factor = speed.scale(1.0, before, after)
            out["pass_s"].append(factor * sum(latencies))
            out["raw_pass_s"].append(sum(latencies))
            out["call_ms"].extend(1000 * factor * t for t in latencies)
            out["references"] += [before, after]
    else:
        tracer = tracing.Tracer()
        out.update(traced_pass_s=[], traces=[], identical=True)
        while len(out["traces"]) < MIN_PASSES or time.perf_counter() < budget_end:
            calls = generator.draw()
            # alternate which side runs first, so neither always meets warmer caches
            traced_first = len(out["traces"]) % 2 == 1
            for traced in (traced_first, not traced_first):
                if traced:
                    tracer.reset()
                    tracer.install()
                try:
                    latencies, results = run_pass(calls, tally)
                finally:
                    tracer.uninstall()
                key = "traced_pass_s" if traced else "pass_s"
                out[key].append(sum(latencies))
                if traced:
                    out["traces"].append(tracer.aggregate())
                    traced_results = results
                else:
                    plain_results = results
            out["identical"] &= traced_results == plain_results
    out["attempted"], out["failed"] = tally.attempted, tally.failed
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
