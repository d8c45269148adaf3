"""Per-layer tracing of depthforge, applied from outside the package.

The benchmark measures its end-to-end numbers with tracing off.  A separate
traced run replaces selected public functions of the seven modules with
wrappers.  A wrapper is installed under every name a module looks the
function up by: ``depthlie`` imports ``ihara_bracket`` and ``kernel_basis``
by name, ``periodpoly`` imports ``kernel_basis`` and ``rref`` by name, so
patching only the defining module would miss those calls.

Two kinds of wrapper exist.  A *span* records its start, end and parent span
in memory; self time is derived at the end as the span's duration minus the
time covered by its child spans.  A *count* only counts calls: it is used for
hot leaves (``bernoulli_poly_eval`` runs about 340k times in ``verify bernsum
--p 13``), where a span would cost more than the call.  A count's time is part
of the self time of the enclosing span.

Run as a script, this file is a traced ``depthforge`` command line: it
installs the wrappers, runs ``depthforge.cli.main`` on its arguments, writes
the report to stdout exactly as the plain command does, and writes one
``PERFBENCH-TRACE <json>`` line with the aggregates to stderr.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter, defaultdict

SPAN = "span"
COUNT = "count"

# module -> {function: kind}.  The layers are the package's seven modules.
WRAPPED = {
    "cli": {"main": SPAN},
    "ncalg": {
        "ihara_bracket": SPAN,
        "derivation_apply": SPAN,
        "ad_pow": SPAN,
        "lie_bracket": COUNT,
        "nc_mul": COUNT,
    },
    "depthlie": {
        "sigma_leading": SPAN,
        "bracket_matrix": SPAN,
        "relation_kernel": SPAN,
        "verify_brown_criterion": SPAN,
    },
    "exactla": {"kernel_basis": SPAN, "rref": SPAN},
    "periodpoly": {
        "period_space": SPAN,
        "is_period_poly": SPAN,
        "subspace_equal": SPAN,
        "pair_to_poly": SPAN,
    },
    "eisenstein": {
        "bernoulli_number": SPAN,
        "bernoulli_poly_eval": COUNT,
        "distribution_check": SPAN,
        "check_bernoulli_sum_chain": SPAN,
        "phi_line_sum": COUNT,
        "eisenstein_qexp": SPAN,
        "delta_qexp": SPAN,
        "hecke_tp": SPAN,
        "hecke_eigenvalue": SPAN,
    },
    "repcalc": {
        "tensor_decompose": SPAN,
        "character_decompose": SPAN,
        "check_no_eisenstein_component": SPAN,
    },
}

# Functions whose distinct argument tuples are counted: a distinct/calls ratio
# below 1 is work repeated on inputs already seen.
DISTINCT = {"depthlie.sigma_leading", "eisenstein.bernoulli_poly_eval", "repcalc.tensor_decompose"}

# Functions whose first argument is a QMatrix whose size is recorded.
SIZED = {"exactla.kernel_basis"}

MARKER = "PERFBENCH-TRACE "


def _hashable(value):
    return tuple(value) if isinstance(value, list) else value


def _matrix_sizes(m) -> tuple[int, int]:
    bits = 0
    for row in m.entries:
        for x in row:
            bits = max(bits, abs(x.numerator).bit_length(), x.denominator.bit_length())
    return m.rows, bits


class Tracer:
    """Installs the wrappers and keeps the spans and counters in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = defaultdict(set)
        self.sizes: dict[str, list[int]] = {}
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, kind: str, func):
        spans, counts, stack = self.spans, self.counts, self._stack
        seen = self.distinct[name] if name in DISTINCT else None
        sized = name in SIZED
        clock = time.perf_counter

        if kind == COUNT:

            def counted(*args, **kwargs):
                counts[name] += 1
                if seen is not None:
                    seen.add(tuple(_hashable(a) for a in args))
                return func(*args, **kwargs)

            return counted

        def spanned(*args, **kwargs):
            if seen is not None:
                seen.add(tuple(_hashable(a) for a in args))
            if sized:
                rows, bits = _matrix_sizes(args[0])
                best = self.sizes.setdefault(name, [0, 0])
                best[0], best[1] = max(best[0], rows), max(best[1], bits)
            record = [name, stack[-1], 0.0, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[2] = clock()
            try:
                return func(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()

        return spanned

    def install(self) -> None:
        """Replace every wrapped function under each name a module uses for it."""
        modules = [importlib.import_module("depthforge.%s" % mod) for mod in WRAPPED]
        modules.append(importlib.import_module("depthforge"))
        for mod, funcs in WRAPPED.items():
            home = importlib.import_module("depthforge.%s" % mod)
            for fname, kind in funcs.items():
                original = getattr(home, fname)
                wrapper = self._wrap("%s.%s" % (mod, fname), kind, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._saved.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        for seen in self.distinct.values():
            seen.clear()
        self.sizes.clear()

    def aggregate(self) -> dict[str, dict]:
        """Per function: calls, self_s, total_s, and distinct / sizes where kept."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for index, (name, parent, start, end) in enumerate(self.spans):
            agg = out[name]
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child_time[index]
        for name, calls in self.counts.items():
            out[name]["calls"] += calls
        for name, seen in self.distinct.items():
            if name in out:
                out[name]["distinct"] = len(seen)
        for name, (rows, bits) in self.sizes.items():
            out[name]["max_rows"] = rows
            out[name]["max_entry_bits"] = bits
        return dict(out)


def merge(aggregates: list[dict]) -> dict[str, dict]:
    """Sum several aggregates (one per process); sizes take the maximum."""
    out: dict[str, dict] = {}
    for agg in aggregates:
        for name, stats in agg.items():
            into = out.setdefault(name, {})
            for stat, value in stats.items():
                if stat.startswith("max_"):
                    into[stat] = max(into.get(stat, 0), value)
                else:
                    into[stat] = into.get(stat, 0) + value
    return out


def main(argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module("depthforge.cli")
    try:
        return cli.main(argv)
    finally:  # exits and tracebacks then go on exactly as in the plain command
        sys.stdout.flush()
        sys.stderr.write("\n" + MARKER + json.dumps(tracer.aggregate(), sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
