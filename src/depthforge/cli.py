"""Command-line front end.

Grammar: ``depthforge <group> <command> [flags]`` with groups

* ``period basis|check``   -- period-polynomial spaces and membership
* ``depth matrix|relations`` -- depth-2 bracket matrix and its kernel
* ``verify brown|bernsum|eigen|cgshape`` -- the verification pipelines
* ``eis qexp|hecke|factor`` -- q-expansions and the Hecke operator; ``eis
  qexp|hecke`` read Delta with ``--delta``, else E_W with ``--weight W``, and
  ``eis factor`` reads Delta unless ``--eisenstein --weight W`` selects E_W
* ``rep decompose|bigrade`` -- GL2 character calculus
* ``bern number|poly|dist`` -- Bernoulli utilities

Reports are deterministic (byte-identical for identical configs): JSON with
a top-level ``"schema": 1``, or CSV with one row per case via ``--format
csv``.  Exit status: 0 all checks passed, 1 a verification failed, 2 invalid
flags or values, 3 output could not be written.  A value past one of the
``MAX_*`` caps below (each says why it is there), or a report that would print
an integer of more than ``MAX_INT_DIGITS`` digits, is exit 2 with a message
that names the cap; README lists the caps a user meets.

One table, :data:`HANDLERS`, defines every command: its handler, the statement
its report carries, its help text and its flags.  :func:`build_parser` turns
the table into the argparse tree.  A command line that names a command in its
first two words gets a parser of root, that group and that command only; any
other (a ``--help`` of the root or a group, an unknown group or command, an
option written before the group) gets the whole tree, so every usage line,
help text and error reads as the whole tree's.  Importing this module loads
only the standard library: each handler, and each helper it shares, imports
the package module it calls, so a cold command loads only its own pipeline.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys

DEFAULT_MIN_WEIGHT = 6
DEFAULT_MAX_WEIGHT = 30
# the weight of verify brown --weight|--max-weight, period basis --weight and
# depth matrix|relations (as 2m+2 from --m).  At 200: verify brown 0.23-0.46 s and 17 MB,
# depth matrix 1.3-2.9 s and 278 MB for a 50 MB report, period basis 0.2 s (child peak
# RSS, 2-vCPU VM under varying load); a verify brown batch runs each even weight, 230 s
# for 6..200 when the bracket was built in full
MAX_DEPTH2_WEIGHT = 200
# period check expands the three-term relation in O(degree^2) binomial terms
MAX_PERIOD_DEGREE = 1000
# over the coefficients times the lcm of their denominators, so the work grows
# with the heights max(|a|, b) of the coefficients a/b, summed in bits: at
# degree 1000, 498 of 48 bits take 4.4-5.7 s (0.5-0.7 s at 2 bits).  Every
# period basis report up to weight 200 passes: 21,244 bits at most, at weight 200
MAX_PERIOD_HEIGHT_BITS = 24000
# verify bernsum checks all of GL2(F_p), about p^4 matrices (892,800 at p = 31),
# through its p^2 - 1 bottom rows, each three sums of about p^2 residue counts,
# so time grows as p^4 and memory does not: at p = 31, 0.24 s at k = 2 and
# 1.7-1.85 s at k = 1998, the cap MAX_BERNOULLI_N sets on k
MAX_BERNSUM_P = 31
# B_n fills the cache with B_0..B_n from one O(n^2) big-int triangle (0.9-1.2 s
# cold at n = 2000; 4.4 s at 3000), and str() refuses numerators of more than
# 4300 digits from about n = 2080 on.  The cap bounds bern --n, the Eisenstein
# --weight (its constant term is -B_w / (2w)) and verify bernsum's k + 2.
MAX_BERNOULLI_N = 2000
# delta_qexp(20000) takes 0.5-0.7 s, and E_2000 to 20000 terms 2.4 s from one
# divisor sieve (9.4 s with a trial division per coefficient); verify eigen
# --weight 2000 --p 2 --prec 20000 takes 3.2-3.4 s and 110 MB (10.3-10.7 s and
# 101 MB by trial division).  The cap also bounds eis factor's derived
# precision max(2p + 2, 16)
MAX_QEXP_PREC = 20000
# bern dist evaluates B_n(X), n + 1 terms, at m points, and each term grows
# with n, so m is capped at MAX_BERN_DIST_TERMS // (n + 1).  At the cap the
# command takes 0.23-0.28 s at n = 2 and at n = 20, and 1.1-1.3 s at n = 2000,
# most of it building B_2000
MAX_BERN_DIST_TERMS = 100000
# Horner's rule on B_n at a rational of height h meets about n log2(h) bits:
# bern dist at its --m cap took 0.3-0.35 s at (n + 1) bits(h) = 8000, n = 0..600;
# --x 1/(1000 sevens) at n = 2000 ran past 30 s
MAX_BERN_POINT_BITS = 8000
# verify cgshape decomposes (s + 1)^2 (t + 1)^2 products of about s components
# each: 0.34-0.38 s at --max-sym 30 --max-twist 8 and 0.49-0.50 s at both caps
MAX_CGSHAPE_SYM = 30
MAX_CGSHAPE_TWIST = 10
# rep bigrade multiplies characters in up to prod(u_i + 1) steps, and rep
# decompose lists up to that many components: two Sym999(0) took 0.65 s to
# bigrade, 23 Sym1(0) (dimension 8.4 million) 1.9 s and 253 MB to decompose
MAX_REP_DIMENSION = 10**6
# CPython's default limit on int-to-str conversion: a report that would print a longer
# integer is refused by _check_printed (or, for the q-expansion commands, earlier
# by a lower bound in _series) rather than failing in str()
MAX_INT_DIGITS = 4300


def _brown_cells(weight: int) -> int:
    """Entries of the bracket matrix at ``weight`` >= 6: (w-1)w/2 rows by (m-1)//2 columns, m = (w-2)/2.

    The columns are the candidate pairs (i, m - i), 1 <= i < m - i.
    """
    return (weight - 1) * weight // 2 * (((weight - 2) // 2 - 1) // 2)


# a verify brown batch may not pass the cells of one run at MAX_DEPTH2_WEIGHT
# (975,100), summed over its weights.  The default batch 6..30 sums to 10,773;
# 6..200 sums to 25 times the budget and ran for 230 s
MAX_BROWN_BATCH_CELLS = _brown_cells(MAX_DEPTH2_WEIGHT)


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    # registered on the top level and on every leaf (with SUPPRESS defaults,
    # so whichever position the user picks wins and the other stays silent)
    parser.add_argument(
        "--format", choices=("json", "csv"), default=argparse.SUPPRESS, help="report format"
    )
    parser.add_argument(
        "--out", metavar="PATH", default=argparse.SUPPRESS, help="write the report to PATH instead of stdout"
    )


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command in :data:`HANDLERS`, or of root -> group -> ``only`` alone.

    The one-command parser reads any argv that begins with the two words of
    ``only`` as the whole tree does: same namespace, same usage lines, same
    errors.  The root usage names no group (its metavar is ``GROUP``), and
    the prog of a group or command is its path of words.
    """
    parser = argparse.ArgumentParser(
        prog="depthforge",
        description="Exact verification pipelines for depth-graded Lie algebra relations, "
        "period polynomials, Eisenstein q-expansions and GL2 characters.",
    )
    _add_output_flags(parser)
    groups = parser.add_subparsers(dest="group", required=True, metavar="GROUP")
    subcommands = {}  # group -> the subparsers action of its commands
    for command, (_, _, help, flags) in HANDLERS.items():
        if only not in (None, command):
            continue
        group, name = command.split(" ")
        if group not in subcommands:
            subcommands[group] = groups.add_parser(group, help=_GROUP_HELP[group]).add_subparsers(
                dest="command", required=True, metavar="CMD"
            )
        leaf = subcommands[group].add_parser(name, help=help)
        _add_output_flags(leaf)
        for flag, spec in flags.items():
            leaf.add_argument(flag, **spec)
    return parser


# -- handlers: each returns (cases, ok) -------------------------------------


def _check_cap(args, what: str, value: int, cap: int) -> None:
    if value > cap:
        # a huge value is named by its size: str() refuses ints past MAX_INT_DIGITS digits
        shown = "%d" % value if value.bit_length() <= 64 else "at least 2^%d" % (value.bit_length() - 1)
        raise ValueError("%s %s is above the cap of %d for %s %s" % (what, shown, cap, args.group, args.command))


def _too_long(args, flags: str) -> ValueError:
    return ValueError(
        "%s gives integers of more than %d digits, the int-to-string limit, in the %s %s report"
        % (flags, MAX_INT_DIGITS, args.group, args.command)
    )


def _check_printed(args, flags: str, values) -> None:
    """Refuse a report that would print one of the rationals ``values`` with a
    numerator or denominator of more than ``MAX_INT_DIGITS`` digits; ``flags`` names the input."""
    limit = 10**MAX_INT_DIGITS
    if any(abs(x.numerator) >= limit or x.denominator >= limit for x in values):
        raise _too_long(args, flags)


def _height(x: "Fraction") -> int:
    return max(abs(x.numerator), x.denominator)


def _bern_point(args, flag: str, text: str) -> "Fraction":
    """``text`` parsed, refused when (n + 1) times its height's bits passes the cap."""
    from .exactla import parse_rational
    x = parse_rational(text)
    bits = (max(args.n, 0) + 1) * _height(x).bit_length()
    _check_cap(args, "%s: (n + 1) x height bits =" % flag, bits, MAX_BERN_POINT_BITS)
    return x


def _cmd_period_basis(args):
    from . import periodpoly
    _check_cap(args, "--weight", args.weight, MAX_DEPTH2_WEIGHT)
    return [periodpoly.period_space(args.weight).to_json_obj()], True


def _cmd_period_check(args):
    from . import periodpoly
    try:
        data = json.loads(args.poly)
    except RecursionError:
        raise ValueError("--poly is nested too deeply") from None
    poly = periodpoly.BivarPoly.from_json_obj(data, degree=args.degree)
    _check_cap(args, "degree", poly.degree, MAX_PERIOD_DEGREE)
    bits = sum(_height(c).bit_length() for c in poly.coeffs.values())
    _check_cap(args, "--poly: coefficient height bits summed =", bits, MAX_PERIOD_HEIGHT_BITS)
    result = periodpoly.is_period_poly(poly)
    case = {
        "degree": poly.degree,
        "is_period_poly": result.ok,
        "failed": result.failed,
    }
    return [case], result.ok


def _cmd_depth_matrix(args):
    from . import depthlie, periodpoly
    _check_cap(args, "--m %d: weight 2m+2 =" % args.m, 2 * args.m + 2, MAX_DEPTH2_WEIGHT)
    rows, cols = depthlie.bracket_matrix(args.m)
    case = {
        "m": args.m,
        "weight": 2 * args.m + 2,
        "pairs": [list(pair) for pair in periodpoly.candidate_pairs(args.m)],
        "rows": len(rows),
        "cols": cols,
        "row_words": depthlie.depth2_word_basis(2 * args.m + 2),
        "matrix": [[str(x) for x in row] for row in rows],
    }
    return [case], True


def _cmd_depth_relations(args):
    from . import depthlie, periodpoly
    _check_cap(args, "--m %d: weight 2m+2 =" % args.m, 2 * args.m + 2, MAX_DEPTH2_WEIGHT)
    kernel = depthlie.relation_kernel(args.m)
    pairs = periodpoly.candidate_pairs(args.m)
    relations = [
        {"m": args.m, "coeffs": [{"pair": list(pair), "value": str(c)} for pair, c in zip(pairs, vec) if c]}
        for vec in kernel
    ]
    case = {"m": args.m, "weight": 2 * args.m + 2, "kernel_dim": len(kernel), "relations": relations}
    return [case], True


def _cmd_verify_brown(args):
    from . import depthlie
    if args.weight is not None:
        _check_cap(args, "--weight", args.weight, MAX_DEPTH2_WEIGHT)
        if args.weight % 2 != 0 or args.weight < 6:
            raise ValueError("--weight must be an even integer >= 6")
        weights = [args.weight]
    else:
        low, high = args.min_weight, args.max_weight
        _check_cap(args, "--max-weight", high, MAX_DEPTH2_WEIGHT)
        if low % 2 != 0 or low < 6 or high < low:
            raise ValueError("bad weight range [%d, %d]" % (low, high))
        weights = range(low, high + 1, 2)
        cells = sum(map(_brown_cells, weights))
        _check_cap(args, "weights %d..%d: rows x columns summed =" % (low, high), cells, MAX_BROWN_BATCH_CELLS)
    cases = [depthlie.verify_brown_criterion((w - 2) // 2).to_json_obj() for w in weights]
    return cases, all(c["match"] for c in cases)


def _cmd_verify_bernsum(args):
    from . import eisenstein
    _check_cap(args, "--p", args.p, MAX_BERNSUM_P)
    _check_cap(args, "--k", args.k, MAX_BERNOULLI_N - 2)
    chain = eisenstein.check_bernoulli_sum_chain(args.k, args.p, entry=args.entry)
    case = {
        "k": args.k,
        "p": args.p,
        "entry": args.entry,
        "matrices_checked": chain.checked,
        "holds": chain.ok,
        "first_failure": list(chain.first_failure) if chain.first_failure else None,
    }
    return [case], chain.ok


def _cmd_verify_eigen(args):
    from . import eisenstein
    _, series = _series(args, False, args.prec, args.p, args.p)  # 1 + p^(w-1) is printed
    eigenvalue = eisenstein.hecke_eigenvalue(series, args.p)
    expected = 1 + args.p ** (args.weight - 1)
    _check_printed(args, "--weight %d" % args.weight, [eigenvalue, expected])
    case = {
        "weight": args.weight,
        "p": args.p,
        "prec": args.prec,
        "eigenvalue": str(eigenvalue),
        "expected": str(expected),
        "match": eigenvalue == expected,
    }
    return [case], case["match"]


def _cmd_verify_cgshape(args):
    from . import repcalc
    _check_cap(args, "--max-sym", args.max_sym, MAX_CGSHAPE_SYM)
    _check_cap(args, "--max-twist", args.max_twist, MAX_CGSHAPE_TWIST)
    components, shapes_ok, forbidden_absent = repcalc.check_no_eisenstein_component(args.max_sym, args.max_twist)
    case = {
        "max_sym": args.max_sym,
        "max_twist": args.max_twist,
        "products_checked": (args.max_sym + 1) ** 2 * (args.max_twist + 1) ** 2,
        "components_checked": components,
        "shapes_ok": shapes_ok,
        "forbidden_absent": forbidden_absent,
    }
    return [case], shapes_ok and forbidden_absent


def _series(args, cusp: bool, prec: int, base: int, p: int | None = None) -> tuple[str, "eisenstein.QExpansion"]:
    """The q-expansion a modular-forms command reads, named: Delta if ``cusp``, else E_weight.

    The one place that caps ``prec`` and the weight and holds Delta to
    weight 12.  By the caller's lower bound, an Eisenstein report prints an
    integer of at least base^(w-1), so at base >= 2 it is refused before the
    series is computed when that power has more than ``MAX_INT_DIGITS``
    digits; a smaller base, as a negative flag gives, is left to the library's
    own checks.  A command that applies T_p passes ``p``, which
    ``eisenstein.check_tp_prime`` refuses here, before the series is built,
    if T_p would refuse it as not prime.  Each caller then checks the
    rationals it prints exactly, with :func:`_check_printed`.
    """
    from . import eisenstein

    _check_cap(args, "precision", prec, MAX_QEXP_PREC)
    if cusp:
        if args.weight not in (None, 12):
            raise ValueError("the cusp form Delta has weight 12; omit --weight or pass 12")
    else:
        if args.weight is None:
            raise ValueError("the Eisenstein series needs --weight")
        _check_cap(args, "--weight", args.weight, MAX_BERNOULLI_N)
        exponent = max(args.weight - 1, 0)
        # the bit length decides a huge base unformed:
        # base^exponent >= 2^(4 MAX_INT_DIGITS) > 10^MAX_INT_DIGITS
        if base >= 2 and (exponent * (base.bit_length() - 1) >= 4 * MAX_INT_DIGITS or base**exponent >= 10**MAX_INT_DIGITS):
            raise _too_long(args, "--weight %d" % args.weight)
    if p is not None:
        eisenstein.check_tp_prime(p, prec)
    if cusp:
        return "delta", eisenstein.delta_qexp(prec)
    return "eisenstein", eisenstein.eisenstein_qexp(args.weight, prec)


def _cmd_eis_qexp(args):
    # sigma_(w-1)(n) >= n^(w-1) is printed for n = prec - 1
    name, series = _series(args, args.delta, args.prec, args.prec - 1)
    _check_printed(args, "--weight %d" % series.weight, series.coeffs)
    case = {"series": name}
    case.update(series.to_json_obj())
    return [case], True


def _cmd_eis_hecke(args):
    from . import eisenstein
    # a_p a_n >= (pn)^(w-1) is printed for n = prec // p - 1; T_p itself refuses p < 2 and prec < 2p
    base = args.p * (args.prec // args.p - 1) if args.prec >= 2 * args.p >= 4 else 0
    name, series = _series(args, args.delta, args.prec, base, args.p)
    eigenvalue = eisenstein.hecke_eigenvalue(series, args.p)
    out_prec = series.prec // args.p  # T_p f = a_p f was checked on exactly these coefficients
    coeffs = [eigenvalue * c for c in series.coeffs[:out_prec]]  # the constant term is (1 + p^(w-1)) a_0
    _check_printed(args, "--weight %d" % series.weight, [eigenvalue, *coeffs])
    case = {
        "series": name,
        "weight": series.weight,
        "p": args.p,
        "input_prec": series.prec,
        "output_prec": out_prec,
        "eigenvalue": str(eigenvalue),
        "coeffs": list(map(str, coeffs)),
    }
    return [case], True


def _cmd_eis_factor(args):
    from . import eisenstein
    prec = args.prec if args.prec is not None else max(2 * args.p + 2, 16)
    name, series = _series(args, not args.eisenstein, prec, args.p, args.p)  # a_p >= p^(w-1) is printed
    result = eisenstein.hecke_factor(series, args.p)
    _check_printed(args, "--weight %d" % series.weight, [result.eigenvalue, result.value])
    case = {"series": name, "weight": series.weight, "p": args.p, "m": series.weight // 2 - 1}
    case.update(result.to_json_obj())
    case["nonzero"] = result.value != 0
    # the nonvanishing claim is made where the Weil bound applies: on cusp forms
    ok = result.weil_ok is None or (case["nonzero"] and result.weil_ok)
    return [case], ok


def _parse_labels(args) -> list[repcalc.IrrepLabel]:
    from . import repcalc
    labels = [repcalc.IrrepLabel.parse(part) for part in args.labels.split(",") if part.strip()]
    if not labels:
        raise ValueError("empty label list")
    dimension = 1
    for count, label in enumerate(labels, 1):  # checked per factor, so no huge product is formed
        dimension *= label.u + 1
        _check_cap(args, "--labels: dimension of factors 1..%d =" % count, dimension, MAX_REP_DIMENSION)
    return labels


def _cmd_rep_decompose(args):
    from . import repcalc
    labels = _parse_labels(args)
    decomp = repcalc.tensor_decompose(labels)
    case = {
        "factors": [str(l) for l in labels],
        "components": [str(c) for c in decomp],
        "dimension": sum(c.u + 1 for c in decomp),
    }
    return [case], True


def _cmd_rep_bigrade(args):
    from . import repcalc
    labels = _parse_labels(args)
    char = math.prod(map(repcalc.irrep_char, labels), start=repcalc.Character.one())
    dims = repcalc.bigraded_dims(char)
    case = {
        "factors": [str(l) for l in labels],
        "dims": {"%d,%d" % grade: dim for grade, dim in sorted(dims.items())},
        "dimension": char.dimension(),
    }
    return [case], True


def _cmd_bern_number(args):
    from . import eisenstein
    _check_cap(args, "--n", args.n, MAX_BERNOULLI_N)
    case = {"n": args.n, "value": str(eisenstein.bernoulli_number(args.n))}
    return [case], True


def _cmd_bern_poly(args):
    from . import eisenstein
    _check_cap(args, "--n", args.n, MAX_BERNOULLI_N)
    x = None if args.at is None else _bern_point(args, "--at", args.at)
    flags = "--n %d" % args.n + ("" if x is None else " --at %s" % args.at)
    printed = list(eisenstein.bernoulli_polynomial(args.n))
    if x is not None:
        printed.append(eisenstein.bernoulli_poly_eval(args.n, x))
    _check_printed(args, flags, printed)
    case = {"n": args.n, "coeffs": [str(c) for c in printed[: args.n + 1]]}
    if x is not None:
        case.update(at=args.at, value=str(printed[-1]))
    return [case], True


def _cmd_bern_dist(args):
    from . import eisenstein
    _check_cap(args, "--n", args.n, MAX_BERNOULLI_N)
    _check_cap(args, "--m", args.m, MAX_BERN_DIST_TERMS // (max(args.n, 0) + 1))
    x = _bern_point(args, "--x", args.x)
    holds = eisenstein.distribution_check(args.n, args.m, x)
    case = {"n": args.n, "m": args.m, "x": str(x), "holds": holds}
    return [case], holds


_GROUP_HELP = {
    "period": "restricted even period polynomials",
    "depth": "depth-2 bracket computations",
    "verify": "verification pipelines",
    "eis": "q-expansions",
    "rep": "GL2 character calculus",
    "bern": "Bernoulli numbers and polynomials",
}

# command -> (handler, the statement its report carries, help, flag -> add_argument
# keywords); the groups, and the commands in each, are listed in this order
HANDLERS = {
    "period basis": (
        _cmd_period_basis,
        "basis of the space of restricted even period polynomials",
        "solve for a basis at one weight",
        {"--weight": dict(type=int, required=True)},
    ),
    "period check": (
        _cmd_period_check,
        "the four defining identities of restricted even period polynomials",
        "test a polynomial given as a JSON monomial map",
        {
            "--poly": dict(required=True, metavar="JSON", help='e.g. \'{"x^2*y^8": "1", "x^8*y^2": "-1"}\''),
            "--degree": dict(type=int, help="degree, required only for the empty map"),
        },
    ),
    "depth matrix": (
        _cmd_depth_matrix,
        "depth-2 Ihara bracket matrix over canonical generator pairs",
        "the bracket matrix at target weight 2m+2",
        {"--m": dict(type=int, required=True)},
    ),
    "depth relations": (
        _cmd_depth_relations,
        "kernel of the depth-2 bracket matrix (generator relations)",
        "kernel of the bracket matrix",
        {"--m": dict(type=int, required=True)},
    ),
    "verify brown": (
        _cmd_verify_brown,
        "depth-2 bracket relations match restricted even period polynomials",
        "bracket kernel vs period space, one weight or a range",
        {
            "--weight": dict(type=int, help="single even weight (omit for a batch run)"),
            "--min-weight": dict(type=int, default=DEFAULT_MIN_WEIGHT),
            "--max-weight": dict(type=int, default=DEFAULT_MAX_WEIGHT),
        },
    ),
    "verify bernsum": (
        _cmd_verify_bernsum,
        "GL2(F_p)-wide reduction of the restricted Bernoulli double sum to a line sum",
        "Bernoulli double-sum chain over all of GL2(F_p)",
        {
            "--k": dict(type=int, required=True),
            "--p": dict(type=int, required=True),
            "--entry": dict(choices=("c", "d"), default="d", help="entry feeding the line sum"),
        },
    ),
    "verify eigen": (
        _cmd_verify_eigen,
        "Eisenstein series is a T_p-eigenform with eigenvalue 1 + p^(weight-1)",
        "Eisenstein T_p eigenvalue check",
        {
            "--weight": dict(type=int, required=True),
            "--p": dict(type=int, required=True),
            "--prec": dict(type=int, default=60),
        },
    ),
    "verify cgshape": (
        _cmd_verify_cgshape,
        "every component of twisted symmetric-power products is Sym^u(u+1+w) with w >= 1",
        "component-shape sweep over twisted symmetric powers",
        {"--max-sym": dict(type=int, default=6), "--max-twist": dict(type=int, default=3)},
    ),
    "eis qexp": (
        _cmd_eis_qexp,
        "q-expansion coefficients",
        "Eisenstein series (or the discriminant form)",
        {
            "--weight": dict(type=int),
            "--delta": dict(action="store_true", help="the weight-12 cusp form instead"),
            "--prec": dict(type=int, default=10),
        },
    ),
    "eis hecke": (
        _cmd_eis_hecke,
        "Hecke operator T_p on a q-expansion",
        "apply T_p and report the eigenvalue",
        {
            "--weight": dict(type=int),
            "--delta": dict(action="store_true"),
            "--p": dict(type=int, required=True),
            "--prec": dict(type=int, default=60),
        },
    ),
    "eis factor": (
        _cmd_eis_factor,
        "the scalar 1 - a_p + p^(2m+1) and the Weil bound",
        "1 - a_p + p^(2m+1) on an eigenform",
        {
            "--p": dict(type=int, required=True),
            "--weight": dict(type=int, help="Eisenstein weight (with --eisenstein)"),
            "--eisenstein": dict(action="store_true", help="select E_weight instead of the cusp form Delta"),
            "--prec": dict(type=int, help="q-expansion precision (default: enough for T_p)"),
        },
    ),
    "rep decompose": (
        _cmd_rep_decompose,
        "tensor product decomposition into irreducible characters",
        "decompose a tensor product of irreducibles",
        {"--labels": dict(required=True, metavar="LIST", help='comma-separated, e.g. "Sym2(3),Sym4(5)"')},
    ),
    "rep bigrade": (
        _cmd_rep_bigrade,
        "bigraded dimensions of a character",
        "bigraded dimensions of a product character",
        {"--labels": dict(required=True, metavar="LIST")},
    ),
    "bern number": (_cmd_bern_number, "Bernoulli number", "B_n", {"--n": dict(type=int, required=True)}),
    "bern poly": (
        _cmd_bern_poly,
        "Bernoulli polynomial",
        "coefficients of B_n(X), optionally evaluated",
        {
            "--n": dict(type=int, required=True),
            "--at": dict(metavar="Q", help="rational point to evaluate at, e.g. 1/3"),
        },
    ),
    "bern dist": (
        _cmd_bern_dist,
        "Bernoulli distribution relation",
        "check the distribution relation",
        {
            "--n": dict(type=int, required=True),
            "--m": dict(type=int, required=True),
            "--x": dict(metavar="Q", default="0", help="rational base point"),
        },
    ),
}


def _flatten(value) -> object:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return json.dumps(value, sort_keys=True)


def _render_csv(cases: list[dict]) -> str:
    import csv
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    fields = list(cases[0].keys())
    writer.writerow(fields)
    for case in cases:
        writer.writerow([_flatten(case.get(f)) for f in fields])
    return buf.getvalue()


def main(argv=None) -> int:
    # --at and --x take a signed rational, and argparse reads a token such as
    # "-1/2" as an option, so "--at -1/2" is passed on as "--at=-1/2"
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 2, -1, -1):
        if argv[i] in ("--at", "--x"):
            argv[i : i + 2] = ["%s=%s" % (argv[i], argv[i + 1])]
    # only an argv whose first two words name a command is read by that command's parser alone
    named = " ".join(argv[:2])
    only = named if named in HANDLERS and named.split(" ") == argv[:2] else None
    args = build_parser(only).parse_args(argv)
    fmt = getattr(args, "format", "json")
    out_path = getattr(args, "out", None)
    command = "%s %s" % (args.group, args.command)
    handler, statement, _, _ = HANDLERS[command]
    try:
        cases, ok = handler(args)
    except ValueError as exc:  # json.JSONDecodeError is a ValueError
        print("depthforge: error: %s" % exc, file=sys.stderr)
        return 2
    if fmt == "csv":
        text = _render_csv(cases)
    else:
        envelope = {
            "schema": 1,
            "command": command,
            "statement": statement,
            "ok": ok,
        }
        if len(cases) == 1:
            envelope.update(cases[0])
        else:
            envelope["cases"] = cases
        text = json.dumps(envelope, indent=2, sort_keys=True) + "\n"
    try:
        if out_path:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        print("depthforge: cannot write report: %s" % exc, file=sys.stderr)
        return 3
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
