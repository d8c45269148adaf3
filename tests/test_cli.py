import argparse
import hashlib
import io
import json
import math
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthforge import cli, depthlie, eisenstein, periodpoly

CLI = [sys.executable, "-m", "depthforge.cli"]


def run_cli(*args, timeout=120):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, timeout=timeout)


def run_json(*args, expect_status=0):
    proc = run_cli(*args)
    assert proc.returncode == expect_status, proc.stderr or proc.stdout
    return json.loads(proc.stdout)


def assert_usage_error(proc):
    """Malformed input: exit 2, a one-line message, no report and no traceback."""
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr


def refusal_message(*argv):
    """The message of a refusal that comes at once: exit 2 and no report in under 1 s."""
    start = time.perf_counter()
    proc = run_cli(*argv, timeout=10)  # a lost cap runs far longer, and is stopped here
    assert time.perf_counter() - start < 1.0, argv
    assert_usage_error(proc)
    return proc.stderr


SEVENS = "7" * 1000


class TestEnvelope:
    def test_schema_and_command(self):
        report = run_json("verify", "brown", "--weight", "12")
        assert report["schema"] == 1
        assert report["command"] == "verify brown"
        assert isinstance(report["statement"], str)
        assert report["ok"] is True

    def test_single_case_is_hoisted(self):
        report = run_json("bern", "number", "--n", "12")
        assert "cases" not in report
        assert report["n"] == 12
        assert report["value"] == "-691/2730"

    def test_batch_uses_case_list(self):
        report = run_json("verify", "brown", "--min-weight", "6", "--max-weight", "12")
        assert [c["weight"] for c in report["cases"]] == [6, 8, 10, 12]
        assert all(c["match"] for c in report["cases"])

    def test_determinism(self):
        first = run_cli("verify", "brown", "--max-weight", "14")
        second = run_cli("verify", "brown", "--max-weight", "14")
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode == 0


class TestPeriodCommands:
    def test_basis_weight10_empty(self):
        report = run_json("period", "basis", "--weight", "10")
        assert report["dim"] == 0
        assert report["basis"] == []

    def test_basis_weight12_golden(self):
        report = run_json("period", "basis", "--weight", "12")
        assert report["dim"] == 1
        assert report["basis"][0] == {
            "x^8*y^2": "1",
            "x^6*y^4": "-3",
            "x^4*y^6": "3",
            "x^2*y^8": "-1",
        }

    def test_check_accepts_golden(self):
        poly = json.dumps({"x^8*y^2": "1", "x^6*y^4": "-3", "x^4*y^6": "3", "x^2*y^8": "-1"})
        report = run_json("period", "check", "--poly", poly)
        assert report["is_period_poly"] is True
        assert report["failed"] is None

    def test_check_rejects_symmetric(self):
        poly = json.dumps({"x^8*y^2": "1", "x^2*y^8": "1"})
        report = run_json("period", "check", "--poly", poly, expect_status=1)
        assert report["is_period_poly"] is False
        assert "antisymmetry" in report["failed"]

    def test_check_bad_json_is_usage_error(self):
        proc = run_cli("period", "check", "--poly", "{not json")
        assert proc.returncode == 2

    def test_check_non_object_is_usage_error(self):
        assert_usage_error(run_cli("period", "check", "--poly", "[1,2]"))

    def test_check_zero_denominator_is_usage_error(self):
        assert_usage_error(run_cli("period", "check", "--poly", '{"x^2*y^8": "1/0"}'))

    def test_check_float_coefficient_is_usage_error(self):
        poly = '{"x^8*y^2": 1.5, "x^6*y^4": -4.5, "x^4*y^6": 4.5, "x^2*y^8": -1.5}'
        assert_usage_error(run_cli("period", "check", "--poly", poly))

    @pytest.mark.parametrize("key", ["x^\u0662*y^\u0668", "x^2*y^8\n"])
    def test_check_key_with_non_ascii_digit_or_newline_is_usage_error(self, key):
        # int() reads Arabic-Indic digits and re's $ matches before a final newline, so a \d+$ pattern reads both as x^2*y^8
        message = refusal_message("period", "check", "--poly", json.dumps({key: 1, "x^8*y^2": -1}))
        assert "expected 'x^a*y^b'" in message

    def test_check_deeply_nested_json_is_usage_error(self):
        assert_usage_error(run_cli("period", "check", "--poly", "[" * 20000 + "]" * 20000))

    def test_check_degree_above_cap_is_usage_error(self):
        at_cap = json.dumps({"x^998*y^2": 1, "x^2*y^998": -1})
        assert run_json("period", "check", "--poly", at_cap, expect_status=1)["degree"] == 1000
        for args in (
            ["--poly", json.dumps({"x^8000*y^2": 1, "x^2*y^8000": -1})],
            ["--poly", json.dumps({"x^999*y^2": 1, "x^2*y^999": -1})],
            ["--poly", "{}", "--degree", "1002"],
        ):
            proc = run_cli("period", "check", *args)
            assert_usage_error(proc)
            assert "cap of %d" % cli.MAX_PERIOD_DEGREE in proc.stderr

    def test_odd_weight_is_usage_error(self):
        proc = run_cli("period", "basis", "--weight", "13")
        assert proc.returncode == 2

    def test_coefficient_heights_above_cap_are_refused(self):
        # uncapped, 28 coefficients with 4000-digit denominators at degree 1000
        # (a 112 KB --poly) ran past 60 s; 28 x 13,288 bits is far above the cap
        coeffs = {}
        for i in range(14):
            c = "%d/%s" % (i + 1, str(10**3999 + 2 * i + 1))
            coeffs["x^%d*y^%d" % (2 * i + 2, 998 - 2 * i)] = c
            coeffs["x^%d*y^%d" % (998 - 2 * i, 2 * i + 2)] = "-" + c
        message = refusal_message("period", "check", "--poly", json.dumps(coeffs))
        assert "above the cap of %d" % cli.MAX_PERIOD_HEIGHT_BITS in message
        # two coefficients of cap / 2 + 1 bits each
        c = "1/%d" % (1 << cli.MAX_PERIOD_HEIGHT_BITS // 2)
        message = refusal_message("period", "check", "--poly", json.dumps({"x^2*y^8": c, "x^8*y^2": "-" + c}))
        assert "summed = %d is above" % (cli.MAX_PERIOD_HEIGHT_BITS + 2) in message

    def test_every_basis_polynomial_at_weight_200_passes_the_height_cap(self):
        # the summed heights of a basis polynomial grow with the weight: 21,244
        # bits at most at weight 200, the largest over every weight up to it
        basis = periodpoly.period_space(cli.MAX_DEPTH2_WEIGHT).basis
        heights = [sum(cli._height(c).bit_length() for c in f.coeffs.values()) for f in basis]
        assert max(heights) == 21244 <= cli.MAX_PERIOD_HEIGHT_BITS
        widest = basis[heights.index(max(heights))]
        assert run_json("period", "check", "--poly", json.dumps(widest.to_json_obj()))["is_period_poly"] is True

    @pytest.mark.parametrize("value", ["1e999999999", "1.5", "1_000", " 3/4", "\u0663", "3/-4", "0x10"])
    def test_only_integers_and_a_over_b_are_rationals(self, value):
        # Fraction alone reads "1e999999999", and builds 10^999999999 first
        message = refusal_message("period", "check", "--poly", json.dumps({"x^2*y^8": value, "x^8*y^2": "1"}))
        assert "not a rational number" in message


class TestDepthCommands:
    def test_matrix_shape_m5(self):
        report = run_json("depth", "matrix", "--m", "5")
        assert report["weight"] == 12
        assert (report["rows"], report["cols"]) == (66, 2)
        assert report["pairs"] == [[1, 4], [2, 3]]
        assert len(report["row_words"]) == 66
        assert report["row_words"][0] == "000000000011"

    def test_matrix_no_pairs_m2(self):
        report = run_json("depth", "matrix", "--m", "2")
        assert report["cols"] == 0

    def test_matrix_entries_are_str_of_the_integer_rows(self):
        rows, cols = depthlie.bracket_matrix(5)
        report = run_json("depth", "matrix", "--m", "5")
        assert (report["rows"], report["cols"]) == (len(rows), cols)
        assert report["matrix"] == [[str(x) for x in row] for row in rows]

    def test_relations_weight12(self):
        report = run_json("depth", "relations", "--m", "5")
        assert report["kernel_dim"] == 1
        assert report["relations"][0]["coeffs"] == [
            {"pair": [1, 4], "value": "-1/3"},
            {"pair": [2, 3], "value": "1"},
        ]

    # the exact report bytes: sha256 of the JSON, and the CSV row after its header
    RELATIONS_JSON_SHA256 = {
        5: "5573c13ff1f4290404d5edfb9fe5dad9f2fa1898e863a4b8dfda8a325f37d6cb",
        11: "ce86dcb9839b15981c72d432f0d18d3bc617c765c5c6be2fa3bed5e616db492a",
        17: "80acdee87d789aca10291cc99243ec0d9048ee94d29c400b28eeb1f0edfa3f09",
    }
    RELATIONS_CSV = {
        5: '5,12,1,"[{""coeffs"": [{""pair"": [1, 4], ""value"": ""-1/3""}, {""pair"": [2, 3], ""value"": ""1""}], '
        '""m"": 5}]"',
        11: '11,24,2,"[{""coeffs"": [{""pair"": [1, 10], ""value"": ""-470/969""}, {""pair"": [2, 9], ""value"": '
        '""1519/969""}, {""pair"": [3, 8], ""value"": ""-98/51""}, {""pair"": [4, 7], ""value"": ""1""}], ""m"": 11}, '
        '{""coeffs"": [{""pair"": [1, 10], ""value"": ""-97/323""}, {""pair"": [2, 9], ""value"": ""605/646""}, '
        '{""pair"": [3, 8], ""value"": ""-33/34""}, {""pair"": [5, 6], ""value"": ""1""}], ""m"": 11}]"',
        17: '17,36,3,"[{""coeffs"": [{""pair"": [1, 16], ""value"": ""-551819/134850""}, {""pair"": [2, 15], '
        '""value"": ""181258/13485""}, {""pair"": [3, 14], ""value"": ""-38236/2175""}, {""pair"": [4, 13], '
        '""value"": ""121/10""}, {""pair"": [5, 12], ""value"": ""-121/25""}, {""pair"": [6, 11], ""value"": ""1""}], '
        '""m"": 17}, {""coeffs"": [{""pair"": [1, 16], ""value"": ""-8427399/1033850""}, {""pair"": [2, 15], '
        '""value"": ""2761122/103385""}, {""pair"": [3, 14], ""value"": ""-576576/16675""}, {""pair"": [4, 13], '
        '""value"": ""15763/690""}, {""pair"": [5, 12], ""value"": ""-4368/575""}, {""pair"": [7, 10], ""value"": '
        '""1""}], ""m"": 17}, {""coeffs"": [{""pair"": [1, 16], ""value"": ""-1365241/310155""}, {""pair"": [2, 15], '
        '""value"": ""4468892/310155""}, {""pair"": [3, 14], ""value"": ""-37196/2001""}, {""pair"": [4, 13], '
        '""value"": ""1394/115""}, {""pair"": [5, 12], ""value"": ""-442/115""}, {""pair"": [8, 9], ""value"": '
        '""1""}], ""m"": 17}]"',
    }

    @pytest.mark.parametrize("m", [5, 11, 17])
    def test_relations_reports_are_pinned(self, m):
        proc = run_cli("depth", "relations", "--m", str(m))
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == self.RELATIONS_JSON_SHA256[m]
        proc = run_cli("depth", "relations", "--m", str(m), "--format", "csv")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "m,weight,kernel_dim,relations\n" + self.RELATIONS_CSV[m] + "\n"


class TestWeightCap:
    def test_period_basis_at_cap_runs(self):
        assert run_json("period", "basis", "--weight", str(cli.MAX_DEPTH2_WEIGHT))["weight"] == cli.MAX_DEPTH2_WEIGHT

    def test_above_cap_is_usage_error(self):
        # refused before any work: uncapped, weight 10^9 would build about 5 * 10^17 rows,
        # so a short timeout catches a lost cap
        cap = cli.MAX_DEPTH2_WEIGHT
        for weight in (cap + 2, 1000000002):
            m = str((weight - 2) // 2)
            for argv in (
                ("verify", "brown", "--weight", str(weight)),
                ("verify", "brown", "--max-weight", str(weight)),
                ("depth", "matrix", "--m", m),
                ("depth", "relations", "--m", m),
                ("period", "basis", "--weight", str(weight)),
            ):
                proc = run_cli(*argv, timeout=10)
                assert_usage_error(proc)
                assert "%d is above the cap of %d" % (weight, cap) in proc.stderr, argv

    def test_value_past_the_str_limit_is_named_by_its_size(self):
        # --m has 4300 digits, the most int() reads; 2m + 2 is past what str() writes
        m = "9" * cli.MAX_INT_DIGITS
        message = "weight 2m+2 = at least 2^%d is above the cap of" % ((2 * int(m) + 2).bit_length() - 1)
        for command in ("matrix", "relations"):
            proc = run_cli("depth", command, "--m", m, timeout=10)
            assert_usage_error(proc)
            assert message in proc.stderr


class TestBrownBatchBudget:
    @staticmethod
    def batch_status(low, high):
        # in process, with the per-weight check stubbed out: only the budget is measured
        argv = ["verify", "brown", "--min-weight", str(low), "--max-weight", str(high)]
        report = mock.Mock(to_json_obj=lambda: {"match": True})
        with mock.patch.object(cli.depthlie, "verify_brown_criterion", return_value=report):
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
                return cli.main(argv), err.getvalue()

    def test_budget_is_one_run_at_the_weight_cap(self):
        # the bracket matrix at MAX_DEPTH2_WEIGHT: a row per depth-2 word, a column per candidate pair
        w = cli.MAX_DEPTH2_WEIGHT
        rows, cols = len(depthlie.depth2_word_basis(w)), len(periodpoly.candidate_pairs((w - 2) // 2))
        assert cli.MAX_BROWN_BATCH_CELLS == (w - 1) * w // 2 * ((w - 2) // 2 - 1) // 2 == rows * cols == 975100

    def test_batches_up_to_the_budget_run(self):
        # 6..88 sums to 911,845 cells, 6..90 to 977,823
        assert self.batch_status(6, 88) == (0, "")
        assert self.batch_status(cli.MAX_DEPTH2_WEIGHT, cli.MAX_DEPTH2_WEIGHT) == (0, "")
        status, err = self.batch_status(6, 90)
        assert status == 2
        assert "977823 is above the cap of %d" % cli.MAX_BROWN_BATCH_CELLS in err

    def test_batch_above_budget_is_usage_error(self):
        # refused before any work: uncapped, 6..200 runs for about four minutes
        proc = run_cli("verify", "brown", "--max-weight", str(cli.MAX_DEPTH2_WEIGHT), timeout=10)
        assert_usage_error(proc)
        assert "weights 6..200: rows x columns summed = 24496276 is above the cap of 975100" in proc.stderr


class TestVerifyCommands:
    def test_brown_single_weight(self):
        report = run_json("verify", "brown", "--weight", "12")
        assert report["kernel_dim"] == 1
        assert report["period_dim"] == 1
        assert report["in_space"] is True
        assert report["spans"] is True
        assert report["match"] is True

    def test_brown_mismatch_exits_1(self, monkeypatch):
        # a period solver that loses one of the two weight-24 basis vectors
        space = periodpoly.period_space
        monkeypatch.setattr(periodpoly, "period_space", lambda w: periodpoly.PeriodSpace(w, space(w).basis[:1]))
        with redirect_stdout(io.StringIO()) as out:
            assert cli.main(["verify", "brown", "--weight", "24"]) == 1
        report = json.loads(out.getvalue())
        assert (report["ok"], report["match"], report["spans"], report["in_space"]) == (False, False, False, True)
        assert (report["kernel_dim"], report["period_dim"]) == (2, 1)

    def test_brown_rejects_odd_weight(self):
        assert run_cli("verify", "brown", "--weight", "13").returncode == 2

    def test_bernsum_holds(self):
        report = run_json("verify", "bernsum", "--k", "2", "--p", "3")
        assert report["holds"] is True
        assert report["matrices_checked"] == 48
        assert report["entry"] == "d"

    def test_bernsum_entry_c_fails(self):
        report = run_json("verify", "bernsum", "--k", "2", "--p", "3", "--entry", "c", expect_status=1)
        assert report["holds"] is False
        assert report["first_failure"] == [0, 1, 1, 0]

    def test_bernsum_p_above_cap_is_usage_error(self):
        # refused before any work: uncapped, p = 37 enumerates ~1.9M matrices
        # and p = 1000003 about 10^24, so a short timeout catches a lost cap
        for p in ("37", "1000003"):
            proc = run_cli("verify", "bernsum", "--k", "2", "--p", p, timeout=10)
            assert_usage_error(proc)
            assert "cap of %d" % cli.MAX_BERNSUM_P in proc.stderr

    def test_bernsum_k_above_cap_is_usage_error(self):
        # the chain reads B_{k+2}; k stays even so that only the cap refuses it
        for k in (str(cli.MAX_BERNOULLI_N), "1000000004"):
            proc = run_cli("verify", "bernsum", "--k", k, "--p", "3", timeout=10)
            assert_usage_error(proc)
            assert "cap of %d" % (cli.MAX_BERNOULLI_N - 2) in proc.stderr

    def test_eigen(self):
        report = run_json("verify", "eigen", "--weight", "12", "--p", "2", "--prec", "60")
        assert report["eigenvalue"] == "2049"
        assert report["expected"] == "2049"
        assert report["match"] is True

    def test_cgshape_small(self):
        report = run_json("verify", "cgshape", "--max-sym", "3", "--max-twist", "2")
        assert report["products_checked"] == 144
        assert report["shapes_ok"] is True
        assert report["forbidden_absent"] is True

    def test_cgshape_negative_max_sym_is_usage_error(self):
        assert_usage_error(run_cli("verify", "cgshape", "--max-sym", "-1"))

    def test_cgshape_negative_max_twist_is_usage_error(self):
        assert_usage_error(run_cli("verify", "cgshape", "--max-twist", "-1"))

    def test_cgshape_above_cap_is_usage_error(self):
        report = run_json("verify", "cgshape", "--max-sym", str(cli.MAX_CGSHAPE_SYM), "--max-twist", "0")
        assert report["products_checked"] == (cli.MAX_CGSHAPE_SYM + 1) ** 2
        # refused before any work: uncapped, 10^9 + 7 would run for ever
        for flag, cap in (("--max-sym", cli.MAX_CGSHAPE_SYM), ("--max-twist", cli.MAX_CGSHAPE_TWIST)):
            for value in (str(cap + 1), "1000000007"):
                proc = run_cli("verify", "cgshape", flag, value, timeout=10)
                assert_usage_error(proc)
                assert "%s %s is above the cap of %d" % (flag, value, cap) in proc.stderr


class TestEisCommands:
    def test_qexp_eisenstein(self):
        report = run_json("eis", "qexp", "--weight", "4", "--prec", "4")
        assert report["series"] == "eisenstein"
        assert report["coeffs"] == ["1/120", "1", "9", "28"]

    def test_qexp_delta(self):
        report = run_json("eis", "qexp", "--delta", "--prec", "8")
        assert report["series"] == "delta"
        assert report["coeffs"] == ["0", "1", "-24", "252", "-1472", "4830", "-6048", "-16744"]

    def test_qexp_needs_a_series(self):
        assert run_cli("eis", "qexp", "--prec", "8").returncode == 2

    def test_hecke_eisenstein(self):
        report = run_json("eis", "hecke", "--weight", "12", "--p", "2", "--prec", "60")
        assert report["eigenvalue"] == "2049"
        assert report["output_prec"] == 30
        assert report["coeffs"][1] == "2049"

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_hecke_prints_tp_of_the_series(self, p):
        for weight in [*range(4, 31, 2), None]:
            argv = ["eis", "hecke", "--p", str(p), "--prec", "60"]
            argv += ["--delta"] if weight is None else ["--weight", str(weight)]
            series = eisenstein.delta_qexp(60) if weight is None else eisenstein.eisenstein_qexp(weight, 60)
            with redirect_stdout(io.StringIO()) as out:
                assert cli.main(argv) == 0
            report = json.loads(out.getvalue())
            transformed = eisenstein.hecke_tp(series, p)
            assert report["output_prec"] == transformed.prec
            assert report["coeffs"] == [str(c) for c in transformed.coeffs], argv

    def test_hecke_applies_tp_once(self):
        argv = ["eis", "hecke", "--weight", "12", "--p", "2", "--prec", "60"]
        with mock.patch.object(eisenstein, "hecke_tp", wraps=eisenstein.hecke_tp) as hecke_tp:
            with redirect_stdout(io.StringIO()) as out:
                assert cli.main(argv) == 0
        assert hecke_tp.call_count == 1
        assert json.loads(out.getvalue())["eigenvalue"] == "2049"

    def test_hecke_delta(self):
        report = run_json("eis", "hecke", "--delta", "--p", "2", "--prec", "60")
        assert report["eigenvalue"] == "-24"

    def test_factor_delta_p2(self):
        report = run_json("eis", "factor", "--p", "2")
        assert report["series"] == "delta"
        assert report["value"] == "2073"
        assert report["nonzero"] is True
        assert report["weil_ok"] is True

    def test_factor_delta_p3(self):
        report = run_json("eis", "factor", "--p", "3")
        assert report["value"] == "176896"

    def test_factor_eisenstein_vanishes(self):
        report = run_json("eis", "factor", "--p", "2", "--eisenstein", "--weight", "12")
        assert report["value"] == "0"
        assert report["nonzero"] is False
        assert report["weil_ok"] is None

    def test_factor_eisenstein_requires_weight(self):
        assert run_cli("eis", "factor", "--p", "2", "--eisenstein").returncode == 2

    def test_factor_m_comes_from_the_weight(self):
        report = run_json("eis", "factor", "--p", "2", "--eisenstein", "--weight", "16")
        assert (report["weight"], report["m"], report["p"]) == (16, 7, 2)

    # Every series-reading command refuses through one builder, cli._series, so
    # each refusal reads alike wherever it is reached.  verify eigen has no
    # Delta, and argparse itself requires its --weight.
    TOO_PRECISE = str(cli.MAX_QEXP_PREC + 1)
    TOO_HEAVY = str(cli.MAX_BERNOULLI_N + 2)
    PREC_CAP = "precision %s is above the cap of %d" % (TOO_PRECISE, cli.MAX_QEXP_PREC)
    WEIGHT_CAP = "--weight %s is above the cap of %d" % (TOO_HEAVY, cli.MAX_BERNOULLI_N)
    DELTA_WEIGHT = "the cusp form Delta has weight 12; omit --weight or pass 12"
    NO_WEIGHT = "the Eisenstein series needs --weight"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("eis", "qexp", "--delta", "--prec", TOO_PRECISE), PREC_CAP),
            (("eis", "hecke", "--weight", "12", "--p", "2", "--prec", TOO_PRECISE), PREC_CAP),
            (("eis", "factor", "--p", "2", "--prec", TOO_PRECISE), PREC_CAP),
            (("verify", "eigen", "--weight", "12", "--p", "2", "--prec", TOO_PRECISE), PREC_CAP),
            (("eis", "qexp", "--weight", TOO_HEAVY), WEIGHT_CAP),
            (("eis", "hecke", "--weight", TOO_HEAVY, "--p", "2"), WEIGHT_CAP),
            (("eis", "factor", "--p", "2", "--eisenstein", "--weight", TOO_HEAVY), WEIGHT_CAP),
            (("verify", "eigen", "--weight", TOO_HEAVY, "--p", "2"), WEIGHT_CAP),
            (("eis", "qexp", "--delta", "--weight", "14"), DELTA_WEIGHT),
            (("eis", "hecke", "--delta", "--weight", "14", "--p", "2"), DELTA_WEIGHT),
            (("eis", "factor", "--p", "2", "--weight", "14"), DELTA_WEIGHT),
            (("eis", "qexp"), NO_WEIGHT),
            (("eis", "hecke", "--p", "2"), NO_WEIGHT),
            (("eis", "factor", "--p", "2", "--eisenstein"), NO_WEIGHT),
        ],
    )
    def test_series_refusals_are_shared(self, argv, message):
        assert message in refusal_message(*argv)

    def test_precision_above_cap_is_usage_error(self):
        # refused before any work: a lost cap at 10^9 + 3 allocates the series at
        # once, so a short timeout catches it
        for prec in (str(cli.MAX_QEXP_PREC + 1), "1000000003"):
            for argv in (
                ("eis", "qexp", "--delta", "--prec", prec),
                ("eis", "hecke", "--weight", "12", "--p", "2", "--prec", prec),
                ("eis", "factor", "--p", "2", "--prec", prec),
                ("verify", "eigen", "--weight", "12", "--p", "2", "--prec", prec),
            ):
                proc = run_cli(*argv, timeout=10)
                assert_usage_error(proc)
                assert "cap of %d" % cli.MAX_QEXP_PREC in proc.stderr, argv
        # eis factor derives its precision max(2p + 2, 16) from --p
        for p in ("10007", "1000000007"):
            proc = run_cli("eis", "factor", "--p", p, timeout=10)
            assert_usage_error(proc)
            assert "cap of %d" % cli.MAX_QEXP_PREC in proc.stderr

    def test_hecke_checks_precision_before_primality(self):
        # 2^61 - 1 is prime: trial division would take about 10^9 steps
        proc = run_cli("eis", "hecke", "--weight", "4", "--p", "2305843009213693951", "--prec", "60", timeout=10)
        assert_usage_error(proc)
        assert "too small" in proc.stderr

    def test_integers_beyond_str_limit_are_refused_first(self):
        # sigma_1999(n) < 2 n^1999 has at most 3990 digits for n < 100, but
        # from n = 142 on can have more than CPython's 4300
        assert len(run_json("eis", "qexp", "--weight", "2000", "--prec", "100")["coeffs"]) == 100
        # these print a_p and 1 + p^1999 only: 3972 digits at p = 97
        assert run_json("eis", "factor", "--p", "97", "--eisenstein", "--weight", "2000")["value"] == "0"
        assert run_json("verify", "eigen", "--weight", "2000", "--p", "97", "--prec", "200")["match"] is True
        # eis hecke reads its printed integers: (1 + 2^1841) a_0 has a numerator of exactly 4300 digits
        constant = Fraction(run_json("eis", "hecke", "--weight", "1842", "--p", "2", "--prec", "4")["coeffs"][0])
        assert len(str(abs(constant.numerator))) == cli.MAX_INT_DIGITS
        for argv in (
            ("eis", "qexp", "--weight", "2000", "--prec", "200"),
            ("eis", "factor", "--p", "211", "--eisenstein", "--weight", "2000"),  # 1 + 211^1999
            ("verify", "eigen", "--weight", "2000", "--p", "1000000007", "--prec", "100"),  # 1 + p^1999
            ("eis", "hecke", "--weight", "2000", "--p", "2", "--prec", "100"),  # (1 + 2^1999) B_2000 / 2000
        ):
            proc = run_cli(*argv, timeout=10)
            assert_usage_error(proc)
            assert "more than %d digits" % cli.MAX_INT_DIGITS in proc.stderr, argv

    def test_weight_above_bernoulli_cap_is_usage_error(self):
        # the constant term of E_w is B_w / w; the weights are even so that
        # only the cap can refuse them
        for weight in (str(cli.MAX_BERNOULLI_N + 2), "1000000004"):
            for argv in (
                ("eis", "qexp", "--weight", weight),
                ("eis", "hecke", "--weight", weight, "--p", "2"),
                ("eis", "factor", "--p", "2", "--eisenstein", "--weight", weight),
                ("verify", "eigen", "--weight", weight, "--p", "2"),
            ):
                proc = run_cli(*argv, timeout=10)
                assert_usage_error(proc)
                assert "cap of %d" % cli.MAX_BERNOULLI_N in proc.stderr, argv


class TestRepCommands:
    def test_decompose_golden(self):
        report = run_json("rep", "decompose", "--labels", "Sym2(3),Sym4(5)")
        assert report["components"] == ["Sym6(8)", "Sym4(7)", "Sym2(6)"]
        assert report["dimension"] == 15

    def test_decompose_bad_label(self):
        assert run_cli("rep", "decompose", "--labels", "Sym2(3),bogus").returncode == 2

    @pytest.mark.parametrize("command", ["decompose", "bigrade"])
    def test_label_with_non_ascii_digits_is_usage_error(self, command):
        # int() reads Arabic-Indic digits, so a \d pattern reads Sym٢(٣) as Sym2(3)
        message = refusal_message("rep", command, "--labels", "Sym\u0662(\u0663),Sym1(\u0662)")
        assert "expected 'Sym{u}({v})'" in message

    def test_bigrade_standard(self):
        report = run_json("rep", "bigrade", "--labels", "Sym1(0)")
        assert report["dims"] == {"0,1": 1, "2,1": 1}
        assert report["dimension"] == 2

    def test_product_dimension_at_cap_runs(self):
        assert cli.MAX_REP_DIMENSION == 1000 * 1000
        assert run_json("rep", "bigrade", "--labels", "Sym999(0),Sym999(0)")["dimension"] == cli.MAX_REP_DIMENSION
        report = run_json("rep", "decompose", "--labels", "Sym999(0),Sym999(0),Sym0(4)")
        assert report["dimension"] == cli.MAX_REP_DIMENSION
        assert len(report["components"]) == 1000

    def test_product_dimension_above_cap_is_usage_error(self):
        # refused before any work: uncapped, five Sym100(0) run out of memory
        # and two Sym2000000(0) print a 54 MB report
        cap = cli.MAX_REP_DIMENSION
        for labels, factors, dimension in (
            ("Sym1000(0),Sym999(0)", 2, 1001000),
            (",".join(["Sym100(0)"] * 5), 3, 101**3),
            ("Sym2000000(0),Sym2000000(0)", 1, 2000001),
            ("Sym5000(0),Sym5000(0)", 2, 5001**2),
            ("Sym1(3)," * 20 + "Sym1000000000000(0)", 20, 2**20),
            ("Sym%s(0)" % ("9" * cli.MAX_INT_DIGITS), 1, "at least 2^%d" % ((10**cli.MAX_INT_DIGITS).bit_length() - 1)),
        ):
            for command in ("decompose", "bigrade"):
                proc = run_cli("rep", command, "--labels", labels, timeout=10)
                assert_usage_error(proc)
                message = "dimension of factors 1..%d = %s is above the cap of %d" % (factors, dimension, cap)
                assert message in proc.stderr, (command, labels)


class TestBernCommands:
    def test_number(self):
        assert run_json("bern", "number", "--n", "4")["value"] == "-1/30"

    def test_number_negative_is_usage_error(self):
        assert run_cli("bern", "number", "--n", "-3").returncode == 2

    def test_poly_with_evaluation(self):
        report = run_json("bern", "poly", "--n", "4", "--at", "1/5")
        assert report["coeffs"] == ["-1/30", "0", "1", "-2", "1"]
        assert report["value"] == "-29/3750"

    def test_dist(self):
        report = run_json("bern", "dist", "--n", "6", "--m", "4", "--x", "2/7")
        assert report["holds"] is True

    def test_negative_points_after_a_space(self):
        # argparse alone reads "-1/2" as a flag and exits 2 with "expected one argument"
        for sep in (" ", "="):
            poly = run_json(*"bern poly --n 3 --at{}-1/2".format(sep).split())
            assert (poly["at"], poly["value"]) == ("-1/2", "-3/4")
            dist = run_json(*"bern dist --n 3 --m 2 --x{}-1/3".format(sep).split())
            assert (dist["x"], dist["holds"]) == ("-1/3", True)

    def test_dist_zero_denominator_is_usage_error(self):
        assert_usage_error(run_cli("bern", "dist", "--n", "2", "--m", "3", "--x", "1/0"))

    def test_n_above_cap_is_usage_error(self):
        assert run_json("bern", "number", "--n", str(cli.MAX_BERNOULLI_N))["n"] == cli.MAX_BERNOULLI_N
        # refused before any work: a lost cap at 10^9 + 3 allocates the tangent
        # triangle at once, so a short timeout catches it
        for n in (str(cli.MAX_BERNOULLI_N + 1), "1000000003"):
            for argv in (("number", "--n", n), ("poly", "--n", n), ("dist", "--n", n, "--m", "2")):
                proc = run_cli("bern", *argv, timeout=10)
                assert_usage_error(proc)
                assert "cap of %d" % cli.MAX_BERNOULLI_N in proc.stderr, argv

    def test_point_height_cap(self):
        # (n + 1) x the bits of max(|numerator|, denominator), so at n = 2 the cap
        # admits 2666 bits: 1/(2^2666 - 1) runs and 1/2^2666 is refused
        bits = cli.MAX_BERN_POINT_BITS // 3
        at_cap, over = "1/%d" % ((1 << bits) - 1), "1/%d" % (1 << bits)
        assert run_json("bern", "poly", "--n", "2", "--at", at_cap)["n"] == 2
        assert run_json("bern", "dist", "--n", "2", "--m", "3", "--x", at_cap)["holds"] is True
        for argv in (("poly", "--n", "2", "--at", over), ("dist", "--n", "2", "--m", "3", "--x", over)):
            message = refusal_message("bern", *argv)
            shown = "%s: (n + 1) x height bits = %d" % (argv[-2], 3 * (bits + 1))
            assert "%s is above the cap of %d" % (shown, cli.MAX_BERN_POINT_BITS) in message

    def test_unbounded_points_are_refused_at_once(self):
        # each ran past 30 s uncapped: exponent text builds 10^e, and Horner's
        # rule on B_2000 at 1/(1000 sevens) meets numbers of millions of digits
        for argv, named in (
            (("bern", "dist", "--n", "20", "--m", "3", "--x", "1e99999999"), "not a rational number"),
            (("bern", "poly", "--n", "2000", "--at", "1e3000"), "not a rational number"),
            (("bern", "poly", "--n", "2000", "--at", "1/" + SEVENS), "cap of %d" % cli.MAX_BERN_POINT_BITS),
            (("bern", "dist", "--n", "2000", "--m", "49", "--x", "1/" + SEVENS), "cap of %d" % cli.MAX_BERN_POINT_BITS),
        ):
            assert named in refusal_message(*argv), argv

    def test_values_beyond_str_limit_are_refused_first(self):
        # B_2000(1/2) = (2^-1999 - 1) B_2000 has a 4754-digit numerator; uncapped,
        # str() refused it after 2 s of work
        message = refusal_message("bern", "poly", "--n", "2000", "--at", "1/2")
        assert "--n 2000 --at 1/2 gives integers of more than %d digits" % cli.MAX_INT_DIGITS in message
        assert run_json("bern", "poly", "--n", "1000", "--at=-7/5")["at"] == "-7/5"

    def test_values_the_bound_cannot_tell_are_refused_exactly(self, monkeypatch):
        # with the early bound blind, the exact check refuses B_1840(1/4), a 4306-digit numerator,
        # once B_0..B_1840 are computed, and still prints B_1600(1/2), 3652 digits
        monkeypatch.setattr(cli, "_bern_value_digits", lambda n, x: -math.inf)
        with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
            assert cli.main(["bern", "poly", "--n", "1840", "--at", "1/4"]) == 2
        assert out.getvalue() == ""
        assert "--n 1840 --at 1/4 gives integers of more than %d digits" % cli.MAX_INT_DIGITS in err.getvalue()
        with redirect_stdout(io.StringIO()) as out:
            assert cli.main(["bern", "poly", "--n", "1600", "--at", "1/2"]) == 0
        assert json.loads(out.getvalue())["value"] == str(eisenstein.bernoulli_poly_eval(1600, Fraction(1, 2)))

    def test_cosine_zeros_are_refused_before_any_bernoulli_number(self, monkeypatch):
        # at x - floor(x) = 1/4 or 3/4 the leading cosine vanishes; the k = 2 term bounds the value.
        # B_1840(1/4) needs B_1840's own denominator too: without it the bound read 4294.7 digits
        def unreachable(n):
            raise AssertionError("B_0..B_%d computed for a value the bound refuses" % n)

        monkeypatch.setattr(eisenstein, "bernoulli_polynomial", unreachable)
        for n, at in ((2000, "1/4"), (2000, "3/4"), (2000, "-7/4"), (1840, "1/4")):
            with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
                assert cli.main(["bern", "poly", "--n", str(n), "--at", at]) == 2
            assert out.getvalue() == ""
            message = "--n %d --at %s gives integers of more than %d digits" % (n, at, cli.MAX_INT_DIGITS)
            assert message in err.getvalue()

    def test_value_digit_bound_is_below_the_numerator(self):
        # the early refusal's float bound gives up at least a digit, and cannot tell at odd n's zeros of cos
        points = [Fraction(a, b) for a, b in ((0, 1), (1, 2), (1, 3), (3, 4), (1, 6), (-7, 5), (22, 7), (-5, 2), (31, 2))]
        points += [Fraction(1, 4), Fraction(-7, 4), Fraction(9, 4)]
        for n in [*range(64), 101, 300]:
            for x in points:
                value = eisenstein.bernoulli_poly_eval(n, x).numerator
                bound = cli._bern_value_digits(n, x)
                assert bound == -math.inf or value and bound < math.log10(abs(value)) - 0.9, (n, x)
        for n in (4, 10, 64, 300):  # B_n(1/4) = 2^-n B_n(1/2) at even n, which the k = 2 term reads
            assert eisenstein.bernoulli_poly_eval(n, Fraction(1, 4)) * 2**n == eisenstein.bernoulli_poly_eval(n, Fraction(1, 2))
            assert cli._bern_value_digits(n, Fraction(1, 4)) > -math.inf
        for x in (Fraction(1, 4), Fraction(3, 4), Fraction(1, 2)):
            assert 4740 < cli._bern_value_digits(2000, x) < 4754, x

    def test_values_inside_str_limit_are_printed(self):
        # each was refused by an a priori bound on B_n(a/b), though str() prints it
        assert run_json("bern", "poly", "--n", "1700", "--at", "0")["value"] == str(eisenstein.bernoulli_number(1700))
        for n, at, digits in ((1600, "1/2", 3652), (1700, "1/3", 4214)):
            value = Fraction(run_json("bern", "poly", "--n", str(n), "--at", at)["value"])
            assert value == eisenstein.bernoulli_poly_eval(n, Fraction(at))
            assert len(str(abs(value.numerator))) == digits

    def test_printed_limit_is_exact(self):
        # MAX_INT_DIGITS digits print, and one more is refused, in numerator or denominator
        args = argparse.Namespace(group="bern", command="poly")
        edge, over = 10**cli.MAX_INT_DIGITS - 1, 10**cli.MAX_INT_DIGITS
        assert len(str(edge)) == cli.MAX_INT_DIGITS
        cli._check_printed(args, "--n 0", [Fraction(edge), Fraction(-edge), Fraction(1, edge), Fraction(-edge, edge - 1)])
        for value in (Fraction(over), Fraction(-over), Fraction(1, over), Fraction(edge, over)):
            with pytest.raises(ValueError, match="--n 0 gives integers of more than %d digits" % cli.MAX_INT_DIGITS):
                cli._check_printed(args, "--n 0", [Fraction(1), value])

    def test_dist_m_above_cap_is_usage_error(self):
        # the cap on --m shrinks as B_n grows: MAX_BERN_DIST_TERMS // (n + 1)
        cap = cli.MAX_BERN_DIST_TERMS // 21
        assert run_json("bern", "dist", "--n", "20", "--m", str(cap))["holds"] is True
        for n, m in (("20", cap + 1), ("2000", cli.MAX_BERN_DIST_TERMS // 2001 + 1), ("2", 1000000007)):
            proc = run_cli("bern", "dist", "--n", n, "--m", str(m), timeout=10)
            assert_usage_error(proc)
            assert "--m %d is above the cap of %d" % (m, cli.MAX_BERN_DIST_TERMS // (int(n) + 1)) in proc.stderr


class TestOutputOptions:
    def test_csv_single_case(self):
        proc = run_cli("eis", "factor", "--p", "2", "--format", "csv")
        assert proc.returncode == 0
        lines = proc.stdout.strip().split("\n")
        assert len(lines) == 2
        header = lines[0].split(",")
        assert header == ["series", "weight", "p", "m", "eigenvalue", "value", "weil_ok", "nonzero"]

    def test_csv_batch_rows(self):
        proc = run_cli("verify", "brown", "--max-weight", "12", "--format", "csv")
        lines = proc.stdout.strip().split("\n")
        assert len(lines) == 1 + 4  # header + weights 6..12

    def test_format_flag_position_independent(self):
        before = run_cli("--format", "csv", "eis", "factor", "--p", "2")
        after = run_cli("eis", "factor", "--p", "2", "--format", "csv")
        assert before.stdout == after.stdout
        assert before.returncode == after.returncode == 0

    def test_out_writes_file(self, tmp_path):
        target = tmp_path / "report.json"
        proc = run_cli("bern", "number", "--n", "2", "--out", str(target))
        assert proc.returncode == 0
        assert proc.stdout == ""
        assert json.loads(target.read_text())["value"] == "1/6"

    def test_out_unwritable_is_io_error(self):
        proc = run_cli("bern", "number", "--n", "2", "--out", "/nonexistent/dir/report.json")
        assert proc.returncode == 3

    def test_unknown_flag_is_usage_error(self):
        assert run_cli("bern", "number", "--n", "2", "--frobnicate").returncode == 2

    def test_missing_subcommand_is_usage_error(self):
        assert run_cli("bern").returncode == 2


# -- every command, in process, on small, malformed and hostile arguments ----

INTS = st.integers(-3, 20).map(str)
PRIMES = st.one_of(st.sampled_from(["2", "3", "5", "7", "11"]), INTS)  # most checks want a prime p
WEIGHTS = st.one_of(st.integers(2, 10).map(lambda k: str(2 * k)), INTS)  # and an even weight
# the depth-2 and period flags also meet values past their weight cap, from just above it to 10^12
ABOVE_CAP = st.integers(cli.MAX_DEPTH2_WEIGHT + 1, 10**12).map(str)
M_ABOVE_CAP = st.integers(cli.MAX_DEPTH2_WEIGHT // 2, 10**12).map(str)  # 2m + 2 > cap
RATIONALS = st.builds("{}/{}".format, st.integers(-5, 5), st.integers(-2, 5))  # "/0" and "/-1" included
JUNK = st.sampled_from(["", "x", "1.5", "1e3", "--", "-", "0x10", "Sym", "٣", "Sym٢(٣)", "1/2/3", "nan"])
JSON_TEXT = st.sampled_from(
    [
        '{"x^8*y^2": "1", "x^6*y^4": "-3", "x^4*y^6": "3", "x^2*y^8": "-1"}',
        '{"x^8*y^2": "1", "x^2*y^8": "1"}',
        '{"x^7*y^3": 1, "x^3*y^7": -1}',
        '{"x^10*y^0": "2/3"}',
        '{"x^2*y^8": 1.5}',
        '{"x^2*y^8": "1/0"}',
        '{"x^2*y^8": true}',
        '{"x^2*y^8": null}',
        '{"x^2*z^8": 1}',
        '{"x^2*y^8": 1, "x^3*y^8": 1}',
        '{"x^٢*y^٨": 1}',
        '{"x^2*y^8": 1',
        "{}",
        "[1, 2]",
        '"x"',
        "null",
        "[" * 5000 + "]" * 5000,
    ]
)
MALFORMED = st.one_of(RATIONALS, JUNK, JSON_TEXT)  # no int: it could lift a bound below
# a label past the product-dimension cap on its own, from just above it to 10^12
LABEL_ABOVE_CAP = st.builds("Sym{}({})".format, st.integers(cli.MAX_REP_DIMENSION, 10**12), st.integers(-3, 8))
LABELS = st.lists(
    st.one_of(st.builds("Sym{}({})".format, st.integers(-1, 6), st.integers(-3, 8)), LABEL_ABOVE_CAP, JUNK),
    max_size=3,
).map(",".join)
# per command, each flag with the values drawn for it (None: a switch); the
# test may cut the argument list short or spoil one token of it; the bounds keep every draw cheap: bernsum
# enumerates p^4 matrices, cgshape (max_sym + 1)^2 (max_twist + 1)^2 products
FLAGS = {
    "period basis": {"--weight": st.one_of(WEIGHTS, ABOVE_CAP)},
    "period check": {"--poly": JSON_TEXT, "--degree": INTS},
    "depth matrix": {"--m": st.one_of(INTS, M_ABOVE_CAP)},
    "depth relations": {"--m": st.one_of(INTS, M_ABOVE_CAP)},
    "verify brown": {
        "--min-weight": WEIGHTS,
        "--max-weight": st.one_of(WEIGHTS, ABOVE_CAP),
        "--weight": st.one_of(WEIGHTS, ABOVE_CAP),
    },
    "verify bernsum": {
        "--k": INTS,
        "--p": st.one_of(st.sampled_from(["3", "5", "7", "11"]), st.integers(-3, 11).map(str)),
        "--entry": st.sampled_from(["c", "d", "e"]),
    },
    "verify eigen": {"--weight": WEIGHTS, "--p": PRIMES, "--prec": INTS},
    "verify cgshape": {"--max-sym": st.integers(-3, 6).map(str), "--max-twist": st.integers(-3, 6).map(str)},
    "eis qexp": {"--weight": WEIGHTS, "--delta": None, "--prec": INTS},
    "eis hecke": {"--weight": WEIGHTS, "--delta": None, "--p": PRIMES, "--prec": INTS},
    "eis factor": {"--p": PRIMES, "--weight": WEIGHTS, "--eisenstein": None, "--prec": INTS},
    "rep decompose": {"--labels": LABELS},
    "rep bigrade": {"--labels": LABELS},
    "bern number": {"--n": INTS},
    "bern poly": {"--n": INTS, "--at": RATIONALS},
    "bern dist": {"--n": INTS, "--m": INTS, "--x": RATIONALS},
}


def test_import_loads_neither_dataclasses_nor_inspect():
    # what `import depthforge.cli` adds to the modules `python -c pass` has loaded
    code = "import sys; before = set(sys.modules); import depthforge.cli; print(*sorted(set(sys.modules) - before))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "depthforge.cli" in added
    assert not added & {"dataclasses", "inspect"}


def test_fuzz_table_covers_every_command():
    assert set(FLAGS) == set(cli.HANDLERS)


@pytest.mark.parametrize("command", sorted(FLAGS), ids=lambda command: command.replace(" ", "-"))
@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_fuzzed_arguments_exit_0_to_3_without_traceback(command, data):
    argv = command.split()
    for flag, values in FLAGS[command].items():
        if values is None:  # a switch
            argv += data.draw(st.sampled_from([[], [flag]]))
        else:
            argv += [flag, data.draw(values)]
    damage = data.draw(st.sampled_from([None, "cut", "spoil"]))
    if damage == "cut":  # later flags left out, or a flag left without its value
        argv = argv[: data.draw(st.integers(2, len(argv)))]
    elif damage == "spoil" and len(argv) > 2:
        argv[data.draw(st.integers(2, len(argv) - 1))] = data.draw(MALFORMED)
    argv += data.draw(st.sampled_from([[], ["--format", "csv"], ["--format", "xml"]]))
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            status = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a flag
            status = exc.code
    assert status in (0, 1, 2, 3), argv
