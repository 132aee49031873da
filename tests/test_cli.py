"""End-to-end tests of the command-line interface and its exit-code contract."""

import argparse
import ast
import json
import os
import signal
import stat
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import mahlerq
from mahlerq.cli import (
    COMMANDS, DEFAULT_CACHE, _json_load, _json_text, batch_workers, main, parse_args,
    report_json_text, write_atomic,
)
from mahlerq.inversion import IntegralityReport, integrality_report
from mahlerq.mirror import _SERIES_KEYS
from mahlerq.weights import Model, enumerate_solutions
from oracles import (corrupt_exponents, corrupt_g0_column, corrupt_last_period,
                     corrupt_log_tail, corrupt_mirror_map, corrupt_phi, corrupt_reversion,
                     monomial, recorded_reversions)

SRC = Path(mahlerq.__file__).resolve().parents[1]
# The environment of a child whose stdout and stderr are block buffered, as
# they are by default when they are pipes.
BUFFERED = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser the CLI once used: the reference for ``parse_args``."""
    parser = argparse.ArgumentParser(prog="mahlerq")
    parser.add_argument("--version", action="version", version=mahlerq.__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    def add_model_options(sub):
        sub.add_argument("--model", help="k-vector, e.g. 2,3,6 (reciprocals sum to 1)")
        sub.add_argument("--weights", help="direct weights, e.g. 12:4,3,3,2 (sum w = k)")

    p = subs.add_parser("enumerate", help="list weight systems for a dimension")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")

    p = subs.add_parser("series", help="print one series of the model pipeline")
    add_model_options(p)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--which", choices=_SERIES_KEYS, default="Q")
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")

    p = subs.add_parser("pf", help="derive the Picard-Fuchs operator parameters")
    add_model_options(p)
    p.add_argument("--format", choices=("table", "json"), default="table")

    p = subs.add_parser("verify", help="integrality report for one model")
    add_model_options(p)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p.add_argument("--out", help="also write the JSON report to this path")

    p = subs.add_parser("batch", help="verify every weight system of a dimension")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument(
        "--cache",
        help=f"report cache directory (default $MAHLER_CACHE or {DEFAULT_CACHE})",
    )

    p = subs.add_parser("measure", help="numeric logarithmic Mahler measure")
    add_model_options(p)
    p.add_argument("--psi", required=True, help="positive rational, e.g. 2 or 5/2")
    p.add_argument("--order", type=int, default=32)

    return parser


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def as_written(payload) -> str:
    """``payload`` in the layout the cache writer gives it, so that a damaged
    entry differs from a sound one only by its damage."""
    return json.dumps(payload, indent=2) + "\n"


def with_row(entry: str, m: int, **fields) -> str:
    """The cache entry ``entry`` with ``fields`` replaced in its row ``m``."""
    payload = json.loads(entry)
    payload["rows"][m - 1].update(fields)
    return as_written(payload)


class TestEnumerate:
    def test_table_with_counts_line(self, capsys):
        code, out, _ = run_cli("enumerate", "--n", "3", capsys=capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4
        assert lines[-1] == "simple=3 weighted=5/3"

    def test_json_array(self, capsys):
        code, out, _ = run_cli("enumerate", "--n", "4", "--format", "json", capsys=capsys)
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 14
        assert payload[0]["k"] == [2, 3, 7, 42]
        assert payload[0]["lcm"] == 42

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    def test_enumerates_once(self, capsys, monkeypatch, fmt):
        import mahlerq.cli as cli
        import mahlerq.weights as weights

        calls = []

        def counted(n):
            calls.append(n)
            return enumerate_solutions(n)

        for module in (cli, weights):
            monkeypatch.setattr(module, "enumerate_solutions", counted)
        code, out, _ = run_cli("enumerate", "--n", "4", "--format", fmt, capsys=capsys)
        assert code == 0 and out
        assert calls == [4]

    def test_n1_usage_error(self, capsys):
        code, _, err = run_cli("enumerate", "--n", "1", capsys=capsys)
        assert code == 2
        assert "n" in err


class TestSeries:
    def test_local_map_22(self, capsys):
        code, out, _ = run_cli(
            "series", "--model", "2,2", "--order", "4", "--which", "Q", capsys=capsys
        )
        assert code == 0
        assert out.split() == ["0", "1", "2", "5", "14"]

    @pytest.mark.parametrize("which, reversions", [("Q", 0), ("q", 0), ("zq", 1), ("zQ", 1)])
    def test_only_zq_and_zQ_revert(self, monkeypatch, capsys, which, reversions):
        reverted = recorded_reversions(monkeypatch)
        code, _, _ = run_cli(
            "series", "--model", "3,3,3", "--order", "6", "--which", which, capsys=capsys
        )
        assert (code, len(reverted)) == (0, reversions)

    def test_wrong_reversion_exits_3(self, monkeypatch, capsys):
        from mahlerq import Model

        # corrupt_reversion targets the phi of order 8 + 1, whose q series --order 9 reverts.
        corrupt_reversion(monkeypatch, Model.from_kvector((3, 3, 3)), 8, "q", 5)
        code, out, err = run_cli(
            "series", "--model", "3,3,3", "--order", "9", "--which", "zq", capsys=capsys
        )
        assert (code, out) == (3, "")
        assert err == ("internal-consistency fault: z(q) is not the reversion of q "
                       "for model 3,3,3 at order 9, m=5\n")

    # Every key reads checked mirror data, so a wrong period, log tail or
    # map exits 3 before anything is printed.
    FAULTS = [
        ("h", lambda mp: corrupt_log_tail(mp, 5),
         "log tail h fails the Frobenius identity for model 3,3,3 at order 8, m=5"),
        ("q", lambda mp: corrupt_log_tail(mp, 5),
         "log tail h fails the Frobenius identity for model 3,3,3 at order 8, m=5"),
        ("zq", lambda mp: corrupt_log_tail(mp, 5),
         "log tail h fails the Frobenius identity for model 3,3,3 at order 8, m=5"),
        ("g0", corrupt_last_period,
         "running-ratio and closed-form periods disagree for model 3,3,3 at order 8, m=8"),
        ("q", lambda mp: corrupt_mirror_map(mp, mahlerq.Model.from_kvector((3, 3, 3)), 8,
                                            F(1, 2), 3),
         "q is not integral for model 3,3,3 at order 8, whose floor gaps all hold"),
    ]

    @pytest.mark.parametrize("which, corrupt, message", FAULTS,
                             ids=["h-log-tail", "q-log-tail", "zq-log-tail", "g0-period",
                                  "q-floor-gap"])
    def test_wrong_mirror_data_exits_3(self, monkeypatch, capsys, which, corrupt, message):
        corrupt(monkeypatch)
        code, out, err = run_cli(
            "series", "--model", "3,3,3", "--order", "8", "--which", which, capsys=capsys
        )
        assert (code, out, err) == (3, "", f"internal-consistency fault: {message}\n")

    def test_g0_236(self, capsys):
        code, out, _ = run_cli(
            "series", "--model", "2,3,6", "--order", "3", "--which", "g0", capsys=capsys
        )
        assert code == 0
        assert out.split()[:2] == ["1", "60"]

    def test_direct_weights_accepted(self, capsys):
        code, out, _ = run_cli(
            "series", "--weights", "6:3,2,1", "--order", "2", "--which", "g0",
            capsys=capsys,
        )
        assert code == 0
        assert out.split() == ["1", "60", "13860"]

    def test_invalid_model_exits_2(self, capsys):
        code, _, err = run_cli(
            "series", "--model", "2,5", "--order", "3", capsys=capsys
        )
        assert code == 2
        assert "sum" in err

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            "series", "--model", "2,2", "--order", "3", "--which", "zQ",
            "--format", "json", capsys=capsys,
        )
        assert json.loads(out) == ["0", "1", "-2", "3"]

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            "series", "--model", "2,2", "--order", "3", "--which", "zQ",
            "--format", "csv", capsys=capsys,
        )
        assert (code, out) == (0, "0,0\n1,1\n2,-2\n3,3\n")


class TestPf:
    def test_333(self, capsys):
        code, out, _ = run_cli("pf", "--model", "3,3,3", capsys=capsys)
        assert code == 0
        assert "reduced: C=27 a=[1/3, 2/3] b=[0, 0]" in out
        assert "pf2_applicable: true" in out

    def test_236(self, capsys):
        code, out, _ = run_cli("pf", "--model", "2,3,6", capsys=capsys)
        assert "C=432" in out and "a=[1/6, 5/6]" in out

    def test_n5_case_json(self, capsys):
        code, out, _ = run_cli(
            "pf", "--model", "2,5,10,10,10", "--format", "json", capsys=capsys
        )
        payload = json.loads(out)
        assert payload["reduced"]["a"] == ["1/10", "3/10", "7/10", "9/10"]
        assert payload["pf2_applicable"] is True


class TestVerify:
    def test_333_table(self, capsys):
        code, out, _ = run_cli(
            "verify", "--model", "3,3,3", "--order", "10", capsys=capsys
        )
        assert code == 0
        assert "checks:" in out
        first_row = out.splitlines()[1].split()
        assert first_row[:5] == ["1", "9", "-9", "-9", "9"]

    def test_quintic_b5(self, capsys):
        code, out, _ = run_cli(
            "verify", "--model", "5,5,5,5,5", "--order", "5", "--format", "csv",
            capsys=capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "m,b,bhat,c,chat,b_over_m,chat_over_m,flags"
        assert lines[5].startswith("5,25050301099750,")

    def test_consistency_fault_exits_3(self, monkeypatch, capsys):
        from mahlerq import Model

        corrupt_reversion(monkeypatch, Model.from_kvector((3, 3, 3)), 4, "q", 2)
        code, out, err = run_cli("verify", "--model", "3,3,3", "--order", "4", capsys=capsys)
        assert code == 3
        assert out == ""
        assert err == ("internal-consistency fault: z(q) is not the reversion of q "
                       "for model 3,3,3 at order 4, m=2\n")

    def test_wrong_log_tail_exits_3(self, monkeypatch, capsys):
        corrupt_log_tail(monkeypatch, 5)
        code, out, err = run_cli("verify", "--model", "3,3,3", "--order", "12", capsys=capsys)
        assert (code, out) == (3, "")
        assert err == ("internal-consistency fault: log tail h fails the Frobenius identity "
                       "for model 3,3,3 at order 13, m=5\n")

    def test_wrong_phi_exits_3(self, monkeypatch, capsys):
        # The reversion of q and its k-th root read phi; only phi * g0 = h sees it.
        corrupt_phi(monkeypatch, mahlerq.Model.from_kvector((3, 3, 3)), 13, 3)
        code, out, err = run_cli("verify", "--model", "3,3,3", "--order", "12", capsys=capsys)
        assert (code, out) == (3, "")
        assert err == ("internal-consistency fault: phi * g0 and h disagree "
                       "for model 3,3,3 at order 13, m=3\n")

    # A wrong linear coefficient of Q fails the u route's t + O(t^2) check;
    # one of q fails the q side's own reversion check first.
    @pytest.mark.parametrize("field, message", [
        ("Q", "u-series composition for model 3,3,3 at order 4 is not t + O(t^2): "
              "it starts 0 + 2*t"),
        ("q", "z(q) is not the reversion of q for model 3,3,3 at order 4, m=1"),
    ], ids=["Q-u", "q-lagrange"])
    def test_linear_coefficient_tamper_exits_3(self, monkeypatch, capsys, field, message):
        from mahlerq.mirror import MirrorData
        from mahlerq.series import Series

        build = MirrorData.build.__func__

        def tampered(cls, model, order):
            md = build(cls, model, order)
            series = getattr(md, field)
            return md._replace(**{field: series + monomial(1, 1, series.order)})

        monkeypatch.setattr(MirrorData, "build", classmethod(tampered))
        code, out, err = run_cli("verify", "--model", "3,3,3", "--order", "4", capsys=capsys)
        assert code == 3
        assert out == ""
        assert err.startswith(f"internal-consistency fault: {message}")

    def test_corrupted_g0_expansion_exits_3(self, monkeypatch, capsys):
        from mahlerq import Model

        corrupt_g0_column(monkeypatch, Model.from_kvector((3, 3, 3)), 4, "Q", 4)
        code, out, err = run_cli("verify", "--model", "3,3,3", "--order", "4", capsys=capsys)
        assert code == 3
        assert out == ""
        assert err.startswith(
            "internal-consistency fault: v-series routes disagree for model 3,3,3 "
            "at order 4, m=4"
        )

    def test_corrupted_g0_in_q_from_the_table_exits_3(self, monkeypatch, capsys):
        # The q side reads g0(z(q)) from its table of the powers of z(q).
        from mahlerq import Model

        corrupt_g0_column(monkeypatch, Model.from_kvector((3, 3, 3)), 4, "q", 4)
        code, out, err = run_cli("verify", "--model", "3,3,3", "--order", "4", capsys=capsys)
        assert code == 3
        assert out == ""
        assert err.startswith(
            "internal-consistency fault: u-series routes disagree for model 3,3,3 "
            "at order 4, m=4"
        )

    @pytest.mark.parametrize("alternating", [False, True], ids=["plain", "alt"])
    @pytest.mark.parametrize("side", ["u", "v"])
    def test_failed_product_form_exits_3(self, monkeypatch, capsys, side, alternating):
        from mahlerq import Model

        corrupt_exponents(monkeypatch, Model.from_kvector((3, 3, 3)), 4, side, alternating, 3)
        code, out, err = run_cli("verify", "--model", "3,3,3", "--order", "4", capsys=capsys)
        form = "alternating " if alternating else ""
        assert code == 3
        assert out == ""
        assert err == (
            f"internal-consistency fault: {side}-series {form}product form fails for "
            "model 3,3,3 at order 4\n"
        )

    @pytest.mark.parametrize("side", ["u", "v"])
    def test_wrong_last_plain_exponent_exits_3(self, monkeypatch, capsys, side):
        # The plain product form is checked one order past the column, so
        # b_N and c_N are checked too.
        from mahlerq import Model

        corrupt_exponents(monkeypatch, Model.from_kvector((3, 3, 3)), 6, side, False, 6)
        code, out, err = run_cli("verify", "--model", "3,3,3", "--order", "6", capsys=capsys)
        assert (code, out) == (3, "")
        assert err == (
            f"internal-consistency fault: {side}-series product form fails for "
            "model 3,3,3 at order 6\n"
        )

    def test_22_all_zero(self, capsys):
        code, out, _ = run_cli(
            "verify", "--model", "2,2", "--order", "12", "--format", "json",
            capsys=capsys,
        )
        payload = json.loads(out)
        assert all(row["b"] == "0" and row["c"] == "0" for row in payload["rows"])

    def test_json_out_renders_once(self, tmp_path, capsys, monkeypatch):
        import mahlerq.cli as cli

        render = cli.report_json_text
        calls = []

        def counted(report):
            calls.append(report.order)
            return render(report)

        monkeypatch.setattr(cli, "report_json_text", counted)
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            "verify", "--model", "3,3,3", "--order", "4", "--format", "json",
            "--out", str(target), capsys=capsys,
        )
        assert code == 0
        assert calls == [4]
        assert target.read_text() == out

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, _, _ = run_cli(
            "verify", "--model", "3,3,3", "--order", "4", "--out", str(target),
            capsys=capsys,
        )
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["rows"][0]["b"] == "9"

    @pytest.mark.parametrize("where", ["missing directory", "existing directory"])
    def test_unwritable_out_exits_2_and_names_it(self, tmp_path, capsys, where):
        if where == "missing directory":
            target = tmp_path / "missing" / "report.json"
        else:
            target = tmp_path / "report.json"
            target.mkdir()
        code, out, err = run_cli(
            "verify", "--model", "2,2", "--order", "3", "--out", str(target),
            capsys=capsys,
        )
        assert code == 2
        assert out == ""  # refused before the report is computed
        assert err.startswith("error: ") and str(target) in err
        assert ".tmp" not in err
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_model_and_weights_together_exit_2(self, capsys):
        code, out, err = run_cli(
            "verify", "--model", "2,2", "--weights", "6:3,2,1", "--order", "2",
            capsys=capsys,
        )
        assert code == 2
        assert out == ""
        assert err == "error: give --model or --weights, not both\n"

    @pytest.mark.parametrize("model_args, message", [
        (("--weights", "6"), "--weights expects the form k:w1,w2,..."),
        ((), "a model is required (--model or --weights)"),
    ], ids=["weights-without-colon", "no-model"])
    def test_malformed_or_missing_model_exits_2(self, capsys, model_args, message):
        code, out, err = run_cli("verify", *model_args, "--order", "2", capsys=capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_flags_column_marks_fractions(self, capsys):
        code, out, _ = run_cli(
            "verify", "--model", "3,3,3", "--order", "2", "--format", "csv",
            capsys=capsys,
        )
        rows = out.splitlines()
        assert rows[2].endswith("bhat;c")  # -9/2 and -63/2 at m=2


class TestBatch:
    def test_compute_then_cache(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        code, out, _ = run_cli(
            "batch", "--n", "3", "--order", "6", "--cache", str(cache), capsys=capsys
        )
        assert code == 0
        assert "0 cached, 3 computed" in out
        assert len(list(cache.glob("*.json"))) == 3

        code, out, _ = run_cli(
            "batch", "--n", "3", "--order", "6", "--cache", str(cache), capsys=capsys
        )
        assert code == 0
        assert "3 cached, 0 computed" in out

    def test_parallel_is_byte_identical(self, tmp_path, capsys):
        one = tmp_path / "one"
        run_cli("batch", "--n", "3", "--order", "5", "--cache", str(one), capsys=capsys)
        for jobs in ("2", "4"):
            many = tmp_path / jobs
            code, _, _ = run_cli(
                "batch", "--n", "3", "--order", "5", "--jobs", jobs, "--cache", str(many),
                capsys=capsys,
            )
            assert code == 0
            assert sorted(p.name for p in many.iterdir()) == sorted(
                p.name for p in one.iterdir()
            )
            for path in sorted(one.glob("*.json")):
                assert path.read_bytes() == (many / path.name).read_bytes()

    def test_cache_env_var(self, tmp_path, capsys, monkeypatch):
        cache = tmp_path / "envcache"
        monkeypatch.setenv("MAHLER_CACHE", str(cache))
        code, _, _ = run_cli("batch", "--n", "2", "--order", "4", capsys=capsys)
        assert code == 0
        assert len(list(cache.glob("*.json"))) == 1

    def test_zero_jobs_exits_2(self, tmp_path, capsys):
        code, out, err = run_cli(
            "batch", "--n", "3", "--order", "4", "--jobs", "0", "--cache", str(tmp_path),
            capsys=capsys,
        )
        assert (code, out) == (2, "")
        assert err == "error: --order and --jobs must be positive\n"

    def test_unwritable_cache_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        code, _, err = run_cli(
            "batch", "--n", "2", "--order", "4", "--cache", str(blocker), capsys=capsys
        )
        assert code == 2

    def test_warm_run_leaves_the_cache_directory_alone(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        run_cli("batch", "--n", "3", "--order", "4", "--cache", str(cache), capsys=capsys)
        # An old mtime, so that a write shows whatever the clock's granularity.
        os.utime(cache, ns=(10**18, 10**18))
        code, out, _ = run_cli(
            "batch", "--n", "3", "--order", "4", "--cache", str(cache), capsys=capsys
        )
        assert (code, out.splitlines()[0]) == (0, "3 cached, 0 computed")
        assert cache.stat().st_mtime_ns == 10**18

    def test_another_run_removing_its_probe_does_not_fail(self, tmp_path, monkeypatch,
                                                          capsys):
        # Another run sharing the cache unlinks its own probe, a fixed name,
        # just after this run opens a file of that name.
        import mahlerq.cli

        cache = tmp_path / "cache"
        shared = str(cache / ".write-probe")

        def racing_open(path, *args, **kwargs):
            handle = open(path, *args, **kwargs)
            if path == shared:
                os.unlink(path)
            return handle

        monkeypatch.setattr(mahlerq.cli, "open", racing_open, raising=False)
        code, out, err = run_cli(
            "batch", "--n", "3", "--order", "4", "--jobs", "1", "--cache", str(cache),
            capsys=capsys,
        )
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == "0 cached, 3 computed"

    @pytest.mark.parametrize("damage", [
        lambda own, other: own[:2],  # truncated: not valid JSON
        lambda own, other: "[]",  # valid JSON without the report's rows
        lambda own, other: other,  # another model's entry copied over this one
        lambda own, other: as_written({**json.loads(own), "checks": []}),  # checks is a list
        lambda own, other: as_written(  # every check the string "false"
            {**json.loads(own), "checks": dict.fromkeys(json.loads(own)["checks"], "false")}
        ),
        lambda own, other: as_written({**json.loads(own), "rows": []}),  # no rows
        lambda own, other: as_written(  # an integrality flag the string "true"
            {**json.loads(own), "rows": [
                {**row, "b_integer": "true"} for row in json.loads(own)["rows"]
            ]}
        ),
        lambda own, other: as_written(  # every entry, bhat_2 = -9/2 too, flagged integral
            {**json.loads(own), "rows": [
                {**row, **{f"{key}_integer": True for key in ("b", "bhat", "c", "chat")}}
                for row in json.loads(own)["rows"]
            ]}
        ),
        lambda own, other: "[" * 100000 + "]" * 100000,  # too deep to read
        lambda own, other: as_written({**json.loads(own), "order": 4.0}),  # a float order
        lambda own, other: as_written(  # a float m
            {**json.loads(own), "rows": [
                {**row, "m": float(row["m"])} for row in json.loads(own)["rows"]
            ]}
        ),
        lambda own, other: as_written(  # every check NaN
            {**json.loads(own), "checks": dict.fromkeys(json.loads(own)["checks"], NAN)}
        ),
        lambda own, other: as_written(  # a false plain product form: no report holds one
            {**json.loads(own), "checks": {**json.loads(own)["checks"], "product_plain": False}}
        ),
        lambda own, other: as_written(  # a false alternating product form
            {**json.loads(own), "checks": {**json.loads(own)["checks"], "product_alt": False}}
        ),
        # A check of the integrality of columns the entry holds (z in q and
        # in Q, g0 in q, g0 in Q), flipped alone, so the entry contradicts itself.
        *[lambda own, other, check=check: as_written(
            {**json.loads(own), "checks": {**json.loads(own)["checks"],
                                           check: not json.loads(own)["checks"][check]}}
        ) for check in ("lagrange_integral", "g0_in_q_integral", "g0_in_Q_integral")],
        lambda own, other: with_row(own, 1, b="1/2", b_integer=False),  # b_1 = 9 made 1/2, flag false
        lambda own, other: with_row(own, 1, b="10"),  # b_1 changed, its flag left true
        lambda own, other: with_row(own, 1, b_div_m=False),  # a divisibility flag flipped
        # A stored verdict that equals true but is not the boolean true.
        *[lambda own, other, value=value: as_written(
            {**json.loads(own), "checks": {**json.loads(own)["checks"],
                                           "proposition_qQ_integral": value}}
        ) for value in (1, "true")],
        lambda own, other: as_written(  # a zero denominator
            {**json.loads(own), "z_in_q": ["1/0", *json.loads(own)["z_in_q"][1:]]}
        ),
        lambda own, other: mahlerq.cli.report_json_text(  # the model's entry at order 3
            mahlerq.integrality_report(mahlerq.Model.from_kvector((3, 3, 3)), 3)
        ),
        # A derived flag or check that equals true but is not the boolean true.
        lambda own, other: with_row(own, 1, b_integer=1),
        lambda own, other: as_written(
            {**json.loads(own), "checks": {**json.loads(own)["checks"], "lagrange_integral": 1}}
        ),
        lambda own, other: own.replace("\n", "\r\n"),  # the writer's text with CRLF line ends
    ])
    def test_corrupted_cache_entry_names_its_file(self, tmp_path, capsys, damage):
        from mahlerq import Model
        from mahlerq.cli import cache_path

        cache = tmp_path / "cache"
        run_cli("batch", "--n", "3", "--order", "4", "--cache", str(cache), capsys=capsys)
        entry, other = (
            Path(cache_path(str(cache), Model.from_kvector(kv), 4))
            for kv in ((3, 3, 3), (2, 4, 4))
        )
        entry.write_text(damage(entry.read_text(), other.read_text()))
        code, out, err = run_cli(
            "batch", "--n", "3", "--order", "4", "--cache", str(cache), capsys=capsys
        )
        assert code == 2
        assert out == ""
        assert f"corrupted cache entry {entry}" in err

    def test_boolean_order_names_its_file(self, tmp_path, capsys):
        # "order": true equals 1, this entry's order, but the writer puts 1 there.
        from mahlerq import Model
        from mahlerq.cli import cache_path

        cache = tmp_path / "cache"
        run_cli("batch", "--n", "3", "--order", "1", "--cache", str(cache), capsys=capsys)
        entry = Path(cache_path(str(cache), Model.from_kvector((3, 3, 3)), 1))
        entry.write_text(as_written({**json.loads(entry.read_text()), "order": True}))
        code, out, err = run_cli(
            "batch", "--n", "3", "--order", "1", "--cache", str(cache), capsys=capsys
        )
        assert (code, out) == (2, "")
        assert f"corrupted cache entry {entry}" in err

    def test_summary_counts_fractional_models(self, tmp_path, capsys):
        code, out, _ = run_cli(
            "batch", "--n", "3", "--order", "4", "--cache", str(tmp_path / "c"),
            capsys=capsys,
        )
        # (3,3,3) has bhat_2 = -9/2: one model with a fractional entry
        assert out.endswith("models=3 all_integer=2 with_fractional=1 failed_checks=0\n")

    def test_summary_counts_failed_checks(self, tmp_path, capsys):
        from mahlerq import Model
        from mahlerq.cli import cache_path

        cache = tmp_path / "cache"
        run_cli("batch", "--n", "3", "--order", "4", "--cache", str(cache), capsys=capsys)
        entry = Path(cache_path(str(cache), Model.from_kvector((2, 4, 4)), 4))
        payload = json.loads(entry.read_text())
        # A check that the entry's columns do not give: it reads q, Q and
        # their k-th roots, which the entry does not keep.
        payload["checks"]["proposition_qQ_integral"] = False
        entry.write_text(as_written(payload))
        code, out, _ = run_cli(
            "batch", "--n", "3", "--order", "4", "--cache", str(cache), capsys=capsys
        )
        assert code == 0
        assert out == (
            "3 cached, 0 computed\n"
            "models=3 all_integer=2 with_fractional=1 failed_checks=1\n"
        )

    def test_failed_product_form_writes_no_entry(self, tmp_path, monkeypatch, capsys):
        from mahlerq import Model
        from mahlerq.cli import cache_path

        corrupt_exponents(monkeypatch, Model.from_kvector((3, 3, 3)), 4, "u", False, 3)
        cache = tmp_path / "cache"
        code, out, err = run_cli(
            "batch", "--n", "3", "--order", "4", "--jobs", "1", "--cache", str(cache),
            capsys=capsys,
        )
        assert code == 3
        assert out == ""
        assert err == (
            "internal-consistency fault: u-series product form fails for model 3,3,3 "
            "at order 4\n"
        )
        # (3,3,3) is listed last; the two models before it are written.
        assert sorted(cache.glob("*.json")) == sorted(
            Path(cache_path(str(cache), Model.from_kvector(kv), 4))
            for kv in ((2, 3, 6), (2, 4, 4))
        )

    def test_cache_equals_fresh_report(self, tmp_path, capsys):
        from mahlerq import Model, integrality_report
        from mahlerq.cli import cache_path, report_json_text

        cache = tmp_path / "cache"
        run_cli("batch", "--n", "3", "--order", "5", "--cache", str(cache), capsys=capsys)
        model = Model.from_kvector((2, 4, 4))
        cached = Path(cache_path(cache, model, 5)).read_text()
        assert cached == report_json_text(integrality_report(model, 5))


@pytest.fixture
def default_digit_limit():
    """Python's default limit on int <-> str digits, restored afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(previous)


@pytest.mark.usefixtures("default_digit_limit")
class TestPastTheDigitLimit:
    """n = 5 reports hold integers of more than 4300 decimal digits."""

    PARTS = (2, 3, 7, 43, 1806)
    NAME = "2,3,7,43,1806"

    def test_verify_json_reads_back(self, capsys):
        from fractions import Fraction

        from mahlerq import Model, integrality_report

        code, out, err = run_cli(
            "verify", "--model", self.NAME, "--order", "6", "--format", "json",
            capsys=capsys,
        )
        assert code == 0, err
        printed = max(map(Fraction, json.loads(out)["u"]), key=abs)
        rep = integrality_report(Model.from_kvector(self.PARTS), 6)
        exact = max(rep.u.coeffs[1:], key=abs)
        assert printed == exact
        assert len(str(abs(exact.numerator))) > 4300

    def test_series_g0(self, capsys):
        from mahlerq import Model
        from mahlerq.mirror import period_coefficients

        code, out, err = run_cli(
            "series", "--model", self.NAME, "--order", "8", "--which", "g0",
            capsys=capsys,
        )
        assert code == 0, err
        assert out.split()[8] == str(period_coefficients(Model.from_kvector(self.PARTS), 8)[8])

    def test_batch_cache_round_trip(self, tmp_path, capsys, monkeypatch):
        import mahlerq.cli as cli
        from mahlerq import Model, integrality_report
        from mahlerq.cli import cache_path, report_json_text
        from mahlerq.weights import KVector

        monkeypatch.setattr(cli, "enumerate_solutions", lambda n: [KVector(self.PARTS)])
        cache = tmp_path / "cache"
        for expected in ("0 cached, 1 computed", "1 cached, 0 computed"):
            code, out, err = run_cli(
                "batch", "--n", "5", "--order", "6", "--cache", str(cache), capsys=capsys
            )
            assert code == 0, err
            assert out.startswith(expected)
        model = Model.from_kvector(self.PARTS)
        cached = Path(cache_path(str(cache), model, 6)).read_text()
        assert cached == report_json_text(integrality_report(model, 6))


class TestBatchWorkerFailures:
    """Two workers under ``--jobs 2``: this process writes 2,3,6 and then
    3,3,3, one forked child writes 2,4,4; capfd captures both stderrs."""

    @pytest.fixture
    def patch_report(self, monkeypatch):
        """Make ``integrality_report`` run ``fault`` first for one model (2,4,4
        unless named); each call adds one fault."""
        import mahlerq.cli as cli

        def patch(fault, name="2,4,4"):
            exact = cli.integrality_report

            def report(model, order):
                if model.name == name:
                    fault()
                return exact(model, order)

            monkeypatch.setattr(cli, "integrality_report", report)

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        # This process is worker 0: it keeps the CPU mask of the test run.
        monkeypatch.setattr(os, "sched_setaffinity", lambda pid, mask: None, raising=False)
        return patch

    def run_batch(self, cache, capfd):
        pid = os.getpid()
        code = main(["batch", "--n", "3", "--order", "4", "--jobs", "2",
                     "--cache", str(cache)])
        out, err = capfd.readouterr()
        assert os.getpid() == pid
        assert list(cache.glob("*.tmp")) == []
        return code, out, err

    def test_consistency_fault_exits_3(self, tmp_path, capfd, patch_report):
        from mahlerq.inversion import ConsistencyError

        def fault():
            raise ConsistencyError("u-series routes disagree for model 2,4,4 at m=1")

        patch_report(fault)
        code, out, err = self.run_batch(tmp_path / "cache", capfd)
        assert code == 3
        assert out == ""
        assert err == (
            "internal-consistency fault: u-series routes disagree for model 2,4,4 at m=1\n"
        )

    @pytest.mark.parametrize("name, written", [
        ("2,3,6", [(2, 4, 4)]),
        ("2,4,4", [(2, 3, 6), (3, 3, 3)]),
    ], ids=["own-share", "child-share"])
    def test_each_worker_stops_at_its_own_first_failure(
        self, tmp_path, capfd, patch_report, name, written
    ):
        # A fault stops the worker it happens in, this process or its child;
        # the other worker finishes its share.
        from mahlerq import Model, integrality_report
        from mahlerq.cli import cache_path, report_json_text
        from mahlerq.inversion import ConsistencyError

        def fault():
            raise ConsistencyError(f"u-series routes disagree for model {name} at m=1")

        patch_report(fault, name)
        cache = tmp_path / "cache"
        code, out, err = self.run_batch(cache, capfd)
        assert code == 3
        assert out == ""
        assert err == (
            f"internal-consistency fault: u-series routes disagree for model {name} at m=1\n"
        )
        models = [Model.from_kvector(kv) for kv in written]
        entries = [Path(cache_path(str(cache), model, 4)) for model in models]
        assert sorted(cache.glob("*.json")) == sorted(entries)
        for model, entry in zip(models, entries):
            assert entry.read_text() == report_json_text(integrality_report(model, 4))

    def test_own_failure_takes_precedence_over_a_child_failure(
        self, tmp_path, capfd, patch_report
    ):
        from mahlerq.inversion import ConsistencyError
        from mahlerq.mirror import ConvergenceError

        def consistency():
            raise ConsistencyError("u-series routes disagree for model 2,3,6 at m=1")

        def convergence():
            raise ConvergenceError("model 2,4,4")

        patch_report(consistency, "2,3,6")
        patch_report(convergence)
        code, out, err = self.run_batch(tmp_path / "cache", capfd)
        assert code == 3
        assert out == ""
        assert sorted(err.splitlines()) == [
            "internal-consistency fault: u-series routes disagree for model 2,3,6 at m=1",
            "outside disk of convergence: model 2,4,4",
        ]

    def test_killed_worker_exits_2(self, tmp_path, capfd, patch_report):
        parent = os.getpid()

        def kill():
            # A kill in this process would end the test run itself.
            assert os.getpid() != parent, "report computed without a fork"
            os.kill(os.getpid(), signal.SIGKILL)

        patch_report(kill)
        code, out, err = self.run_batch(tmp_path / "cache", capfd)
        assert code == 2
        assert out == ""
        assert err == (
            "error: batch worker for model 2,4,4 was killed by signal "
            f"{int(signal.SIGKILL)}\n"
        )


@contextmanager
def no_digit_limit():
    """Lift Python's limit on int <-> str digits, restoring it afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


NAN = float("nan")
BIG = -(7**6000)  # 5071 decimal digits, past the default limit of 4300
# Drawn by a map, since hypothesis would print a plain st.just(BIG) with repr.
BIG_INTS = st.sampled_from([1, -1]).map(lambda sign: sign * BIG)
# Every class of character that ensure_ascii treats apart: quote, backslash,
# the named and the \u00XX control escapes, DEL (also \u007f), non-ASCII in
# the BMP, a lone surrogate, and astral characters (a surrogate pair each).
SPECIAL = st.sampled_from(
    ['"', "\\", "\n", "\r", "\t", "\b", "\f", "\x00", "\x1f", "\x7f", "/",
     "a", "7", "\u00e9", "\u2028", "\ufeff", "\ud800", "\U0001f600", "\U0010ffff"]
)
JSON_STRINGS = st.one_of(st.text(), st.text(SPECIAL))
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), BIG_INTS, JSON_STRINGS),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(JSON_STRINGS, children, max_size=4),
    ),
    max_leaves=24,
)


class TestJsonWriter:
    """The CLI's JSON writer prints what json.dumps prints, byte for byte."""

    @settings(max_examples=400, deadline=None)
    @given(JSON_VALUES)
    @example({"b": [BIG, -BIG, 0, -1], '"\\\x00\x7f': "\u00e9\U0001f600", "": {}, "l": []})
    @example([[], {}, [[]], None, True, False, ""])
    def test_equals_json_dumps(self, value):
        with no_digit_limit():
            assert _json_text(value, 2) == json.dumps(value, indent=2)
            assert _json_text(value) == json.dumps(value)

    def test_refuses_what_json_refuses(self):
        for value in (1.5, (1, 2), {1: "a"}, object()):
            with pytest.raises((TypeError, AttributeError)):
                _json_text([value])


# Every n <= 3 model at orders 1-6, every n = 4 model at order 10 (the
# diagonal ones carry div_n), weights models whose reports have fractional
# entries and false verdicts, and a name that needs escapes.
REPORT_CASES = [
    *((Model.from_kvector(kv), order) for n in (2, 3) for kv in enumerate_solutions(n)
      for order in range(1, 7)),
    *((Model.from_kvector(kv), 10) for kv in enumerate_solutions(4)),
    (Model.from_weights(5, (2, 2, 1)), 12),
    (Model.from_weights(9, (4, 3, 2)), 12),
    (Model.from_weights(7, (3, 2, 2)), 8),
    (Model.from_kvector((3, 3, 3), name='3"3\\3 \u00e9'), 4),
]


class TestReportText:
    """A report's JSON text is what json.dumps prints of its parsed self, and
    the report that its own columns give renders to the same text."""

    @pytest.mark.parametrize("model, order", REPORT_CASES,
                             ids=[f"{model.name}@{order}" for model, order in REPORT_CASES])
    def test_is_json_dumps_and_rebuilds_to_itself(self, model, order):
        report = integrality_report(model, order)
        text = report_json_text(report)
        payload = json.loads(text)
        assert text == json.dumps(payload, indent=2) + "\n"
        assert report_json_text(IntegralityReport.from_json_dict(model, payload)) == text
        assert payload["rows"] == report.rows()


# Characters that make or break JSON syntax, and a control character, which
# a string may not hold unescaped.
MUTATIONS = st.sampled_from(list('{}[]",:0-1e.\\u') + ["\x01"])


class TestJsonReader:
    """The cache reader reads what json.loads reads, and refuses floats."""

    @settings(max_examples=400, deadline=None)
    @given(JSON_VALUES, st.sampled_from([None, 2]))
    @example({"b": [BIG, -BIG, 0, -1], '"\\\x00\x7f': "\u00e9\U0001f600", "": {}}, 2)
    def test_reads_back_what_the_writer_writes(self, value, indent):
        with no_digit_limit():
            assert _json_load(_json_text(value, indent)) == value

    @settings(max_examples=400, deadline=None)
    @given(JSON_VALUES, st.sampled_from([None, 2]), st.lists(
        st.tuples(st.integers(min_value=0), st.booleans(), MUTATIONS),
        min_size=1, max_size=3,
    ))
    @example([1, "a", {"b": None}], None, [(2, True, "."), (3, True, "0")])  # a float
    @example([1, "a", {"b": None}], None, [(5, False, "\x01")])  # a raw control char
    def test_agrees_with_json_loads_on_mutated_text(self, value, indent, edits):
        with no_digit_limit():
            text = _json_text(value, indent)
            for at, insert, char in edits:
                at %= len(text) + 1
                text = text[:at] + char + text[at + (not insert):]
            numbers = []  # each float or constant json.loads met
            try:
                expected = json.loads(
                    text, parse_float=numbers.append, parse_constant=numbers.append
                )
            except ValueError:
                numbers = None
            if numbers == []:
                assert _json_load(text) == expected
            else:
                with pytest.raises(ValueError):
                    _json_load(text)

    def test_whitespace_bom_trailing_data_and_truncation(self):
        from mahlerq import Model, integrality_report
        from mahlerq.cli import report_json_text

        assert _json_load(" \t\n\r[1, {}]\r\n\t ") == [1, {}]
        for text in ("\ufeff[]", "[1] [2]", "{} x", "[]]", "1 2", "", " ", "[1.5]",
                     "-Infinity", "[1e3]"):
            with pytest.raises(ValueError):
                _json_load(text)
        entry = report_json_text(integrality_report(Model.from_kvector((2, 2)), 3))
        assert _json_load(entry)["order"] == 3
        for cut in range(len(entry.rstrip())):
            with pytest.raises(ValueError):
                _json_load(entry[:cut])


class TestWriteAtomic:
    def test_replaces_an_existing_file(self, tmp_path):
        target = tmp_path / "report.json"
        target.write_text("old contents")
        write_atomic(str(target), "new contents\n")
        assert target.read_text() == "new contents\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_file_mode_is_0600(self, tmp_path):
        target = tmp_path / "report.json"
        write_atomic(str(target), "{}")
        assert stat.S_IMODE(target.stat().st_mode) == 0o600

    def test_failed_rename_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        target = tmp_path / "report.json"
        target.write_text("old contents")

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            write_atomic(str(target), "new contents")
        assert list(tmp_path.glob("*.tmp")) == []
        assert target.read_text() == "old contents"


class TestBatchWorkers:
    @staticmethod
    def report_cpus(monkeypatch, installed, usable):
        """``installed`` from ``os.cpu_count`` and ``usable`` from
        ``os.sched_getaffinity``, or no ``sched_getaffinity`` when ``usable``
        is None."""
        monkeypatch.setattr(os, "cpu_count", lambda: installed)
        if usable is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: usable, raising=False)

    @pytest.mark.parametrize(
        "jobs, cpus, pending, expected",
        [
            (4, 2, 14, 2),
            (2, 8, 14, 2),
            (8, 8, 3, 3),
            (4, 8, 1, 1),
            (4, None, 14, 1),
            (1, 8, 14, 1),
        ],
    )
    def test_clamped_to_cpus_and_pending_reports(
        self, monkeypatch, jobs, cpus, pending, expected
    ):
        self.report_cpus(monkeypatch, cpus, set(range(cpus)) if cpus else None)
        assert batch_workers(jobs, pending) == expected

    @pytest.mark.parametrize("usable, expected", [
        ({0}, 1),  # e.g. under taskset -c 0
        ({3, 5}, 2),
        (None, 4),  # no mask to read: the CPUs installed
    ], ids=["one-usable", "two-usable", "no-mask"])
    def test_counts_usable_cpus_not_installed_ones(self, monkeypatch, usable, expected):
        self.report_cpus(monkeypatch, 8, usable)
        assert batch_workers(4, 14) == expected

    def test_one_worker_without_fork(self, monkeypatch):
        self.report_cpus(monkeypatch, 8, set(range(8)))
        monkeypatch.delattr(os, "fork")
        assert batch_workers(4, 14) == 1


class TestMeasure:
    def test_psi_2(self, capsys):
        code, out, _ = run_cli(
            "measure", "--model", "2,2", "--psi", "2", "--order", "64", capsys=capsys
        )
        assert code == 0
        value = float(out.splitlines()[0].split("=")[1])
        import math

        assert abs(value - math.log((2 + math.sqrt(3)) / 2)) < 1e-9

    def test_outside_disk_exits_4(self, capsys):
        code, _, err = run_cli(
            "measure", "--model", "3,3,3", "--psi", "0.1", capsys=capsys
        )
        assert code == 4
        assert "convergence" in err

    def test_bad_usage_exits_2(self, capsys):
        code, _, _ = run_cli("measure", "--model", "2,2", capsys=capsys)  # no --psi
        assert code == 2

    def test_measure_beyond_float_range_exits_2(self, capsys):
        code, out, err = run_cli(
            "measure", "--model", "3,3,3", "--psi", "1e400", "--order", "5", capsys=capsys
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: M(F_psi) = exp(") and err.endswith(f"psi = 1{'0' * 400}\n")

    @pytest.mark.parametrize("model, psi, noted", [
        ("2,3,6", "37/80", True), ("2,3,6", "1/2", False), ("2,2", "2", False),
    ])
    def test_notes_a_psi_below_n_over_k(self, capsys, model, psi, noted):
        # Below n/k, F_psi vanishes on the torus and the printed value is not
        # m(F_psi); stdout and the exit code stay as they are.
        code, out, err = run_cli("measure", "--model", model, "--psi", psi, capsys=capsys)
        assert code == 0 and out.startswith("m(F_psi) = ")
        note = (
            "note: psi = 37/80 is below n/k = 1/2, where F_psi vanishes on the torus, "
            "so the value printed is log psi - f(z)/k and not m(F_psi)\n"
        )
        assert err == (note if noted else "")

    @pytest.mark.parametrize("text, code", [
        ("2", 0), ("5/2", 0), (" 5/2 ", 0), ("+5/2", 0), ("0.1", 4), ("1e-1", 4),
        ("abc", 2), ("1/0", 2), ("-2", 2),
    ])
    def test_psi_reads_as_fraction_of_its_text(self, monkeypatch, capsys, text, code):
        from fractions import Fraction

        from mahlerq import cli

        argv = ("measure", "--model", "3,3,3", "--psi", text, "--order", "24")
        got = run_cli(*argv, capsys=capsys)
        assert got[0] == code

        def fraction_psi(text):
            value = Fraction(text)
            return value.numerator, value.denominator

        monkeypatch.setattr(cli, "parse_psi", fraction_psi)
        assert run_cli(*argv, capsys=capsys) == got


# Command lines that both parsers accept, for every command: defaults, each
# choice, --opt=value, repeated options and negative integers.
VALID_ARGV = [
    ("enumerate", "--n", "3"),
    ("enumerate", "--n=-2"),
    *[("enumerate", "--n", "4", "--format", fmt) for fmt in ("table", "json", "csv")],
    ("series", "--model", "2,2", "--order", "4"),
    *[("series", "--model", "2,2", "--order", "4", "--which", key) for key in _SERIES_KEYS],
    *[("series", "--weights=6:3,2,1", "--order=2", f"--format={fmt}")
      for fmt in ("table", "json", "csv")],
    ("pf",),
    ("pf", "--model", "3,3,3"),
    ("pf", "--weights", "6:3,2,1"),
    ("pf", "--model=3,3,3", "--format", "json"),
    ("pf", "--model", "2,2", "--model", "3,3,3", "--format", "json", "--format", "table"),
    ("verify", "--model", "3,3,3", "--order", "10"),
    *[("verify", "--model", "3,3,3", "--order", "4", "--format", fmt)
      for fmt in ("table", "json", "csv")],
    ("verify", "--model", "3,3,3", "--order", "-1"),
    ("verify", "--order", "5", "--model", "2,2", "--order", "7"),
    ("verify", "--weights", "6:3,2,1", "--order", "3", "--out", "report.json"),
    ("verify", "--model=", "--order=3", "--out="),
    ("batch", "--n", "4", "--order", "10"),
    ("batch", "--n", "4", "--order", "10", "--jobs", "2", "--cache", "./cache"),
    ("batch", "--jobs=-3", "--n", "2", "--order", "1", "--jobs", "0"),
    ("measure", "--model", "2,2", "--psi", "2"),
    ("measure", "--model", "2,2", "--psi", "-2", "--order", "64"),
    ("measure", "--psi=5/2", "--order=-1", "--weights=12:4,3,3,2"),
]

# Command lines the CLI refuses with exit 2, and the option or command the
# error must name.
REFUSED_ARGV = [
    ((), "command"),
    (("frobnicate",), "frobnicate"),
    (("--frobnicate",), "--frobnicate"),
    (("verify", "--mod", "2,2", "--ord", "2"), "--mod"),
    (("verify", "--model", "2,2", "--order", "3", "--frob", "1"), "--frob"),
    (("verify", "--model", "2,2", "--order", "3", "--version"), "--version"),
    (("verify", "--model", "2,2", "--order", "3", "extra"), "extra"),
    (("verify", "--model", "2,2", "--order"), "--order"),
    (("verify", "--model", "--order", "3"), "--model"),
    (("verify", "--model", "2,2"), "--order"),
    (("batch", "--n", "4"), "--order"),
    (("enumerate", "--format", "json"), "--n"),
    (("measure", "--model", "2,2"), "--psi"),
    (("verify", "--model", "2,2", "--order", "3", "--format", "xml"), "--format"),
    (("pf", "--model", "2,2", "--format", "csv"), "--format"),
    (("series", "--model", "2,2", "--order", "3", "--which", "Z"), "--which"),
    (("verify", "--model", "2,2", "--order", "x"), "--order"),
    (("batch", "--n", "4", "--order", "10", "--jobs", "1.5"), "--jobs"),
    (("enumerate", "--n="), "--n"),
]


def oracle_subparsers():
    """Command name -> its argparse subparser in the reference parser."""
    actions = build_parser()._subparsers._group_actions
    return actions[0].choices


class TestParser:
    @pytest.mark.parametrize("argv", VALID_ARGV, ids=" ".join)
    def test_values_equal_the_argparse_reference(self, argv):
        assert vars(parse_args(list(argv))) == vars(build_parser().parse_args(argv))

    def test_every_command_and_option_is_covered(self):
        for command, sub in oracle_subparsers().items():
            flags = {
                flag for argv in VALID_ARGV if argv[0] == command
                for token in argv[1:] if token.startswith("--")
                for flag in [token.partition("=")[0]]
            }
            declared = {a.option_strings[-1] for a in sub._actions} - {"--help"}
            assert flags == declared, command
        assert list(COMMANDS) == list(oracle_subparsers())

    def test_negative_order_fails_the_handler_check(self, capsys):
        code, out, err = run_cli(
            "verify", "--model", "3,3,3", "--order", "-1", capsys=capsys
        )
        assert code == 2
        assert out == ""
        assert err == "error: need --order at least 1\n"

    @pytest.mark.parametrize("argv, message", [
        (("series", "--model", "3,3,3", "--order", "0"), "need --order at least 1"),
        (("batch", "--n", "1", "--order", "4"), "need --n at least 2"),
        (("measure", "--model", "3,3,3", "--psi", "2", "--order", "0"),
         "order must be at least 1"),
        (("verify", "--weights", "3:3", "--order", "3"),
         "a weight system needs at least two weights"),
        (("measure", "--weights", "3:3", "--psi", "2"),
         "a weight system needs at least two weights"),
    ], ids=["series-order-0", "batch-n-1", "measure-order-0", "verify-one-weight",
            "measure-one-weight"])
    def test_out_of_range_values_fail_their_checks(self, capsys, argv, message):
        assert run_cli(*argv, capsys=capsys) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv, named", REFUSED_ARGV, ids=[" ".join(a) or "no command" for a, _ in REFUSED_ARGV]
    )
    def test_usage_errors_exit_2_and_name_the_cause(self, capsys, argv, named):
        code, out, err = run_cli(*argv, capsys=capsys)
        command = argv[0] if argv and argv[0] in COMMANDS else "mahlerq"
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {command}: ")
        assert err.count("\n") == 1
        assert named in err

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_program_help(self, capsys, flag):
        code, out, err = run_cli(flag, capsys=capsys)
        assert code == 0
        assert err == ""
        assert out.startswith("usage: mahlerq ")
        for command in oracle_subparsers():
            assert f"\n  {command} " in out

    @pytest.mark.parametrize("command", list(oracle_subparsers()))
    def test_command_help_lists_every_option(self, capsys, command):
        first = next(argv for argv in VALID_ARGV if argv[0] == command)
        for argv in ((command, "--help"), (*first, "-h")):
            code, out, err = run_cli(*argv, capsys=capsys)
            assert code == 0
            assert err == ""
            assert out.startswith(f"usage: mahlerq {command} ")
            assert "\n  -h, --help " in out
            for action in oracle_subparsers()[command]._actions[1:]:
                (flag,) = action.option_strings
                assert f"\n  {flag} " in out, flag
                assert action.help is None or action.help in out

    def test_version(self, capsys):
        assert run_cli("--version", capsys=capsys) == (0, "0.1.0\n", "")


def run_forked_batch(cache, epilogue="", prologue="", options=()):
    """``batch --n 3 --order 5 --jobs 2`` and then ``options`` (the last value
    of an option wins) in a fresh ``python -S`` with two CPUs installed and
    usable, CPUs 0 and 1, stdout on a pipe; ``prologue`` runs before those
    CPUs are reported, ``epilogue`` after ``main``."""
    return subprocess.run(
        [
            sys.executable,
            "-S",
            "-c",
            "import os, sys\n"
            f"{prologue}\n"
            "os.cpu_count = lambda: 2\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "from mahlerq.cli import main\n"
            "code = main(sys.argv[1:])\n"
            f"{epilogue}\n"
            "sys.exit(code)",
            "batch", "--n", "3", "--order", "5", "--jobs", "2", "--cache", str(cache),
            *options,
        ],
        capture_output=True,
        text=True,
        cwd=SRC,
    )


class TestConsoleEntry:
    def test_module_invocation(self):
        # Run from the directory holding the package under test, so that the
        # child imports it whether or not the package is installed.
        proc = subprocess.run(
            [sys.executable, "-m", "mahlerq", "--version"],
            capture_output=True,
            text=True,
            cwd=SRC,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0.1.0"

    @pytest.mark.parametrize("argv, size", [
        (["verify", "--model", "3,3,3", "--order", "80", "--format", "json"], 65536),
        (["verify", "--model", "3,3,3", "--order", "8"], 0),
    ], ids=["json-past-a-pipe", "table"])
    def test_module_output_is_flushed_before_it_leaves(self, capsys, argv, size):
        # The module leaves through os._exit, which flushes nothing, so it
        # must flush first; the child's stdout is block buffered.  The JSON
        # report at order 80 is more than a 64 KiB pipe holds, so the child
        # blocks on the pipe until the parent reads; the table's last line
        # is the kind of tail a buffer keeps.
        proc = subprocess.run([sys.executable, "-m", "mahlerq", *argv],
                              capture_output=True, cwd=SRC, env=BUFFERED)
        assert proc.returncode == 0, proc.stderr
        assert main(argv) == 0
        expected = capsys.readouterr().out.encode()
        assert len(expected) > size
        assert proc.stdout == expected
        assert proc.stderr == b""

    def test_module_with_closed_stdout_exits_0(self):
        # print writes nothing where sys.stdout is None, and nothing is flushed.
        proc = subprocess.run(
            ["/bin/sh", "-c", 'exec "$0" -m mahlerq --version >&-', sys.executable],
            capture_output=True, text=True, cwd=SRC, env=BUFFERED,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""

    def test_module_on_a_broken_pipe_exits_as_teardown_does(self):
        # The table stays in the buffer until the flush, which fails on a
        # pipe with no reader; the module then leaves through sys.exit, and
        # the interpreter's own flush reports the broken pipe with exit 120.
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "mahlerq", "verify", "--model", "3,3,3", "--order", "8"],
                stdout=write, stderr=subprocess.PIPE, text=True, cwd=SRC, env=BUFFERED,
            )
        finally:
            os.close(write)
        assert proc.returncode == 120
        assert "BrokenPipeError" in proc.stderr

    @pytest.mark.parametrize("argv, code, message", [
        (["verify", "--model", "3,3", "--order", "4"], 2, "error: reciprocals"),
        (["verify", "--model", "3,3,3", "--order", "6"], 3, "internal-consistency fault"),
        (["measure", "--model", "3,3,3", "--psi", "1/10", "--order", "5"], 4,
         "outside disk of convergence"),
    ], ids=["usage", "consistency", "convergence"])
    def test_module_exit_codes(self, argv, code, message):
        # runpy runs the package's __main__ as -m does; a wrong log tail
        # makes the consistency fault.
        prologue = (
            "import runpy, sys\n"
            "import mahlerq.mirror as mirror\n"
            "from mahlerq import Series\n"
            "exact = mirror._log_tail\n"
            "def corrupted(*args):\n"
            "    result = exact(*args)\n"
            "    return result + Series([0, 0, 0, 1], result.order)\n"
            "if sys.argv[1:4] == ['verify', '--model', '3,3,3']:\n"
            "    mirror._log_tail = corrupted\n"
            "runpy.run_module('mahlerq', run_name='__main__', alter_sys=True)\n"
        )
        proc = subprocess.run([sys.executable, "-c", prologue, *argv],
                              capture_output=True, text=True, cwd=SRC, env=BUFFERED)
        assert proc.returncode == code
        assert proc.stdout == ""
        assert proc.stderr.startswith(message)

    def test_pool_is_not_imported_at_start_up(self):
        # Only `--format csv` needs csv, and no command needs json.  Each
        # command runs in a fresh process, so every module imported at
        # start-up is paid for by every run.
        unneeded = [
            "argparse",
            "json",
            "concurrent.futures.process",
            "dataclasses",
            "typing",
            "pathlib",
            "tempfile",
            "csv",
            "inspect",
            "ast",
            "__future__",
        ]
        proc = subprocess.run(
            [
                sys.executable,
                "-S",
                "-c",
                "import sys, mahlerq.cli\n"
                f"loaded = [m for m in {unneeded!r} if m in sys.modules]\n"
                "print([loaded, len(sys.modules)])",
            ],
            capture_output=True,
            text=True,
            cwd=SRC,
        )
        assert proc.returncode == 0, proc.stderr
        loaded, module_count = ast.literal_eval(proc.stdout)
        assert loaded == []
        # 46 modules on Python 3.11.7 (60 with fractions and the re, enum,
        # decimal and numbers it loads; 68 with argparse and json as well).
        assert module_count <= 46

    FRACTIONS_CHAIN = ["fractions", "decimal", "numbers", "re", "enum"]

    @pytest.mark.parametrize("argv, code", [
        ((), 0),
        (("--version",), 0),
        (("measure", "--model", "3,3,3", "--psi", "5/2", "--order", "40"), 0),
        (("measure", "--weights", "12:4,3,3,2", "--psi", "1"), 0),
        (("measure", "--model", "3,3,3", "--psi", "1/10"), 4),
        (("verify", "--model", "3,3,3", "--order", "6", "--format", "json"), 0),
        (("verify", "--weights", "12:4,3,3,2", "--order", "5"), 0),
        (("series", "--model", "3,3,3", "--order", "6", "--which", "h", "--format", "json"), 0),
    ], ids=["import", "version", "measure", "measure-weights", "measure-outside",
            "verify-json", "verify-table", "series-h-json"])
    def test_fractions_chain_is_not_loaded(self, argv, code):
        # measure runs on int pairs and verify on int columns; fractions
        # would bring re, enum, decimal and numbers, compiled afresh by every
        # run without bytecode.
        proc = subprocess.run(
            [
                sys.executable,
                "-S",
                "-c",
                "import sys\n"
                "from mahlerq.cli import main\n"
                "code = main(sys.argv[1:]) if sys.argv[1:] else 0\n"
                f"print([m for m in {self.FRACTIONS_CHAIN!r} if m in sys.modules],"
                " file=sys.stderr)\n"
                "sys.exit(code)",
                *argv,
            ],
            capture_output=True,
            text=True,
            cwd=SRC,
        )
        assert proc.returncode == code, proc.stderr
        assert proc.stderr.splitlines()[-1] == "[]"

    @pytest.mark.parametrize("argv, unneeded", [
        (("verify", "--model", "3,3,3", "--order", "4", "--format", "json"), ("json",)),
        (("measure", "--model", "2,2", "--psi", "2"), ("json",)),
        (("batch", "--n", "3", "--order", "4", "--jobs", "1", "--cache", "{cache}"),
         ("json",)),
    ], ids=["verify", "measure", "batch"])
    def test_no_parser_locale_or_archive_modules_after_a_command(
        self, tmp_path, argv, unneeded
    ):
        unneeded = ["argparse", "gettext", "locale", "shutil", "fnmatch", "bz2", "lzma",
                    *unneeded]
        proc = subprocess.run(
            [
                sys.executable,
                "-S",
                "-c",
                "import sys\n"
                "from mahlerq.cli import main\n"
                "code = main(sys.argv[1:])\n"
                f"print([m for m in {unneeded!r} if m in sys.modules], file=sys.stderr)\n"
                "sys.exit(code)",
                *(a.format(cache=tmp_path / "cache") for a in argv),
            ],
            capture_output=True,
            text=True,
            cwd=SRC,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "[]\n"

    def test_verify_imports_no_fractions_chain_or_json_when_started_cold(self, tmp_path):
        # As the benchmark starts its children: no site module, no bytecode
        # written, and a bytecode cache that is empty, so every module
        # imported is compiled from source.  -X importtime lists each one.
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPYCACHEPREFIX=str(tmp_path / "pyc"))
        proc = subprocess.run(
            [sys.executable, "-S", "-X", "importtime", "-m", "mahlerq", "verify",
             "--model", "3,3,3", "--order", "6", "--format", "json"],
            capture_output=True, text=True, cwd=SRC, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["rows"][0]["b"] == "9"
        imported = {
            line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:") and "|" in line
        }
        assert "mahlerq.inversion" in imported
        assert imported.isdisjoint(self.FRACTIONS_CHAIN + ["json"])

    def test_no_pool_or_thread_modules_after_a_forked_batch(self, tmp_path):
        unneeded = ["concurrent.futures", "multiprocessing", "threading", "socket"]
        proc = run_forked_batch(
            tmp_path / "cache",
            f"print([m for m in {unneeded!r} if m in sys.modules], file=sys.stderr)",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "[]\n"

    def test_no_process_of_a_batch_imports_json_when_started_cold(self, tmp_path):
        # Workers write their entries through the private writer and the
        # parent reads them back through the C scanner, so no process loads
        # json and the re and enum it brings, which a child started as the
        # benchmark starts it would compile from source on every run.
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPYCACHEPREFIX=str(tmp_path / "pyc"))
        unneeded = {"json", "json.decoder", "json.scanner", "re", "enum"}
        for summary in ("0 cached, 3 computed", "3 cached, 0 computed"):
            proc = subprocess.run(
                [sys.executable, "-S", "-X", "importtime", "-c",
                 "import os, sys\n"
                 "os.cpu_count = lambda: 2\n"
                 "os.sched_getaffinity = lambda pid: {0, 1}\n"
                 "from mahlerq.cli import main\n"
                 "sys.exit(main(sys.argv[1:]))",
                 "batch", "--n", "3", "--order", "4", "--jobs", "2",
                 "--cache", str(tmp_path / "cache")],
                capture_output=True, text=True, cwd=SRC, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.startswith(summary + "\n")
            imported = {
                line.rsplit("|", 1)[1].strip()
                for line in proc.stderr.splitlines()
                if line.startswith("import time:") and "|" in line
            }
            assert "mahlerq.inversion" in imported
            assert imported.isdisjoint(unneeded)

    @pytest.mark.parametrize("jobs, forks", [("2", 1), ("1", 0)])
    def test_forks_once_per_worker_but_the_first(self, tmp_path, jobs, forks):
        # Worker 0 is the process itself.
        proc = run_forked_batch(
            tmp_path / "cache",
            prologue="forks = []\n"
            "fork = os.fork\n"
            "def counted_fork():\n"
            "    forks.append(os.getpid())\n"
            "    return fork()\n"
            "os.fork = counted_fork",
            epilogue="print(len(forks), file=sys.stderr)",
            options=("--jobs", jobs),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("0 cached, 3 computed\n")
        assert proc.stderr == f"{forks}\n"

    def test_no_process_of_a_forked_batch_loads_fractions(self, tmp_path):
        # Workers compute and write their reports on ints, so neither the
        # forked one nor the parent, which is worker 0 and reads the entries
        # back, loads fractions (and with it re, enum, decimal and numbers).
        # The child reports as it leaves through os._exit, the parent after
        # main returns; one write per line, so that the lines do not
        # interleave.
        report = "os.write(2, b'%r\\n' % ('fractions' in sys.modules))"
        proc = run_forked_batch(
            tmp_path / "cache",
            prologue="_exit = os._exit\n"
            "def checked_exit(code):\n"
            f"    {report}\n"
            "    _exit(code)\n"
            "os._exit = checked_exit",
            epilogue=report,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "False\n" * 2

    def test_children_print_nothing_to_a_block_buffered_stdout(self, tmp_path):
        proc = run_forked_batch(tmp_path / "cache")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (
            "0 cached, 3 computed\n"
            "models=3 all_integer=2 with_fractional=1 failed_checks=0\n"
        )
        assert proc.stderr == ""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity masks")
class TestWorkerPlacement:
    """With forked workers, each worker, the parent too, starts on its own
    CPU.  ``os.sched_setaffinity`` is wrapped to log every call, one write
    each, so no test depends on where the host's scheduler puts a process.
    The process first takes the mask that CPUs 0 and 1 give on its host,
    so the mask the parent restores is the one it started with."""

    LOGGED = (
        "real_mask = os.sched_getaffinity\n"
        "place = os.sched_setaffinity\n"
        "try:\n"
        "    place(0, {0, 1})\n"
        "except OSError:\n"
        "    pass\n"
        "inherited = real_mask(0)\n"
        "def logged(pid, mask):\n"
        "    os.write(2, b'%d %r\\n' % (os.getpid(), sorted(mask)))\n"
        "    place(pid, mask)\n"
        "os.sched_setaffinity = logged"
    )
    # The parent's pid and whether its own mask is what it inherited.
    PARENT = "os.write(2, b'%d %r\\n' % (os.getpid(), real_mask(0) == inherited))"

    def placements(self, proc) -> tuple[str, dict[str, list]]:
        """The parent's pid and the masks each process set, by pid, after
        checking that the parent ends with the mask it started with."""
        assert proc.returncode == 0, proc.stderr
        *lines, parent = proc.stderr.splitlines()
        pid, unchanged = parent.split()
        assert unchanged == "True"
        calls = {}
        for line in lines:
            who, mask = line.split(" ", 1)
            calls.setdefault(who, []).append(ast.literal_eval(mask))
        return pid, calls

    def test_each_worker_starts_on_its_own_cpu_then_gets_the_mask_back(self, tmp_path):
        proc = run_forked_batch(tmp_path / "cache", self.PARENT, self.LOGGED)
        assert proc.stdout.startswith("0 cached, 3 computed\n")
        parent, calls = self.placements(proc)
        assert calls.pop(parent) == [[0], [0, 1]]
        assert list(calls.values()) == [[[1], [0, 1]]]

    def test_no_placement_without_forked_workers(self, tmp_path):
        cache = tmp_path / "cache"
        for options, summary in ((("--jobs", "1"), "0 cached, 3 computed"),
                                 ((), "3 cached, 0 computed")):
            proc = run_forked_batch(cache, self.PARENT, self.LOGGED, options)
            assert proc.stdout.startswith(summary + "\n")
            assert self.placements(proc)[1] == {}

    @pytest.mark.parametrize("prologue", [
        "def refuse(pid, mask):\n"
        "    raise OSError(22, 'Invalid argument')\n"
        "os.sched_setaffinity = refuse",
        "del os.sched_setaffinity",
    ], ids=["refused", "missing"])
    def test_workers_run_unplaced_where_a_mask_cannot_be_set(self, tmp_path, prologue):
        one, two = tmp_path / "one", tmp_path / "two"
        assert run_forked_batch(one, options=("--jobs", "1")).returncode == 0
        proc = run_forked_batch(two, prologue=prologue)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert proc.stdout.startswith("0 cached, 3 computed\n")
        assert sorted(p.name for p in two.iterdir()) == sorted(p.name for p in one.iterdir())
        for path in one.iterdir():
            assert path.read_bytes() == (two / path.name).read_bytes()
