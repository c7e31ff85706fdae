"""End-to-end CLI behaviour: exit codes, JSON payloads, determinism, caps."""

import json

import pytest

from bodenhu import cli
from bodenhu.cli import main
from conftest import ALPHA_9_4, ALPHA_11_3

ALPHA_9_4_ARG = ",".join(ALPHA_9_4)
GENERIC_3 = "1/7,2/7,4/7"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


class TestCheck:
    def test_reference_point_fails(self, capsys):
        code, payload = run_json(
            capsys, "check", "--alpha", ALPHA_9_4_ARG, "--mode", "semismall"
        )
        assert code == 1
        assert payload["command"] == "check"
        assert payload["n"] == 9
        assert payload["s"] == 4
        assert payload["mode"] == "semismall"
        assert payload["alpha"] == list(ALPHA_9_4)
        assert payload["holds"] is False
        witness = payload["witness"]
        assert witness["rotation_deltas"] == [3, 3, 3]
        assert witness["order"] == [0, 1, 2]
        assert witness["alpha"] == list(ALPHA_9_4)
        assert [tuple(b["support"]) for b in witness["blocks"]] == [
            (3, 4, 5), (6, 7, 8), (1, 2, 9),
        ]

    def test_listing_shows_both_orderings(self, capsys):
        code, payload = run_json(capsys, "check", "--alpha", ALPHA_9_4_ARG)
        assert code == 1
        listing = payload["partitions"]
        assert len(listing) == 1
        entry = listing[0]
        assert entry["id"] == 0
        assert entry["length"] == 3
        flags = {
            tuple(o["order"]): o["violates"] for o in entry["orderings"]
        }
        assert flags == {(0, 1, 2): True, (0, 2, 1): False}

    def test_generic_point_holds(self, capsys):
        code, payload = run_json(capsys, "check", "--alpha", GENERIC_3)
        assert code == 0
        assert payload["holds"] is True
        assert payload["witness"] is None
        assert payload["partitions"] == []

    def test_s_cross_check(self, capsys):
        code, out, err = run_cli(
            capsys, "check", "--alpha", ALPHA_9_4_ARG, "--s", "5"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_malformed_alpha(self, capsys):
        code, out, err = run_cli(capsys, "check", "--alpha", "1/7,junk,4/7")
        assert code == 2
        assert err.startswith("error:")

    def test_table_format(self, capsys):
        code, out, err = run_cli(
            capsys, "check", "--alpha", ALPHA_9_4_ARG, "--format", "table"
        )
        assert code == 1
        assert "FAILS" in out
        assert "order (0,1,2)" in out
        assert "violates" in out


class TestScan:
    def test_agrees_up_to_eight(self, capsys):
        code, payload = run_json(capsys, "scan", "--nmax", "8")
        assert code == 0
        assert payload["all_agree"] is True
        rows = payload["rows"]
        assert len(rows) == sum(n - 1 for n in range(2, 9))
        by_ns = {(r["n"], r["s"]): r for r in rows}
        assert by_ns[(6, 3)]["candidates"] == 15
        assert by_ns[(6, 3)]["classes"] == 30
        for row in rows:
            assert row["holds"] is True
            assert row["agree"] is True
            assert row["witness"] is None
            assert row["time_ms"] is None
            assert row["walls"] is None

    def test_failures_carry_witnesses(self, capsys):
        code, payload = run_json(capsys, "scan", "--nmax", "9")
        assert code == 0
        by_ns = {(r["n"], r["s"]): r for r in payload["rows"]}
        failing = by_ns[(9, 4)]
        assert failing["holds"] is False
        assert failing["oracle"] is False
        assert failing["agree"] is True
        assert failing["witness"]["rotation_deltas"] == [2, 2, 2]
        assert failing["witness"]["alpha"] is not None

    def test_with_walls(self, capsys):
        code, payload = run_json(
            capsys, "scan", "--nmax", "4", "--with-walls"
        )
        assert code == 0
        by_ns = {(r["n"], r["s"]): r for r in payload["rows"]}
        assert by_ns[(4, 2)]["walls"] == 1
        assert by_ns[(4, 1)]["walls"] == 0

    def test_timing_only_when_requested(self, capsys):
        code, payload = run_json(
            capsys, "scan", "--nmax", "4", "--no-deterministic"
        )
        assert code == 0
        for row in payload["rows"]:
            assert isinstance(row["time_ms"], float)

    def test_nmax_validation(self, capsys):
        code, out, err = run_cli(capsys, "scan", "--nmax", "1")
        assert code == 2
        assert err.startswith("error:")

    def test_table_format(self, capsys):
        code, out, err = run_cli(
            capsys, "scan", "--nmax", "6", "--format", "table"
        )
        assert code == 0
        assert "all rows agree" in out


class TestCounterexample:
    def test_reference_9_4(self, capsys):
        code, payload = run_json(
            capsys, "counterexample", "--n", "9", "--s", "4"
        )
        assert code == 1
        assert payload["alpha"] == list(ALPHA_9_4)
        triple = payload["triple"]
        assert triple["rotation_deltas"] == [3, 3, 3]
        assert [
            (tuple(b["support"]), b["degree"]) for b in triple["blocks"]
        ] == [((1, 2, 9), -1), ((3, 4, 5), -1), ((6, 7, 8), -2)]
        assert len(payload["checks"]) == 4
        assert all(c["ok"] for c in payload["checks"])

    def test_reference_11_3(self, capsys):
        code, payload = run_json(
            capsys, "counterexample", "--n", "11", "--s", "3"
        )
        assert code == 1
        assert payload["alpha"] == list(ALPHA_11_3)

    def test_out_of_range(self, capsys):
        code, out, err = run_cli(
            capsys, "counterexample", "--n", "8", "--s", "3"
        )
        assert code == 2
        assert err.startswith("error:")

    def test_table_format(self, capsys):
        code, out, err = run_cli(
            capsys,
            "counterexample", "--n", "10", "--s", "4", "--format", "table",
        )
        assert code == 1
        assert "[ok]" in out
        assert "FAIL" not in out


class TestWalls:
    def test_empty(self, capsys):
        code, payload = run_json(capsys, "walls", "--n", "2", "--s", "1")
        assert code == 0
        assert payload["count"] == 0
        assert payload["walls"] == []

    def test_4_2(self, capsys):
        code, payload = run_json(capsys, "walls", "--n", "4", "--s", "2")
        assert code == 0
        assert payload["count"] == 1
        assert payload["walls"] == [{"support": [1, 4], "degree": -1}]

    def test_table_format(self, capsys):
        code, out, err = run_cli(
            capsys, "walls", "--n", "4", "--s", "2", "--format", "table"
        )
        assert code == 0
        assert "walls n=4 s=2: 1" in out
        assert "{1,4}" in out


class TestFiber:
    def test_listing_without_id(self, capsys):
        code, payload = run_json(capsys, "fiber", "--alpha", ALPHA_9_4_ARG)
        assert code == 0
        assert [p["id"] for p in payload["partitions"]] == [0, 1, 2, 3, 4]
        assert payload["partitions"][0]["length"] == 3
        assert "beta" not in payload

    def test_reference_report(self, capsys):
        code, payload = run_json(
            capsys, "fiber", "--alpha", ALPHA_9_4_ARG, "--id", "0"
        )
        assert code == 0
        assert payload["genus"] == 2
        assert payload["stratum_codim"] == 79
        assert payload["partition"]["id"] == 0
        components = payload["components"]
        assert {c["dim"] for c in components} == {40, 37}
        assert {c["margin"] for c in components} == {-1, 5}
        for c in components:
            assert c["margin"] == payload["stratum_codim"] - 2 * c["dim"]
        assert payload["beta"] is not None

    def test_unknown_id(self, capsys):
        code, out, err = run_cli(
            capsys, "fiber", "--alpha", ALPHA_9_4_ARG, "--id", "99"
        )
        assert code == 2
        assert "ids 0..4" in err

    def test_genus_validation(self, capsys):
        code, out, err = run_cli(
            capsys,
            "fiber", "--alpha", ALPHA_9_4_ARG, "--id", "0", "--genus", "1",
        )
        assert code == 2
        assert err.startswith("error:")

    def test_table_formats(self, capsys):
        code, out, err = run_cli(
            capsys, "fiber", "--alpha", ALPHA_9_4_ARG, "--format", "table"
        )
        assert code == 0
        assert "rerun with --id" in out
        code, out, err = run_cli(
            capsys,
            "fiber", "--alpha", ALPHA_9_4_ARG, "--id", "0",
            "--format", "table",
        )
        assert code == 0
        assert "stratum codim = 79" in out


class TestSelftest:
    def test_small_run_passes(self, capsys):
        code, payload = run_json(
            capsys, "selftest", "--seed", "1", "--trials", "60"
        )
        assert code == 0
        assert payload["ok"] is True
        assert len(payload["suites"]) == 8

    def test_table_format(self, capsys):
        code, out, err = run_cli(
            capsys,
            "selftest", "--seed", "1", "--trials", "60", "--format", "table",
        )
        assert code == 0
        assert "8/8 suites passed" in out


class TestDeterminismAndCaps:
    def test_byte_identical_repeats(self, capsys):
        first = run_cli(capsys, "check", "--alpha", ALPHA_9_4_ARG)
        second = run_cli(capsys, "check", "--alpha", ALPHA_9_4_ARG)
        assert first == second
        first = run_cli(capsys, "scan", "--nmax", "7", "--format", "table")
        second = run_cli(capsys, "scan", "--nmax", "7", "--format", "table")
        assert first == second
        first = run_cli(
            capsys, "fiber", "--alpha", ALPHA_9_4_ARG, "--id", "0"
        )
        second = run_cli(
            capsys, "fiber", "--alpha", ALPHA_9_4_ARG, "--id", "0"
        )
        assert first == second

    def test_env_cap_blocks_large_scans(self, capsys, monkeypatch):
        monkeypatch.setenv("BODENHU_CAP_N", "6")
        code, out, err = run_cli(capsys, "scan", "--nmax", "7")
        assert code == 2
        assert "cap" in err

    def test_cap_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("BODENHU_CAP_N", "6")
        code, payload = run_json(
            capsys, "scan", "--nmax", "7", "--cap", "7"
        )
        assert code == 0
        assert payload["all_agree"] is True

    def test_invalid_env_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("BODENHU_CAP_N", "many")
        code, out, err = run_cli(capsys, "walls", "--n", "4", "--s", "2")
        assert code == 2
        assert err.startswith("error:")

    def test_check_respects_cap(self, capsys):
        code, out, err = run_cli(
            capsys, "check", "--alpha", ALPHA_9_4_ARG, "--cap", "8"
        )
        assert code == 2
        assert err.startswith("error:")


class TestInternalErrors:
    @pytest.mark.parametrize(
        "exc, code",
        [
            (AssertionError("injected invariant failure"), 3),
            (MemoryError("injected"), 3),
            (SystemError("injected"), 3),
            (ValueError("kernel supports at most 30 slots"), 2),
        ],
        ids=["assertion", "memory", "system", "value"],
    )
    def test_exit_code_for_failure_in_scan(self, capsys, monkeypatch, exc, code):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "scan_all_s", fail)
        got, out, err = run_cli(capsys, "scan", "--nmax", "4")
        assert got == code
        assert out == ""
        last = err.strip().splitlines()[-1]
        if code == 3:
            assert last == f"internal error: {type(exc).__name__}: {exc}"
        else:
            assert last == f"error: {exc}"
