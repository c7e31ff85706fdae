"""End-to-end CLI behaviour: exit codes, JSON payloads, determinism, caps."""

import hashlib
import json
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bodenhu import (
    MODES,
    ModuliContext,
    Wall,
    WeightVector,
    check_criterion,
    cli,
    enumerate_walls,
    is_generic,
    parse_weight_vector,
)
from bodenhu import _kernel, core, moduli, smallness, weightspace
from bodenhu._kernel import pure
from bodenhu.cli import main
from conftest import ALPHA_9_4, ALPHA_11_3, PURE_RUN_UNNAMED, TWINS

ALPHA_9_4_ARG = ",".join(ALPHA_9_4)
GENERIC_3 = "1/7,2/7,4/7"
# A dense N=12 point (every entry k/24): 167 partitions of length >= 3 and
# a check payload of about 200 kB; it fails in small mode and holds in
# semismall mode.
DENSE_12 = "1/24,1/8,5/24,1/3,5/12,1/2,7/12,5/8,2/3,3/4,19/24,23/24"
# A medium N=14 point (every entry k/60), the heaviest class of the query
# benchmark: 267 partitions of length >= 3 and a check payload of about
# 320 kB; it fails in small mode and holds in semismall mode.
MEDIUM_14 = (
    "1/60,1/30,7/60,1/4,3/10,7/20,17/30,7/12,19/30,7/10,47/60,17/20,13/15,19/20"
)
# A dense N=13 point (every entry k/26): 542 partitions, 385 of length >= 3.
DENSE_13 = (
    "1/13,5/26,3/13,4/13,9/26,5/13,6/13,19/26,10/13,21/26,11/13,23/26,25/26"
)
# An N=8 point on a wall whose common denominator is 2^79: the dense k/16
# point moved by 2^-70 along its perturbation direction.
BIG_DENOMINATOR_8 = (
    "75557863725914323419137/604462909807314587353088,3/16,5/16,"
    "226673591177742970257407/604462909807314587353088,"
    "377789318629571617095681/604462909807314587353088,11/16,"
    "453347182355485940514815/604462909807314587353088,15/16"
)

# An N=14 point of the query benchmark's medium class (every entry k/60):
# 133 partitions of length >= 3; it fails in small mode.
QUERY_14 = (
    "1/60,1/15,1/6,7/30,1/4,1/3,7/20,23/60,29/60,17/30,37/60,43/60,9/10,11/12"
)
# An N=13 point with the prime denominator 997 that still lies on walls: 12
# partitions, 3 of length >= 3; fiber moves off its walls to a generic beta.
NONGENERIC_13 = (
    "167/997,316/997,519/997,538/997,548/997,574/997,619/997,632/997,"
    "720/997,736/997,765/997,879/997,963/997"
)

# sha256 of "<exit code>\n<stdout>" for each invocation, in the json and the
# table format.  Stdout is a byte-stable contract, so any change to it shows
# here.
STDOUT_DIGESTS = {
    "check-9-4": (
        ["check", "--alpha", ALPHA_9_4_ARG],
        "f7a9fd76fe13048172683b0dfbd72f10735c81672b974c9167fb305fa1a3ca3c",
        "ea00d55f02dfe237e4ecb727d09b65775f1c0a48b604b074e9d45fe5bffc11d8",
    ),
    "check-generic": (
        ["check", "--alpha", GENERIC_3],
        "74da836b7a91416cb985a58ffefe82a66fbf339a617757d84d258de6ce973c0b",
        "a459d70cca4df2f62e0f26e4eed1cf355263f4beb4f4258e45ce9a97be0dc6fe",
    ),
    "scan-9-small": (
        ["scan", "--nmax", "9"],
        "bc94b62e5aee26b6c4bb0ae9b347078225e5b075be3cb5c378589fe67dd13194",
        "869904c62f555115feb595ef289a1f1cd20d4438554edeb261856efef61dc1eb",
    ),
    "scan-9-semismall": (
        ["scan", "--nmax", "9", "--mode", "semismall"],
        "e3c5681fd3b5fca3f4e3322f877f566ce123ea6c6b8d992bf3dae9619d24709e",
        "74898c2d38592449ed0bd2413aef90ee7915fdba4203757bebf3cca5b034bd8a",
    ),
    # N=11 is the first N whose s=3 row fails, so these pin a witness
    # found through the scan.
    "scan-11-small": (
        ["scan", "--nmax", "11"],
        "6da26ad37a413f693615a04df4780646bd66014bc8ee9d6bec2f1a4f9dcfa730",
        "fc78ee8f852eaf1062e521d0f312fb3f550b8d222a44cfe525e8b02cc6ee6fcb",
    ),
    "scan-11-semismall": (
        ["scan", "--nmax", "11", "--mode", "semismall"],
        "a506d11bbb8b7674a0741d24049421f034a239c5b473bd276f29b47e06c6122e",
        "fa93566a2370b1998d82cb7b2b88876a8a5b273d0cfa31c29361a53594fbd13d",
    ),
    # N=12 through the compiled kernel only (see DIGEST_RUNS).
    "scan-12-small": (
        ["scan", "--nmax", "12"],
        "3b66e8cc957c323e60a773502c71218c95c6b00f82d218a3a36687f03f158b5f",
        "21076b3bfaf837b94f0ad13e4c61e4d84f7a6c73dbf7079e251d817eb0f80362",
    ),
    "scan-12-semismall": (
        ["scan", "--nmax", "12", "--mode", "semismall"],
        "97a5b2b09144a7174c23f9952556a154853ceaca1939727d074d223be4f7ad24",
        "6903654634e02c3ab79beb0e621117938daef7031fd9aa8adc7adc4946468acb",
    ),
    "counterexample-9-4": (
        ["counterexample", "--n", "9", "--s", "4"],
        "346105beb545995a7dd0d539a0b9719d6cdb1825594d15c2ecbb2de84ae12c19",
        "5784e5c94f0425926b6df7c08709c978f1fb6567371fc6fb3b3a0326d3257914",
    ),
    "counterexample-10-6": (
        ["counterexample", "--n", "10", "--s", "6"],
        "a541d025f5dc43ac69f0e56cba3a564548b1a49c90297399707d8b000448b466",
        "41eb10a022c301c3c8c0b3a2bb496cfd9138ecc65f452cac6c50875b06ae1afd",
    ),
    "walls-6-3": (
        ["walls", "--n", "6", "--s", "3"],
        "2aa9e4a90261124e198d5e09381cb86e20e8b388e786c8cce0393ee98040b346",
        "b7c05cbd771798cbc87f3c76f055c5910bf66b909617a7b8b71371bf12d87d3f",
    ),
    "fiber-list": (
        ["fiber", "--alpha", ALPHA_9_4_ARG],
        "da56b8b3ce0e349839ed184516a9fd81b1d3df53b3534f2ceac0bf516f23bd91",
        "387ca2d5d14eee81b01871da94a9f4ec80d45ca1787cb6123fadb8a24ae857c9",
    ),
    "fiber-id-0": (
        ["fiber", "--alpha", ALPHA_9_4_ARG, "--id", "0"],
        "77c92897d6792b9c370a1739bd08f5858dc59bc1043b383a340053ba2d233064",
        "94e920445e7caf280e70c500c452b3b5d658bc751794b9f0de908eeb402921ca",
    ),
    "check-12-dense-small": (
        ["check", "--alpha", DENSE_12],
        "28a3725ad3cf85ab2135168b5fbc42fd0f48ba1e042f9e831c96b81c5a21ead9",
        "77df173bc2f75d9d0dcd9b1e2e958a72bb022669078177f44df0a0c1e32feac8",
    ),
    "check-12-dense-semismall": (
        ["check", "--alpha", DENSE_12, "--mode", "semismall"],
        "2c78d1423b8eb8cf0a35a61c788dea508ce1ffb52739fe78df95e4865ce5b175",
        "6aa05ead35e3e803e4b190a00aa859cf8108d03828bef9d0b470e8ae23fc6474",
    ),
    "fiber-12-dense-id-0": (
        ["fiber", "--alpha", DENSE_12, "--id", "0"],
        "fe50939d1bd3c5faea98e720e61c1c97023b7398f56aaf65897b1f280507d469",
        "ef7427e55a4deea4cfbfc2f297a13a71a2b3703130b9c55f23a50300aa52776f",
    ),
    "check-14-medium-small": (
        ["check", "--alpha", MEDIUM_14],
        "d7a0983b5f2cc7f828048655488f4596d375cda916be09bb486e6e564b9dae57",
        "5bda7b2f4f952aeeaee75c2f539679ba90e1a9aabdef143443559a2bd3c86c3a",
    ),
    "check-14-medium-semismall": (
        ["check", "--alpha", MEDIUM_14, "--mode", "semismall"],
        "8e60c980ca9ccf237cdd33d5f25df38f46fcb2f2687484180a5d316747034090",
        "f19ae20c86eb436b0c914b41afd00b7cdea8634844dab782fb5673a09c7619cb",
    ),
    "fiber-14-medium-id-0": (
        ["fiber", "--alpha", MEDIUM_14, "--id", "0"],
        "2d3ed9f4eeb59a8cc63432bcb230e3423ce882b4596ed0450572fe65b35b5677",
        "3abcde771e428fd3cb8a9b58e31169f79e72533770d39809a8fe81006e1f18b3",
    ),
    "fiber-13-dense-id-0": (
        ["fiber", "--alpha", DENSE_13, "--id", "0"],
        "411ab3bdb2636f868b67ddacd099e4e081cc460058ba2c647db76604defaf932",
        "e2b25c8afe6407d659072297a0775f1ec560959b8e31e0ae44cfa9d560451a6a",
    ),
    "check-13-dense-semismall": (
        ["check", "--alpha", DENSE_13, "--mode", "semismall"],
        "c090e8612dcef8bf621f8664ad1b32613e9f283936d99232289bdd12fdbeb7b8",
        "5e104989228956482a34fec5ca98481ec6d00d4dc2eabcd78e37c0acdd4d91fa",
    ),
    "fiber-13-dense-list": (
        ["fiber", "--alpha", DENSE_13],
        "bb5c40ba4db8cc57f1c7381b4ee25e8692dc51f570377587bf347a888425875e",
        "15dbcda7f24327cba7347cc425f37c5a4d705f15d67ba6c6cebeefa692dc43ad",
    ),
    "check-big-denominator": (
        ["check", "--alpha", BIG_DENOMINATOR_8],
        "f151e8c7068488b80935f6f42c58e95507cced4b5b969f05d12e39f102d9ffcf",
        "143b07e76d3bd5049435cc8de3ca4015d7c342393047c9ea77af74d4e6c43080",
    ),
    "check-14-query-small": (
        ["check", "--alpha", QUERY_14],
        "048fb70639a20be3eb64f9370b051c60805d36ff77e4141db9a7ce9fbe9caaf1",
        "60de0d6c1de689b13fc94d97a7c76f9dd6517c95970d8bd375c9a227856a0bce",
    ),
    "check-14-query-semismall": (
        ["check", "--alpha", QUERY_14, "--mode", "semismall"],
        "b5e9cd161363a00a495f95b0deb5c1f6b5a25ec33d61362c20189b360d33c56d",
        "5353a5b933528a8cc0d04807e8f1fb91bfc6d570d91bf02149bfe24bbb676d3d",
    ),
    "fiber-14-query-id-0": (
        ["fiber", "--alpha", QUERY_14, "--id", "0"],
        "5048ce4166572dcb86232b15dba8367898f156f1e0f20bce4a38e17b363c637c",
        "34a52cb4a0b54d2cff9340b79767a8579931f0e0956e382f92523071a79f30cd",
    ),
    "check-13-nongeneric-small": (
        ["check", "--alpha", NONGENERIC_13],
        "ceaa8a11312114e152b0bb8a58b729fa18e9a2944b012cce1817085b80fa00f1",
        "7c1d5652cdaaa378809453da6bb247afdf8d761632d72195faa26d3252d2e02e",
    ),
    "check-13-nongeneric-semismall": (
        ["check", "--alpha", NONGENERIC_13, "--mode", "semismall"],
        "4981bc169373d32ebc44ff1c3af5dd2965f5dbc3dd6bb4737809642ce24c2586",
        "cb4c961bf8869fc6e25b3abf908c7add99f394cdc27e93ae8ab3e0feec079401",
    ),
    "fiber-13-nongeneric-id-0": (
        ["fiber", "--alpha", NONGENERIC_13, "--id", "0"],
        "1be37696ca26c7110ed73ec3c24a8e7767abde1d7184a120eaf452df0f039cf4",
        "d2c1e218a5c3b35ce08deab7ab8c15b30195e40e2ff1f5ec7467351dc278d5b1",
    ),
    "selftest-20": (
        ["selftest", "--trials", "20"],
        "b45a44f2e2ff194d670255d35a79255ea7c0997e174fd11e56ebb2d568448eac",
        "c081cb6c2cacfcdfadc63028a3d5776e85c2451fcdc1c5f10ab88b0e9133c2a8",
    ),
}
# Cases that pin the compiled scan's rotation bound at N = 12, where the
# pure kernel would take minutes: they run on the compiled twin only.
COMPILED_SCAN_CASES = {"scan-12-small", "scan-12-semismall"}
# (case, format, twin) of every digest run: each case in both formats on
# both twins, with the ids of PURE_RUN_UNNAMED, but the COMPILED_SCAN_CASES
# on the compiled twin only, under the plain id.
DIGEST_RUNS = [
    pytest.param(case, fmt, twin, id=f"{prefix}{case}-{fmt}")
    for case in sorted(STDOUT_DIGESTS)
    for fmt in ("json", "table")
    for twin, prefix in (
        [("compiled", "")]
        if case in COMPILED_SCAN_CASES
        else [("pure", ""), ("compiled", "compiled-")]
    )
]


# One alpha per rejection class of WeightVector, with its exact message.  A
# sum s outside 0 < s < N has no entry here: N entries strictly between 0
# and 1 sum to strictly between 0 and N, so the earlier checks catch it.
REJECTED_ALPHAS = [
    ("1/2", "a weight vector needs at least two entries"),
    ("", "a weight vector needs at least two entries"),
    (" ", "a weight vector needs at least two entries"),
    ("1/3,,2/3", "weight entry 2 of 3 is empty"),
    ("1/3, ,2/3", "weight entry 2 of 3 is empty"),
    (",1/3,2/3", "weight entry 1 of 3 is empty"),
    ("1/3,2/3,", "weight entry 3 of 3 is empty"),
    ("1/2,", "weight entry 2 of 2 is empty"),
    ("0,1/3,2/3", "weights must lie strictly between 0 and 1"),
    ("-1/3,2/3,2/3", "weights must lie strictly between 0 and 1"),
    ("1/3,2/3,1", "weights must lie strictly between 0 and 1"),
    ("1/3,1/3,1/3", "weights must be strictly increasing"),
    ("1/2,1/4,1/4", "weights must be strictly increasing"),
    ("1/5,2/5,3/5,4/5,1/2", "weights must be strictly increasing"),
    ("1/7,2/7,5/7", "weights must sum to an integer, got 8/7"),
    ("1/3,1/2,2/3", "weights must sum to an integer, got 3/2"),
]


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

    @pytest.mark.parametrize("text, message", REJECTED_ALPHAS)
    def test_rejected_alpha(self, capsys, text, message):
        with pytest.raises(ValueError) as info:
            parse_weight_vector(text)
        assert str(info.value) == message
        code, out, err = run_cli(capsys, "check", f"--alpha={text}")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_blanks_around_entries_are_kept(self):
        assert parse_weight_vector(" 1/3, 2/3 ") == parse_weight_vector("1/3,2/3")

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


def no_wall_objects(monkeypatch):
    """Make building any Wall object fail."""

    def fail(*args):
        raise AssertionError("the CLI built a Wall object")

    monkeypatch.setattr(Wall, "__init__", fail)


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

    def test_wall_counts_are_the_listings(self, capsys, monkeypatch):
        expected = [
            (n, s, len(enumerate_walls(ModuliContext(n, s))))
            for n in range(2, 11)
            for s in range(1, n)
        ]
        no_wall_objects(monkeypatch)
        code, payload = run_json(
            capsys, "scan", "--nmax", "10", "--with-walls"
        )
        assert code == 0
        rows = [(r["n"], r["s"], r["walls"]) for r in payload["rows"]]
        assert rows == expected

    def test_timing_only_when_requested(self, capsys):
        # whole milliseconds: an int in JSON, its digits in the table
        code, payload = run_json(
            capsys, "scan", "--nmax", "6", "--no-deterministic"
        )
        assert code == 0
        for row in payload["rows"]:
            assert type(row["time_ms"]) is int and row["time_ms"] >= 0
        code, out, err = run_cli(
            capsys, "scan", "--nmax", "6", "--no-deterministic",
            "--format", "table",
        )
        assert code == 0 and err == ""
        header, *rows = out.splitlines()[:-1]
        column = header.split().index("time_ms")
        cells = [row.split()[column] for row in rows]
        assert len(cells) == len(payload["rows"])
        assert all(cell.isdigit() for cell in cells)

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

    def test_cap_is_checked_before_the_construction(
        self, capsys, monkeypatch
    ):
        def fail(*args):
            raise AssertionError("blocks listed past the cap")

        monkeypatch.setattr(_kernel, "admissible", fail)
        code, out, err = run_cli(
            capsys, "counterexample", "--n", "15", "--s", "5"
        )
        assert (code, out) == (2, "")
        assert err == "error: N=15 exceeds the enumeration cap 14\n"
        code, out, err = run_cli(
            capsys, "counterexample", "--n", "15", "--s", "15"
        )
        assert (code, out) == (2, "")
        assert err == "error: s=15 outside 0 < s < N=15\n"


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

    def test_payload_is_the_wall_objects(self, capsys, monkeypatch, twin):
        """walls prints the kernel's (mask, degree) pairs through its block
        formatter; they are the walls enumerate_walls lists as objects, on
        either twin.  The expected supports are read off the multiplicities,
        not through mask_support, the formatter's own helper."""
        expected = {
            (n, s): {
                "command": "walls",
                "n": n,
                "s": s,
                "count": len(found),
                "walls": [
                    {
                        "support": [
                            i + 1 for i, m in enumerate(w.m.mults) if m
                        ],
                        "degree": w.m.d_check,
                    }
                    for w in found
                ],
            }
            for n in range(2, 13)
            for s in range(1, n)
            for found in [enumerate_walls(ModuliContext(n, s))]
        }
        no_wall_objects(monkeypatch)
        for (n, s), payload in expected.items():
            argv = ("walls", "--n", str(n), "--s", str(s))
            assert run_cli(capsys, *argv) == (
                0, json.dumps(payload, indent=2) + "\n", ""
            )
            assert run_cli(capsys, *argv, "--format", "table") == (
                0, cli._table_walls(payload) + "\n", ""
            )

    def test_cap_is_checked_before_the_listing(self, capsys, monkeypatch):
        def fail(*args):
            raise AssertionError("walls listed past the cap")

        monkeypatch.setattr(_kernel, "walls", fail)
        code, out, err = run_cli(capsys, "walls", "--n", "15", "--s", "3")
        assert (code, out) == (2, "")
        assert err == "error: N=15 exceeds the enumeration cap 14\n"
        code, out, err = run_cli(capsys, "walls", "--n", "15", "--s", "15")
        assert (code, out) == (2, "")
        assert err == "error: s=15 outside 0 < s < N=15\n"


@pytest.mark.parametrize("twin", ["compiled"], indirect=True)
def test_compiled_commands_leave_the_python_formatters_alone(
    capsys, monkeypatch, twin
):
    """On the compiled twin the blocks and the JSON of walls, of a check
    that prints a witness and of fiber --id are built in C: pure.py's
    mask_support (bound in core too) and dumps are never called."""

    def fail(*args):
        raise AssertionError("a Python formatter ran")

    monkeypatch.setattr(pure, "mask_support", fail)
    monkeypatch.setattr(core, "mask_support", fail)
    monkeypatch.setattr(pure, "dumps", fail)
    for argv, code in [
        (["check", "--alpha", ALPHA_9_4_ARG], 1),
        (["fiber", "--alpha", ALPHA_9_4_ARG, "--id", "0"], 0),
    ]:
        got, out, err = run_cli(capsys, *argv)
        assert (got, err) == (code, "")
    # fiber may build a Wall in find_generic_near's is_generic; walls may not
    no_wall_objects(monkeypatch)
    code, payload = run_json(capsys, "walls", "--n", "9", "--s", "4")
    assert (code, payload["count"]) == (0, 223)


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
        for id_args in (["--id", "0"], []):  # the report and the listing
            code, out, err = run_cli(
                capsys,
                "fiber", "--alpha", ALPHA_9_4_ARG, *id_args, "--genus", "1",
            )
            assert code == 2
            assert out == ""
            assert err == "error: genus must be an integer >= 2, got 1\n"

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

    def test_cap_is_checked_before_the_listing(self, capsys, monkeypatch):
        def fail(*args):
            raise AssertionError("partitions listed past the cap")

        monkeypatch.setattr(_kernel, "alpha_shapes", fail)
        alpha = ",".join(f"{k}/20" for k in range(1, 16))
        for id_args in (["--id", "0"], []):
            code, out, err = run_cli(
                capsys, "fiber", "--alpha", alpha, *id_args
            )
            assert (code, out) == (2, "")
            assert err == "error: N=15 exceeds the enumeration cap 14\n"
        # the genus is still checked first
        code, out, err = run_cli(
            capsys, "fiber", "--alpha", alpha, "--genus", "1"
        )
        assert (code, out) == (2, "")
        assert err == "error: genus must be an integer >= 2, got 1\n"


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

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_trials_below_one_rejected(self, capsys, trials):
        code, out, err = run_cli(capsys, "selftest", "--trials", trials)
        assert code == 2
        assert out == ""
        assert err == "error: --trials must be at least 1\n"


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

    @pytest.mark.parametrize(
        "flag, env", [(["--cap", "31"], None), ([], "31")], ids=["flag", "env"]
    )
    def test_cap_above_kernel_limit_is_refused_up_front(
        self, capsys, monkeypatch, flag, env
    ):
        def fail(*args, **kwargs):
            raise AssertionError("scan started despite an unusable cap")

        monkeypatch.setattr(cli, "scan_all_s", fail)
        if env is not None:
            monkeypatch.setenv("BODENHU_CAP_N", env)
        code, out, err = run_cli(capsys, "scan", "--nmax", "31", *flag)
        assert code == 2
        assert out == ""
        assert err == (
            "error: cap 31 exceeds the scan kernels' limit of 30 slots\n"
        )
        code, out, err = run_cli(
            capsys, "walls", "--n", "4", "--s", "2", "--cap", "30"
        )
        assert code == 0

    def test_the_cap_is_the_clis_alone(self, capsys, twin):
        """The CLI refuses N = 15 unless its cap is raised; library calls
        take no cap and refuse only past the kernels' 30 slots."""
        alpha15 = ",".join(f"{k}/20" for k in range(1, 16))
        assert run_cli(capsys, "check", "--alpha", alpha15) == (
            2, "", "error: N=15 exceeds the enumeration cap 14\n"
        )
        verdict = check_criterion(parse_weight_vector(alpha15), "small")
        assert not verdict.holds
        assert verdict.witness.alpha == parse_weight_vector(alpha15)
        code, payload = run_json(
            capsys, "walls", "--n", "15", "--s", "2", "--cap", "15"
        )
        assert code == 0
        assert payload["count"] == len(enumerate_walls(ModuliContext(15, 2)))
        for call in (
            lambda: enumerate_walls(ModuliContext(31, 2)),
            lambda: smallness.scan_all_s(31, "small"),
        ):
            with pytest.raises(
                ValueError, match="^kernel supports 0 to 30 slots$"
            ):
                call()

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
            (ValueError("kernel supports 0 to 30 slots"), 2),
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


    @pytest.mark.parametrize("twin", TWINS, indirect=True)
    @pytest.mark.parametrize(
        "failure, message",
        [
            ("recheck", "AssertionError: witness weight vector failed the "
             "check_criterion re-check"),
            ("realise", "MemoryError: injected"),
        ],
    )
    def test_exit_code_for_failure_in_the_settle_callable(
        self, capsys, monkeypatch, twin, failure, message
    ):
        # raised inside the kernel's scan_shapes, from the callable that
        # settles each s: N = 9 is the first N with a violating candidate
        if failure == "recheck":
            monkeypatch.setattr(
                smallness, "check_criterion",
                lambda alpha, mode: smallness.Verdict(True, mode, None),
            )
        else:
            def fail(n, blocks):
                raise MemoryError("injected")

            monkeypatch.setattr(weightspace, "realise_blocks", fail)
        for mode in ("small", "semismall"):
            got, out, err = run_cli(capsys, "scan", "--nmax", "9", "--mode", mode)
            assert got == 3
            assert out == ""
            assert err.strip().splitlines()[-1] == f"internal error: {message}"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["check", "--alpha", ALPHA_9_4_ARG],
             "kernel record is not a witness: "
             "block supports must be pairwise disjoint"),
            (["fiber", "--alpha", ALPHA_9_4_ARG, "--id", "3"],
             "fiber report is inconsistent: "
             "margin must be genus independent"),
        ],
        ids=["witness", "fiber"],
    )
    def test_exit_code_for_a_result_its_own_checks_refuse(
        self, capsys, monkeypatch, argv, message
    ):
        # the package's checks of its own results raise AssertionError, not
        # the ValueError of bad input, however the checked constructors word it
        if argv[0] == "check":
            rate_orders = _kernel.rate_orders

            def zeroed(*args):
                # the first violating ordering, with every position 0
                ratings, first = rate_orders(*args)
                k, j = first
                rated = ratings[k][j]
                ratings[k][j] = {**rated, "order": [0] * len(rated["order"])}
                return ratings, first

            monkeypatch.setattr(_kernel, "rate_orders", zeroed)
        else:
            dim = moduli.fiber_component_dim
            monkeypatch.setattr(
                moduli, "fiber_component_dim", lambda sigma, g: dim(sigma, g) + 1
            )
        got, out, err = run_cli(capsys, *argv)
        assert got == 3
        assert out == ""
        assert err.strip().splitlines()[-1] == (
            f"internal error: AssertionError: {message}"
        )

    @staticmethod
    def unwritable(monkeypatch, *streams):
        def fail(text):
            raise OSError(28, "No space left on device")

        for stream in streams:
            monkeypatch.setattr(stream, "write", fail)

    def test_exit_code_survives_a_stderr_that_cannot_be_written(
        self, capsys, monkeypatch
    ):
        # the report of bad input is lost, its exit code is not
        self.unwritable(monkeypatch, sys.stderr)
        assert main(["check", "--alpha", "1/2,1/2"]) == 2
        assert capsys.readouterr() == ("", "")

    def test_exit_code_survives_stdout_and_stderr_that_cannot_be_written(
        self, capsys, monkeypatch
    ):
        # the payload of a failing alpha cannot be printed, nor the crash
        # reported: an internal error, never the 1 of a witness printed
        self.unwritable(monkeypatch, sys.stdout, sys.stderr)
        assert main(["check", "--alpha", ALPHA_9_4_ARG]) == 3
        assert capsys.readouterr() == ("", "")


def _nongeneric_alphas(seed, count):
    """Seeded weight vectors k/12 with N in 5..10 that lie on some wall."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(5, 10)
        ks = rng.sample(range(1, 12), n - 1)
        last = -sum(ks) % 12
        if not last or last in ks:
            continue
        alpha = WeightVector(tuple(Fraction(k, 12) for k in sorted(ks + [last])))
        if not is_generic(alpha)[0]:
            out.append(alpha)
    return out


# Payload trees: the JSON payload types at any nesting, empty containers
# included; text covers non-ASCII and control characters.
PAYLOAD_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.text()
)


def nest_payloads(children):
    """One level of nesting over children, for st.recursive: lists and
    string-keyed dicts of children, and flat lists of integers and text."""
    return (
        st.lists(children, max_size=6)
        | st.lists(st.integers(), max_size=6)
        | st.lists(st.text(max_size=4), max_size=6)
        | st.dictionaries(st.text(max_size=6), children, max_size=6)
    )


PAYLOADS = st.recursive(PAYLOAD_SCALARS, nest_payloads, max_leaves=40)


class TestEncoder:
    """Each twin's JSON writer against json.dumps(payload, indent=2)."""

    # the twin fixture's binding holds for every example of the test
    @PURE_RUN_UNNAMED
    @settings(
        max_examples=300,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(PAYLOADS)
    def test_matches_json_dumps(self, twin, payload):
        assert twin.dumps(payload) == json.dumps(payload, indent=2)

    @pytest.mark.parametrize(
        "value",
        [
            Fraction(1, 3),
            {1, 2},
            (1, 2),
            {"blocks": [{"support": [1, 2], "degree": Fraction(-1)}]},
            {1: "int key"},
            {"outer": {None: "None key"}},
            1.5,
            float("nan"),
            float("inf"),
            {"time_ms": [0, 1.5]},
            [{"x": float("nan")}],
            {"rows": [float("-inf")]},
        ],
        ids=["fraction", "set", "tuple", "nested-fraction", "int-key",
             "none-key", "float", "nan", "inf", "nested-float", "nested-nan",
             "nested-inf"],
    )
    @PURE_RUN_UNNAMED
    def test_other_types_raise(self, twin, value):
        messages = set()
        for dumps in (twin.dumps, pure.dumps):
            with pytest.raises(TypeError) as info:
                dumps(value)
            messages.add(str(info.value))
        assert len(messages) == 1

    @PURE_RUN_UNNAMED
    def test_strings_at_the_plain_copy_boundaries(self, twin):
        # the compiled writer copies printable ASCII without a quote or a
        # backslash as it is; every other string goes through the escaper
        texts = [" ", "~", "\x1f", "\x7f", '"', "\\", "\x00", "\xe9",
                 "\u2028", "\ud800", "\U0001f600", "plain text"]
        payload = {text: [text, f"a{text}b"] for text in texts}
        assert twin.dumps(payload) == json.dumps(payload, indent=2)

    @PURE_RUN_UNNAMED
    def test_ints_at_the_digit_loop_boundaries(self, twin):
        # the compiled writer formats ints within int64 with a digit loop,
        # INT64_MIN included, and any larger one by repr
        values = [0, 1, -1, 9, -9, 10, -10, (1 << 63) - 1, -(1 << 63),
                  1 << 63, -(1 << 63) - 1, 1 << 64, -(1 << 64)]
        payload = {"ints": values, "mixed": [*values, "x"], "one": values[-1]}
        assert twin.dumps(payload) == json.dumps(payload, indent=2)
        for value in values:
            assert twin.dumps(value) == str(value)

    def test_cli_writes_through_the_selected_kernel(self):
        # the CLI binds no writer of its own: it calls _kernel.dumps, the
        # writer of whichever twin is bound there
        assert not hasattr(cli, "dumps")


class TestByteIdentity:
    @pytest.mark.parametrize("case, fmt, twin", DIGEST_RUNS, indirect=["twin"])
    def test_stdout_digest(self, capsys, scan_memo, case, fmt):
        argv, json_digest, table_digest = STDOUT_DIGESTS[case]
        code, out, _ = run_cli(capsys, *argv, "--format", fmt)
        digest = hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()
        assert digest == (json_digest if fmt == "json" else table_digest)

    @pytest.mark.parametrize("mode", MODES)
    @PURE_RUN_UNNAMED
    def test_check_agrees_with_check_criterion(self, capsys, twin, mode):
        alphas = _nongeneric_alphas(seed=12, count=30)
        failing = 0
        for alpha in alphas:
            code, payload = run_json(
                capsys, "check", "--alpha", str(alpha), "--mode", mode
            )
            verdict = check_criterion(alpha, mode)
            assert payload["holds"] is verdict.holds
            assert code == (0 if verdict.holds else 1)
            expected = (
                cli._witness_json(verdict.witness) if verdict.witness else None
            )
            assert payload["witness"] == expected
            failing += not verdict.holds
        assert failing > 0
