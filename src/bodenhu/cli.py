"""Command line interface for checks, scans, constructions, and reports.

Subcommands: check (one weight vector), scan (all (N, s) up to a bound),
counterexample (explicit violating data), walls (chamber structure listing),
fiber (dimension report for one partition), selftest (property suites).

Exit codes follow one contract across subcommands: 0 when the queried
statement holds, 1 when it fails and a witness is attached (this includes a
successful counterexample construction, which certifies failure at its
(N, s)), 2 for usage or domain errors, and 3 for an internal error (a failed
invariant or a crash), which is reported on stderr.  scan exits 0 exactly
when every row agrees with the classification oracle.

Output is JSON by default, a plain table with --format table.  In the default
deterministic mode identical invocations produce byte-identical output and
timing fields are null; --no-deterministic fills them in.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
import traceback
from typing import Iterable, Optional, Sequence

from .core import (
    DEFAULT_CAP,
    MAX_SLOTS,
    CapExceededError,
    ModuliContext,
    MultiplicityVector,
    check_genus,
    parse_weight_vector,
)
from .weightspace import find_generic_near
from .partitions import OrderedPartition, Partition, _alpha_shapes
from .smallness import (
    MODES,
    Witness,
    _rated_witness,
    classify,
    construction_transcript,
    rotation_deltas,
    scan_all_s,
)
from .moduli import fiber_report
from . import _kernel, selftest

__all__ = ["main"]


def _resolve_cap(cap: Optional[int]) -> int:
    """--cap, else BODENHU_CAP_N, else DEFAULT_CAP; never above MAX_SLOTS."""
    if cap is None:
        raw = os.environ.get("BODENHU_CAP_N", str(DEFAULT_CAP))
        try:
            cap = int(raw)
        except ValueError as exc:
            raise ValueError(
                f"BODENHU_CAP_N must be an integer, got {raw!r}"
            ) from exc
    if cap > MAX_SLOTS:
        raise ValueError(
            f"cap {cap} exceeds the scan kernels' limit of {MAX_SLOTS} slots"
        )
    return cap


def check_cap(n: int, cap: int) -> None:
    """Refuse an enumerating command whose N exceeds the cap."""
    if n > cap:
        raise CapExceededError(f"N={n} exceeds the enumeration cap {cap}")


def _fractions(values) -> list[str]:
    return [str(v) for v in values]


def _blocks_json(blocks: Sequence[MultiplicityVector]) -> list[dict]:
    """The payload blocks of 0/1 blocks, from the kernel's block formatter."""
    return _kernel.blocks([(b.support_mask, b.d_check) for b in blocks])


def _listing(
    shapes: Sequence[tuple[int, ...]], degree: dict[int, int], ids: Iterable[int]
) -> list[dict]:
    """The single-alpha listing entry of each shape id: its id, length and
    blocks, each mask's payload block built once, in one kernel call, and
    shared."""
    blocks = dict(zip(degree, _kernel.blocks(degree.items())))
    return [
        {
            "id": i,
            "length": len(shapes[i]),
            "blocks": [blocks[mask] for mask in shapes[i]],
        }
        for i in ids
    ]


def _order_indices(partition: Partition, op: OrderedPartition) -> list[int]:
    return [partition.blocks.index(b) for b in op.seq]


def _witness_json(witness: Witness) -> dict:
    partition = witness.ordered.partition
    return {
        "blocks": _blocks_json(partition.blocks),
        "order": _order_indices(partition, witness.ordered),
        "rotation_deltas": list(witness.rotation_deltas),
        "alpha": _fractions(witness.alpha.entries) if witness.alpha else None,
    }


def _blocks_text(blocks: Sequence[dict]) -> str:
    """Blocks of a payload as "{support}:degree", space separated."""
    return " ".join(
        "{%s}:%d" % (",".join(str(x) for x in b["support"]), b["degree"])
        for b in blocks
    )


def _witness_text(witness_dict: Optional[dict]) -> str:
    if witness_dict is None:
        return "-"
    blocks = witness_dict["blocks"]
    rots = ",".join(str(r) for r in witness_dict["rotation_deltas"])
    return (
        _blocks_text([blocks[i] for i in witness_dict["order"]])
        + f" rot=({rots})"
    )


def _render_table(
    headers: Sequence[str], rows: Sequence[Sequence[str]], right: set[int]
) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    for row in [list(headers)] + [list(r) for r in rows]:
        cells = [
            cell.rjust(widths[i]) if i in right else cell.ljust(widths[i])
            for i, cell in enumerate(row)
        ]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines)


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


# ---------------------------------------------------------------------------
# check


def _cmd_check(args) -> tuple[int, dict]:
    alpha = parse_weight_vector(args.alpha)
    check_cap(alpha.n, args.cap)
    if args.s is not None and args.s != alpha.s:
        raise ValueError(
            f"--s {args.s} does not match the weight sum {alpha.s}"
        )
    # Listing ids index all partitions; dropping those shorter than 3 keeps
    # the canonical order check_criterion scans, so the verdict comes from
    # this listing, rated in one kernel call.
    shapes, degree = _alpha_shapes(alpha, 1)
    ids = [i for i, masks in enumerate(shapes) if len(masks) >= 3]
    ratings, first = _kernel.rate_orders(
        alpha.n, [shapes[i] for i in ids], degree, args.mode == "semismall"
    )
    witness = None
    if first is not None:
        k, j = first
        witness = _rated_witness(alpha, shapes[ids[k]], degree, ratings[k][j])
    listing = _listing(shapes, degree, ids)
    for entry, orderings in zip(listing, ratings):
        entry["orderings"] = orderings
    payload = {
        "command": "check",
        "n": alpha.n,
        "s": alpha.s,
        "mode": args.mode,
        "alpha": _fractions(alpha.entries),
        "holds": witness is None,
        "witness": _witness_json(witness) if witness else None,
        "partitions": listing,
    }
    return (0 if witness is None else 1), payload


def _table_check(payload: dict) -> str:
    lines = [
        "check n={n} s={s} mode={mode}: {out}".format(
            n=payload["n"],
            s=payload["s"],
            mode=payload["mode"],
            out="holds" if payload["holds"] else "FAILS",
        ),
        "alpha = " + ",".join(payload["alpha"]),
        f"partitions of length >= 3: {len(payload['partitions'])}",
    ]
    for part in payload["partitions"]:
        blocks = _blocks_text(part["blocks"])
        lines.append(f"  id {part['id']}  (L={part['length']})  {blocks}")
        for ordering in part["orderings"]:
            order = ",".join(str(i) for i in ordering["order"])
            rots = " ".join(f"{r:3d}" for r in ordering["rotation_deltas"])
            flag = "  violates" if ordering["violates"] else ""
            lines.append(f"    order ({order})  rotations {rots}{flag}")
    lines.append("witness: " + _witness_text(payload["witness"]))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# scan


def _cmd_scan(args) -> tuple[int, dict]:
    if args.nmax < 2:
        raise ValueError("--nmax must be at least 2")
    check_cap(args.nmax, args.cap)
    rows = []
    all_agree = True
    for n in range(2, args.nmax + 1):
        started = time.perf_counter_ns()
        per_s = scan_all_s(n, args.mode)
        # whole milliseconds, rounded to nearest
        elapsed = (
            (time.perf_counter_ns() - started + 500_000) // 1_000_000
            if args.no_deterministic
            else None
        )
        for s in range(1, n):
            info = per_s[s]
            verdict = info["verdict"]
            oracle = classify(ModuliContext(n, s))
            agree = verdict.holds == oracle
            all_agree = all_agree and agree
            walls = len(_kernel.walls(n, s)) if args.with_walls else None
            rows.append(
                {
                    "n": n,
                    "s": s,
                    "mode": args.mode,
                    "holds": verdict.holds,
                    "oracle": oracle,
                    "agree": agree,
                    "candidates": info["candidates"],
                    "classes": info["classes"],
                    "walls": walls,
                    "witness": (
                        _witness_json(verdict.witness)
                        if verdict.witness
                        else None
                    ),
                    "time_ms": elapsed,
                }
            )
    payload = {
        "command": "scan",
        "nmax": args.nmax,
        "mode": args.mode,
        "all_agree": all_agree,
        "rows": rows,
    }
    return (0 if all_agree else 1), payload


def _table_scan(payload: dict) -> str:
    headers = (
        "n",
        "s",
        "holds",
        "oracle",
        "agree",
        "candidates",
        "classes",
        "walls",
        "time_ms",
        "witness",
    )
    rows = []
    for row in payload["rows"]:
        rows.append(
            (
                str(row["n"]),
                str(row["s"]),
                _yn(row["holds"]),
                _yn(row["oracle"]),
                _yn(row["agree"]),
                str(row["candidates"]),
                str(row["classes"]),
                "-" if row["walls"] is None else str(row["walls"]),
                "-" if row["time_ms"] is None else str(row["time_ms"]),
                _witness_text(row["witness"]),
            )
        )
    table = _render_table(headers, rows, right={0, 1, 5, 6, 7, 8})
    verdict = "all rows agree" if payload["all_agree"] else "DISAGREEMENT"
    return table + f"\nscan mode={payload['mode']}: {verdict}"


# ---------------------------------------------------------------------------
# counterexample


def _cmd_counterexample(args) -> tuple[int, dict]:
    ctx = ModuliContext(args.n, args.s)
    check_cap(args.n, args.cap)
    alpha, op, checks = construction_transcript(ctx, args.t)
    payload = {
        "command": "counterexample",
        "n": args.n,
        "s": args.s,
        "t": args.t,
        "alpha": _fractions(alpha.entries),
        "triple": {
            "blocks": _blocks_json(op.seq),
            "rotation_deltas": list(rotation_deltas(op)),
        },
        "checks": [
            {"name": name, "ok": ok, "detail": detail}
            for name, ok, detail in checks
        ],
    }
    return 1, payload


def _table_counterexample(payload: dict) -> str:
    blocks = _blocks_text(payload["triple"]["blocks"])
    rots = ",".join(str(r) for r in payload["triple"]["rotation_deltas"])
    lines = [
        "counterexample n={n} s={s} t={t}".format(**payload),
        "alpha = " + ",".join(payload["alpha"]),
        f"triple = {blocks}",
        f"rotation deltas = ({rots})",
        "checks:",
    ]
    for check in payload["checks"]:
        mark = "ok" if check["ok"] else "FAIL"
        lines.append(f"  [{mark}] {check['name']}: {check['detail']}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# walls


def _cmd_walls(args) -> tuple[int, dict]:
    # enumerate_walls lists the same walls as Wall objects; the payload
    # needs only each (mask, degree) pair, so it is built from the kernel's.
    ctx = ModuliContext(args.n, args.s)
    check_cap(ctx.n, args.cap)
    walls = _kernel.blocks(_kernel.walls(ctx.n, ctx.s))
    payload = {
        "command": "walls",
        "n": args.n,
        "s": args.s,
        "count": len(walls),
        "walls": walls,
    }
    return 0, payload


def _table_walls(payload: dict) -> str:
    headers = ("support", "degree")
    rows = [
        ("{%s}" % ",".join(str(x) for x in w["support"]), str(w["degree"]))
        for w in payload["walls"]
    ]
    table = _render_table(headers, rows, right={1})
    return (
        f"walls n={payload['n']} s={payload['s']}: {payload['count']}\n"
        + table
    )


# ---------------------------------------------------------------------------
# fiber


def _cmd_fiber(args) -> tuple[int, dict]:
    alpha = parse_weight_vector(args.alpha)
    check_genus(args.genus)
    check_cap(alpha.n, args.cap)
    shapes, degree = _alpha_shapes(alpha, 1)
    if args.id is None:
        payload = {
            "command": "fiber",
            "n": alpha.n,
            "s": alpha.s,
            "alpha": _fractions(alpha.entries),
            "partitions": _listing(shapes, degree, range(len(shapes))),
        }
        return 0, payload
    if not 0 <= args.id < len(shapes):
        raise ValueError(
            f"unknown partition id {args.id}; this alpha has"
            f" ids 0..{len(shapes) - 1}"
        )
    xi = Partition(
        tuple(
            MultiplicityVector.from_mask(alpha.n, degree[mask], mask)
            for mask in shapes[args.id]
        )
    )
    beta = find_generic_near(alpha)
    report = fiber_report(xi, beta, args.genus)
    payload = {
        "command": "fiber",
        "n": alpha.n,
        "s": alpha.s,
        "genus": args.genus,
        "alpha": _fractions(alpha.entries),
        "beta": _fractions(beta.entries),
        "partition": {
            "id": args.id,
            "length": len(xi),
            "blocks": _blocks_json(xi.blocks),
        },
        "stratum_codim": report.stratum_codim,
        "components": [
            {
                "order": _order_indices(xi, ordering),
                "dim": dim,
                "margin": margin,
            }
            for (ordering, dim), margin in zip(
                report.components, report.margins
            )
        ],
    }
    return 0, payload


def _table_fiber(payload: dict) -> str:
    if "partitions" in payload:
        headers = ("id", "length", "blocks")
        rows = [
            (str(p["id"]), str(p["length"]), _blocks_text(p["blocks"]))
            for p in payload["partitions"]
        ]
        table = _render_table(headers, rows, right={0, 1})
        return (
            f"fiber n={payload['n']} s={payload['s']}:"
            f" {len(payload['partitions'])} partitions"
            " (rerun with --id to pick one)\n" + table
        )
    blocks = _blocks_text(payload["partition"]["blocks"])
    headers = ("order", "dim", "margin")
    rows = [
        (
            "(" + ",".join(str(i) for i in c["order"]) + ")",
            str(c["dim"]),
            str(c["margin"]),
        )
        for c in payload["components"]
    ]
    table = _render_table(headers, rows, right={1, 2})
    lines = [
        "fiber n={n} s={s} genus={genus} partition id {pid}".format(
            n=payload["n"],
            s=payload["s"],
            genus=payload["genus"],
            pid=payload["partition"]["id"],
        ),
        f"blocks = {blocks}",
        "beta = " + ",".join(payload["beta"]),
        f"stratum codim = {payload['stratum_codim']}",
        table,
    ]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# selftest


def _cmd_selftest(args) -> tuple[int, dict]:
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    results = selftest.run_all(args.seed, args.trials)
    ok = all(r.ok for r in results)
    payload = {
        "command": "selftest",
        "seed": args.seed,
        "trials": args.trials,
        "ok": ok,
        "suites": [
            {
                "name": r.name,
                "trials": r.trials,
                "ok": r.ok,
                "failures": list(r.failures),
            }
            for r in results
        ],
    }
    return (0 if ok else 1), payload


def _table_selftest(payload: dict) -> str:
    lines = []
    passed = 0
    for suite in payload["suites"]:
        if suite["ok"]:
            passed += 1
            lines.append(f"{suite['name']}: PASS ({suite['trials']} trials)")
        else:
            lines.append(
                f"{suite['name']}: FAIL"
                f" ({len(suite['failures'])} failure records,"
                f" {suite['trials']} trials)"
            )
            for message in suite["failures"]:
                lines.append(f"  {message}")
    lines.append(f"{passed}/{len(payload['suites'])} suites passed")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# wiring

_COMMANDS = {
    "check": (_cmd_check, _table_check),
    "scan": (_cmd_scan, _table_scan),
    "counterexample": (_cmd_counterexample, _table_counterexample),
    "walls": (_cmd_walls, _table_walls),
    "fiber": (_cmd_fiber, _table_fiber),
    "selftest": (_cmd_selftest, _table_selftest),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("json", "table"),
        default="json",
        help="output format (default json)",
    )
    common.add_argument(
        "--cap",
        type=int,
        default=None,
        help="enumeration cap on N (default BODENHU_CAP_N or"
        f" {DEFAULT_CAP})",
    )
    common.add_argument(
        "--no-deterministic",
        action="store_true",
        help="fill timing fields (output is no longer byte-stable)",
    )

    parser = argparse.ArgumentParser(
        prog="bodenhu",
        description="Exact smallness checks for weighted moduli resolutions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "check", parents=[common], help="decide the criterion at one alpha"
    )
    p.add_argument("--alpha", required=True, help="comma-separated rationals")
    p.add_argument("--s", type=int, default=None, help="expected weight sum")
    p.add_argument("--mode", choices=MODES, default="small")

    p = sub.add_parser(
        "scan", parents=[common], help="verify all (N, s) up to a bound"
    )
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--mode", choices=MODES, default="small")
    p.add_argument(
        "--with-walls",
        action="store_true",
        help="add wall counts per row (slower)",
    )

    p = sub.add_parser(
        "counterexample",
        parents=[common],
        help="construct violating data for one (N, s); exits 1 on success"
        " because success certifies failure of the conjecture there",
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--t", type=int, default=1, help="group scale")

    p = sub.add_parser(
        "walls", parents=[common], help="list the walls of W(N, s)"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)

    p = sub.add_parser(
        "fiber",
        parents=[common],
        help="dimension report for one partition at a generic nearby point",
    )
    p.add_argument("--alpha", required=True, help="comma-separated rationals")
    p.add_argument(
        "--id",
        type=int,
        default=None,
        help="partition id from check/fiber listings; omit to list ids",
    )
    p.add_argument("--genus", type=int, default=2)

    p = sub.add_parser(
        "selftest", parents=[common], help="run the property suites"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=2000)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except Exception as exc:
        # Status 1 means "witness found", so a crash must never exit with it.
        _report(
            traceback.format_exc()
            + f"internal error: {type(exc).__name__}: {exc}"
        )
        return 3


def _report(text: str) -> None:
    """Print text to stderr, dropping it if stderr cannot be written, so
    that the exit code survives the report."""
    try:
        print(text, file=sys.stderr)
    except OSError:
        pass


def _run(args: argparse.Namespace) -> int:
    try:
        args.cap = _resolve_cap(args.cap)
        run, render = _COMMANDS[args.command]
        code, payload = run(args)
    except ValueError as exc:
        _report(f"error: {exc}")
        return 2
    if args.format == "json":
        print(_kernel.dumps(payload))
    else:
        print(render(payload))
    return code


if __name__ == "__main__":
    sys.exit(main())
