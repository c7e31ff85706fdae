"""Output checks that hold for every seed, computed with plain Fractions.

Each function takes one operation's exit code and parsed output and returns
a list of problems; an empty list means the output is consistent.  None of
them imports the package under test.  Byte-exact comparison against the
recorded reference is done separately (see reference.json).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence


def parse_alpha(text: str) -> tuple[Fraction, ...]:
    return tuple(Fraction(a) for a in text.split(","))


def _degree_problems(
    alpha: Sequence[Fraction], blocks: Sequence[dict], what: str
) -> list[str]:
    """Every block must have alpha-degree 0: degree + sum of alpha on support."""
    out = []
    for b in blocks:
        if b["degree"] + sum(alpha[i - 1] for i in b["support"]) != 0:
            out.append(f"{what} block {b['support']} has nonzero alpha-degree")
    return out


def _clears_margin(rots: Sequence[int], mode: str) -> bool:
    worst, margin = min(rots), len(rots) - 1
    return worst > margin if mode == "semismall" else worst >= margin


def check_check(rc: Optional[int], payload: dict, alpha_text: str, mode: str) -> list[str]:
    """`bodenhu check`: exit code, witness degrees and margins, listing flags."""
    alpha = parse_alpha(alpha_text)
    holds = payload["holds"]
    problems = []
    if rc != (0 if holds else 1):
        problems.append(f"exit code {rc} disagrees with holds={holds}")
    if payload["mode"] != mode or payload["alpha"] != alpha_text.split(","):
        problems.append("payload echoes the wrong mode or alpha")
    first_violation = None
    for part in payload["partitions"]:
        for ordering in part["orderings"]:
            rots = ordering["rotation_deltas"]
            if ordering["violates"] != _clears_margin(rots, mode):
                problems.append(f"partition {part['id']}: violates flag wrong")
            if ordering["violates"] and first_violation is None:
                first_violation = (part["blocks"], ordering)
    if holds != (first_violation is None):
        problems.append("holds disagrees with the listing's violations")
    witness = payload["witness"]
    if holds != (witness is None):
        problems.append("witness present exactly when the check fails")
    if witness is not None:
        if witness["alpha"] != alpha_text.split(","):
            problems.append("witness alpha differs from the query")
        problems += _degree_problems(alpha, witness["blocks"], "witness")
        if not _clears_margin(witness["rotation_deltas"], mode):
            problems.append("witness rotation values do not clear the margin")
        if first_violation is not None and (
            witness["blocks"] != first_violation[0]
            or witness["order"] != first_violation[1]["order"]
            or witness["rotation_deltas"]
            != first_violation[1]["rotation_deltas"]
        ):
            problems.append("witness is not the listing's first violation")
    return problems


def check_fiber(
    rc: Optional[int], payload: dict, alpha_text: str, pid: Optional[int]
) -> list[str]:
    """`bodenhu fiber`: the listing, or one report's margins and beta."""
    alpha = parse_alpha(alpha_text)
    problems = [] if rc == 0 else [f"exit code {rc}, expected 0"]
    if pid is None:
        for part in payload["partitions"]:
            problems += _degree_problems(alpha, part["blocks"], "listed")
            if part["length"] >= 3:
                problems.append("listing has a length >= 3 partition")
        return problems
    part = payload["partition"]
    problems += _degree_problems(alpha, part["blocks"], "report")
    length = part["length"]
    if len(payload["components"]) != math.factorial(length - 1):
        problems.append("report does not have (L-1)! components")
    codim = payload["stratum_codim"]
    for c in payload["components"]:
        if c["margin"] != codim - 2 * c["dim"]:
            problems.append("component margin is not codim - 2 dim")
    beta = parse_alpha(",".join(payload["beta"]))
    if not _in_weight_space(beta, payload["s"]):
        problems.append("beta is not a point of W(N, s)")
    return problems


def check_scan(rc: Optional[int], payload: dict) -> list[str]:
    """`bodenhu scan`: exit 0 and every row agrees with the classification."""
    problems = [] if rc == 0 else [f"exit code {rc}, expected 0"]
    bad = [(r["n"], r["s"]) for r in payload["rows"] if r["agree"] is not True]
    if bad or payload["all_agree"] is not True:
        problems.append(f"scan rows disagree with the classification: {bad}")
    return problems


def check_walls(rc: Optional[int], payload: dict, n: int) -> list[str]:
    """`bodenhu walls`: canonical representatives with admissible degrees."""
    problems = [] if rc == 0 else [f"exit code {rc}, expected 0"]
    if payload["count"] != len(payload["walls"]):
        problems.append("wall count differs from the listing")
    for w in payload["walls"]:
        r = len(w["support"])
        if w["support"][0] != 1 or not 2 <= r <= n - 2 or not -r < w["degree"] < 0:
            problems.append(f"wall {w} is not canonical")
    return problems


def _in_weight_space(point: Sequence[Fraction], s: int) -> bool:
    inside = 0 < point[0] and point[-1] < 1
    return inside and all(a < b for a, b in zip(point, point[1:])) and sum(point) == s


def check_realised(
    n: int,
    s: int,
    rows: Sequence[tuple[tuple[tuple[tuple[int, ...], int], ...], tuple[Fraction, ...]]],
) -> list[str]:
    """feasible_partitions: each witness lies in W(N, s) and realises its blocks."""
    problems = []
    for blocks, point in rows:
        covered = sorted(i for support, _ in blocks for i in support)
        if covered != list(range(1, n + 1)):
            problems.append(f"blocks {blocks} do not partition the slots")
        if sum(d for _, d in blocks) != -s:
            problems.append(f"blocks {blocks} do not have total degree -{s}")
        if not _in_weight_space(point, s):
            problems.append(f"witness for {blocks} is not in W({n}, {s})")
        for support, d in blocks:
            if d + sum(point[i - 1] for i in support) != 0:
                problems.append(f"witness does not realise block {support}")
    return problems
