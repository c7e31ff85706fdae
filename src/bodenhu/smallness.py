"""The rotation criterion for small and semismall desingularisations.

A candidate partition of the one-vector, taken with a cyclic order, assigns
to each of its L rotations the integer delta_seq of the rotated sequence.
The desingularisation can be made small for a given weight vector iff every
ordered candidate of length >= 3 has some rotation with value < L - 1
(semismall: <= L - 1).  A witness against smallness is therefore an ordered
candidate whose rotation values all sit at or above the margin.

At one weight vector the first violating ordering in canonical order is
the witness, for check_criterion and the CLI alike; both rate the
orderings through the kernel's rate_orders, the CLI its whole listing in
one call and check_criterion one partition per call, so that it can stop
at the first violating one.

verify_conjecture and scan_all_s quantify over the whole weight space through
one shared scan: the rotation values depend only on (supports, degrees,
order), so one call of the integer kernel's scan_shapes enumerates and
scans the combinatorial candidates of an N, and the exact feasibility
solver runs only on the rare violating ones, from inside that call.  Per
s, the first realisable violation yields a concrete weight vector, which is
re-checked through check_criterion, and settles s: the kernel does no more
work for it, and takes the counts from their closed form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional

from . import _kernel, weightspace
from ._kernel.pure import _pairing, _rotations
from .core import (
    ConstructionRangeError,
    ModuliContext,
    MultiplicityVector,
    WeightVector,
    deg_alpha,
    dual_mult,
    dual_weight,
)
from .partitions import (
    OrderedPartition,
    Partition,
    _alpha_shapes,
)

__all__ = [
    "MODES",
    "Witness",
    "Verdict",
    "rotation_deltas",
    "violates_margin",
    "ordering_representatives",
    "check_criterion",
    "verify_conjecture",
    "scan_all_s",
    "construct_counterexample",
    "construction_transcript",
    "classify",
]

MODES = ("small", "semismall")


@dataclass(frozen=True)
class Witness:
    """An ordered candidate violating the margin, with rotation values.

    `alpha` is a weight vector realising the candidate when one is attached
    (always for check_criterion and verify_conjecture witnesses).
    """

    ordered: OrderedPartition
    rotation_deltas: tuple[int, ...]
    alpha: Optional[WeightVector]


@dataclass(frozen=True)
class Verdict:
    """Outcome of a smallness check; witness present iff holds is False."""

    holds: bool
    mode: str
    witness: Optional[Witness]

    def __post_init__(self) -> None:
        if self.holds == (self.witness is not None):
            raise ValueError("witness must be present exactly when holds fails")


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def _keys(
    blocks: tuple[MultiplicityVector, ...]
) -> tuple[list[int], list[int]]:
    """The support masks and the degrees of blocks, for the pairing."""
    return [b.support_mask for b in blocks], [b.d_check for b in blocks]


def rotation_deltas(op: OrderedPartition) -> tuple[int, ...]:
    """delta_seq of every rotation of the sequence, starting positions 0..L-1.

    The blocks are disjoint 0/1 vectors, so the pure kernel's pairing
    matrix reads each pairwise delta off their support masks with
    popcounts, and its rotation walk rates the sequence itself: O(L^2)
    work, however long the sequence.
    """
    pair, q = _pairing(*_keys(op.seq))
    return tuple(_rotations(pair, q, range(len(op.seq))))


def violates_margin(rots: tuple[int, ...], mode: str) -> bool:
    """Whether rotation values rots (length L) sit at or above the margin L-1."""
    _check_mode(mode)
    margin = len(rots) - 1
    worst = min(rots)
    return worst > margin if mode == "semismall" else worst >= margin


def ordering_representatives(partition: Partition) -> Iterator[OrderedPartition]:
    """The (L-1)! cyclic-order representatives, first block fixed, lex order."""
    first, rest = partition.blocks[:1], partition.blocks[1:]
    for perm in itertools.permutations(rest):
        yield OrderedPartition._unchecked(first + perm)


def _witness(
    alpha: WeightVector, masks: tuple[int, ...], degs, order, rots
) -> Witness:
    """The witness at alpha from one rated ordering (order, rots) of the
    shape masks, validated by the checked constructors whichever kernel
    found it.  A record they refuse is the program's fault, not the input's:
    AssertionError."""
    try:
        blocks = [
            MultiplicityVector.from_mask(alpha.n, d, mask)
            for mask, d in zip(masks, degs)
        ]
        op = OrderedPartition(tuple(blocks[i] for i in order))
        return Witness(op, tuple(rots), alpha)
    except ValueError as exc:
        raise AssertionError(f"kernel record is not a witness: {exc}") from exc


def _rated_witness(
    alpha: WeightVector, masks: tuple[int, ...], degree: dict[int, int], rated
) -> Witness:
    """The witness at alpha from one rate_orders record of the shape masks,
    with each block's degree from degree."""
    degs = [degree[mask] for mask in masks]
    return _witness(
        alpha, masks, degs, rated["order"], rated["rotation_deltas"]
    )


def check_criterion(alpha: WeightVector, mode: str) -> Verdict:
    """Decide the criterion at one weight vector.

    Rates the orderings of the alpha-partitions of length >= 3 in canonical
    order (partitions in enumeration order, orderings in lex order) and
    stops at the first partition with a violation; its first violating
    ordering is the witness.  Each partition goes to rate_orders as a
    listing of one shape, so only one partition's orderings are held at a
    time.
    """
    _check_mode(mode)
    shapes, degree = _alpha_shapes(alpha, 3)
    for masks in shapes:
        (orderings,), first = _kernel.rate_orders(
            alpha.n, [masks], degree, mode == "semismall"
        )
        if first is not None:
            witness = _rated_witness(alpha, masks, degree, orderings[first[1]])
            return Verdict(False, mode, witness)
    return Verdict(True, mode, None)


def _settler(
    n: int, mode: str, witnesses: dict[int, Witness]
) -> Callable[..., bool]:
    """The scan's settle callable: whether a violating candidate is the
    witness of its s.

    realise_blocks decides whether a point of W(n, s) realises the
    candidate.  If one does, its weight vector must fail check_criterion
    too, or AssertionError; the witness goes into witnesses under its s.
    """

    def settle(masks, degs, order, rots) -> bool:
        point = weightspace.realise_blocks(n, list(zip(masks, degs)))
        if point is None:
            return False
        alpha = WeightVector(point)
        if check_criterion(alpha, mode).holds:
            raise AssertionError(
                "witness weight vector failed the check_criterion re-check"
            )
        witnesses[-sum(degs)] = _witness(alpha, masks, degs, order, rots)
        return True

    return settle


def _scan(n: int, s_filter: int, mode: str) -> dict[int, dict]:
    """The scan behind verify_conjecture and scan_all_s.

    One kernel call enumerates and scans every shape of length >= 3,
    keeping only total degree -s_filter (every s when s_filter is 0).  Per
    s, the first violating and realisable candidate in canonical order is
    the witness, and its weight vector must fail check_criterion too: the
    kernel hands each violating candidate of an s still open to _settler's
    callable, once, and settles s at the first it accepts.  The counts come
    with the kernel's result.  Returns s ->
    {"verdict": Verdict, "candidates": int, "classes": int}.
    """
    _check_mode(mode)
    witnesses: dict[int, Witness] = {}
    _, stats = _kernel.scan_shapes(
        n, s_filter, mode == "semismall", 3,
        _settler(n, mode, witnesses),
    )
    out: dict[int, dict] = {}
    for s in [s_filter] if s_filter else range(1, n):
        witness = witnesses.get(s)
        cand, classes = stats.get(s, (0, 0))
        out[s] = {
            "verdict": Verdict(witness is None, mode, witness),
            "candidates": cand,
            "classes": classes,
        }
    return out


def verify_conjecture(ctx: ModuliContext, mode: str) -> Verdict:
    """Decide whether the criterion holds for every weight vector of W(N,s).

    Equivalent to scanning feasible_partitions(ctx, 3) and testing every
    ordering, but evaluates the (weight-independent) rotation values first
    and solves feasibility only for violating candidates; the first violating
    and realisable candidate in canonical order is the witness.  Every
    witness weight vector is re-checked through check_criterion.
    """
    return _scan(ctx.n, ctx.s, mode)[ctx.s]["verdict"]


def scan_all_s(n: int, mode: str) -> dict[int, dict]:
    """Evaluate verify_conjecture for every s of one N in a single pass.

    Returns s -> {"verdict": Verdict, "candidates": int, "classes": int}
    where the counts cover length >= 3 shapes with that total degree.
    """
    return _scan(n, 0, mode)


def classify(ctx: ModuliContext) -> bool:
    """The known classification: True when the criterion holds for all of W(N,s).

    Holds exactly for s in {1, 2, N-2, N-1}, or N <= 8, or N <= 10 with
    s in {3, N-3}; every other (N, s) admits a violating weight vector.
    """
    n, s = ctx.n, ctx.s
    if s in (1, 2, n - 1, n - 2):
        return True
    if n <= 8:
        return True
    if n <= 10 and s in (3, n - 3):
        return True
    return False


# Reference counterexample data, returned verbatim for these two inputs.
_REFERENCE_ALPHA = {
    (9, 4): (
        "1/15", "2/15", "1/7", "2/7", "4/7", "7/12", "2/3", "3/4", "4/5",
    ),
    (11, 3): (
        "1/26", "1/20", "1/15", "1/12", "2/11", "1/5", "4/11", "5/11",
        "6/13", "1/2", "3/5",
    ),
}
_REFERENCE_TRIPLE = {
    (9, 4): (((1, 2, 9), -1), ((3, 4, 5), -1), ((6, 7, 8), -2)),
    (11, 3): (
        ((2, 3, 4, 6, 11), -1), ((5, 7, 8), -1), ((1, 9, 10), -1),
    ),
}


def _expected_rotations(n: int, s: int, t: int) -> tuple[int, ...]:
    if s == 3:
        return (3, 3, 2 * n - 19)
    return (3 * t * t, 3 * t * t, t * (2 * n - 15 * t))


def _postcondition_checks(
    alpha: WeightVector, op: OrderedPartition, expected: tuple[int, ...]
) -> list[tuple[str, bool, str]]:
    """The verifiable facts about a constructed counterexample."""
    checks = []
    degs_ok = all(
        deg_alpha(b, alpha) == 0 for b in op.seq
    )
    checks.append(
        (
            "blocks are an alpha-partition",
            degs_ok,
            "deg_alpha of every block is 0" if degs_ok else "degree mismatch",
        )
    )
    rots = rotation_deltas(op)
    checks.append(
        (
            "rotation values",
            rots == expected,
            f"{rots} expected {expected}",
        )
    )
    margin_ok = violates_margin(rots, "semismall")
    checks.append(
        (
            "violates small and semismall margins",
            margin_ok,
            f"min rotation {min(rots)} vs margin {len(op.seq) - 1}",
        )
    )
    small = check_criterion(alpha, "small")
    semi = check_criterion(alpha, "semismall")
    checks.append(
        (
            "check_criterion fails at alpha in both modes",
            not small.holds and not semi.holds,
            f"small holds={small.holds} semismall holds={semi.holds}",
        )
    )
    return checks


def construct_counterexample(
    ctx: ModuliContext, t: int = 1
) -> tuple[WeightVector, OrderedPartition]:
    """A weight vector and ordered triple violating both margins at (N, s).

    Covers N >= 9 with 4 <= s <= N-4 (adjustable group scale t, 1 <= t,
    9t <= N, 3t < s < N-3t) and N >= 11 with s in {3, N-3}; inputs with
    s > N-s are built on the dual side and pulled back.  (9,4) and (11,3)
    return the fixed reference data.  The construction is verified through
    construction_transcript, which raises AssertionError if a check fails.
    """
    alpha, op, _ = construction_transcript(ctx, t)
    return alpha, op


def construction_transcript(
    ctx: ModuliContext, t: int = 1
) -> tuple[WeightVector, OrderedPartition, list[tuple[str, bool, str]]]:
    """The construction plus its verification checks, for reporting layers.

    Returns (alpha, ordered triple, checks) where each check is a
    (name, passed, detail) tuple.  This is the one place the checks run:
    it raises AssertionError if any of them fails, so every returned check
    has passed.
    """
    alpha, op, expected = _construct(ctx, t)
    checks = _postcondition_checks(alpha, op, expected)
    bad = [name for name, ok, _ in checks if not ok]
    if bad:
        raise AssertionError(f"construction self-check failed: {bad}")
    return alpha, op, checks


def _construct(
    ctx: ModuliContext, t: int
) -> tuple[WeightVector, OrderedPartition, tuple[int, ...]]:
    """The unchecked construction and its expected rotation values."""
    n, s = ctx.n, ctx.s
    if t < 1:
        raise ValueError("group scale t must be a positive integer")

    if s > n - s:
        alpha_d, op_d, e = _construct(ModuliContext(n, n - s), t)
        alpha = dual_weight(alpha_d)
        op = OrderedPartition(tuple(dual_mult(b) for b in reversed(op_d.seq)))
        # Duality reverses the pairing, so the length-3 rotation values
        # (R0, R1, R2) of the original come back as (R0, R2, R1).
        return alpha, op, (e[0], e[2], e[1])

    if s == 3:
        if n < 11:
            raise ConstructionRangeError(
                f"no known construction for (N, s) = ({n}, {s})"
            )
        if t != 1:
            raise ValueError("t is only adjustable for 4 <= s <= N-4")
        alpha, op = _construct_s3(n)
    elif n >= 9 and 4 <= s <= n - 4:
        if not (9 * t <= n and 3 * t < s < n - 3 * t):
            raise ValueError(
                f"group scale t={t} needs 9t <= N and 3t < s < N-3t"
            )
        alpha, op = _construct_middle(n, s, t)
    else:
        raise ConstructionRangeError(
            f"no known construction for (N, s) = ({n}, {s})"
        )
    return alpha, op, _expected_rotations(n, s, t)


def _reference(key: tuple[int, int]) -> tuple[WeightVector, OrderedPartition]:
    n = key[0]
    alpha = WeightVector(tuple(Fraction(x) for x in _REFERENCE_ALPHA[key]))
    blocks = tuple(
        MultiplicityVector.from_support(n, d, sup)
        for sup, d in _REFERENCE_TRIPLE[key]
    )
    return alpha, OrderedPartition(blocks)


def _first_valid_weight(
    entries_at: Callable[[Fraction], list[Fraction]]
) -> WeightVector:
    """WeightVector(entries_at(h)) at the first valid h = 1/8, 1/16, ..."""
    h = Fraction(1, 8)
    for _ in range(80):
        try:
            return WeightVector(tuple(entries_at(h)))
        except ValueError:
            h /= 2
    raise AssertionError("no valid weight vector in 80 halvings of h")


def _construct_middle(
    n: int, s: int, t: int
) -> tuple[WeightVector, OrderedPartition]:
    """Groups near 0, 1/3, 2/3 and 1 with exact group sums eps, t, 2t, s-3t-eps."""
    if (n, s) == (9, 4) and t == 1:
        return _reference((9, 4))
    n0 = n - s - 3 * t
    n1 = s - 3 * t
    t0 = n0 * (n0 + 1) // 2
    t1 = n1 * (n1 + 1) // 2

    def entries(h: Fraction) -> list[Fraction]:
        eps = h
        near0 = [eps * i / t0 for i in range(1, n0 + 1)]
        offsets = [
            Fraction(h * (2 * i - 3 * t - 1), 2) for i in range(1, 3 * t + 1)
        ]
        third = [Fraction(1, 3) + o for o in offsets]
        twothird = [Fraction(2, 3) + o for o in offsets]
        near1 = [1 - eps * (n1 + 1 - i) / t1 for i in range(1, n1 + 1)]
        return near0 + third + twothird + near1

    sup1 = tuple(range(1, n0 + 1)) + tuple(range(n - n1 + 1, n + 1))
    m1 = MultiplicityVector.from_support(n, 3 * t - s, sup1)
    m2 = MultiplicityVector.from_support(
        n, -t, tuple(range(n0 + 1, n0 + 3 * t + 1))
    )
    m3 = MultiplicityVector.from_support(
        n, -2 * t, tuple(range(n0 + 3 * t + 1, n0 + 6 * t + 1))
    )
    return _first_valid_weight(entries), OrderedPartition((m1, m2, m3))


def _construct_s3(n: int) -> tuple[WeightVector, OrderedPartition]:
    """Slots near 0, near 1/3 (four of them), near 1/2 (two) and near 1."""
    if n == 11:
        return _reference((11, 3))
    k = n - 7
    tk = k * (k + 1) // 2

    def entries(h: Fraction) -> list[Fraction]:
        eta = c = h
        near0 = [eta * i for i in range(1, k + 1)]
        eps = eta * (tk - 1)
        third = [
            Fraction(1, 3) - 3 * c,
            Fraction(1, 3) - c,
            Fraction(1, 3) + c,
            Fraction(1, 3) + 2 * c,
        ]
        half = [(1 - eta) / 2 - c, (1 - eta) / 2 + c]
        last = Fraction(2, 3) + c - eps
        return near0 + third + half + [last]

    m1 = MultiplicityVector.from_support(
        n, -1, tuple(range(2, n - 6)) + (n - 5, n)
    )
    m2 = MultiplicityVector.from_support(n, -1, (n - 6, n - 4, n - 3))
    m3 = MultiplicityVector.from_support(n, -1, (1, n - 2, n - 1))
    return _first_valid_weight(entries), OrderedPartition((m1, m2, m3))
