"""Pure-Python kernel: the scan, the single-alpha decision and the JSON writer.

Each formula is written once: the pairing matrix P[i][j] = delta(block i,
block j) = 2(r_i d_j - r_j d_i) + X[i][j] (_cross_terms builds X from the
supports, _place_degrees adds the degrees) and the rotation walk from r_0,
the sum of P over an ordering's pairs, by r_{l+1} = r_l - 2 q[order[l]]:
moving the head block to the back reverses its pairs (_rotations).

scan_shapes (every shape of iter_partition_shapes) and scan_partition_batch
(the shapes given) run _scan_shape per shape.  It takes q in closed form,
delta(block, one-vector), O(L) per candidate against O(L^2) for row sums,
since building P and q is most of the scan's time, and walks the rotations
only for a violation.  This is the plain oracle: every ordering is
evaluated on its own.  alpha_shapes lists the partitions into the
admissible blocks at one weight vector, and rate_orders rates every
ordering of one of them from _pairing, P with its row sums.  dumps writes
the CLI's JSON payloads.  Twin of the compiled kernel in _speedups.c, with
the same decomposition; it must match it exactly and carry the same
KERNEL_API.

Both kernels accept at most MAX_SLOTS slots and MAX_BLOCKS blocks per scanned
shape and raise ValueError beyond that.  Within those limits every quantity
is a small machine integer: the pairing is bounded by a few thousand, far
inside 64-bit range.  rate_orders also takes degrees up to MAX_DEGREE in
absolute value, which keeps every rotation value below 2^50.
"""

from __future__ import annotations

import itertools
from json.encoder import encode_basestring_ascii
from typing import Iterator

from ..core import MAX_SLOTS

# Bumped whenever an entry point is added or its contract changes;
# _speedups.c defines the same number.
KERNEL_API = 4
MAX_BLOCKS = 16
MAX_DEGREE = 1 << 32


def iter_partition_shapes(n: int, min_len: int = 1) -> Iterator[tuple[int, ...]]:
    """Stream the set partitions of n slots into at least min_len blocks of
    size >= 2, as ascending mask tuples.  The block of the lowest free slot
    comes first, its co-members in ascending submask order, as in
    enumerate_shapes of _speedups.c."""

    def rec(remaining: int, acc: list[int]) -> Iterator[tuple[int, ...]]:
        if not remaining:
            if len(acc) >= min_len:
                yield tuple(sorted(acc))
            return
        if len(acc) + remaining.bit_count() // 2 < min_len:
            return
        low = remaining & -remaining
        rest = remaining ^ low
        if not rest:
            return  # a lone slot cannot form a block of size >= 2
        s = rest & -rest
        while True:
            left = rest ^ s
            if left.bit_count() != 1:
                acc.append(low | s)
                yield from rec(left, acc)
                acc.pop()
            if s == rest:
                break
            s = (s - rest) & rest

    if n >= 2:
        yield from rec((1 << n) - 1, [])


def _cross_terms(sups) -> list[list[int]]:
    """X[i][j] = #{(a, b) in block i x block j : b > a} - #{b <= a}, slot a
    on bit a: on disjoint blocks r_i r_j - 2 #{b < a}, delta's cross term."""
    L = len(sups)
    cross = [[0] * L for _ in range(L)]
    for j, sup in enumerate(sups):
        rank = sup.bit_count()
        for i in range(j):
            x = 0
            m = sups[i]
            while m:
                low = m & -m
                x += 2 * (sup >> low.bit_length()).bit_count() - rank
                m ^= low
            cross[i][j] = x
            cross[j][i] = -x
    return cross


def _place_degrees(ranks, degs, cross) -> list[list[int]]:
    """P[i][j] = 2(r_i d_j - r_j d_i) + X[i][j], the pairing matrix."""
    L = len(ranks)
    pair = []
    for i in range(L):
        row = cross[i][:]
        ri, di = 2 * ranks[i], 2 * degs[i]
        for j in range(L):
            row[j] += ri * degs[j] - ranks[j] * di
        pair.append(row)
    return pair


def _pairing(masks, degs) -> tuple[list[list[int]], list[int]]:
    """The pairing matrix of one partition and its row sums q."""
    pair = _place_degrees(
        [mask.bit_count() for mask in masks], degs, _cross_terms(masks)
    )
    return pair, [sum(row) for row in pair]


def _rotations(pair, q, order) -> list[int]:
    """The L rotation values of order, from r_0 and the row sums q."""
    L = len(q)
    r = 0
    for u in range(L):
        row = pair[order[u]]
        for v in range(u + 1, L):
            r += row[order[v]]
    rots = []
    for a in order[:L]:
        rots.append(r)
        r -= 2 * q[a]
    return rots


def scan_shapes(
    n: int, s_filter: int, semismall: bool, min_len: int
) -> tuple[list, dict]:
    """Scan every partition shape of n slots with at least min_len blocks.

    The shapes are those of iter_partition_shapes(n, min_len), in its order;
    the other arguments are as for scan_partition_batch.  Returns
    (violations, stats) as scan_partition_batch does over all those shapes,
    except that each record starts with the shape's mask tuple instead of
    its batch index.

    Raises ValueError for n < 0 or n > MAX_SLOTS.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > MAX_SLOTS:
        raise ValueError(f"kernel supports at most {MAX_SLOTS} slots")
    violations: list = []
    stats: dict = {}
    for masks in iter_partition_shapes(n, min_len):
        _scan_shape(n, s_filter, semismall, masks, masks, violations, stats)
    return violations, stats


def scan_partition_batch(
    n: int,
    s_filter: int,
    semismall: bool,
    min_len: int,
    masks_list: list,
) -> tuple[list, dict]:
    """Scan a batch of partition shapes for rotation-criterion violations.

    Arguments:
        n: number of weight slots.
        s_filter: keep only degree assignments with total -s_filter (0 = all).
        semismall: test the semismall margin (strict >) instead of small (>=).
        min_len: skip shapes with fewer blocks.
        masks_list: one tuple of block bitmasks per shape, blocks ascending.

    Returns (violations, stats):
        violations: list of (shape_index, degrees, order, rotations) in
            enumeration order; order is a tuple of block indices with
            order[0] == 0; rotations holds all L rotation values of the
            pairing sum for that ordering.
        stats: dict mapping s to [candidate_count, ordering_class_count].

    Raises ValueError for n > MAX_SLOTS or a shape of more than MAX_BLOCKS
    blocks that min_len does not skip.
    """
    if n > MAX_SLOTS:
        raise ValueError(f"kernel supports at most {MAX_SLOTS} slots")
    violations: list = []
    stats: dict = {}
    for pi, masks in enumerate(masks_list):
        if len(masks) < min_len:
            continue
        if len(masks) > MAX_BLOCKS:
            raise ValueError(f"kernel supports at most {MAX_BLOCKS} blocks")
        _scan_shape(n, s_filter, semismall, pi, masks, violations, stats)
    return violations, stats


def _scan_shape(n, s_filter, semismall, key, masks, violations, stats) -> None:
    """Scan one shape: append its violation records, each led by key, and
    count its candidates and ordering classes into stats.  Only the slots
    below n count; a block of rank below 2 has no degree."""
    L = len(masks)
    sups = [mask & ((1 << n) - 1) for mask in masks]
    ranks = [sup.bit_count() for sup in sups]
    T = [sum(n - 2 * a - 1 for a in range(n) if sup >> a & 1) for sup in sups]
    cross = _cross_terms(sups)
    orders = [(0,) + perm for perm in itertools.permutations(range(1, L))]
    nperm = len(orders)
    bar = L if semismall else L - 1
    for degs in itertools.product(*[range(1 - r, 0) for r in ranks]):
        s = -sum(degs)
        if s_filter and s != s_filter:
            continue
        st = stats.get(s)
        if st is None:
            st = stats[s] = [0, 0]
        st[0] += 1
        st[1] += nperm
        # q[i] = delta(block i, one-vector), in closed form
        q = [T[i] - 2 * ranks[i] * s - 2 * n * degs[i] for i in range(L)]
        pair = _place_degrees(ranks, degs, cross)
        for order in orders:
            r0 = 0
            for u in range(L):
                pu = pair[order[u]]
                for v in range(u + 1, L):
                    r0 += pu[order[v]]
            pre = maxpre = 0
            for l in range(L - 1):
                pre += q[order[l]]
                if pre > maxpre:
                    maxpre = pre
            if r0 - 2 * maxpre >= bar:
                rots = tuple(_rotations(pair, q, order))
                violations.append((key, degs, order, rots))


def alpha_shapes(n: int, masks, min_len: int) -> list[tuple[int, ...]]:
    """The partitions of n slots into the given blocks, as sorted mask tuples.

    masks are the admissible blocks at one weight vector, ascending, each of
    rank >= 2 within the n slots.  They are grouped by lowest slot, keeping
    their order; the recursion covers the lowest uncovered slot with each
    block of that slot that fits, and stops once fewer than min_len blocks
    can be reached.  With the ascending admissible masks this lists, in the
    same order, the shapes of iter_partition_shapes(n, min_len) whose blocks
    are all admissible, without probing every submask.

    Raises ValueError for n outside 0..MAX_SLOTS or a mask outside the n
    slots or of rank below 2.
    """
    if not 0 <= n <= MAX_SLOTS:
        raise ValueError(f"kernel supports 0 to {MAX_SLOTS} slots")
    by_low: list[list[int]] = [[] for _ in range(n)]
    for mask in masks:
        if not 0 < mask < 1 << n or mask.bit_count() < 2:
            raise ValueError(
                f"mask {mask} is not a block of rank >= 2 within {n} slots"
            )
        by_low[(mask & -mask).bit_length() - 1].append(mask)
    shapes: list[tuple[int, ...]] = []
    acc: list[int] = []

    def rec(remaining: int) -> None:
        if not remaining:
            if len(acc) >= min_len:
                shapes.append(tuple(sorted(acc)))
            return
        if len(acc) + remaining.bit_count() // 2 < min_len:
            return
        for mask in by_low[(remaining & -remaining).bit_length() - 1]:
            if mask & remaining == mask:
                acc.append(mask)
                rec(remaining ^ mask)
                acc.pop()

    if n >= 2:
        rec((1 << n) - 1)
    return shapes


def rate_orders(masks, degs, semismall: bool) -> tuple[list[dict], int]:
    """Every cyclic ordering of one partition, rated by its rotation values.

    masks and degs give the blocks: disjoint supports (not checked) and
    their degrees.  An ordering violates the margin when its least
    rotation value is at least L - 1 (semismall: above it).

    Returns (orderings, first).  orderings holds one dict {"order",
    "rotation_deltas", "violates"} per ordering, ready for JSON, in the lex
    order of itertools.permutations(range(1, L)) behind block 0; first is
    the index of the first violating ordering, or -1.

    Raises ValueError unless 2 <= L <= MAX_BLOCKS, len(degs) == L, every
    mask lies in 1..2^MAX_SLOTS - 1 and every |degree| <= MAX_DEGREE.
    """
    L = len(masks)
    if L < 2:
        raise ValueError("rotation values need at least two blocks")
    if L > MAX_BLOCKS:
        raise ValueError(f"kernel supports at most {MAX_BLOCKS} blocks")
    if len(degs) != L:
        raise ValueError("masks and degrees differ in length")
    for mask, d in zip(masks, degs):
        if not 0 < mask < 1 << MAX_SLOTS:
            raise ValueError(f"mask {mask} outside 1..2^{MAX_SLOTS} - 1")
        if not -MAX_DEGREE <= d <= MAX_DEGREE:
            raise ValueError(f"degree {d} outside -2^32..2^32")
    pair, q = _pairing(masks, degs)
    bar = L if semismall else L - 1
    orderings: list[dict] = []
    first = -1
    for perm in itertools.permutations(range(1, L)):
        order = (0,) + perm
        rots = _rotations(pair, q, order)
        violates = min(rots) >= bar
        if violates and first < 0:
            first = len(orderings)
        orderings.append(
            {"order": list(order), "rotation_deltas": rots, "violates": violates}
        )
    return orderings, first


# json.dumps spells the non-finite floats this way (allow_nan=True).
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def dumps(payload) -> str:
    """The text of json.dumps(payload, indent=2), built without its encoder.

    With any indent the standard library runs its pure-Python encoder, one
    generator frame per container.  Payloads hold only exact dicts with str
    keys, lists, str, int, bool and None, plus the float timings of
    --no-deterministic; a list of only ints or only strs is joined in one
    go.  Any other type raises TypeError, as json.dumps does for Fraction,
    and nesting deeper than the recursion limit raises RecursionError.
    """
    out: list[str] = []
    _encode(payload, "\n", out)
    return "".join(out)


def _encode(value, newline: str, out: list[str]) -> None:
    kind = type(value)
    if kind is str:
        out.append(encode_basestring_ascii(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif value is None:
        out.append("null")
    elif kind is bool:
        out.append("true" if value else "false")
    elif kind is float:
        text = float.__repr__(value)
        out.append(_NONFINITE.get(text, text))
    elif kind is list:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        kinds = set(map(type, value))
        if kinds == {int} or kinds == {str}:
            each = int.__repr__ if kinds == {int} else encode_basestring_ascii
            out.append(
                "[" + inner + ("," + inner).join(map(each, value))
                + newline + "]"
            )
            return
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _encode(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            if type(key) is not str:
                raise TypeError(
                    f"keys must be str, not {type(key).__name__}"
                )
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _encode(item, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(
            f"Object of type {kind.__name__} is not JSON serializable"
        )
