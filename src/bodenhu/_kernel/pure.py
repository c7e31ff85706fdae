"""Pure-Python kernel: the scan, the single-alpha decision and the JSON writer.

Given partition shapes (tuples of support bitmasks), enumerate all degree
assignments and all cyclic-order representatives, evaluate every rotation of
the pairing sum via the rotation identity, and report the candidates that
violate the smallness margin.  scan_partition_batch scans the shapes it is
given; scan_shapes scans every shape of n slots, streamed from
partitions.iter_partition_shapes.  This is the plain oracle: every ordering
is evaluated on its own.

At one weight vector, alpha_shapes lists the partitions built from the
admissible blocks, and rate_orders rates every cyclic ordering of one of
them from a pairing matrix of support-mask popcounts.  These hold the
package's only copy of that recursion and of the pairing and rotation
formulas.  dumps writes the CLI's JSON payloads.  Twin of the compiled
kernel in _speedups.c, which must match it exactly and carry the same
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

from ..core import MAX_SLOTS
from ..partitions import iter_partition_shapes

# Bumped whenever an entry point is added or its contract changes;
# _speedups.c defines the same number.
KERNEL_API = 4
MAX_BLOCKS = 16
MAX_DEGREE = 1 << 32
_BATCH = 4096


def scan_shapes(
    n: int, s_filter: int, semismall: bool, min_len: int
) -> tuple[list, dict]:
    """Scan every partition shape of n slots with at least min_len blocks.

    The shapes are those of partitions.iter_partition_shapes(n, min_len), in
    its order; the other arguments are as for scan_partition_batch.  Returns
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
    shapes = iter_partition_shapes(n, min_len)
    while batch := list(itertools.islice(shapes, _BATCH)):
        viols, counts = scan_partition_batch(
            n, s_filter, semismall, min_len, batch
        )
        violations.extend((batch[pi], *rest) for pi, *rest in viols)
        for s, (cand, classes) in counts.items():
            acc = stats.setdefault(s, [0, 0])
            acc[0] += cand
            acc[1] += classes
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
        L = len(masks)
        if L < min_len:
            continue
        if L > MAX_BLOCKS:
            raise ValueError(f"kernel supports at most {MAX_BLOCKS} blocks")
        positions = [
            [i + 1 for i in range(n) if mask >> i & 1] for mask in masks
        ]
        ranks = [len(pos) for pos in positions]
        T = [sum(n - 2 * a + 1 for a in pos) for pos in positions]
        X = [[0] * L for _ in range(L)]
        for i in range(L):
            for j in range(i + 1, L):
                x = 0
                for a in positions[i]:
                    for b in positions[j]:
                        x += 1 if b > a else -1
                X[i][j] = x
                X[j][i] = -x
        perms = list(itertools.permutations(range(1, L)))
        nperm = len(perms)
        threshold = L - 1
        for degs in itertools.product(
            *[range(-(r - 1), 0) for r in ranks]
        ):
            s_val = -sum(degs)
            if s_filter and s_val != s_filter:
                continue
            st = stats.get(s_val)
            if st is None:
                st = stats[s_val] = [0, 0]
            st[0] += 1
            st[1] += nperm
            q = [
                -2 * ranks[i] * s_val - 2 * n * degs[i] + T[i]
                for i in range(L)
            ]
            p = [[0] * L for _ in range(L)]
            for i in range(L):
                for j in range(L):
                    if i != j:
                        p[i][j] = (
                            2 * (ranks[i] * degs[j] - ranks[j] * degs[i])
                            + X[i][j]
                        )
            for perm in perms:
                order = (0,) + perm
                r0 = 0
                for u in range(L):
                    pu = p[order[u]]
                    for v in range(u + 1, L):
                        r0 += pu[order[v]]
                pre = 0
                maxpre = 0
                for l in range(L - 1):
                    pre += q[order[l]]
                    if pre > maxpre:
                        maxpre = pre
                minrot = r0 - 2 * maxpre
                if minrot > threshold or (
                    not semismall and minrot == threshold
                ):
                    rots = []
                    pre = 0
                    for l in range(L):
                        rots.append(r0 - 2 * pre)
                        if l < L - 1:
                            pre += q[order[l]]
                    violations.append((pi, degs, order, tuple(rots)))
    return violations, stats


def alpha_shapes(n: int, masks, min_len: int) -> list[tuple[int, ...]]:
    """The partitions of n slots into the given blocks, as sorted mask tuples.

    masks are the admissible blocks at one weight vector, ascending, each of
    rank >= 2 within the n slots.  They are grouped by lowest slot, keeping
    their order; the recursion covers the lowest uncovered slot with each
    block of that slot that fits, and stops once fewer than min_len blocks
    can be reached.  With the ascending admissible masks this lists the
    shapes of partitions.iter_partition_shapes(n, min_len, block_ok) in the
    same order, without probing every submask.

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


def _pair_delta(a: int, da: int, b: int, db: int) -> int:
    """delta of two disjoint 0/1 blocks, given by support mask and degree.

    The cross term of delta is r_a r_b - 2 #{(i, j) in a x b : j < i},
    counted with one popcount per slot of a.
    """
    ra, rb = a.bit_count(), b.bit_count()
    below = 0
    while a:
        low = a & -a
        below += (b & (low - 1)).bit_count()
        a ^= low
    return 2 * (ra * db - rb * da) + ra * rb - 2 * below


def rate_orders(masks, degs, semismall: bool) -> tuple[list[dict], int]:
    """Every cyclic ordering of one partition, rated by its rotation values.

    masks and degs give the blocks: disjoint supports (not checked) and
    their degrees.  One pairing matrix P[i][j] = delta(block i, block j)
    serves every ordering.  An ordering's first rotation value sums P over
    its ordered pairs; moving the head block to the back reverses its pairs
    with every other block, so r_{l+1} = r_l - 2 q[order[l]], with q the row
    sums of P.  An ordering violates the margin when its least rotation
    value is at least L - 1 (semismall: above it).

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
    pair = [[0] * L for _ in range(L)]
    for i in range(L):
        for j in range(i + 1, L):
            d = _pair_delta(masks[i], degs[i], masks[j], degs[j])
            pair[i][j] = d
            pair[j][i] = -d
    q = [sum(row) for row in pair]
    bar = L if semismall else L - 1
    orderings: list[dict] = []
    first = -1
    for perm in itertools.permutations(range(1, L)):
        order = (0,) + perm
        r = 0
        for i, a in enumerate(order):
            row = pair[a]
            for b in order[i + 1 :]:
                r += row[b]
        rots = [r]
        for a in order[:-1]:
            r -= 2 * q[a]
            rots.append(r)
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
