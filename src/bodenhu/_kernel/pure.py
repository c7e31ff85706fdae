"""Pure-Python scan kernel and JSON writer.

Given partition shapes (tuples of support bitmasks), enumerate all degree
assignments and all cyclic-order representatives, evaluate every rotation of
the pairing sum via the rotation identity, and report the candidates that
violate the smallness margin.  scan_partition_batch scans the shapes it is
given; scan_shapes scans every shape of n slots, streamed from
partitions.iter_partition_shapes.  This is the plain oracle: every ordering
is evaluated on its own.  dumps writes the CLI's JSON payloads.  Twin of
the compiled kernel in _speedups.c, which must match it exactly and carry
the same KERNEL_API.

Both kernels accept at most MAX_SLOTS slots and MAX_BLOCKS blocks per scanned
shape and raise ValueError beyond that.  Within those limits every quantity
is a small machine integer: the pairing is bounded by a few thousand, far
inside 64-bit range.
"""

from __future__ import annotations

import itertools
from json.encoder import encode_basestring_ascii

from ..core import MAX_SLOTS
from ..partitions import iter_partition_shapes

# Bumped whenever an entry point is added or its contract changes;
# _speedups.c defines the same number.
KERNEL_API = 3
MAX_BLOCKS = 16
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
