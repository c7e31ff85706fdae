"""Pure-Python kernel: the scan, the single-alpha decision, the realisation
of candidate partitions and the JSON writer.

Each formula is written once: the pairing matrix P[i][j] = delta(block i,
block j) = 2(r_i d_j - r_j d_i) + X[i][j] (_cross_terms builds X from the
supports, _place_degrees adds the degrees) and the rotation walk from r_0,
the sum of P over an ordering's pairs, by r_{l+1} = r_l - 2 q[order[l]]:
moving the head block to the back reverses its pairs (_rotations).

Block input has one rule in both twins: the shapes of scan_partition_batch
and the blocks of realise must be set partitions of the n slots, which
_read_partition checks; anything else raises ValueError.
scan_partition_batch runs _scan_shape on each shape, and scan_shapes is that
batch over every shape of iter_partition_shapes.  _scan_shape takes q in
closed form, delta(block, one-vector), O(L) per candidate against O(L^2) for
row sums, since building P and q is most of the scan's time, and walks the
rotations only for a violation.  This is the plain oracle: every ordering is
evaluated on its own.  It is deliberately unpruned: the compiled twin skips
the ordering walk of each candidate whose rotation bound B - 2 max |q| lies
below the margin (see _speedups.c), and this full walk is what that bound
is checked against.  alpha_shapes lists the partitions into the
admissible blocks at one weight vector, and rate_orders rates every
ordering of one of them from _pairing, P with its row sums.  dumps writes
the CLI's JSON payloads.  Twin of the compiled kernel in _speedups.c, with
the same decomposition; it must match it exactly and carry the same
KERNEL_API.

realise decides one candidate partition of the slots: the closed-form wall
gate wall_meets, a pivot on each block's lowest slot, and the package's one
Fourier-Motzkin solver, _solve_strict, on the integer chain rows, with the
witness as integers over one denominator.  realise_shapes runs it over
every candidate of one (n, s) in the order of iter_partition_shapes and
itertools.product.  weightspace builds its general rational systems on the
same _insert_row and _solve_strict, and its walls on wall_meets.  Here the
integers grow as they must; the compiled twin checks every 64-bit
operation and hands a call that overflows back to this one.

Both kernels accept at most MAX_SLOTS slots and MAX_BLOCKS blocks per scanned
shape and raise ValueError beyond that.  Within those limits every quantity
is a small machine integer: the pairing is bounded by a few thousand, far
inside 64-bit range.  rate_orders also takes degrees up to MAX_DEGREE in
absolute value, which keeps every rotation value below 2^50.
"""

from __future__ import annotations

import itertools
from json.encoder import encode_basestring_ascii
from math import gcd
from operator import mul
from typing import Iterator, Optional

from ..core import MAX_SLOTS

# Bumped whenever an entry point is added or its contract changes;
# _speedups.c defines the same number.
KERNEL_API = 6
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


def _read_partition(n: int, masks) -> tuple[int, ...]:
    """masks as a tuple, once they are checked to partition the n slots.

    Raises ValueError for n outside 0..MAX_SLOTS, or unless the masks are
    nonempty, within the n slots, pairwise disjoint and cover every slot.
    A block of rank 1 is allowed; it has no degree.
    """
    if not 0 <= n <= MAX_SLOTS:
        raise ValueError(f"kernel supports 0 to {MAX_SLOTS} slots")
    masks = tuple(masks)
    covered = 0
    for mask in masks:
        if not 0 < mask < 1 << n or covered & mask:
            raise ValueError(
                "blocks must be nonempty, pairwise disjoint and within n slots"
            )
        covered |= mask
    if covered != (1 << n) - 1:
        raise ValueError("blocks must cover every slot")
    return masks


def scan_shapes(
    n: int, s_filter: int, semismall: bool, min_len: int
) -> tuple[list, dict]:
    """Scan every partition shape of n slots with at least min_len blocks:
    scan_partition_batch over the shapes of iter_partition_shapes(n, min_len),
    in its order.  Raises ValueError for n < 0 or n > MAX_SLOTS."""
    return scan_partition_batch(
        n, s_filter, semismall, min_len, iter_partition_shapes(n, min_len)
    )


def scan_partition_batch(
    n: int,
    s_filter: int,
    semismall: bool,
    min_len: int,
    masks_list,
) -> tuple[list, dict]:
    """Scan a batch of partition shapes for rotation-criterion violations.

    Arguments:
        n: number of weight slots.
        s_filter: keep only degree assignments with total -s_filter (0 = all).
        semismall: test the semismall margin (strict >) instead of small (>=).
        min_len: skip shapes with fewer blocks.
        masks_list: the shapes, each a set partition of the n slots given as
            a sequence of block bitmasks.

    Returns (violations, stats):
        violations: list of (masks, degrees, order, rotations) in
            enumeration order; masks is the shape as a tuple, order a tuple
            of block indices with order[0] == 0; rotations holds all L
            rotation values of the pairing sum for that ordering.
        stats: dict mapping s to [candidate_count, ordering_class_count].

    Raises ValueError for n < 0, n > MAX_SLOTS, and for a shape that
    min_len does not skip but has more than MAX_BLOCKS blocks or does not
    partition the n slots.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > MAX_SLOTS:
        raise ValueError(f"kernel supports at most {MAX_SLOTS} slots")
    violations: list = []
    stats: dict = {}
    for masks in masks_list:
        if len(masks) < min_len:
            continue
        if len(masks) > MAX_BLOCKS:
            raise ValueError(f"kernel supports at most {MAX_BLOCKS} blocks")
        masks = _read_partition(n, masks)
        _scan_shape(n, s_filter, semismall, masks, violations, stats)
    return violations, stats


def _scan_shape(n, s_filter, semismall, masks, violations, stats) -> None:
    """Scan one partition of the slots: append its violation records, each
    led by masks, and count its candidates and ordering classes into stats.
    A block of rank below 2 has no degree, so its shape has no candidate."""
    L = len(masks)
    ranks = [mask.bit_count() for mask in masks]
    T = [sum(n - 2 * a - 1 for a in range(n) if mask >> a & 1) for mask in masks]
    cross = _cross_terms(masks)
    # the orders with block 0 first; the partition of no slots has only ()
    head = (0,) if L else ()
    orders = [head + perm for perm in itertools.permutations(range(1, L))]
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
                violations.append((masks, degs, order, rots))


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


class _Infeasible(Exception):
    """A row 0 < b with b <= 0: the strict system has no solution."""


def _insert_row(rows: dict, coeffs: tuple[int, ...], b: int) -> None:
    """Dedupe rows by coefficient vector, keeping the tightest bound."""
    if not any(coeffs):
        if b <= 0:
            raise _Infeasible
        return
    old = rows.get(coeffs)
    if old is None or b < old:
        rows[coeffs] = b


def _solve_strict(rows: dict, k: int) -> Optional[tuple[list[int], int]]:
    """Fourier-Motzkin on primitive integer rows c.y < b over k variables.

    rows maps coefficient tuples to bounds, in insertion order.  Each step
    eliminates the lowest-index variable with the least pos * neg product,
    combining every upper row with every lower row (Schrijver, Theory of
    Linear and Integer Programming, section 12.2); strict + strict stays
    strict.  Returns the witness (nums, den), y_v = nums[v] / den, by
    reverse back-substitution, choosing interval midpoints (or bound +/- 1
    when one side is unbounded, 0 when both are), or None when the rows are
    infeasible.
    """
    eliminated: list[tuple[int, list, list]] = []
    remaining = list(range(k))
    try:
        while True:
            best = None
            for j in remaining:
                pos = sum(1 for c in rows if c[j] > 0)
                neg = sum(1 for c in rows if c[j] < 0)
                if pos == 0 and neg == 0:
                    continue
                score = pos * neg
                if best is None or score < best[0]:
                    best = (score, j, pos, neg)
            if best is None:
                break
            _, j, _, _ = best
            uppers = [(c, b) for c, b in rows.items() if c[j] > 0]
            lowers = [(c, b) for c, b in rows.items() if c[j] < 0]
            keep = {c: b for c, b in rows.items() if c[j] == 0}
            for cu, bu in uppers:
                for cl, bl in lowers:
                    a, m = cu[j], -cl[j]
                    comb = tuple(m * u + a * l for u, l in zip(cu, cl))
                    bc = m * bu + a * bl
                    g = gcd(*comb, bc)
                    if g > 1:
                        comb = tuple(c // g for c in comb)
                        bc //= g
                    _insert_row(keep, comb, bc)
            rows = keep
            eliminated.append((j, lowers, uppers))
            remaining.remove(j)
    except _Infeasible:
        return None

    # Reverse back-substitution, values nums[v] / den.  A row c.y < b bounds
    # y_j by (b den - c.nums) / (c_j den); nums[j] is still 0.
    nums, den = [0] * k, 1
    for j, lowers, uppers in reversed(eliminated):
        lo = hi = None
        for c, b in lowers:
            p, q = sum(map(mul, c, nums)) - b * den, -c[j] * den
            if lo is None or p * lo[1] > lo[0] * q:
                lo = (p, q)
        for c, b in uppers:
            p, q = b * den - sum(map(mul, c, nums)), c[j] * den
            if hi is None or p * hi[1] < hi[0] * q:
                hi = (p, q)
        if lo is not None and hi is not None:
            if not lo[0] * hi[1] < hi[0] * lo[1]:
                raise AssertionError("Fourier-Motzkin interval must be nonempty")
            p, q = lo[0] * hi[1] + hi[0] * lo[1], 2 * lo[1] * hi[1]
        elif hi is not None:
            p, q = hi[0] - hi[1], hi[1]
        elif lo is not None:
            p, q = lo[0] + lo[1], lo[1]
        else:
            p, q = 0, 1
        g = gcd(p, q)
        p, q = p // g, q // g
        scale = q // gcd(den, q)
        if scale > 1:
            nums = [x * scale for x in nums]
            den *= scale
        nums[j] = p * (den // q)
    return nums, den


def wall_meets(n: int, s: int, mask: int, d_check: int) -> bool:
    """Whether the wall sum_{mask} x = -d_check meets the open W(n,s).

    The closure of W(n,s) is the slice sum x = s of the order polytope of a
    chain, a simplex whose vertices are the 0/1 step vectors u_j (ones on
    the top j slots).  With f_j the number of mask slots among the top j,
    the slice has the vertex u_s, with value f_s, and one vertex on each
    edge [u_i, u_j] with i < s < j, with value
    (f_i (j - s) + f_j (s - i)) / (j - i).  A hyperplane meets the relative
    interior iff some vertex lies strictly on each side of it, unless it
    contains the whole slice, which only the empty and the full support can
    do; those are refused.  Values are compared cross-multiplied, so
    everything stays in int.
    """
    if not 0 < mask < (1 << n) - 1:
        raise ValueError("a wall support must be a proper nonempty subset")
    t = -d_check
    f = [0] * (n + 1)
    for j in range(1, n + 1):
        f[j] = f[j - 1] + (mask >> (n - j) & 1)
    below = f[s] < t
    above = f[s] > t
    for i in range(s):
        for j in range(s + 1, n + 1):
            value, scale = f[i] * (j - s) + f[j] * (s - i), t * (j - i)
            below = below or value < scale
            above = above or value > scale
            if below and above:
                return True
    return False


def realise(n: int, masks, degs) -> Optional[tuple[tuple[int, ...], int]]:
    """A point of the open chamber where each block sums to minus its degree.

    masks and degs give the blocks (mask, d_check), which must be nonempty,
    pairwise disjoint and cover the n slots; s = -sum(degs).  Returns
    (nums, den), the witness x_v = nums[v] / den of Fourier-Motzkin on the
    partition system 0 < x_1 < ... < x_n < 1, sum_B x = -d_check, or None
    when no point of W(n,s) realises the blocks.

    A block whose own wall misses W(n,s) (wall_meets) already empties the
    system.  Otherwise each block pivots on its lowest slot p,
    x_p = -d_check - sum_{B - p} x_v, the pivot a Gauss-Jordan elimination
    of the equalities picks too; substituted into the chain rows
    -x_1 < 0, x_i - x_{i+1} < 0, x_n < 1, every coefficient stays in
    {0, +-1, +-2}.  Each row is divided by the gcd of its coefficients and
    bound, and _solve_strict solves the rest over the free slots.

    Raises ValueError as _read_partition does, or for lengths that differ.
    """
    masks = _read_partition(n, masks)
    if len(masks) != len(degs):
        raise ValueError("masks and degrees differ in length")
    pivots: dict[int, tuple[int, list[int]]] = {}  # p -> (d_check, B - p)
    for mask, d_check in zip(masks, degs):
        slots = [v for v in range(n) if mask >> v & 1]
        pivots[slots[0]] = (d_check, slots[1:])
    s = -sum(degs)
    if not 0 < s < n:
        return None
    if len(masks) > 1 and not all(
        wall_meets(n, s, mask, d_check) for mask, d_check in zip(masks, degs)
    ):
        return None
    free = [v for v in range(n) if v not in pivots]
    index_of = {v: i for i, v in enumerate(free)}

    # The chain -x_1 < 0, x_i - x_{i+1} < 0, x_n < 1 as (slot, coeff) terms.
    chain = [([(0, -1)], 0)]
    chain += [([(i, 1), (i + 1, -1)], 0) for i in range(n - 1)]
    chain.append(([(n - 1, 1)], 1))
    rows: dict[tuple[int, ...], int] = {}
    try:
        for terms, b in chain:
            row = [0] * len(free)
            for v, a in terms:
                if v in pivots:
                    d_check, rest = pivots[v]
                    b += a * d_check
                    for w in rest:
                        row[index_of[w]] -= a
                else:
                    row[index_of[v]] += a
            g = gcd(*row, b)
            if g > 1:
                row = [c // g for c in row]
                b //= g
            _insert_row(rows, tuple(row), b)
    except _Infeasible:
        return None
    found = _solve_strict(rows, len(free))
    if found is None:
        return None

    values, den = found
    nums = [0] * n
    for v, x in zip(free, values):
        nums[v] = x
    for p, (d_check, rest) in pivots.items():
        nums[p] = -d_check * den - sum(nums[w] for w in rest)
    return tuple(nums), den


def realise_shapes(n: int, s: int, min_len: int) -> list[tuple]:
    """Every candidate partition of n slots with total degree -s that some
    point of W(n,s) realises, with its witness.

    The candidates are the shapes of iter_partition_shapes(n, min_len), in
    its order, each with its degree assignments d_i in -(r_i - 1)..-1
    summing to -s, in itertools.product order (the rightmost degree
    fastest).  Returns [(masks, degs, nums, den), ...] over the candidates
    realise accepts, (nums, den) its witness.

    Raises ValueError for n outside 0..MAX_SLOTS.
    """
    if not 0 <= n <= MAX_SLOTS:
        raise ValueError(f"kernel supports 0 to {MAX_SLOTS} slots")
    found: list[tuple] = []
    if not 0 < s < n:
        return found
    for masks in iter_partition_shapes(n, min_len):
        ranges = [range(1 - mask.bit_count(), 0) for mask in masks]
        for degs in itertools.product(*ranges):
            if sum(degs) == -s:
                witness = realise(n, masks, degs)
                if witness is not None:
                    found.append((masks, degs, *witness))
    return found


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
