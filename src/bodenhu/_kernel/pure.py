"""Pure-Python kernel: the scan, the single-alpha decision, the realisation
of candidate partitions, the block formatter and the JSON writer.

Each formula is written once: the pairing matrix P[i][j] = delta(block i,
block j) = 2(r_i d_j - r_j d_i) + X[i][j] (_cross_terms builds X from the
supports, _place_degrees adds the degrees) and the rotation walk from r_0,
the sum of P over an ordering's pairs, by r_{l+1} = r_l - 2 q[order[l]]:
moving the head block to the back reverses its pairs (_rotations).

Block input has one rule in both twins: the shapes of scan_partition_batch
and rate_orders and the blocks of realise must be set partitions of the n
slots, which _read_partition checks; anything else raises ValueError.
scan_partition_batch runs _scan_shape on each shape, and scan_shapes is
that batch over every shape of iter_partition_shapes; with a settle
callable it hands each violating candidate of an s not yet settled to
settle, and returns those records with the stats, keys ascending.
_scan_shape takes q in closed form, delta(block, one-vector), O(L) per
candidate against O(L^2) for row sums, since building P and q is most of
the scan's time, and inlines r_0 and the prefix maximum, calling _rotations
only for a violation: through _rotations the N = 11 scan was slower in 9 of
10 concurrent pairs, by 5% (small) and 12% (semismall) in the median and up
to 31%.  This is the plain oracle: every ordering is evaluated on its own.
It is deliberately unpruned: the compiled twin skips the ordering walk of
each candidate whose rotation bound B - 2 max |q| lies below the margin
(see _speedups.c), and this full walk is what that bound is checked
against.  Likewise it enumerates every shape in settle mode, where the
compiled twin skips the subtrees whose totals are all settled and takes the
stats from the closed form.  admissible finds the blocks that can occur
at one weight vector, with their degrees, by a meet-in-the-middle
subset-sum search; alpha_shapes lists the partitions into those blocks
through the same shape walk, _walk_shapes, with the listed blocks in place
of every submask, and
rate_orders rates every ordering of each partition of a list of them in one
call, from _pairing, P with its row sums.  dumps writes the CLI's JSON
payloads, one item at a time.  Twin of the compiled kernel in _speedups.c,
with the same decomposition; it must match it exactly and carry the same
KERNEL_API.

realise decides one candidate partition of the slots: the closed-form wall
gate wall_meets, a pivot on each block's lowest slot, and the package's one
Fourier-Motzkin solver, _solve_strict, on the integer chain rows, with the
witness as integers over one denominator.  realise_shapes runs it over
every candidate of one (n, s) in the order of iter_partition_shapes and
itertools.product, and hands back the blocks and reduced witness entries
of the realisable ones once each, with a row of indices per candidate.
walls lists the nonempty walls of one W(n, s) through
the same wall_meets, the one closed form of a wall in this twin.
blocks formats (mask, degree) pairs as the CLI's payload blocks, each
{"support": [...], "degree": d}, through mask_support, the package's one
mask->support helper, a loop over the set bits with no lookup table, which
lives here because this twin imports nothing from the package.  blocks,
mask_support and dumps keep no fast path of their own: with the compiled
kernel the CLI builds its blocks and its JSON in C.
weightspace builds its general rational systems on the same _insert_row
and _solve_strict.  Here the integers grow as they must; the compiled twin
checks every 64-bit operation of the realisation and of admissible and
hands a call that overflows back to this one.

Every entry reads each argument through one reader per kind, twins of the
compiled ones: _read_n, _read_int, _read_ints, _read_partition, _read_flag
(the semismall flag, whose truth is tested once, as the "p" format does),
_read_settle (None or a callable) and _read_pair (a (mask, degree) pair),
all before any other check (a batch measures each shape against min_len
first; rate_orders reads its shapes and their degrees one shape at a time,
through _read_shapes, after n and the flag; blocks reads its pairs one at
a time).  Both kernels
accept at most MAX_BLOCKS blocks per scanned shape and raise ValueError
beyond that.  Within those limits every
quantity is a small machine integer: the pairing is bounded by a few
thousand, far inside 64-bit range.  rate_orders also takes degrees up to
MAX_DEGREE in absolute value, which keeps every rotation value below 2^50.
"""

from __future__ import annotations

import itertools
from json.encoder import encode_basestring_ascii
from math import gcd
from operator import index, mul
from typing import Iterator, Optional, Sequence

# Bumped whenever an entry point is added or its contract changes;
# _speedups.c defines the same number.
KERNEL_API = 16
# Both kernels keep per-slot state in fixed arrays of this size, so it bounds
# every library call and the CLI's enumeration cap; core re-exports it.
MAX_SLOTS = 30
MAX_BLOCKS = 16
MAX_DEGREE = 1 << 32


def iter_partition_shapes(n: int, min_len: int = 1) -> Iterator[tuple[int, ...]]:
    """Stream the set partitions of n slots into at least min_len blocks of
    size >= 2, as ascending mask tuples: the shape walk over every submask.
    The block of the lowest free slot comes first, its co-members in
    ascending submask order, as in walk_shapes of _speedups.c."""
    return _walk_shapes(n, min_len, None)


def _walk_shapes(n: int, min_len: int, by_low) -> Iterator[tuple[int, ...]]:
    """The one shape walk: cover the lowest free slot with each of its
    blocks, ascending, prune once fewer than min_len blocks can be reached,
    and yield each shape with its masks sorted ascending.  A slot's blocks
    are those of by_low[slot] that fit, or, with by_low None, the slot with
    each nonempty submask of the other free slots that leaves no lone slot."""
    acc: list[int] = []

    def rec(remaining: int) -> Iterator[tuple[int, ...]]:
        if not remaining:
            if len(acc) >= min_len:
                yield tuple(sorted(acc))
            return
        if len(acc) + remaining.bit_count() // 2 < min_len:
            return
        low = remaining & -remaining
        if by_low is not None:
            slot = low.bit_length() - 1
            blocks = [m for m in by_low[slot] if m & remaining == m]
        else:
            rest, s, blocks = remaining ^ low, 0, []
            while s != rest:
                s = (s - rest) & rest
                if (rest ^ s).bit_count() != 1:
                    blocks.append(low | s)
        for block in blocks:
            acc.append(block)
            yield from rec(remaining ^ block)
            acc.pop()

    if n >= 2:
        yield from rec((1 << n) - 1)


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


def _read_int(value) -> int:
    """value as an int: TypeError unless it is an integer."""
    return index(value)


def _read_flag(value) -> bool:
    """value's truth, tested once, as the compiled twin's "p" format does."""
    return bool(value)


def _read_settle(value):
    """value, the settle argument of scan_shapes: None, or a callable
    (TypeError otherwise)."""
    if value is not None and not callable(value):
        raise TypeError("settle must be None or callable")
    return value


def _read_ints(values) -> tuple[int, ...]:
    """values, an iterable, as a tuple of ints, each read by _read_int."""
    return tuple(map(_read_int, values))


def _read_n(n) -> int:
    """n as an int, the slot count of every entry: read by _read_int, and
    ValueError unless it lies in 0..MAX_SLOTS."""
    n = _read_int(n)
    if not 0 <= n <= MAX_SLOTS:
        raise ValueError(f"kernel supports 0 to {MAX_SLOTS} slots")
    return n


def _read_partition(n: int, masks: tuple[int, ...]) -> tuple[int, ...]:
    """masks from _read_ints, once checked to partition the n slots.

    Raises ValueError unless the masks are nonempty, within the n slots,
    pairwise disjoint and cover every slot.  A block of rank 1 is allowed;
    it has no degree.
    """
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


def _read_pair(pair) -> tuple[int, int]:
    """pair, one (mask, degree) block of blocks: unpacked as two values,
    each read by _read_int, then ValueError unless the mask lies in
    1..2^MAX_SLOTS - 1."""
    mask, degree = pair
    mask, degree = _read_int(mask), _read_int(degree)
    if not 0 < mask < 1 << MAX_SLOTS:
        raise ValueError(f"a block mask must lie in 1..2^{MAX_SLOTS} - 1")
    return mask, degree


def scan_shapes(
    n: int, s_filter: int, semismall: bool, min_len: int, settle=None
) -> tuple[list, dict]:
    """Scan every partition shape of n slots with at least min_len blocks,
    in the order of iter_partition_shapes(n, min_len).

    With settle None this is scan_partition_batch over those shapes, and
    raises as it does.  With a callable settle, a total s is live until it
    is settled: for each live candidate with a violating ordering, in
    canonical order, settle(masks, degs, order, rots) is called once, with
    the candidate's lexicographically first violating ordering, and a true
    result (its truth tested once, as _read_flag does) settles s.  Returns
    (records, stats): records are the argument tuples passed to settle, in
    order, and stats the full scan's, its keys ascending.  An exception
    from settle propagates.  This twin still enumerates and counts every
    candidate; the compiled one skips the work a settled s no longer
    needs and takes stats from the closed form.
    """
    n, s_filter, semismall, min_len, settle = (
        _read_n(n), _read_int(s_filter), _read_flag(semismall),
        _read_int(min_len), _read_settle(settle),
    )
    shapes = iter_partition_shapes(n, min_len)
    if settle is None:
        return scan_partition_batch(n, s_filter, semismall, min_len, shapes)
    records: list = []
    stats: dict = {}
    settled: set = set()
    for masks in shapes:
        violations: list = []
        _scan_shape(n, s_filter, semismall, masks, violations, stats)
        last = None
        for record in violations:
            s = -sum(record[1])
            if record[1] == last or s in settled:
                continue
            last = record[1]
            records.append(record)
            if _read_flag(settle(*record)):
                settled.add(s)
    return records, dict(sorted(stats.items()))


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

    Raises as the readers do, and ValueError for a shape that min_len does
    not skip but has more than MAX_BLOCKS blocks or does not partition the
    n slots; a shape is measured, and skipped, before it is read.
    """
    n, s_filter, semismall, min_len = (
        _read_n(n), _read_int(s_filter), _read_flag(semismall),
        _read_int(min_len),
    )
    violations: list = []
    stats: dict = {}
    for masks in masks_list:
        if len(masks) < min_len:
            continue
        if len(masks) > MAX_BLOCKS:
            raise ValueError(f"kernel supports at most {MAX_BLOCKS} blocks")
        masks = _read_partition(n, _read_ints(masks))
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


def _subset_sum_table(values: Sequence[int]) -> tuple[int, ...]:
    """sums[mask] = the sum of values over the bits of mask, for every mask."""
    sums = [0]
    for x in values:
        sums += [t + x for t in sums]
    return tuple(sums)


def admissible(n: int, nums, denom: int) -> dict[int, int]:
    """The admissible blocks at the weight vector nums / denom: every mask
    of rank >= 2 whose scaled subset sum is divisible by denom, mapped to
    its degree -(sum // denom), inserted in ascending mask order.

    Meet in the middle (Horowitz and Sahni 1974): with h = n // 2, the
    subset sums of nums[:h] (low) and of nums[h:] (high) are tabulated, and
    lo | hi << h is admissible iff low[lo] and high[hi] are opposite modulo
    denom, so the low halves are bucketed by residue and each high half
    makes one lookup: 2^(n/2) plus the output, never all 2^n sums.

    Raises as the readers do, or ValueError unless nums holds n values and
    denom is positive.
    """
    n, nums, denom = _read_n(n), _read_ints(nums), _read_int(denom)
    if len(nums) != n:
        raise ValueError("nums must hold n values")
    if denom <= 0:
        raise ValueError("denom must be positive")
    h = n // 2
    low, high = _subset_sum_table(nums[:h]), _subset_sum_table(nums[h:])
    buckets: dict[int, list[int]] = {}
    for lo, t in enumerate(low):
        buckets.setdefault(t % denom, []).append(lo)
    found: dict[int, int] = {}
    for hi, t in enumerate(high):
        for lo in buckets.get(-t % denom, ()):
            mask = lo | hi << h
            if mask.bit_count() >= 2:
                found[mask] = -((low[lo] + t) // denom)
    return found


def alpha_shapes(n: int, masks, min_len: int) -> list[tuple[int, ...]]:
    """The partitions of n slots into the given blocks, as sorted mask tuples.

    masks are the admissible blocks at one weight vector, ascending, each of
    rank >= 2 within the n slots: the keys of admissible's dict, which may
    be passed as it is.  They are grouped by lowest slot, keeping
    their order, and are the block source of the one shape walk,
    _walk_shapes.  With the ascending admissible masks this lists, in the
    same order, the shapes of iter_partition_shapes(n, min_len) whose blocks
    are all admissible, without probing every submask.

    Raises as the readers do, each mask read in turn, or ValueError for a
    mask outside the n slots or of rank below 2.
    """
    n, min_len = _read_n(n), _read_int(min_len)
    by_low: list[list[int]] = [[] for _ in range(n)]
    for mask in map(_read_int, masks):
        if not 0 < mask < 1 << n or mask.bit_count() < 2:
            raise ValueError(
                f"mask {mask} is not a block of rank >= 2 within {n} slots"
            )
        by_low[(mask & -mask).bit_length() - 1].append(mask)
    return list(_walk_shapes(n, min_len, by_low))


def _read_shapes(n: int, shapes, degree):
    """Each listed shape of rate_orders as (masks, degs), read in turn.

    The masks are read by _read_ints and must partition the n slots, as
    _read_partition checks, into 2..MAX_BLOCKS blocks.  Then each mask's
    degree is looked up in degree (a mask it lacks raises KeyError) and
    read by _read_int, and every degree must lie within MAX_DEGREE.
    """
    for masks in shapes:
        masks = _read_ints(masks)
        if len(masks) < 2:
            raise ValueError("rotation values need at least two blocks")
        if len(masks) > MAX_BLOCKS:
            raise ValueError(f"kernel supports at most {MAX_BLOCKS} blocks")
        _read_partition(n, masks)
        degs = [_read_int(degree[mask]) for mask in masks]
        for d in degs:
            if not -MAX_DEGREE <= d <= MAX_DEGREE:
                raise ValueError("degrees must lie within -2^32..2^32")
        yield masks, degs


def rate_orders(
    n: int, shapes, degree, semismall: bool
) -> tuple[list[list[dict]], Optional[tuple[int, int]]]:
    """Every cyclic ordering of each listed partition, rated by its rotation
    values.

    shapes lists the partitions, each a sequence of block masks that must
    partition the n slots, and degree maps each mask to its degree; both
    are read shape by shape, as _read_shapes says.  An ordering of L blocks
    violates the margin when its least rotation value is at least L - 1
    (semismall: above it).

    Returns (ratings, first).  ratings[i] holds one dict {"order",
    "rotation_deltas", "violates"} per ordering of shapes[i], ready for
    JSON, in the lex order of itertools.permutations(range(1, L)) behind
    block 0; first is (i, j) for the first violating ordering, ratings[i][j]
    in that canonical order, or None.

    Raises as the readers do: ValueError for a shape that does not
    partition the n slots into 2..MAX_BLOCKS blocks or a degree past
    MAX_DEGREE, KeyError for a mask that degree lacks.
    """
    n, semismall = _read_n(n), _read_flag(semismall)
    ratings: list[list[dict]] = []
    first = None
    for masks, degs in _read_shapes(n, shapes, degree):
        pair, q = _pairing(masks, degs)
        bar = len(masks) if semismall else len(masks) - 1
        orderings: list[dict] = []
        for perm in itertools.permutations(range(1, len(masks))):
            order = (0,) + perm
            rots = _rotations(pair, q, order)
            violates = min(rots) >= bar
            if violates and first is None:
                first = (len(ratings), len(orderings))
            orderings.append(
                {"order": list(order), "rotation_deltas": rots,
                 "violates": violates}
            )
        ratings.append(orderings)
    return ratings, first


class _Infeasible(Exception):
    """A row 0 < b with b <= 0: the strict system has no solution."""


def _insert_row(rows: dict, coeffs: Sequence[int], b: int) -> None:
    """Divide the row coeffs.y < b by the gcd of its entries, then add it to
    rows unless a row with the same coefficients is there, which keeps the
    smaller b.  A zero row 0 < b is dropped, or _Infeasible when b <= 0."""
    g = gcd(*coeffs, b)
    if g > 1:
        coeffs, b = [c // g for c in coeffs], b // g
    coeffs = tuple(coeffs)
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
                    _insert_row(keep, comb, m * bu + a * bl)
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


def walls(n: int, s: int) -> list[tuple[int, int]]:
    """The nonempty walls of W(n, s) as (mask, d_check) pairs.

    A wall is named by its canonical summand, the one containing slot 1:
    masks run over the odd ones ascending, and degrees ascending over
    -(r - 1)..-1 with the complementary summand's degree -s - d_check in
    -(n - r - 1)..-1 as well, which leaves only ranks 2..n-2.  wall_meets
    keeps those whose wall meets the open W(n, s).

    Raises as the readers do, or ValueError unless 0 < s < n.
    """
    n, s = _read_n(n), _read_int(s)
    if not 0 < s < n:
        raise ValueError("the weight sum s must lie strictly between 0 and n")
    found = []
    for mask in range(1, 1 << n, 2):
        r = mask.bit_count()
        # empty unless 2 <= r <= n - 2
        for d in range(max(1 - r, 1 - s), min(0, n - r - s)):
            if wall_meets(n, s, mask, d):
                found.append((mask, d))
    return found


def mask_support(mask: int) -> list[int]:
    """The 1-based slots of the set bits of mask (slot n on bit n-1), ascending.

    The package's one mask->support helper, kept in this twin, which
    imports nothing from the package, so that blocks can use it;
    bodenhu.core re-exports it.  It takes the lowest set bit off until none
    is left.  A negative mask, which has no finite set of bits, raises
    ValueError."""
    if mask < 0:
        raise ValueError(f"a support mask must be nonnegative, got {mask}")
    support: list[int] = []
    while mask:
        low = mask & -mask
        support.append(low.bit_length())
        mask ^= low
    return support


def blocks(pairs) -> list[dict]:
    """The payload block of each (mask, degree) pair, in input order: a new
    {"support": mask_support(mask), "degree": degree} dict per pair, keys
    in that order, the package's one block formatter.

    Each pair is read by _read_pair, so the degree comes back as _read_int
    returns it: an int at its exact value, True as 1.  Raises as that
    reader does: TypeError for an item that is not iterable or a value
    that is not an integer, ValueError for an item that yields fewer or
    more than two values or a mask outside 1..2^MAX_SLOTS - 1.
    """
    found = []
    for mask, degree in map(_read_pair, pairs):
        found.append({"support": mask_support(mask), "degree": degree})
    return found


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
    {0, +-1, +-2}.  _insert_row divides each row by the gcd of its
    coefficients and bound, and _solve_strict solves the rest over the free
    slots.

    Raises as the readers do, or ValueError for lengths that differ.
    """
    n, masks, degs = _read_n(n), _read_ints(masks), _read_ints(degs)
    _read_partition(n, masks)
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
            _insert_row(rows, row, b)
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


def realise_shapes(n: int, s: int, min_len: int) -> tuple[list, list, list]:
    """Every candidate partition of n slots with total degree -s that some
    point of W(n,s) realises, with its witness.

    The candidates are the shapes of iter_partition_shapes(n, min_len), in
    its order, each with its degree assignments d_i in -(r_i - 1)..-1
    summing to -s, in itertools.product order (the rightmost degree
    fastest).  Returns (blocks, entries, rows): blocks holds the distinct
    (mask, d_check) of the candidates realise accepts and entries the
    distinct coordinates of their witnesses (nums, den), each as the
    reduced (p, q), q > 0, both in first-use order; rows holds one
    (block indices, entry indices) per accepted candidate, in candidate
    order, so that candidate's blocks and witness x_v = p / q are the
    table entries they index.

    Raises as the readers do.
    """
    n, s, min_len = _read_n(n), _read_int(s), _read_int(min_len)
    blocks: dict[tuple[int, int], int] = {}
    entries: dict[tuple[int, int], int] = {}
    rows: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    if 0 < s < n:
        for masks in iter_partition_shapes(n, min_len):
            ranges = [range(1 - mask.bit_count(), 0) for mask in masks]
            for degs in itertools.product(*ranges):
                witness = realise(n, masks, degs) if sum(degs) == -s else None
                if witness is not None:
                    nums, den = witness
                    rows.append((
                        tuple(
                            blocks.setdefault(block, len(blocks))
                            for block in zip(masks, degs)
                        ),
                        tuple(
                            entries.setdefault(_reduced(x, den), len(entries))
                            for x in nums
                        ),
                    ))
    return list(blocks), list(entries), rows


def _reduced(p: int, q: int) -> tuple[int, int]:
    """p / q in lowest terms, for q > 0."""
    g = gcd(p, q)
    return p // g, q // g


def dumps(payload) -> str:
    """The text of json.dumps(payload, indent=2), built without its encoder.

    With any indent the standard library runs its pure-Python encoder, one
    generator frame per container.  Payloads hold only exact dicts with str
    keys, lists, str, int, bool and None, each written by one walk of
    _encode.  Any other type, float and Fraction among them,
    raises the TypeError json.dumps raises for a Fraction, and nesting
    deeper than the recursion limit raises RecursionError.
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
    elif kind is list:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
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
