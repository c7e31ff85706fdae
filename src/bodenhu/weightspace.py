"""Wall-and-chamber geometry of the open weight space W(N,s).

The open weight space is the rational polytope 0 < a_1 < ... < a_N < 1 with
integer coordinate sum s.  Walls are the hyperplanes deg_alpha(m) = 0 cut out
by proper summands m of the one-vector; a weight vector is generic when it
lies on no wall.  Everything here is decided exactly, never through floats
or an epsilon.  Whether a wall meets W(N,s) has a closed form (wall_meets):
the closure is a simplex with known vertices.  enumerate_walls lists the
nonempty walls through the kernel's walls, compiled when it is built, which
runs that closed form over every candidate wall; wall_meets itself is
pure.py's.  Partition systems and general systems go through one
Fourier-Motzkin solver on integer rows, which handles strict inequalities
natively (strict + strict combines to strict); it lives in the pure kernel
(_kernel/pure.py) and is imported from there.  realise_blocks decides
partition systems through the kernel's realise, compiled when it is built,
and turns only the witness into Fractions; feasible builds the rows of a
general rational system.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Optional, Sequence

from .core import (
    DimensionMismatchError,
    ModuliContext,
    MultiplicityVector,
    WeightVector,
)
from . import _kernel
from ._kernel.pure import (
    _Infeasible,
    _insert_row,
    _solve_strict,
    _subset_sum_table,
    wall_meets,
)

__all__ = [
    "Wall",
    "LinearSystem",
    "feasible",
    "interior_system",
    "wall_system",
    "partition_system",
    "realise_blocks",
    "subset_sums",
    "wall_meets",
    "enumerate_walls",
    "is_generic",
    "is_near",
    "perturbation_direction",
    "find_generic_near",
]


@dataclass(frozen=True)
class Wall:
    """A nonempty wall of W(N,s), named by its canonical summand (m_1 = 1).

    Instances are produced by enumerate_walls, from the kernel's walls,
    which certifies nonemptiness through the closed-form wall_meets in
    either twin, and by is_generic, where the tested weight vector itself
    lies on the wall; both construction sites guarantee the wall meets the
    open weight space.
    """

    m: MultiplicityVector

    def __post_init__(self) -> None:
        if not self.m.is_zero_one():
            raise ValueError("wall representative must have 0/1 multiplicities")
        if self.m.mults[0] != 1:
            raise ValueError("canonical wall representative must contain slot 1")
        r = self.m.r
        if not 2 <= r <= self.m.n - 2:
            raise ValueError("wall rank must lie between 2 and N-2")
        if not -r < self.m.d_check < 0:
            raise ValueError("wall degree must lie strictly between -r and 0")

    def __str__(self) -> str:
        sup = ",".join(str(i) for i in self.m.support)
        return f"wall[{{{sup}}} deg {self.m.d_check}]"


@dataclass
class LinearSystem:
    """An exact linear system: equalities c.x = b and strict inequalities c.x < b."""

    n_vars: int
    equalities: list[tuple[tuple[Fraction, ...], Fraction]] = field(
        default_factory=list
    )
    strict_inequalities: list[tuple[tuple[Fraction, ...], Fraction]] = field(
        default_factory=list
    )

    def add_eq(self, coeffs: Sequence, rhs) -> None:
        self.equalities.append(
            (tuple(Fraction(c) for c in coeffs), Fraction(rhs))
        )

    def add_lt(self, coeffs: Sequence, rhs) -> None:
        """Record sum(coeffs * x) < rhs."""
        self.strict_inequalities.append(
            (tuple(Fraction(c) for c in coeffs), Fraction(rhs))
        )


def _substitute(row: list[Fraction], rhs: Fraction, pivots: dict) -> Fraction:
    """Eliminate all pivot variables from row in place; return the new rhs."""
    for pv, (pcoeffs, pconst) in pivots.items():
        a = row[pv]
        if a:
            row[pv] = Fraction(0)
            for v, pc in enumerate(pcoeffs):
                if pc:
                    row[v] += a * pc
            rhs -= a * pconst
    return rhs


def _normalize_int_row(
    coeffs: Sequence[Fraction], rhs: Fraction
) -> tuple[list[int], int]:
    """Scale a strict inequality to integers by clearing its denominators;
    _insert_row divides out the gcd."""
    denom = lcm(rhs.denominator, *(c.denominator for c in coeffs))
    return [int(c * denom) for c in coeffs], int(rhs * denom)


def feasible(system: LinearSystem) -> Optional[tuple[Fraction, ...]]:
    """Decide the system exactly; return a rational witness point or None.

    Equalities are eliminated first by Gauss-Jordan substitution (pivot on the
    lowest-index variable with a nonzero coefficient), then Fourier-Motzkin
    (_solve_strict) runs on the strict inequalities over the free variables
    and the pivots are recovered from the free values.
    """
    n = system.n_vars

    # Stage 1: equalities -> substitution expressions x_p = const + sum c_v x_v.
    pivots: dict[int, tuple[list[Fraction], Fraction]] = {}
    for coeffs, rhs in system.equalities:
        if len(coeffs) != n:
            raise DimensionMismatchError("equality row has wrong arity")
        row = [Fraction(c) for c in coeffs]
        b = _substitute(row, Fraction(rhs), pivots)
        pivot = next((v for v in range(n) if row[v]), None)
        if pivot is None:
            if b != 0:
                return None
            continue
        a = row[pivot]
        expr = [-c / a for c in row]
        expr[pivot] = Fraction(0)
        const = b / a
        for pv, (pcoeffs, pconst) in pivots.items():
            factor = pcoeffs[pivot]
            if factor:
                pcoeffs[pivot] = Fraction(0)
                for v, c in enumerate(expr):
                    if c:
                        pcoeffs[v] += factor * c
                pivots[pv] = (pcoeffs, pconst + factor * const)
        pivots[pivot] = (expr, const)

    free = [v for v in range(n) if v not in pivots]

    # Stage 2: substitute into the strict inequalities, over free vars only.
    rows: dict[tuple[int, ...], int] = {}
    try:
        for coeffs, rhs in system.strict_inequalities:
            if len(coeffs) != n:
                raise DimensionMismatchError("inequality row has wrong arity")
            row = [Fraction(c) for c in coeffs]
            b = _substitute(row, Fraction(rhs), pivots)
            reduced = tuple(row[v] for v in free)
            _insert_row(rows, *_normalize_int_row(reduced, b))
    except _Infeasible:
        return None
    found = _solve_strict(rows, len(free))
    if found is None:
        return None

    values, den = found
    point: list[Fraction] = [Fraction(0)] * n
    for v, value in zip(free, values):
        point[v] = Fraction(value, den)
    for pv, (pcoeffs, pconst) in pivots.items():
        acc = pconst
        for v in free:
            c = pcoeffs[v]
            if c:
                acc += c * point[v]
        point[pv] = acc
    return tuple(point)


def realise_blocks(
    n: int, blocks: Sequence[tuple[int, int]]
) -> Optional[tuple[Fraction, ...]]:
    """feasible(partition_system(n, blocks)), on integers until the witness.

    The (mask, d_check) blocks must be nonempty, disjoint and cover every
    slot; otherwise, and for n above the kernel's 30 slots, ValueError.
    The kernel's realise decides them: the wall gate, the pivot on each
    block's lowest slot and Fourier-Motzkin on the chain rows, the steps
    feasible takes on the same system, so the witness is the same.
    """
    found = _kernel.realise(
        n, [mask for mask, _ in blocks], [d for _, d in blocks]
    )
    if found is None:
        return None
    nums, den = found
    return tuple(Fraction(x, den) for x in nums)


def _unit(n: int, j: int, value=1) -> tuple[Fraction, ...]:
    row = [Fraction(0)] * n
    row[j] = Fraction(value)
    return tuple(row)


def interior_system(n: int, s: int) -> LinearSystem:
    """The open chamber 0 < x_1 < ... < x_n < 1 with sum x = s."""
    sys = LinearSystem(n)
    sys.add_eq((Fraction(1),) * n, Fraction(s))
    _add_chain(sys)
    return sys


def _add_chain(sys: LinearSystem) -> None:
    n = sys.n_vars
    sys.add_lt(_unit(n, 0, -1), 0)  # -x_1 < 0
    for i in range(n - 1):
        row = [Fraction(0)] * n
        row[i] = Fraction(1)
        row[i + 1] = Fraction(-1)
        sys.add_lt(tuple(row), 0)  # x_i - x_{i+1} < 0
    sys.add_lt(_unit(n, n - 1, 1), 1)  # x_n < 1


def wall_system(n: int, s: int, support: Sequence[int], d_check: int) -> LinearSystem:
    """Points of W(n,s) lying on the wall sum_{support} x = -d_check."""
    sys = interior_system(n, s)
    row = [Fraction(0)] * n
    for idx in support:
        row[idx - 1] = Fraction(1)
    sys.add_eq(tuple(row), Fraction(-d_check))
    return sys


def partition_system(
    n: int, blocks: Sequence[tuple[int, int]]
) -> LinearSystem:
    """Points of the open chamber where each (mask, d_check) block sums to -d_check.

    The blocks must cover every slot, so the total sum equality is implied and
    not added separately.
    """
    sys = LinearSystem(n)
    _add_chain(sys)
    covered = 0
    for mask, d_check in blocks:
        row = [Fraction(0)] * n
        for i in range(n):
            if mask >> i & 1:
                row[i] = Fraction(1)
        sys.add_eq(tuple(row), Fraction(-d_check))
        covered |= mask
    if covered != (1 << n) - 1:
        raise ValueError("blocks must cover every slot")
    return sys


def enumerate_walls(ctx: ModuliContext) -> list[Wall]:
    """All nonempty walls of W(N,s), canonical representatives, sorted.

    The kernel's walls lists them: supports containing slot 1 (ascending
    bitmask) of rank 2..N-2, degrees ascending, each kept only if its
    complementary summand has an admissible degree too and the closed form
    wall_meets finds the wall in the open weight space.
    """
    n = ctx.n
    return [
        Wall(MultiplicityVector.from_mask(n, d, mask))
        for mask, d in _kernel.walls(n, ctx.s)
    ]


@lru_cache(maxsize=32)
def subset_sums(entries: tuple[Fraction, ...]) -> tuple[int, tuple[int, ...]]:
    """(D, sums): the subset sums of entries over all 2^N masks, scaled.

    sums[mask] is D times the sum of the entries over the bits of mask, and
    D is the lcm of the entry denominators.  The decision primitives work
    on the two half tables of WeightVector.half_sums; this full table is
    for callers that want every mask.  The cached value is immutable.
    """
    denom = lcm(*(e.denominator for e in entries))
    return denom, _subset_sum_table(
        [e.numerator * (denom // e.denominator) for e in entries]
    )


def is_generic(alpha: WeightVector) -> tuple[bool, Optional[Wall]]:
    """Whether alpha avoids every wall; on failure, the first violated wall.

    The first wall is the smallest canonical support (slot 1 included) of
    rank 2..N-2 with an integral subset sum: alpha.wall_mask, the first
    such key of alpha.admissible, the kernel's ascending dict of admissible
    blocks kept on alpha, which also gives its degree.  The offending wall
    is nonempty because alpha itself lies on it.
    """
    mask = alpha.wall_mask
    if not mask:
        return True, None
    degree = alpha.admissible[mask]
    return False, Wall(MultiplicityVector.from_mask(alpha.n, degree, mask))


def is_near(
    alpha: WeightVector, beta: WeightVector
) -> tuple[bool, Optional[MultiplicityVector]]:
    """Whether beta is near alpha: deg_alpha(m) < 0 implies deg_beta(m) < 0.

    The quantifier runs over all proper summands m of the one-vector.  For a
    fixed support only the largest degree with deg_alpha < 0 can bind, so one
    check per support suffices.  On failure the first binding summand (by
    ascending support bitmask) is returned; it need not lie on a nonempty
    wall, so it is reported as a raw vector rather than a Wall.

    Only masks close below an integer can bind.  With A and B the subset
    sums of alpha and beta, B(m) - A(m) <= up = sum max(0, beta_i - alpha_i),
    and m binds iff B(m) >= floor(A(m)) + 1, so a binding m has
    frac(A(m)) >= 1 - up: its scaled sum lies in the residues
    [D - width, D - 1] modulo D, width = floor(up D).  With numerators a_i
    over D and b_i over E, width = sum max(b_i D - a_i E, 0) // E.  The low
    halves are sorted by residue (alpha.residue_order); for each high half
    two bisections find the low halves that land in that range (which may
    wrap around), and only those masks are tested exactly, in ascending
    order.  Near alpha, up is tiny and the range holds almost no masks;
    with width 0 (up < 1/D) it holds none, since no scaled sum has a
    residue above D - 1, and beta is near alpha without a look at a mask.
    """
    if alpha.n != beta.n:
        raise DimensionMismatchError(
            f"slot counts differ: {alpha.n} vs {beta.n}"
        )
    if alpha.s != beta.s:
        raise DimensionMismatchError(
            f"weight sums differ: {alpha.s} vs {beta.s}"
        )
    n = alpha.n
    den_a, den_b = alpha.denom, beta.denom
    width = sum(
        max(b * den_a - a * den_b, 0) for a, b in zip(alpha.nums, beta.nums)
    ) // den_b
    if width == 0:
        return True, None
    h, low_a, high_a = alpha.half_sums
    _, low_b, high_b = beta.half_sums
    by_residue, residues = alpha.residue_order
    full = (1 << n) - 1
    for hi, (ta_hi, tb_hi) in enumerate(zip(high_a, high_b)):
        if width >= den_a:
            los = by_residue
        else:
            # low[lo] + high[hi] lands in [D - width, D - 1] iff low[lo]
            # lies in [start, start + width) modulo D.
            start = (-width - ta_hi) % den_a
            stop = start + width
            los = by_residue[
                bisect_left(residues, start):bisect_left(residues, stop)
            ]
            if stop > den_a:
                los += by_residue[:bisect_left(residues, stop - den_a)]
        for lo in sorted(los):
            mask = lo | hi << h
            if mask == 0 or mask == full:
                continue
            # The largest degree with deg_alpha < 0 is -(floor(A) + 1); it
            # binds when deg_beta of that summand is >= 0.
            k = (low_a[lo] + ta_hi) // den_a + 1
            if low_b[lo] + tb_hi >= k * den_b:
                return False, MultiplicityVector.from_mask(n, -k, mask)
    return True, None


def perturbation_direction(alpha: WeightVector) -> tuple[Fraction, ...]:
    """The zero-sum direction v_n = 2N a_n - 2s + N - 2n + 1.

    Moving from alpha by a small positive multiple of v strictly decreases
    deg_alpha of every summand whose wall passes through alpha, which is what
    makes alpha + eps*v near alpha.
    """
    return tuple(Fraction(x, alpha.denom) for x in _scaled_direction(alpha))


def _scaled_direction(alpha: WeightVector) -> list[int]:
    """D times perturbation_direction(alpha), as integers."""
    n, s, denom = alpha.n, alpha.s, alpha.denom
    return [
        2 * n * a + (n - 2 * s - 2 * i - 1) * denom for i, a in enumerate(alpha.nums)
    ]


def _interior_point(nums: Sequence[int], denom: int) -> Optional[WeightVector]:
    """nums / denom, or None when it leaves the chamber (the caller keeps
    the sum s of alpha, so only the chamber checks can fail)."""
    try:
        return WeightVector(tuple(Fraction(x, denom) for x in nums))
    except ValueError:
        return None


_THETA_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
    53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
)


def find_generic_near(alpha: WeightVector) -> WeightVector:
    """A generic weight vector near alpha; alpha itself when already generic.

    Deterministic two-stage perturbation: first alpha + eps*v with v the
    canonical zero-sum direction and eps = 1/(4*N*maxdenominator) halved until
    the point is interior and near alpha; then a zero-sum Vandermonde tweak
    delta*w(theta), w_n(theta) = theta^n - (sum_k theta^k)/N, over successive
    primes theta with delta halving, until the result is generic while staying
    near both alpha and the first-stage point.  Each candidate is built as
    integer numerators over one denominator: eps = 1/scale, and
    delta*w(theta) = W/scale with W = N w(theta) integral.
    """
    if is_generic(alpha)[0]:
        return alpha

    n, denom = alpha.n, alpha.denom
    v = _scaled_direction(alpha)
    max_den = max(e.denominator for e in alpha.entries)
    base = alpha
    if any(v):
        scale = 4 * n * max_den
        for _ in range(200):
            cand = _interior_point(
                [a * scale + x for a, x in zip(alpha.nums, v)], denom * scale
            )
            if cand is not None and is_near(alpha, cand)[0]:
                base = cand
                break
            scale *= 2
        else:
            raise AssertionError("eps halving failed to stay interior and near")

    for theta in _THETA_PRIMES:
        powers = [theta ** (i + 1) for i in range(n)]
        total = sum(powers)
        w = [n * p - total for p in powers]
        # Scale so the first candidate moves by at most 1/(4*N*maxden).
        scale = 4 * n * max_den * max(abs(x) for x in w)
        for _ in range(80):
            beta = _interior_point(
                [b * scale + base.denom * x for b, x in zip(base.nums, w)],
                base.denom * scale,
            )
            if (
                beta is not None
                and is_generic(beta)[0]
                and is_near(base, beta)[0]
                and is_near(alpha, beta)[0]
            ):
                return beta
            scale *= 2
    raise AssertionError("generic perturbation not found; should be unreachable")
