"""Candidate partitions of the one-vector and their ordered variants.

A partition here is a decomposition of the one-vector (N, -s | 1, ..., 1) into
0/1 summands with pairwise disjoint supports, every block of rank >= 2 and
degree strictly between -r and 0.  Blocks are stored canonically sorted by
support bitmask (slot n on bit n-1).

Enumeration streams partitions in a fixed recursion order: the block holding
the lowest unassigned slot is chosen first and its co-members run in ascending
bitmask order, so streams are deterministic, resumable, and chunkable by first
block.  Degree assignments for a fixed shape run lexicographically.  The pure
kernel holds the shape stream, re-exported here as iter_partition_shapes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .core import (
    DimensionMismatchError,
    ModuliContext,
    MultiplicityVector,
    NotGenericError,
    WeightVector,
)
from . import _kernel, weightspace
from ._kernel.pure import iter_partition_shapes

__all__ = [
    "Partition",
    "OrderedPartition",
    "iter_partition_shapes",
    "alpha_partitions",
    "feasible_partitions",
    "is_alpha_stable_seq",
    "stable_rotation",
]


def _validate_blocks(blocks: tuple[MultiplicityVector, ...]) -> None:
    if not blocks:
        raise ValueError("a partition needs at least one block")
    n = blocks[0].n
    covered = 0
    for b in blocks:
        if b.n != n:
            raise ValueError("blocks live over different slot counts")
        if not b.is_zero_one():
            raise ValueError("partition blocks must have 0/1 multiplicities")
        if b.r < 2:
            raise ValueError("partition blocks must have rank >= 2")
        if not -b.r < b.d_check < 0:
            raise ValueError(
                f"block degree {b.d_check} outside the open range (-{b.r}, 0)"
            )
        mask = b.support_mask
        if covered & mask:
            raise ValueError("block supports must be pairwise disjoint")
        covered |= mask
    if covered != (1 << n) - 1:
        raise ValueError("block supports must cover every slot")


@dataclass(frozen=True)
class Partition:
    """An unordered candidate partition; blocks sorted by support bitmask."""

    blocks: tuple[MultiplicityVector, ...]

    def __post_init__(self) -> None:
        blocks = tuple(
            sorted(self.blocks, key=lambda b: b.support_mask)
        )
        _validate_blocks(blocks)
        object.__setattr__(self, "blocks", blocks)

    @classmethod
    def _unchecked(cls, blocks: tuple[MultiplicityVector, ...]) -> "Partition":
        """A partition from blocks that are valid and sorted by support_mask."""
        self = object.__new__(cls)
        self.__dict__["blocks"] = blocks
        return self

    @property
    def n(self) -> int:
        return self.blocks[0].n

    @property
    def s(self) -> int:
        return -sum(b.d_check for b in self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)

    def __str__(self) -> str:
        return " | ".join(str(b) for b in self.blocks)


@dataclass(frozen=True)
class OrderedPartition:
    """A candidate partition together with a cyclic-order representative."""

    seq: tuple[MultiplicityVector, ...]

    def __post_init__(self) -> None:
        seq = tuple(self.seq)
        _validate_blocks(tuple(sorted(seq, key=lambda b: b.support_mask)))
        object.__setattr__(self, "seq", seq)

    @classmethod
    def _unchecked(
        cls, seq: tuple[MultiplicityVector, ...]
    ) -> "OrderedPartition":
        """An ordered partition from blocks that form a valid partition."""
        self = object.__new__(cls)
        self.__dict__["seq"] = seq
        return self

    @property
    def partition(self) -> Partition:
        return Partition(self.seq)

    @property
    def n(self) -> int:
        return self.seq[0].n

    def __len__(self) -> int:
        return len(self.seq)

    def rotation(self, l: int) -> "OrderedPartition":
        """The rotation starting at position l (0 <= l < L)."""
        l %= len(self.seq)
        return OrderedPartition._unchecked(self.seq[l:] + self.seq[:l])

    def rotations(self) -> list["OrderedPartition"]:
        return [self.rotation(l) for l in range(len(self.seq))]

    def __str__(self) -> str:
        return " -> ".join(str(b) for b in self.seq)


def _alpha_shapes(
    alpha: WeightVector, min_len: int
) -> tuple[list[tuple[int, ...]], dict[int, int]]:
    """The shapes of alpha_partitions as mask tuples, and the block degrees.

    A block with support B is admissible iff sum_B alpha is an integer; its
    degree is then forced to -sum_B alpha.  alpha.admissible, one call of
    the kernel's admissible kept on alpha, maps the admissible masks of
    rank >= 2, ascending, to their degrees, and the kernel's alpha_shapes
    lists the partitions into its keys.  Returns the shapes and that dict,
    which callers only read.  With min_len <= 1 its keys are exactly the
    masks the shapes use: the full mask is a shape by itself, and any other
    admissible mask has an integral complement (alpha sums to s), of rank
    >= 2 since no single entry, strictly between 0 and 1, is integral, so
    the two make a shape.  With a larger min_len the dict may also hold
    masks that no listed shape uses; callers look up only the masks of
    listed shapes.
    """
    degree = alpha.admissible
    return _kernel.alpha_shapes(alpha.n, degree, min_len), degree


def alpha_partitions(alpha: WeightVector, min_len: int = 1) -> list[Partition]:
    """All partitions of the one-vector whose block degrees are exact at alpha.

    The partitions of _alpha_shapes: the shapes of
    iter_partition_shapes(n, min_len) whose blocks are all admissible at
    alpha, in that order.  Each admissible mask gets one block, shared by
    every partition that uses it.  Nothing is re-validated: the shapes are
    sorted set partitions into blocks of size >= 2, and a block sum
    strictly between 0 and r puts its degree in [-(r-1), -1].
    """
    n = alpha.n
    shapes, degree = _alpha_shapes(alpha, min_len)
    block_of = {
        mask: MultiplicityVector._from_mask_unchecked(n, d, mask)
        for mask, d in degree.items()
    }
    return [
        Partition._unchecked(tuple(map(block_of.__getitem__, masks)))
        for masks in shapes
    ]


def feasible_partitions(
    ctx: ModuliContext, min_len: int = 1
) -> Iterator[tuple[Partition, tuple[Fraction, ...]]]:
    """Stream every candidate partition realisable somewhere in W(N,s).

    For each shape (ascending recursion order) and degree assignment
    (lexicographic, total -s), the exact feasibility solver either certifies a
    weight vector realising the partition (yielded as the witness) or rules
    the candidate out.  Exhaustive and deterministic: one call of the
    kernel's realise_shapes decides every candidate and hands back its
    distinct blocks and witness entries once each, so each distinct
    (degree, mask) gets one block and each distinct witness value one
    Fraction, shared by every partition of the call that uses it.
    """
    n = ctx.n
    blocks, entries, rows = _kernel.realise_shapes(n, ctx.s, min_len)
    block = [
        MultiplicityVector._from_mask_unchecked(n, d, mask)
        for mask, d in blocks
    ]
    value = [Fraction(p, q) for p, q in entries]
    for block_ix, entry_ix in rows:
        yield (
            Partition._unchecked(tuple(map(block.__getitem__, block_ix))),
            tuple(map(value.__getitem__, entry_ix)),
        )


def is_alpha_stable_seq(seq: OrderedPartition, alpha: WeightVector) -> bool:
    """Whether every proper leading partial sum has deg_alpha < 0.

    Requires the full sum to have degree zero at alpha (it is the one-vector
    of some (N, s), so this is a consistency check on alpha).
    """
    degrees = _scaled_prefix_degrees(seq, alpha)
    if degrees[-1] != 0:
        raise ValueError("total degree at alpha must be zero")
    return all(d < 0 for d in degrees[:-1])


def _scaled_prefix_degrees(seq: OrderedPartition, alpha: WeightVector) -> list[int]:
    """D times deg_alpha of each leading partial sum m^1 + ... + m^l, l = 1..L:
    the running sums of d D + alpha.scaled_sum(support) over the 0/1 blocks."""
    if seq.n != alpha.n:
        raise DimensionMismatchError(f"slot counts differ: {seq.n} vs {alpha.n}")
    denom = alpha.denom
    return list(
        itertools.accumulate(
            b.d_check * denom + alpha.scaled_sum(b.support_mask) for b in seq.seq
        )
    )


def stable_rotation(seq: OrderedPartition, beta: WeightVector) -> int:
    """The unique l such that the rotation of seq at l is beta-stable.

    beta must be generic; genericity makes the partial-sum degrees
    d(l) = deg_beta(m^1 + ... + m^l) pairwise distinct, and the stable
    rotation starts right after the maximiser.
    """
    _require_generic(beta)
    return _stable_rotation(seq, beta)


def _require_generic(beta: WeightVector) -> None:
    """Raise NotGenericError naming the first wall when beta lies on one."""
    ok, wall = weightspace.is_generic(beta)
    if not ok:
        raise NotGenericError(f"beta lies on {wall}")


def _stable_rotation(seq: OrderedPartition, beta: WeightVector) -> int:
    """stable_rotation for a beta the caller has already checked generic."""
    best_l, best_d, ties = 0, 0, 1
    for l, d in enumerate(_scaled_prefix_degrees(seq, beta)[:-1], start=1):
        if d == best_d:
            ties += 1
        elif d > best_d:
            best_l, best_d, ties = l, d, 1
    if ties != 1:
        raise NotGenericError("partial-sum degrees tie; beta cannot be generic")
    return best_l
