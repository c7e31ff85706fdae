"""Dimension bookkeeping for strata and fiber components.

Every quantity here is a closed-form evaluation: the dimension of the moduli
space attached to a multiplicity vector, the codimension of the stratum
attached to a partition, and the dimension of the fiber component attached to
an ordered partition.  No geometry is modelled; the functions only turn the
combinatorial data into exact numbers.

The smallness margin of a component is stratum codimension minus twice the
component dimension.  It equals L - 1 - delta_seq of the ordering and is
therefore independent of the genus, which the report functions expose by
taking the genus as an explicit parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import (
    MultiplicityVector,
    WeightVector,
    _twice_h1_dim,
    check_genus,
    delta_seq,
)
from .partitions import (
    OrderedPartition,
    Partition,
    _require_generic,
    _stable_rotation,
)
from .smallness import ordering_representatives

__all__ = [
    "FiberReport",
    "moduli_dim",
    "stratum_codim",
    "fiber_component_dim",
    "fiber_report",
]


def moduli_dim(m: MultiplicityVector, g: int) -> Fraction:
    """Dimension (g - 1/2) r^2 - (sum of squared multiplicities)/2 + 1.

    The value is an integer whenever r and the multiplicity square sum share
    a parity, which holds for every integer multiplicity vector; the return
    type stays Fraction so callers can feed the value back into exact
    arithmetic without conversion.
    """
    check_genus(g)
    square_sum = sum(c * c for c in m.mults)
    return Fraction(2 * g - 1, 2) * m.r**2 - Fraction(square_sum, 2) + 1


def stratum_codim(xi: Partition, g: int) -> int:
    """Codimension 1 - L + (2g - 1) * (sum of rank products over pairs)."""
    check_genus(g)
    ranks = [b.r for b in xi.blocks]
    total = sum(ranks)
    pair_sum = (total * total - sum(r * r for r in ranks)) // 2
    return 1 - len(ranks) + (2 * g - 1) * pair_sum


def _blocks_of(sigma: OrderedPartition | Sequence[MultiplicityVector]) -> tuple[
    MultiplicityVector, ...
]:
    if isinstance(sigma, OrderedPartition):
        return sigma.seq
    return tuple(sigma)


def fiber_component_dim(
    sigma: OrderedPartition | Sequence[MultiplicityVector], g: int
) -> int:
    """Dimension 1 - L + sum over pairs l1 < l2 of h1_dim(later, earlier).

    The blocks must have pairwise disjoint supports; the pair sum then always
    lands on an integer.  It is summed doubled, in integers.
    """
    check_genus(g)
    blocks = _blocks_of(sigma)
    seen = 0
    for b in blocks:
        if seen & b.support_mask:
            raise ValueError("blocks must have pairwise disjoint supports")
        seen |= b.support_mask
    twice = 2 * (1 - len(blocks))
    for l1, earlier in enumerate(blocks):
        for later in blocks[l1 + 1 :]:
            twice += _twice_h1_dim(later, earlier, g)
    if twice % 2:
        raise AssertionError(f"fiber component dimension {twice}/2 is not integral")
    return twice // 2


@dataclass(frozen=True)
class FiberReport:
    """Every fiber component over the stratum of one partition.

    components pairs each stable ordering with its dimension; margins runs in
    parallel and holds stratum_codim - 2*dim per component, which equals
    L - 1 - delta_seq of the ordering.
    """

    partition: Partition
    genus: int
    components: tuple[tuple[OrderedPartition, int], ...]
    stratum_codim: int
    margins: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.components) != len(self.margins):
            raise ValueError("components and margins must align")
        for (ordering, dim), margin in zip(self.components, self.margins):
            if margin != self.stratum_codim - 2 * dim:
                raise ValueError(
                    f"margin {margin} does not match codim {self.stratum_codim}"
                    f" minus twice dim {dim}"
                )
            pair_sum = (
                delta_seq(ordering.seq) if len(ordering) >= 2 else 0
            )
            if margin != len(ordering) - 1 - pair_sum:
                raise ValueError("margin must be genus independent")


def fiber_report(xi: Partition, beta: WeightVector, g: int = 2) -> FiberReport:
    """All (L-1)! fiber components over the stratum of xi, at a generic beta.

    Each cyclic ordering class contributes exactly one component, placed at
    the unique beta-stable rotation of the class.  beta must be generic;
    whether it is near a weight vector that makes xi a partition is left to
    the caller.
    """
    check_genus(g)
    if xi.n != beta.n:
        raise ValueError(f"partition has {xi.n} slots, beta has {beta.n}")
    _require_generic(beta)
    codim = stratum_codim(xi, g)
    components = []
    margins = []
    for rep in ordering_representatives(xi):
        sigma = rep.rotation(_stable_rotation(rep, beta))
        dim = fiber_component_dim(sigma, g)
        components.append((sigma, dim))
        margins.append(codim - 2 * dim)
    try:
        report = FiberReport(xi, g, tuple(components), codim, tuple(margins))
    except ValueError as exc:
        # the components and margins were computed here, not given
        raise AssertionError(f"fiber report is inconsistent: {exc}") from exc
    if len(report.components) != math.factorial(len(xi) - 1):
        raise AssertionError("fiber report must list every cyclic ordering")
    return report
