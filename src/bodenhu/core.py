"""Exact value types and the closed-form pairings on multiplicity vectors.

All weights are `fractions.Fraction` and every derived quantity is either a
Fraction or an integer.  Nothing in the package uses floating point: wall
membership is an exact equality test and must never be decided by an epsilon.

Conventions used throughout:

* weight slots are indexed 1..N (the math convention); Python tuples are
  0-based, so slot n lives at index n-1,
* a multiplicity vector is written (r, d | m_1, ..., m_N) where r is the total
  multiplicity and d the degree offset,
* the "one-vector" of a context (N, s) is (N, -s | 1, ..., 1); summands of it
  have 0/1 multiplicities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

__all__ = [
    "Rational",
    "DimensionMismatchError",
    "CapExceededError",
    "NotGenericError",
    "ConstructionRangeError",
    "DEFAULT_CAP",
    "MAX_SLOTS",
    "MultiplicityVector",
    "WeightVector",
    "ModuliContext",
    "parse_rational",
    "parse_weight_vector",
    "deg_alpha",
    "delta",
    "delta_seq",
    "dual_mult",
    "dual_weight",
    "hom_degree",
    "h1_dim",
]

Rational = Fraction

# Enumeration routines refuse N beyond this unless the caller raises the cap
# explicitly (the CLI exposes it via BODENHU_CAP_N).
DEFAULT_CAP = 14

# Both scan kernels keep per-slot state in fixed arrays of this size
# (_kernel/_speedups.c has the same bound), so no cap may exceed it.
MAX_SLOTS = 30


class DimensionMismatchError(ValueError):
    """Raised when operands live over different numbers of weight slots."""


class CapExceededError(ValueError):
    """Raised when an enumeration would exceed the configured N cap."""


class NotGenericError(ValueError):
    """Raised when an operation requires a generic weight vector."""


class ConstructionRangeError(ValueError):
    """Raised when (N, s) is outside the range of the known constructions."""


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or a bare integer "p" into an exact Fraction."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed rational {text!r}") from exc


def check_cap(n: int, cap: int = DEFAULT_CAP) -> None:
    """Guard enumeration entry points against runaway N."""
    if n > cap:
        raise CapExceededError(f"N={n} exceeds the enumeration cap {cap}")


@dataclass(frozen=True)
class MultiplicityVector:
    """A vector (r, d | m_1, ..., m_N) of slot multiplicities with degree offset.

    `mults` are nonnegative integers, not all zero; `r` is their sum.  The
    degree offset `d_check` may be any integer here (per-block range rules are
    enforced by the partition layer, not by the raw vector).
    """

    d_check: int
    mults: tuple[int, ...]
    r: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        mults = tuple(int(m) for m in self.mults)
        if not mults:
            raise ValueError("multiplicity vector needs at least one slot")
        if any(m < 0 for m in mults):
            raise ValueError("multiplicities must be nonnegative")
        total = sum(mults)
        if total <= 0:
            raise ValueError("total multiplicity r must be positive")
        object.__setattr__(self, "mults", mults)
        object.__setattr__(self, "d_check", int(self.d_check))
        object.__setattr__(self, "r", total)

    @classmethod
    def from_support(
        cls, n: int, d_check: int, support: Iterable[int]
    ) -> "MultiplicityVector":
        """Build the 0/1 vector over n slots with the given 1-based support."""
        mults = [0] * n
        for idx in support:
            if not 1 <= idx <= n:
                raise ValueError(f"support index {idx} outside 1..{n}")
            if mults[idx - 1]:
                raise ValueError(f"support index {idx} repeated")
            mults[idx - 1] = 1
        return cls(d_check, tuple(mults))

    @classmethod
    def from_mask(cls, n: int, d_check: int, mask: int) -> "MultiplicityVector":
        """Build the 0/1 vector over n slots whose support_mask is mask."""
        if mask >> n:
            raise ValueError(f"support mask {mask:#x} has bits beyond slot {n}")
        return cls(d_check, tuple(mask >> i & 1 for i in range(n)))

    @classmethod
    def _from_mask_unchecked(
        cls, n: int, d_check: int, mask: int
    ) -> "MultiplicityVector":
        """from_mask without validation, for enumerators.

        The caller guarantees an int d_check and 0 < mask < 2**n.
        """
        self = object.__new__(cls)
        self.__dict__.update(
            d_check=d_check,
            mults=tuple(mask >> i & 1 for i in range(n)),
            r=mask.bit_count(),
            support_mask=mask,
        )
        return self

    @property
    def n(self) -> int:
        return len(self.mults)

    @cached_property
    def support(self) -> tuple[int, ...]:
        """1-based indices of the nonzero slots."""
        return tuple(i + 1 for i, m in enumerate(self.mults) if m)

    @cached_property
    def support_mask(self) -> int:
        """Bitmask of the support, slot n on bit n-1."""
        mask = 0
        for i, m in enumerate(self.mults):
            if m:
                mask |= 1 << i
        return mask

    def is_zero_one(self) -> bool:
        return all(m in (0, 1) for m in self.mults)

    def __add__(self, other: "MultiplicityVector") -> "MultiplicityVector":
        _require_same_n(self, other)
        return MultiplicityVector(
            self.d_check + other.d_check,
            tuple(a + b for a, b in zip(self.mults, other.mults)),
        )

    def __str__(self) -> str:
        body = ",".join(str(m) for m in self.mults)
        return f"({self.r},{self.d_check}|{body})"


@dataclass(frozen=True)
class WeightVector:
    """A point of the open weight space W(N,s): 0 < a_1 < ... < a_N < 1, sum s."""

    entries: tuple[Fraction, ...]
    s: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        entries = tuple(Fraction(e) for e in self.entries)
        if len(entries) < 2:
            raise ValueError("a weight vector needs at least two entries")
        if entries[0] <= 0 or entries[-1] >= 1:
            raise ValueError("weights must lie strictly between 0 and 1")
        for a, b in zip(entries, entries[1:]):
            if a >= b:
                raise ValueError("weights must be strictly increasing")
        total = sum(entries)
        if total.denominator != 1:
            raise ValueError(f"weights must sum to an integer, got {total}")
        s = int(total)
        if not 0 < s < len(entries):
            raise ValueError(f"weight sum s={s} outside 0 < s < N={len(entries)}")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "s", s)

    @property
    def n(self) -> int:
        return len(self.entries)

    def __str__(self) -> str:
        return ",".join(str(e) for e in self.entries)


def parse_weight_vector(text: str) -> WeightVector:
    """Parse a comma-separated list of rationals into a WeightVector."""
    parts = [p for p in text.split(",") if p.strip()]
    return WeightVector(tuple(parse_rational(p) for p in parts))


@dataclass(frozen=True)
class ModuliContext:
    """Moduli data (N, s, g): N weight slots, integer sum s, genus g >= 2."""

    n: int
    s: int
    g: int = 2

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("need at least two weight slots")
        if not 0 < self.s < self.n:
            raise ValueError(f"s={self.s} outside 0 < s < N={self.n}")
        if self.g < 2:
            raise ValueError("genus must be at least 2")

    def one_vector(self) -> MultiplicityVector:
        """The vector (N, -s | 1, ..., 1) every candidate class must sum to."""
        return MultiplicityVector(-self.s, (1,) * self.n)


def _require_same_n(m: MultiplicityVector, m2: MultiplicityVector) -> None:
    if m.n != m2.n:
        raise DimensionMismatchError(
            f"slot counts differ: {m.n} vs {m2.n}"
        )


def deg_alpha(m: MultiplicityVector, alpha: WeightVector) -> Fraction:
    """Weighted degree d + sum_n m_n * alpha_n of m at the point alpha."""
    if m.n != alpha.n:
        raise DimensionMismatchError(
            f"slot counts differ: {m.n} vs {alpha.n}"
        )
    return Fraction(m.d_check) + sum(
        (mult * a for mult, a in zip(m.mults, alpha.entries)), Fraction(0)
    )


def delta(m: MultiplicityVector, m2: MultiplicityVector) -> int:
    """Antisymmetric pairing 2(r d' - r' d) + sum_{a<b} m_a m'_b - sum_{a>b} m_a m'_b.

    This integer controls how the degree of a homomorphism space changes when
    an ordered pair of classes is transposed, and its partial sums drive the
    rotation criterion.
    """
    _require_same_n(m, m2)
    cross = 0
    prefix = 0  # sum of m2.mults[:i]
    for i, a in enumerate(m.mults):
        suffix = m2.r - prefix - m2.mults[i]
        if a:
            cross += a * (suffix - prefix)
        prefix += m2.mults[i]
    return 2 * (m.r * m2.d_check - m2.r * m.d_check) + cross


def delta_seq(ms: Sequence[MultiplicityVector]) -> int:
    """Sum of delta over all ordered pairs (earlier, later) of the sequence."""
    if len(ms) < 2:
        raise ValueError("delta_seq needs at least two vectors")
    total = 0
    for i, m in enumerate(ms):
        for m2 in ms[i + 1 :]:
            total += delta(m, m2)
    return total


def dual_mult(m: MultiplicityVector) -> MultiplicityVector:
    """Duality: reverse the slots and send d to -r - d."""
    return MultiplicityVector(-m.r - m.d_check, tuple(reversed(m.mults)))


def dual_weight(alpha: WeightVector) -> WeightVector:
    """Duality on weights: a_n -> 1 - a_{N+1-n} (lands in W(N, N-s))."""
    return WeightVector(tuple(1 - e for e in reversed(alpha.entries)))


def hom_degree(m: MultiplicityVector, m2: MultiplicityVector) -> int:
    """Expected degree r d' - r' d - sum_{a>b} m_a m'_b of Hom(first, second)."""
    _require_same_n(m, m2)
    below = 0
    prefix = 0
    for i, a in enumerate(m.mults):
        if a:
            below += a * prefix
        prefix += m2.mults[i]
    return m.r * m2.d_check - m2.r * m.d_check - below


def h1_dim(m: MultiplicityVector, m2: MultiplicityVector, g: int) -> Fraction:
    """Dimension (g - 1/2) r r' - (sum_n m_n m'_n)/2 - delta(m, m')/2 of H^1.

    Integral whenever the supports are disjoint 0/1 vectors (the parity of
    delta matches r r' + sum m_n m'_n in that case).
    """
    _require_same_n(m, m2)
    if g < 2:
        raise ValueError("genus must be at least 2")
    dot = sum(a * b for a, b in zip(m.mults, m2.mults))
    return (
        (g - Fraction(1, 2)) * m.r * m2.r
        - Fraction(dot, 2)
        - Fraction(delta(m, m2), 2)
    )
