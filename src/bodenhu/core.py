"""Exact value types and the closed-form pairings on multiplicity vectors.

All weights are `fractions.Fraction` and every derived quantity is either a
Fraction or an integer.  Nothing in the package uses floating point: wall
membership is an exact equality test and must never be decided by an epsilon,
and the timings that `scan --no-deterministic` writes are whole milliseconds.

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
from math import lcm
from operator import index
from typing import Iterable, Sequence

from . import _kernel
from ._kernel.pure import MAX_SLOTS, _subset_sum_table, mask_support

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
    "check_genus",
    "mask_support",
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

# The CLI refuses N beyond this unless --cap or BODENHU_CAP_N raises it, to
# no more than MAX_SLOTS, the slot count both kernels are built for.  The
# library takes no cap: its calls run up to MAX_SLOTS.
DEFAULT_CAP = 14


class DimensionMismatchError(ValueError):
    """Raised when operands live over different numbers of weight slots."""


class CapExceededError(ValueError):
    """Raised by the CLI when N exceeds its enumeration cap."""


class NotGenericError(ValueError):
    """Raised when an operation requires a generic weight vector."""


class ConstructionRangeError(ValueError):
    """Raised when (N, s) is outside the range of the known constructions."""


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or a bare integer "p" into an exact Fraction.

    ASCII "p/q" with a nonzero q, and ASCII "p", each p with an optional
    sign, are read with int(); any other text goes through
    Fraction(text.strip()), which takes the same values and raises for
    the rest.
    """
    num, slash, den = text.partition("/")
    digits = num[1:] if num.startswith(("+", "-")) else num
    try:
        if (
            text.isascii()
            and digits.isdigit()
            and (not slash or den.isdigit() and den.strip("0"))
        ):
            return Fraction(int(num), int(den) if slash else 1)
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed rational {text!r}") from exc


def check_genus(g: int) -> None:
    """Reject a genus that is not an integer >= 2."""
    if not isinstance(g, int) or g < 2:
        raise ValueError(f"genus must be an integer >= 2, got {g!r}")


# _BYTE_MULTS[byte] is the 0/1 multiplicities of byte's eight slots, lowest
# bit first, built on first use, so an import that builds no block does not
# pay for it.
_BYTE_MULTS: list[tuple[int, ...]] = []


def _mask_mults(n: int, mask: int) -> tuple[int, ...]:
    """The 0/1 multiplicities of the n slots of mask, slot i on bit i - 1:
    a byte at a time from _BYTE_MULTS, cut to n slots."""
    if not _BYTE_MULTS:
        _BYTE_MULTS.extend(
            tuple(byte >> i & 1 for i in range(8)) for byte in range(256)
        )
    mults: tuple[int, ...] = ()
    for shift in range(0, n, 8):
        mults += _BYTE_MULTS[mask >> shift & 0xFF]
    return mults[:n]


@dataclass(frozen=True)
class MultiplicityVector:
    """A vector (r, d | m_1, ..., m_N) of slot multiplicities with degree offset.

    `mults` are nonnegative integers, not all zero; `r` is their sum.  The
    degree offset `d_check` may be any integer here (per-block range rules are
    enforced by the partition layer, not by the raw vector).  Both are read
    with operator.index, so a value that is not an integer raises TypeError.
    """

    d_check: int
    mults: tuple[int, ...]
    r: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        mults = tuple(map(index, self.mults))
        if not mults:
            raise ValueError("multiplicity vector needs at least one slot")
        if any(m < 0 for m in mults):
            raise ValueError("multiplicities must be nonnegative")
        total = sum(mults)
        if total <= 0:
            raise ValueError("total multiplicity r must be positive")
        object.__setattr__(self, "mults", mults)
        object.__setattr__(self, "d_check", index(self.d_check))
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
        m = cls(d_check, _mask_mults(n, mask))
        m.__dict__["support_mask"] = mask
        return m

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
            mults=_mask_mults(n, mask),
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
        return tuple(mask_support(self.support_mask))

    @cached_property
    def support_mask(self) -> int:
        """Bitmask of the support, slot n on bit n-1."""
        return sum(1 << i for i, m in enumerate(self.mults) if m)

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
    """A point of the open weight space W(N,s): 0 < a_1 < ... < a_N < 1, sum s.

    Validation computes the scaled-integer form once, denom (the lcm D of
    the entry denominators) and nums (the entries times D), and checks
    those integers.  The single-alpha decisions read the tables below, each
    built on first use and kept on this instance only; none of them, nor
    denom and nums, takes part in ==, hash or repr.
    """

    entries: tuple[Fraction, ...]
    s: int = field(init=False, repr=False, compare=False)
    denom: int = field(init=False, repr=False, compare=False)
    nums: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Fraction(e) would copy an entry that already is a Fraction.
        entries = tuple(
            e if type(e) is Fraction else Fraction(e) for e in self.entries
        )
        if len(entries) < 2:
            raise ValueError("a weight vector needs at least two entries")
        denom = lcm(*(e.denominator for e in entries))
        nums = tuple(e.numerator * (denom // e.denominator) for e in entries)
        if nums[0] <= 0 or nums[-1] >= denom:
            raise ValueError("weights must lie strictly between 0 and 1")
        if any(a >= b for a, b in zip(nums, nums[1:])):
            raise ValueError("weights must be strictly increasing")
        s, rest = divmod(sum(nums), denom)
        if rest:
            raise ValueError(f"weights must sum to an integer, got {sum(entries)}")
        if not 0 < s < len(entries):
            raise ValueError(f"weight sum s={s} outside 0 < s < N={len(entries)}")
        self.__dict__.update(entries=entries, s=s, denom=denom, nums=nums)

    @property
    def n(self) -> int:
        return len(self.entries)

    @cached_property
    def half_sums(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        """(h, low, high): the subset sums of nums[:h] and nums[h:], h = N // 2.

        So no single-alpha decision builds a table of all 2^N sums."""
        h = len(self.nums) // 2
        return h, _subset_sum_table(self.nums[:h]), _subset_sum_table(self.nums[h:])

    def scaled_sum(self, mask: int) -> int:
        """D times the sum of the entries over the bits of mask."""
        h, low, high = self.half_sums
        return low[mask & ((1 << h) - 1)] + high[mask >> h]

    @cached_property
    def admissible(self) -> dict[int, int]:
        """The admissible blocks at alpha: every mask of rank >= 2 whose
        subset sum is an integer, ascending, mapped to its degree, minus
        that sum.  One call of the kernel's admissible; callers only read
        the dict.  Past the kernel's MAX_SLOTS slots it raises ValueError.
        """
        return _kernel.admissible(self.n, self.nums, self.denom)

    @cached_property
    def wall_mask(self) -> int:
        """The smallest admissible mask holding slot 1 with rank at most
        N-2 (the first wall through alpha), or 0 when alpha is generic."""
        for mask in self.admissible:
            if mask & 1 and mask.bit_count() <= self.n - 2:
                return mask
        return 0

    @cached_property
    def residue_order(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The low halves sorted by low[lo] mod D, and those residues."""
        _, low, _ = self.half_sums
        order = sorted(range(len(low)), key=lambda lo: low[lo] % self.denom)
        return tuple(order), tuple(low[lo] % self.denom for lo in order)

    def __str__(self) -> str:
        return ",".join(str(e) for e in self.entries)


def parse_weight_vector(text: str) -> WeightVector:
    """Parse a comma-separated list of rationals into a WeightVector.

    Blank text is the vector of no entries, which WeightVector refuses.
    Otherwise no entry may be blank, so that a doubled, leading or trailing
    comma is refused rather than changing N.
    """
    if not text.strip():
        return WeightVector(())
    parts = text.split(",")
    for i, part in enumerate(parts, 1):
        if not part.strip():
            raise ValueError(f"weight entry {i} of {len(parts)} is empty")
    return WeightVector(tuple(parse_rational(p) for p in parts))


@dataclass(frozen=True)
class ModuliContext:
    """Moduli data (N, s): N weight slots and integer weight sum s.

    Nothing here depends on the genus; the fiber report takes it on its own.
    """

    n: int
    s: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("need at least two weight slots")
        if not 0 < self.s < self.n:
            raise ValueError(f"s={self.s} outside 0 < s < N={self.n}")

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
    check_genus(g)
    return Fraction(_twice_h1_dim(m, m2, g), 2)


def _twice_h1_dim(m: MultiplicityVector, m2: MultiplicityVector, g: int) -> int:
    """2 * h1_dim: (2g - 1) r r' - sum_n m_n m'_n - delta(m, m'), unchecked."""
    dot = sum(a * b for a, b in zip(m.mults, m2.mults))
    return (2 * g - 1) * m.r * m2.r - dot - delta(m, m2)
