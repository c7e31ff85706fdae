"""Frozen values and algebraic properties of the degree and pairing formulas."""

import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bodenhu import (
    DimensionMismatchError,
    ModuliContext,
    MultiplicityVector,
    WeightVector,
    deg_alpha,
    delta,
    delta_seq,
    dual_mult,
    dual_weight,
    alpha_partitions,
    find_generic_near,
    h1_dim,
    hom_degree,
    is_generic,
    is_near,
    parse_rational,
    parse_weight_vector,
)
from bodenhu.core import mask_support
from conftest import REPO_ROOT, alarm


@st.composite
def mult_vectors(draw, n=None, max_mult=3, degree_span=6):
    if n is None:
        n = draw(st.integers(2, 8))
    mults = draw(
        st.lists(st.integers(0, max_mult), min_size=n, max_size=n).filter(any)
    )
    return MultiplicityVector(
        draw(st.integers(-degree_span, degree_span)), tuple(mults)
    )


@st.composite
def mult_vector_pairs(draw):
    n = draw(st.integers(2, 8))
    return draw(mult_vectors(n=n)), draw(mult_vectors(n=n))


@st.composite
def mult_vector_triples(draw):
    n = draw(st.integers(2, 8))
    return tuple(draw(mult_vectors(n=n)) for _ in range(3))


@st.composite
def weight_vectors(draw, n=None):
    if n is None:
        n = draw(st.integers(2, 9))
    s = draw(st.integers(1, n - 1))
    tweaks = draw(st.lists(st.integers(-8, 8), min_size=n, max_size=n))
    step = Fraction(min(Fraction(s, n), 1 - Fraction(s, n)), 2 * n)
    mean = Fraction(sum(tweaks), n)
    return WeightVector(
        tuple(
            Fraction(s, n) + (2 * i - n - 1) * step + (t - mean) * step / 32
            for i, t in zip(range(1, n + 1), tweaks)
        )
    )


@st.composite
def disjoint_pairs(draw):
    n = draw(st.integers(2, 8))
    roles = draw(
        st.lists(st.sampled_from((0, 1, 2)), min_size=n, max_size=n).filter(
            lambda xs: 1 in xs and 2 in xs
        )
    )
    d1 = draw(st.integers(-4, 4))
    d2 = draw(st.integers(-4, 4))
    m = MultiplicityVector(d1, tuple(1 if x == 1 else 0 for x in roles))
    m2 = MultiplicityVector(d2, tuple(1 if x == 2 else 0 for x in roles))
    return m, m2


class TestReferenceValues:
    def test_block_degrees_vanish(self, alpha94, triple94):
        assert [deg_alpha(b, alpha94) for b in triple94] == [0, 0, 0]

    def test_pairing_values(self, triple94):
        m1, m2, m3 = triple94
        assert delta(m1, m2) == 3
        assert delta(m1, m3) == -3
        assert delta(m2, m3) == 3

    def test_pairing_values_11_3(self, alpha113, triple113):
        k1, k2, k3 = triple113
        assert [deg_alpha(b, alpha113) for b in triple113] == [0, 0, 0]
        assert delta(k1, k2) == 3
        assert delta(k1, k3) == -3
        assert delta(k2, k3) == 3

    def test_delta_seq(self, triple94):
        assert delta_seq(triple94) == 3

    def test_hom_degree(self, triple94):
        assert hom_degree(triple94[0], triple94[1]) == -3

    def test_h1_values(self, triple94):
        m1, m2, m3 = triple94
        assert h1_dim(m1, m2, 2) == 12
        assert h1_dim(m2, m1, 2) == 15
        assert h1_dim(m3, m1, 2) == 12
        assert h1_dim(m3, m2, 2) == 15

    def test_dual_mult(self, triple94):
        m1 = triple94[0]
        assert dual_mult(m1) == MultiplicityVector.from_support(
            9, -2, (1, 8, 9)
        )

    def test_dual_weight(self, alpha94):
        dual = dual_weight(alpha94)
        expected = (
            "1/5", "1/4", "1/3", "5/12", "3/7", "5/7", "6/7", "13/15",
            "14/15",
        )
        assert dual.entries == tuple(Fraction(x) for x in expected)
        assert dual.s == 5

    def test_one_vector(self):
        one = ModuliContext(9, 4).one_vector()
        assert one.r == 9
        assert one.d_check == -4
        assert one.mults == (1,) * 9


class TestValidation:
    def test_weights_must_increase(self):
        with pytest.raises(ValueError):
            WeightVector((Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)))

    def test_weights_must_be_interior(self):
        with pytest.raises(ValueError):
            WeightVector((Fraction(0), Fraction(1, 2), Fraction(1, 2)))

    def test_weight_sum_must_be_integral(self):
        with pytest.raises(ValueError):
            WeightVector((Fraction(1, 7), Fraction(2, 7), Fraction(5, 7)))

    def test_multiplicities_nonnegative(self):
        with pytest.raises(ValueError):
            MultiplicityVector(-1, (1, -1))

    def test_rank_positive(self):
        with pytest.raises(ValueError):
            MultiplicityVector(-1, (0, 0))

    @pytest.mark.parametrize(
        "d_check, mults",
        [
            (-1.9, (1.5, 0.5, 1)),
            (-1, (1, Fraction(1), 1)),
            (-1.0, (1, 1)),
            (Fraction(-1), (1, 1)),
        ],
        ids=["floats", "fraction-mult", "float-degree", "fraction-degree"],
    )
    def test_non_integers_are_refused(self, d_check, mults):
        # read with operator.index, as the kernel reads integers, not
        # truncated by int()
        with pytest.raises(TypeError):
            MultiplicityVector(d_check, mults)

    def test_dimension_mismatch(self):
        m = MultiplicityVector(-1, (1, 1))
        m3 = MultiplicityVector(-1, (1, 1, 0))
        with pytest.raises(DimensionMismatchError):
            delta(m, m3)

    def test_parse_rational(self):
        assert parse_rational(" 3/4 ") == Fraction(3, 4)
        assert parse_rational("2") == Fraction(2)
        with pytest.raises(ValueError):
            parse_rational("1/0")
        with pytest.raises(ValueError):
            parse_rational("x")

    @pytest.mark.parametrize(
        "text",
        [" 1/2", "+1/2", "-1/2", "1/0", "1.5", "1e3", "1_0/3", "\u00b2/3",
         "\u0663/\u0664", "", "1/2/3", "3", "-0/7", "1/00", "12/18", "+",
         "/2", "2/", "1 /2", "1" * 5000],
    )
    def test_parse_rational_is_fraction_of_stripped_text(self, text):
        # the int() path for ASCII "p/q" and "p", and every other text
        # through Fraction, take the values and refusals of Fraction alone
        try:
            expected = Fraction(text.strip())
        except (ValueError, ZeroDivisionError):
            with pytest.raises(ValueError, match="^malformed rational"):
                parse_rational(text)
        else:
            got = parse_rational(text)
            assert type(got) is Fraction and got == expected

    def test_h1_needs_genus_at_least_two(self, triple94):
        with pytest.raises(ValueError):
            h1_dim(triple94[0], triple94[1], 1)
        # the one genus rule: an integer, as fiber_component_dim requires
        with pytest.raises(ValueError, match="^genus must be an integer"):
            h1_dim(triple94[0], triple94[1], Fraction(5, 2))

    def test_delta_seq_needs_two(self, triple94):
        with pytest.raises(ValueError):
            delta_seq(triple94[:1])

    def test_from_mask_inverts_support_mask(self):
        for n in range(1, 6):
            for mask in range(1, 1 << n):
                m = MultiplicityVector.from_mask(n, -1, mask)
                assert m.n == n
                assert m.support_mask == mask
                assert MultiplicityVector(-1, m.mults).support_mask == mask
                assert m == MultiplicityVector.from_support(n, -1, m.support)
        for mask in (0, 1 << 3, -1):
            with pytest.raises(ValueError):
                MultiplicityVector.from_mask(3, -1, mask)

    def test_mask_support(self):
        # the lowest-bit loop against the per-bit definition, on every mask
        # below 2^16 and on random masks of up to 64 bits, past every slot
        def bit_loop(mask):
            return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]

        for mask in range(1 << 16):
            assert mask_support(mask) == bit_loop(mask)
        rng = random.Random(64)
        for _ in range(20000):
            mask = rng.getrandbits(rng.randint(1, 64))
            assert mask_support(mask) == bit_loop(mask)
        assert mask_support(1 << 63 | 1) == [1, 64]

    def test_mask_mults(self):
        # the byte table against the per-bit definition it replaced, for
        # every slot count the kernels take, on masks with bits in every
        # byte, bit 29 among them; an import that builds no block leaves
        # the table unbuilt
        def per_bit(n, mask):
            return tuple(mask >> i & 1 for i in range(n))

        rng = random.Random(30)
        for n in range(1, 31):
            full = (1 << n) - 1
            masks = {full, 1, 1 << n - 1, *(
                pattern & full
                for pattern in (0x15555555, 0x2AAAAAAA, 0x01010101, 0x20808080)
            )}
            masks.update(rng.getrandbits(n) for _ in range(50))
            masks.discard(0)
            for mask in masks:
                mults = per_bit(n, mask)
                assert MultiplicityVector.from_mask(n, -1, mask).mults == mults
                unchecked = MultiplicityVector._from_mask_unchecked(n, -1, mask)
                assert unchecked.mults == mults
                assert unchecked.r == sum(mults)
        fresh = subprocess.run(
            [sys.executable, "-c", "import bodenhu.cli, bodenhu.core as core; "
             "print(len(core._BYTE_MULTS))"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        )
        assert fresh.stdout == "0\n"

    def test_mask_support_refuses_negative_masks(self):
        # a negative mask has no finite set of bits: it must raise, not
        # walk them forever, so the walk is cut off after five seconds
        with alarm(5):
            for mask in (-1, -2, -(1 << 40), -(1 << 70) + 1):
                with pytest.raises(ValueError, match="nonnegative"):
                    mask_support(mask)


class TestScaledForm:
    def test_scaled_integers(self, alpha94):
        assert alpha94.denom == 420
        assert alpha94.nums == tuple(e * 420 for e in alpha94.entries)
        for mask in range(1 << 9):
            total = sum(e for i, e in enumerate(alpha94.entries) if mask >> i & 1)
            assert alpha94.scaled_sum(mask) == total * 420

    def test_filled_tables_leave_identity_alone(self, alpha94):
        filled = WeightVector(alpha94.entries)
        is_near(filled, find_generic_near(filled))
        alpha_partitions(filled)
        for name in ("half_sums", "admissible", "wall_mask", "residue_order"):
            assert name in vars(filled) and name not in vars(alpha94)
        for copy in (filled, pickle.loads(pickle.dumps(filled)),
                     pickle.loads(pickle.dumps(alpha94))):
            assert copy == alpha94
            assert hash(copy) == hash(alpha94)
            assert repr(copy) == repr(alpha94)
            assert (copy.s, copy.denom, copy.nums) == (
                alpha94.s, alpha94.denom, alpha94.nums
            )
            assert is_generic(copy) == is_generic(alpha94)
        assert repr(alpha94) == f"WeightVector(entries={alpha94.entries!r})"


class TestPairingProperties:
    @given(mult_vectors())
    def test_self_pairing_vanishes(self, m):
        assert delta(m, m) == 0

    @given(mult_vector_pairs())
    def test_antisymmetry(self, pair):
        m, m2 = pair
        assert delta(m, m2) == -delta(m2, m)

    @given(mult_vector_triples())
    def test_additivity(self, triple):
        m, m2, m3 = triple
        assert delta(m + m2, m3) == delta(m, m3) + delta(m2, m3)
        assert delta(m, m2 + m3) == delta(m, m2) + delta(m, m3)

    @given(mult_vector_pairs())
    def test_degree_shift_is_linear(self, pair):
        m, m2 = pair
        shifted = MultiplicityVector(m.d_check + 1, m.mults)
        assert delta(shifted, m2) - delta(m, m2) == -2 * m2.r

    @given(disjoint_pairs())
    def test_disjoint_parity(self, pair):
        m, m2 = pair
        assert (delta(m, m2) - m.r * m2.r) % 2 == 0

    @given(mult_vector_pairs())
    def test_hom_degree_identity(self, pair):
        m, m2 = pair
        dot = sum(a * b for a, b in zip(m.mults, m2.mults))
        assert 2 * hom_degree(m, m2) == -m.r * m2.r + dot + delta(m, m2)

    @given(mult_vector_pairs())
    def test_duality_reverses_pairing(self, pair):
        m, m2 = pair
        assert delta(dual_mult(m), dual_mult(m2)) == delta(m2, m)

    @given(mult_vectors())
    def test_dual_mult_is_involutive(self, m):
        assert dual_mult(dual_mult(m)) == m


class TestDegreeProperties:
    @given(weight_vectors())
    def test_one_vector_degree_vanishes(self, alpha):
        one = ModuliContext(alpha.n, alpha.s).one_vector()
        assert deg_alpha(one, alpha) == 0

    @given(weight_vectors())
    def test_dual_weight_is_involutive(self, alpha):
        assert dual_weight(dual_weight(alpha)) == alpha
        assert dual_weight(alpha).s == alpha.n - alpha.s

    @given(st.data())
    def test_duality_negates_degrees(self, data):
        alpha = data.draw(weight_vectors())
        m = data.draw(mult_vectors(n=alpha.n))
        assert deg_alpha(dual_mult(m), dual_weight(alpha)) == -deg_alpha(
            m, alpha
        )

    @given(weight_vectors())
    def test_parse_round_trip(self, alpha):
        assert parse_weight_vector(str(alpha)) == alpha

    @given(st.data())
    def test_h1_from_hom_counts(self, data):
        """h1_dim agrees with (g-1) r r' minus the expected hom degree.

        Substituting the pairing identity for hom_degree turns the h1 formula
        into h1 = (g-1) r r' - hom_degree(m, m2); both sides are compared as
        exact rationals.
        """
        g = data.draw(st.integers(2, 5))
        pair = data.draw(mult_vector_pairs())
        m, m2 = pair
        dot = sum(a * b for a, b in zip(m.mults, m2.mults))
        expected = (
            Fraction(2 * g - 1, 2) * m.r * m2.r
            - Fraction(dot, 2)
            - Fraction(delta(m, m2), 2)
        )
        assert h1_dim(m, m2, g) == expected
        assert h1_dim(m, m2, g) == (g - 1) * m.r * m2.r - hom_degree(m, m2)
