"""Wall enumeration, genericity, nearness, and the exact feasibility solver."""

import hashlib
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from bodenhu import (
    LinearSystem,
    ModuliContext,
    MultiplicityVector,
    Wall,
    WeightVector,
    deg_alpha,
    enumerate_walls,
    feasible,
    feasible_partitions,
    find_generic_near,
    is_generic,
    is_near,
    perturbation_direction,
    subset_sums,
)
from bodenhu.partitions import iter_partition_shapes
from bodenhu.weightspace import (
    partition_system,
    realise_blocks,
    wall_meets,
    wall_system,
)

ALPHA_5_2 = ("1/10", "1/5", "3/10", "1/2", "9/10")


def satisfies(system, point):
    for coeffs, rhs in system.equalities:
        if sum(c * x for c, x in zip(coeffs, point)) != rhs:
            return False
    for coeffs, rhs in system.strict_inequalities:
        if not sum(c * x for c, x in zip(coeffs, point)) < rhs:
            return False
    return True


@st.composite
def linear_systems(draw):
    n = draw(st.integers(1, 3))
    system = LinearSystem(n)
    for _ in range(draw(st.integers(0, 2))):
        system.add_eq(
            [draw(st.integers(-3, 3)) for _ in range(n)],
            draw(st.integers(-4, 4)),
        )
    for _ in range(draw(st.integers(1, 4))):
        system.add_lt(
            [draw(st.integers(-3, 3)) for _ in range(n)],
            draw(st.integers(-4, 4)),
        )
    return system


class TestFeasible:
    @given(linear_systems())
    def test_witness_satisfies_the_system(self, system):
        point = feasible(system)
        if point is not None:
            assert len(point) == system.n_vars
            assert satisfies(system, point)

    def test_contradiction_is_infeasible(self):
        system = LinearSystem(1)
        system.add_lt((Fraction(1),), 0)
        system.add_lt((Fraction(-1),), -1)
        assert feasible(system) is None

    def test_strictness_is_not_rounded_away(self):
        system = LinearSystem(1)
        system.add_eq((Fraction(1),), Fraction(1, 2))
        system.add_lt((Fraction(1),), Fraction(1, 2))
        assert feasible(system) is None

    def test_grid_cross_check_on_wall_systems(self):
        """Any wall met by a step-1/8 grid point must be declared feasible.

        Runs every support and admissible degree for N=4, all s, comparing
        the solver verdict against brute-force grid search; solver witnesses
        are additionally checked exactly.
        """
        n = 4
        step = Fraction(1, 8)
        grid = [step * k for k in range(1, 8)]
        for s in range(1, n):
            chamber = [
                p
                for p in (
                    (x1, x2, x3, Fraction(s) - x1 - x2 - x3)
                    for x1 in grid
                    for x2 in grid
                    for x3 in grid
                )
                if p[0] < p[1] < p[2] < p[3] < 1
            ]
            for size in range(1, n):
                for support in combinations(range(1, n + 1), size):
                    for d in range(-size, 0):
                        system = wall_system(n, s, support, d)
                        point = feasible(system)
                        if point is not None:
                            assert satisfies(system, point)
                        grid_hit = any(
                            sum(p[i - 1] for i in support) == -d
                            for p in chamber
                        )
                        if grid_hit:
                            assert point is not None


class TestRecordedWitnesses:
    """Witnesses pinned by sha256 digests recorded with a Fraction solver.

    The back-substitution runs on integers over a common denominator; being
    exact, it must give every witness the Fraction arithmetic gave.
    realise_blocks and feasible share it, so they cannot check it for each
    other.
    """

    def test_feasible_partitions_up_to_8(self):
        h = hashlib.sha256()
        for n in range(2, 9):
            for s in range(1, n):
                for partition, point in feasible_partitions(ModuliContext(n, s)):
                    line = f"{n} {s} {partition} {','.join(map(str, point))}\n"
                    h.update(line.encode())
        assert h.hexdigest() == (
            "dc418655a77ef7cf60e3bf8cae2abeb4ac1338b3621e22b98d09f1bad919583e"
        )

    def test_random_rational_systems(self):
        rng = random.Random(11)
        h = hashlib.sha256()
        for _ in range(1000):
            n = rng.randint(1, 5)
            system = LinearSystem(n)
            for _ in range(rng.randint(0, 2)):
                system.add_eq(
                    [rng.randint(-3, 3) for _ in range(n)],
                    Fraction(rng.randint(-8, 8), rng.randint(1, 3)),
                )
            for _ in range(rng.randint(1, 7)):
                system.add_lt(
                    [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)],
                    rng.randint(-4, 4),
                )
            point = feasible(system)
            text = None if point is None else ",".join(map(str, point))
            h.update(f"{text}\n".encode())
        assert h.hexdigest() == (
            "b0357e6fe12d1b0c0be0a2c46ee78e2b3f0b7fdc299648ddc8192ecec9aff01d"
        )


class TestWalls:
    def test_no_walls_below_four_slots(self):
        assert enumerate_walls(ModuliContext(2, 1)) == []
        assert enumerate_walls(ModuliContext(3, 1)) == []
        assert enumerate_walls(ModuliContext(3, 2)) == []

    def test_walls_4_2(self):
        walls = enumerate_walls(ModuliContext(4, 2))
        assert walls == [
            Wall(MultiplicityVector.from_support(4, -1, (1, 4)))
        ]

    def test_every_wall_is_realized(self):
        for n in range(4, 7):
            for s in range(1, n):
                for wall in enumerate_walls(ModuliContext(n, s)):
                    assert wall.m.mults[0] == 1
                    point = feasible(
                        wall_system(n, s, wall.m.support, wall.m.d_check)
                    )
                    assert point is not None
                    alpha = WeightVector(point)
                    assert alpha.s == s
                    assert deg_alpha(wall.m, alpha) == 0

    def test_wall_validation(self):
        with pytest.raises(ValueError):
            Wall(MultiplicityVector.from_support(4, -1, (2, 3)))
        with pytest.raises(ValueError):
            Wall(MultiplicityVector.from_support(4, -2, (1, 2)))
        with pytest.raises(ValueError):
            Wall(MultiplicityVector.from_support(4, -1, (1, 2, 3)))


def fourier_motzkin_walls(n, s):
    """enumerate_walls' candidates, filtered by the general solver."""
    walls = []
    for mask in range(1, 1 << n, 2):
        r = mask.bit_count()
        if not 2 <= r <= n - 2:
            continue
        for d in range(-(r - 1), 0):
            if not -(n - r) < -s - d < 0:
                continue
            m = MultiplicityVector.from_mask(n, d, mask)
            if feasible(wall_system(n, s, m.support, d)) is not None:
                walls.append(Wall(m))
    return walls


class TestWallClosedForm:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_fourier_motzkin(self, n):
        for s in range(1, n):
            assert enumerate_walls(ModuliContext(n, s)) == fourier_motzkin_walls(
                n, s
            )

    def test_every_support_and_degree(self):
        """Also off the canonical candidates: any proper support, d in [-n, 0]."""
        for n in range(2, 6):
            for s in range(1, n):
                for mask in range(1, (1 << n) - 1):
                    support = [i + 1 for i in range(n) if mask >> i & 1]
                    for d in range(-n, 1):
                        expected = feasible(wall_system(n, s, support, d))
                        assert wall_meets(n, s, mask, d) == (expected is not None)

    def test_improper_supports_are_refused(self):
        for mask in (0, 0b1111):
            with pytest.raises(ValueError):
                wall_meets(4, 2, mask, -1)

    @pytest.mark.parametrize(
        "s, support, d_check, point",
        [
            # Largest vertex value equal to -d: on an edge, and at u_s.
            (2, (1, 2), -1, ("1/2", "1/2", "1/2", "1/2")),
            (2, (1, 3), -1, (0, 0, 1, 1)),
            (3, (1, 2, 5), -2, ("1/2", "1/2", "1/2", "1/2", 1)),
            # Smallest vertex value equal to -d: on an edge, and at u_s.
            (2, (1, 4, 5), -1, (0, "1/2", "1/2", "1/2", "1/2")),
            (2, (1, 3, 5), -1, (0, 0, 0, 1, 1)),
            (3, (1, 4, 5), -1, (0, "1/2", "1/2", "1/2", "1/2", 1)),
        ],
    )
    def test_wall_touching_only_the_boundary_is_rejected(
        self, s, support, d_check, point
    ):
        point = [Fraction(x) for x in point]
        n = len(point)
        # The wall meets the closure of W(n,s) at this vertex ...
        assert 0 <= point[0] and point[-1] <= 1
        assert all(a <= b for a, b in zip(point, point[1:]))
        assert sum(point) == s
        assert sum(point[i - 1] for i in support) == -d_check
        # ... but not the open weight space.
        mask = sum(1 << (i - 1) for i in support)
        assert not wall_meets(n, s, mask, d_check)
        assert feasible(wall_system(n, s, support, d_check)) is None


class TestRealiseBlocks:
    @staticmethod
    def candidates(n, s):
        for masks in iter_partition_shapes(n):
            ranges = [range(-(m.bit_count() - 1), 0) for m in masks]
            for degs in product(*ranges):
                if sum(degs) == -s:
                    yield list(zip(masks, degs))

    @pytest.mark.parametrize(
        "n, s", [(n, s) for n in range(2, 8) for s in range(1, n)] + [(8, 4)]
    )
    def test_matches_fourier_motzkin(self, n, s):
        realised = 0
        for blocks in self.candidates(n, s):
            point = realise_blocks(n, blocks)
            assert point == feasible(partition_system(n, blocks))
            if point is not None:
                assert all(type(x) is Fraction for x in point)
                realised += 1
        assert realised > 0

    def test_any_degrees(self):
        """Off the candidates too: degrees from -n to 1, s outside (0, n)."""
        for n in range(1, 6):
            for masks in iter_partition_shapes(n) if n > 1 else [(1,)]:
                for degs in product(range(-n, 2), repeat=len(masks)):
                    blocks = list(zip(masks, degs))
                    assert realise_blocks(n, blocks) == feasible(
                        partition_system(n, blocks)
                    )

    def test_blocks_must_partition_the_slots(self):
        with pytest.raises(ValueError):
            realise_blocks(4, [(0b0011, -1), (0b0110, -1)])
        with pytest.raises(ValueError):
            realise_blocks(4, [(0b0011, -1)])
        with pytest.raises(ValueError):
            realise_blocks(4, [(0, -1), (0b1111, -2)])


class TestSubsetSums:
    @given(
        st.lists(
            st.fractions(min_value=-2, max_value=2, max_denominator=8),
            min_size=1,
            max_size=8,
        )
    )
    def test_matches_brute_force(self, entries):
        entries = tuple(entries)
        denom, sums = subset_sums(entries)
        assert all(denom % e.denominator == 0 for e in entries)
        assert len(sums) == 1 << len(entries)
        for mask in range(1 << len(entries)):
            expected = sum(
                (e for i, e in enumerate(entries) if mask >> i & 1),
                Fraction(0),
            )
            assert Fraction(sums[mask], denom) == expected

    def test_denominator_is_the_lcm(self):
        entries = (Fraction(1, 4), Fraction(1, 6), Fraction(-3, 10))
        assert subset_sums(entries) == (60, (0, 15, 10, 25, -18, -3, -8, 7))

    def test_cached_value_is_immutable(self):
        entries = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))
        first = subset_sums(entries)
        with pytest.raises(TypeError):
            first[1][3] = 7
        with pytest.raises(TypeError):
            first[0] = 7
        again = subset_sums(entries)
        assert again == first == (6, (0, 2, 3, 5, 4, 6, 7, 9))


class TestGenericity:
    def test_reference_point_is_on_a_wall(self, alpha94):
        ok, wall = is_generic(alpha94)
        assert not ok
        assert wall == Wall(MultiplicityVector.from_support(9, -1, (1, 2, 9)))

    def test_generic_point(self):
        alpha = WeightVector(
            tuple(Fraction(x) for x in ("1/7", "2/7", "4/7"))
        )
        assert is_generic(alpha) == (True, None)

    def test_wall_certificate_has_zero_degree(self):
        alpha = WeightVector(
            tuple(Fraction(x) for x in ALPHA_5_2)
        )
        ok, wall = is_generic(alpha)
        assert not ok
        assert deg_alpha(wall.m, alpha) == 0


class TestNearness:
    def test_reflexive(self, alpha94):
        assert is_near(alpha94, alpha94) == (True, None)

    def test_rejects_mismatched_contexts(self, alpha94):
        other = WeightVector(
            tuple(Fraction(x) for x in ("1/7", "2/7", "4/7"))
        )
        with pytest.raises(ValueError):
            is_near(alpha94, other)

    def test_failure_certificate_is_binding(self, alpha94):
        beta = find_generic_near(alpha94)
        ok, m = is_near(beta, alpha94)
        assert not ok
        assert deg_alpha(m, beta) < 0
        assert deg_alpha(m, alpha94) >= 0


class TestPerturbation:
    def test_reference_direction(self, alpha94):
        v = perturbation_direction(alpha94)
        assert v[0] == Fraction(6, 5)
        assert sum(v) == 0

    @given(st.data())
    @settings(max_examples=25)
    def test_direction_always_sums_to_zero(self, data):
        n = data.draw(st.integers(2, 7))
        s = data.draw(st.integers(1, n - 1))
        tweaks = data.draw(
            st.lists(st.integers(-8, 8), min_size=n, max_size=n)
        )
        step = Fraction(min(Fraction(s, n), 1 - Fraction(s, n)), 2 * n)
        mean = Fraction(sum(tweaks), n)
        alpha = WeightVector(
            tuple(
                Fraction(s, n) + (2 * i - n - 1) * step + (t - mean) * step / 32
                for i, t in zip(range(1, n + 1), tweaks)
            )
        )
        assert sum(perturbation_direction(alpha)) == 0


class TestFindGenericNear:
    def points(self, alpha94):
        return [
            alpha94,
            WeightVector(tuple(Fraction(x) for x in ALPHA_5_2)),
        ]

    def test_generic_input_is_returned_unchanged(self):
        alpha = WeightVector(
            tuple(Fraction(x) for x in ("1/7", "2/7", "4/7"))
        )
        assert find_generic_near(alpha) is alpha

    def test_postconditions(self, alpha94):
        for alpha in self.points(alpha94):
            beta = find_generic_near(alpha)
            assert beta.n == alpha.n
            assert beta.s == alpha.s
            assert is_generic(beta) == (True, None)
            assert is_near(alpha, beta) == (True, None)
            assert beta != alpha
            assert not is_near(beta, alpha)[0]

    def test_deterministic(self, alpha94):
        for alpha in self.points(alpha94):
            assert find_generic_near(alpha) == find_generic_near(alpha)
