"""Dimension formulas, the codimension identity, and fiber reports."""

import math
import re
from fractions import Fraction

import pytest

from bodenhu import (
    FiberReport,
    ModuliContext,
    MultiplicityVector,
    NotGenericError,
    OrderedPartition,
    Partition,
    WeightVector,
    deg_alpha,
    delta_seq,
    feasible_partitions,
    fiber_component_dim,
    fiber_report,
    find_generic_near,
    is_alpha_stable_seq,
    is_generic,
    moduli_dim,
    stratum_codim,
)
from bodenhu import weightspace
from bodenhu.smallness import ordering_representatives


def sample_partitions(max_n=8):
    for n in range(4, max_n + 1):
        for s in range(1, n):
            for partition, witness in feasible_partitions(ModuliContext(n, s)):
                yield partition, WeightVector(witness)


class TestModuliDim:
    def test_one_vector_9_4(self):
        assert moduli_dim(ModuliContext(9, 4).one_vector(), 2) == 118

    def test_rank_two_block(self):
        m = MultiplicityVector.from_support(2, -1, (1, 2))
        assert moduli_dim(m, 2) == 6

    def test_returns_exact_rationals(self):
        value = moduli_dim(ModuliContext(5, 2).one_vector(), 3)
        assert isinstance(value, Fraction)
        assert value == Fraction(5, 2) * 25 - Fraction(5, 2) + 1

    def test_always_integral(self):
        for d in range(-3, 1):
            for mults in ((1, 2, 3), (2, 2), (1, 1, 1, 1), (3, 5, 1)):
                m = MultiplicityVector(d, mults)
                for g in (2, 3, 5):
                    assert moduli_dim(m, g).denominator == 1

    def test_genus_validation(self):
        m = MultiplicityVector(-1, (1, 1))
        with pytest.raises(ValueError):
            moduli_dim(m, 1)
        with pytest.raises(ValueError):
            moduli_dim(m, 2.0)


class TestStratumCodim:
    def test_reference_triple(self, triple94):
        assert stratum_codim(Partition(triple94), 2) == 79

    def test_single_block_is_open(self):
        partition = Partition(
            (MultiplicityVector.from_support(4, -2, (1, 2, 3, 4)),)
        )
        assert stratum_codim(partition, 2) == 0
        assert stratum_codim(partition, 5) == 0

    def test_matches_moduli_dim_difference(self):
        for partition, _ in sample_partitions(max_n=6):
            one = ModuliContext(partition.n, partition.s).one_vector()
            for g in (2, 3):
                assert stratum_codim(partition, g) == moduli_dim(
                    one, g
                ) - sum(moduli_dim(b, g) for b in partition.blocks)

    def test_genus_validation(self, triple94):
        with pytest.raises(ValueError):
            stratum_codim(Partition(triple94), 1)


class TestFiberComponentDim:
    def test_reference_order(self, triple94):
        assert fiber_component_dim(OrderedPartition(triple94), 2) == 40

    def test_other_cyclic_class(self, triple94):
        m1, m2, m3 = triple94
        assert fiber_component_dim(OrderedPartition((m1, m3, m2)), 2) == 37

    def test_single_block(self):
        m = MultiplicityVector.from_support(4, -2, (1, 2, 3, 4))
        assert fiber_component_dim((m,), 2) == 0

    def test_accepts_plain_sequences(self, triple94):
        assert fiber_component_dim(triple94, 2) == 40

    def test_rejects_overlapping_supports(self):
        m = MultiplicityVector.from_support(4, -1, (1, 2))
        with pytest.raises(ValueError):
            fiber_component_dim((m, m), 2)

    def test_genus_validation(self, triple94):
        with pytest.raises(ValueError):
            fiber_component_dim(OrderedPartition(triple94), 1)

    def test_margin_identity_on_feasible_partitions(self):
        for partition, _ in sample_partitions(max_n=7):
            if len(partition) < 2:
                continue
            codim = {g: stratum_codim(partition, g) for g in (2, 3, 5)}
            for rep in ordering_representatives(partition):
                expected = len(rep) - 1 - delta_seq(rep.seq)
                for g in (2, 3, 5):
                    dim = fiber_component_dim(rep, g)
                    assert codim[g] - 2 * dim == expected


class TestFiberReport:
    def test_reference_report(self, alpha94, triple94):
        beta = find_generic_near(alpha94)
        report = fiber_report(Partition(triple94), beta)
        assert report.genus == 2
        assert report.stratum_codim == 79
        assert len(report.components) == 2
        assert {dim for _, dim in report.components} == {40, 37}
        assert set(report.margins) == {-1, 5}
        assert min(report.margins) <= 0
        for ordering, dim in report.components:
            assert is_alpha_stable_seq(ordering, beta)
            assert fiber_component_dim(ordering, 2) == dim

    def test_component_count_is_factorial(self):
        seen = 0
        for partition, alpha in sample_partitions(max_n=6):
            beta = find_generic_near(alpha)
            report = fiber_report(partition, beta)
            assert len(report.components) == math.factorial(
                len(partition) - 1
            )
            seen += 1
        assert seen > 0

    def test_two_block_partition_has_one_component(self):
        alpha = WeightVector(
            tuple(Fraction(x) for x in ("1/5", "2/5", "3/5", "4/5"))
        )
        partition = Partition(
            (
                MultiplicityVector.from_support(4, -1, (1, 4)),
                MultiplicityVector.from_support(4, -1, (2, 3)),
            )
        )
        assert all(deg_alpha(b, alpha) == 0 for b in partition.blocks)
        report = fiber_report(partition, find_generic_near(alpha))
        assert len(report.components) == 1
        assert report.margins[0] == report.stratum_codim - 2 * (
            report.components[0][1]
        )

    def test_single_block_partition(self):
        partition = Partition(
            (MultiplicityVector.from_support(4, -2, (1, 2, 3, 4)),)
        )
        beta = WeightVector(
            tuple(Fraction(x) for x in ("1/10", "2/5", "13/20", "17/20"))
        )
        report = fiber_report(partition, beta)
        assert report.stratum_codim == 0
        assert report.components[0][1] == 0
        assert report.margins == (0,)

    def test_rejects_nongeneric_beta(self, alpha94, triple94):
        message = f"^beta lies on {re.escape(str(is_generic(alpha94)[1]))}$"
        with pytest.raises(NotGenericError, match=message):
            fiber_report(Partition(triple94), alpha94)

    def test_checks_genericity_once(self, monkeypatch, alpha94):
        """One is_generic call per report, however many orderings it has."""
        calls = []
        real = weightspace.is_generic

        def counting(beta):
            calls.append(beta)
            return real(beta)

        monkeypatch.setattr(weightspace, "is_generic", counting)
        beta = find_generic_near(alpha94)
        calls.clear()
        partition = next(
            p for p, _ in feasible_partitions(ModuliContext(9, 4), min_len=4)
        )
        report = fiber_report(partition, beta)
        assert len(report.components) == 6
        assert calls == [beta]

    def test_rejects_mismatched_slots(self, triple94):
        beta = WeightVector(
            tuple(Fraction(x) for x in ("1/7", "2/7", "4/7"))
        )
        with pytest.raises(ValueError):
            fiber_report(Partition(triple94), beta)

    def test_genus_validation(self, alpha94, triple94):
        with pytest.raises(ValueError):
            fiber_report(Partition(triple94), find_generic_near(alpha94), 1)

    def test_report_validation(self, alpha94, triple94):
        beta = find_generic_near(alpha94)
        report = fiber_report(Partition(triple94), beta)
        with pytest.raises(ValueError):
            FiberReport(
                report.partition,
                report.genus,
                report.components,
                report.stratum_codim,
                report.margins + (0,),
            )
        with pytest.raises(ValueError):
            FiberReport(
                report.partition,
                report.genus,
                report.components,
                report.stratum_codim + 1,
                report.margins,
            )
        bad_margins = (report.stratum_codim - 2 * report.components[0][1] + 2,)
        with pytest.raises(ValueError):
            FiberReport(
                report.partition,
                report.genus,
                report.components[:1],
                report.stratum_codim + 2,
                bad_margins,
            )
