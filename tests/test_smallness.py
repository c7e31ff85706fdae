"""The rotation criterion, the full-space scan, and the counterexample builder."""

from collections import Counter
from fractions import Fraction

import pytest

from bodenhu import smallness, weightspace
from bodenhu import (
    ConstructionRangeError,
    ModuliContext,
    MultiplicityVector,
    OrderedPartition,
    Partition,
    Verdict,
    WeightVector,
    Witness,
    alpha_partitions,
    check_criterion,
    classify,
    construct_counterexample,
    construction_transcript,
    deg_alpha,
    dual_weight,
    feasible_partitions,
    fiber_report,
    find_generic_near,
    scan_all_s,
    verify_conjecture,
)
from bodenhu.smallness import (
    MODES,
    ordering_representatives,
    rotation_deltas,
    violates_margin,
)
from conftest import (
    ALPHA_9_4,
    ALPHA_11_3,
    TRIPLE_9_4,
    TRIPLE_11_3,
    assert_public_rebuild,
    seeded_alphas,
)

# Candidate and ordering-class counts per (n, s) for length >= 3 shapes.
SCAN_COUNTS = {
    (6, 3): (15, 30),
    (7, 3): (105, 210),
    (7, 4): (105, 210),
    (8, 3): (490, 980),
    (8, 4): (875, 2170),
    (8, 5): (490, 980),
    (9, 3): (1918, 3836),
    (9, 4): (4998, 15036),
    (9, 5): (4998, 15036),
    (10, 3): (6825, 13650),
    (10, 4): (24570, 86940),
    (10, 5): (35490, 154770),
    (10, 6): (24570, 86940),
    (10, 7): (6825, 13650),
}

ALPHA_8_4_PAIRS = (
    "1/10", "1/5", "3/10", "2/5", "3/5", "7/10", "4/5", "9/10",
)


def block_set(op):
    return {(b.support, b.d_check) for b in op.seq}


class TestMargins:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            violates_margin((3, 3, 3), "tiny")

    def test_length_two_never_violates(self):
        for x in range(-5, 6):
            for mode in MODES:
                assert not violates_margin((x, -x), mode)

    def test_threshold_is_length_minus_one(self):
        assert violates_margin((2, 2, 2), "small")
        assert not violates_margin((2, 2, 2), "semismall")
        assert violates_margin((3, 3, 3), "semismall")
        assert not violates_margin((2, 2, 1), "small")

    def test_verdict_requires_witness_exactly_on_failure(self, triple94):
        with pytest.raises(ValueError):
            Verdict(True, "small", Witness(OrderedPartition(triple94), (3, 3, 3), None))
        with pytest.raises(ValueError):
            Verdict(False, "small", None)

    def test_ordering_representatives_fix_the_first_block(self, triple94):
        partition = Partition(triple94)
        reps = list(ordering_representatives(partition))
        assert len(reps) == 2
        assert all(rep.seq[0] == partition.blocks[0] for rep in reps)
        assert reps[0].seq == partition.blocks
        assert {rep.partition for rep in reps} == {partition}


class TestEnumeratedOrderingsAreValid:
    """Orderings skip validation; the public constructor must agree."""

    @pytest.mark.parametrize("kind", ["dense", "medium"])
    def test_ordering_representatives_and_fiber_components(self, kind):
        orderings = components = 0
        for alpha in seeded_alphas(11, kind):
            beta = find_generic_near(alpha)
            for partition in alpha_partitions(alpha):
                for rep in ordering_representatives(partition):
                    assert_public_rebuild(rep)
                    orderings += 1
                for sigma, _ in fiber_report(partition, beta).components:
                    assert_public_rebuild(sigma)
                    components += 1
        assert orderings == components > 100


class TestCheckCriterion:
    def test_reference_point_fails_both_modes(self, alpha94, triple94):
        for mode in MODES:
            verdict = check_criterion(alpha94, mode)
            assert not verdict.holds
            assert verdict.mode == mode
            witness = verdict.witness
            assert witness.alpha == alpha94
            assert witness.rotation_deltas == (3, 3, 3)
            assert block_set(witness.ordered) == set(
                ((sup, d) for sup, d in TRIPLE_9_4)
            )
            assert witness.ordered.seq == Partition(triple94).blocks

    def test_reference_point_11_3(self, alpha113, triple113):
        for mode in MODES:
            verdict = check_criterion(alpha113, mode)
            assert not verdict.holds
            assert verdict.witness.rotation_deltas == (3, 3, 3)
            assert verdict.witness.ordered.partition == Partition(triple113)

    def test_generic_point_holds(self):
        alpha = WeightVector(
            tuple(Fraction(x) for x in ("1/7", "2/7", "4/7"))
        )
        for mode in MODES:
            verdict = check_criterion(alpha, mode)
            assert verdict.holds
            assert verdict.witness is None

    def test_all_rank_two_partition_holds(self):
        alpha = WeightVector(tuple(Fraction(x) for x in ALPHA_8_4_PAIRS))
        blocks = tuple(
            MultiplicityVector.from_support(8, -1, sup)
            for sup in ((4, 5), (3, 6), (2, 7), (1, 8))
        )
        partition = Partition(blocks)
        assert all(deg_alpha(b, alpha) == 0 for b in partition.blocks)
        for rep in ordering_representatives(partition):
            assert rotation_deltas(rep) == (0, 0, 0, 0)
        for mode in MODES:
            assert check_criterion(alpha, mode).holds

    def test_agrees_with_the_dual_weight(self, alpha94, alpha113):
        alphas = [
            alpha94,
            alpha113,
            WeightVector(tuple(Fraction(x) for x in ALPHA_8_4_PAIRS)),
        ]
        for alpha in alphas:
            dual = dual_weight(alpha)
            for mode in MODES:
                assert (
                    check_criterion(alpha, mode).holds
                    == check_criterion(dual, mode).holds
                )


class TestVerifyConjecture:
    def test_holds_through_eight_slots(self):
        for mode in MODES:
            verdict = verify_conjecture(ModuliContext(8, 3), mode)
            assert verdict.holds
            assert verdict.witness is None

    def test_first_witness_9_4(self):
        verdict = verify_conjecture(ModuliContext(9, 4), "small")
        assert not verdict.holds
        witness = verdict.witness
        assert block_set(witness.ordered) == {
            ((1, 3, 4, 5), -1), ((6, 7, 8), -2), ((2, 9), -1),
        }
        assert witness.rotation_deltas == (2, 2, 2)
        assert witness.alpha is not None
        for b in witness.ordered.seq:
            assert deg_alpha(b, witness.alpha) == 0
        recheck = check_criterion(witness.alpha, "small")
        assert not recheck.holds

    def test_first_witness_9_5(self):
        verdict = verify_conjecture(ModuliContext(9, 5), "small")
        assert not verdict.holds
        assert block_set(verdict.witness.ordered) == {
            ((2, 3, 4), -1), ((5, 6, 7, 9), -3), ((1, 8), -1),
        }
        assert verdict.witness.rotation_deltas == (2, 2, 2)

    def test_semismall_witness_11_3(self, triple113):
        verdict = verify_conjecture(ModuliContext(11, 3), "semismall")
        assert not verdict.holds
        assert verdict.witness.ordered.partition == Partition(triple113)
        assert verdict.witness.rotation_deltas == (3, 3, 3)


class TestScan:
    @pytest.mark.parametrize("mode", MODES)
    def test_agrees_with_the_classification(self, mode):
        for n in range(2, 11):
            results = scan_all_s(n, mode)
            assert set(results) == set(range(1, n))
            for s, row in results.items():
                assert row["verdict"].holds == classify(ModuliContext(n, s))
                expected = SCAN_COUNTS.get((n, s))
                if expected is not None:
                    assert (row["candidates"], row["classes"]) == expected

    def test_counts_are_degree_reversal_symmetric(self):
        for n in (8, 9, 10):
            results = scan_all_s(n, "small")
            for s in range(1, n):
                assert (
                    results[s]["candidates"] == results[n - s]["candidates"]
                )
                assert results[s]["classes"] == results[n - s]["classes"]

    def test_low_s_has_no_candidates(self):
        results = scan_all_s(7, "small")
        for s in (1, 2):
            assert results[s]["candidates"] == 0
            assert results[s]["verdict"].holds


def definitional_witnesses(n):
    """(mode, s) -> the first violating ordering of feasible_partitions, or None.

    The slow path straight from the definition: feasible candidates of
    length >= 3 in canonical order, each with its realising point, and their
    ordering representatives in lex order.
    """
    out = {}
    for s in range(1, n):
        pending = set(MODES)
        for partition, point in feasible_partitions(ModuliContext(n, s), 3):
            for op in ordering_representatives(partition):
                rots = rotation_deltas(op)
                for mode in sorted(pending):
                    if violates_margin(rots, mode):
                        out[mode, s] = (op, rots, point)
                        pending.discard(mode)
            if not pending:
                break
        for mode in pending:
            out[mode, s] = None
    return out


@pytest.fixture(scope="module")
def counted_scans():
    """scan_all_s for every N <= 10 and mode, and its realise_blocks calls."""
    calls = Counter()
    key = None
    original = weightspace.realise_blocks

    def counted(n, blocks):
        calls[key] += 1
        return original(n, blocks)

    scans = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(weightspace, "realise_blocks", counted)
        for n in range(2, 11):
            for mode in MODES:
                key = (n, mode)
                scans[key] = scan_all_s(n, mode)
    return scans, calls


class TestScanWitnessDefinition:
    @pytest.mark.parametrize("n", range(2, 10))
    def test_witness_is_the_first_realisable_violation(self, n, counted_scans):
        scans, _ = counted_scans
        expected = definitional_witnesses(n)
        for mode in MODES:
            for s in range(1, n):
                verdict = scans[n, mode][s]["verdict"]
                first = expected[mode, s]
                assert verdict.holds == (first is None), (n, s, mode)
                if first is None:
                    continue
                op, rots, point = first
                witness = verdict.witness
                assert witness.ordered.seq == op.seq, (n, s, mode)
                assert witness.rotation_deltas == rots
                assert witness.alpha.entries == tuple(point)

    def test_realise_blocks_calls(self, counted_scans):
        _, calls = counted_scans
        expected = {(9, "small"): 2, (9, "semismall"): 2,
                    (10, "small"): 5, (10, "semismall"): 3}
        for n in range(2, 11):
            for mode in MODES:
                assert calls[n, mode] == expected.get((n, mode), 0), (n, mode)


class TestClassify:
    def test_table(self):
        holds = {
            (5, 2), (8, 3), (8, 4), (9, 2), (9, 3), (9, 6), (9, 7),
            (10, 3), (10, 7), (11, 2), (11, 9), (12, 2), (12, 10),
        }
        fails = {
            (9, 4), (9, 5), (10, 4), (10, 5), (10, 6), (11, 3), (11, 4),
            (11, 8), (12, 3), (12, 6), (13, 5),
        }
        for n, s in holds:
            assert classify(ModuliContext(n, s))
        for n, s in fails:
            assert not classify(ModuliContext(n, s))


class TestConstructions:
    def test_reference_9_4_is_bit_exact(self):
        alpha, op = construct_counterexample(ModuliContext(9, 4))
        assert alpha.entries == tuple(Fraction(x) for x in ALPHA_9_4)
        assert [
            (b.support, b.d_check) for b in op.seq
        ] == list(TRIPLE_9_4)

    def test_reference_11_3_is_bit_exact(self):
        alpha, op = construct_counterexample(ModuliContext(11, 3))
        assert alpha.entries == tuple(Fraction(x) for x in ALPHA_11_3)
        assert [
            (b.support, b.d_check) for b in op.seq
        ] == list(TRIPLE_11_3)

    @pytest.mark.parametrize(
        "n,s,expected",
        [
            (12, 4, (3, 3, 9)),
            (10, 4, (3, 3, 5)),
            (12, 3, (3, 3, 5)),
            (12, 9, (3, 5, 3)),
            (11, 8, (3, 3, 3)),
            (10, 6, (3, 5, 3)),
        ],
    )
    def test_constructed_counterexamples(self, n, s, expected):
        ctx = ModuliContext(n, s)
        alpha, op = construct_counterexample(ctx)
        assert alpha.n == n
        assert alpha.s == s
        assert len(op) == 3
        for b in op.seq:
            assert deg_alpha(b, alpha) == 0
        rots = rotation_deltas(op)
        assert rots == expected
        assert min(rots) > len(op.seq) - 1
        for mode in MODES:
            assert not check_criterion(alpha, mode).holds

    def test_group_scale_two(self):
        alpha, op = construct_counterexample(ModuliContext(18, 7), t=2)
        assert rotation_deltas(op) == (12, 12, 12)
        assert all(deg_alpha(b, alpha) == 0 for b in op.seq)

    def test_transcript_checks_all_pass(self):
        alpha, op, checks = construction_transcript(ModuliContext(10, 5))
        assert len(checks) == 4
        assert all(ok for _, ok, _ in checks)
        assert rotation_deltas(op) == (3, 3, 5)
        assert alpha.s == 5

    def test_dual_construction_checks_once(self, monkeypatch):
        calls = []
        original = smallness.check_criterion

        def counted(alpha, mode):
            calls.append(mode)
            return original(alpha, mode)

        monkeypatch.setattr(smallness, "check_criterion", counted)
        construct_counterexample(ModuliContext(10, 6))
        assert sorted(calls) == ["semismall", "small"]

    def test_out_of_range(self):
        for n, s in ((8, 3), (9, 3), (10, 3), (8, 5), (10, 7)):
            with pytest.raises(ConstructionRangeError):
                construct_counterexample(ModuliContext(n, s))

    def test_group_scale_validation(self):
        with pytest.raises(ValueError):
            construct_counterexample(ModuliContext(9, 4), t=2)
        with pytest.raises(ValueError):
            construct_counterexample(ModuliContext(11, 3), t=2)
        with pytest.raises(ValueError):
            construct_counterexample(ModuliContext(9, 4), t=0)
