"""Acceptance gate: the eight primary criteria, one test and one verdict line each.

Each test prints "[criterion N] PASS" or "[criterion N] FAIL" so a plain
pytest -v run shows one line per criterion.  Zero tolerance throughout: every
assertion is exact.  Every criterion runs on both kernel twins.
"""

import functools
import itertools
import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from bodenhu import (
    ModuliContext,
    MultiplicityVector,
    OrderedPartition,
    Partition,
    WeightVector,
    alpha_partitions,
    check_criterion,
    deg_alpha,
    delta,
    delta_seq,
    dual_weight,
    feasible_partitions,
    fiber_component_dim,
    find_generic_near,
    is_alpha_stable_seq,
    is_generic,
    is_near,
    stable_rotation,
    stratum_codim,
)
from bodenhu.cli import main as cli_main
from bodenhu.selftest import random_mult_vector, random_weight_vector
from bodenhu.smallness import MODES, ordering_representatives
from conftest import (
    ALPHA_9_4,
    PURE_RUN_UNNAMED,
    TRIPLE_9_4,
    build_triple,
    build_weight,
)

SCAN_BUDGET_SECONDS = 600.0

pytestmark = [PURE_RUN_UNNAMED, pytest.mark.usefixtures("twin")]


def criterion(number):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number}] FAIL", flush=True)
                raise
            print(f"[criterion {number}] PASS", flush=True)

        return run

    return wrap


@functools.cache
def twin_pool(twin):
    """Every feasible partition with 4 to 9 slots, with a realising witness,
    as the twin bound on bodenhu._kernel finds them."""
    out = {}
    for n in range(4, 10):
        rows = []
        for s in range(1, n):
            for partition, witness in feasible_partitions(ModuliContext(n, s)):
                rows.append((partition, WeightVector(witness)))
        out[n] = rows
    return out


@pytest.fixture
def pool(twin):
    return twin_pool(twin)


@criterion(1)
def test_criterion_1_classification_scan(capsys, scan_memo):
    started = time.perf_counter()
    code = cli_main(["scan", "--nmax", "11", "--mode", "small"])
    elapsed = time.perf_counter() - started
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["all_agree"] is True
    holds = {(r["n"], r["s"]): r["holds"] for r in payload["rows"]}
    assert set(holds) == {
        (n, s) for n in range(2, 12) for s in range(1, n)
    }
    for (n, s), value in holds.items():
        if n <= 8:
            assert value, (n, s)
        if s in (1, 2, n - 1, n - 2):
            assert value, (n, s)
    for n, s in ((9, 3), (9, 6), (10, 3), (10, 7)):
        assert holds[(n, s)], (n, s)
    for n in (9, 10):
        for s in range(4, n - 3):
            assert not holds[(n, s)], (n, s)
    for n, s in ((11, 3), (11, 8)):
        assert not holds[(n, s)], (n, s)
    assert elapsed < SCAN_BUDGET_SECONDS


@criterion(2)
def test_criterion_2_reference_counterexamples(
    alpha94, triple94, alpha113, triple113
):
    verdict = check_criterion(alpha94, "semismall")
    assert not verdict.holds
    witness = verdict.witness
    assert witness.rotation_deltas == (3, 3, 3)
    assert {(b.support, b.d_check) for b in witness.ordered.seq} == {
        ((1, 2, 9), -1), ((3, 4, 5), -1), ((6, 7, 8), -2),
    }
    verdict = check_criterion(alpha113, "semismall")
    assert not verdict.holds
    assert verdict.witness.rotation_deltas == (3, 3, 3)
    assert verdict.witness.ordered.partition == Partition(triple113)
    for mode in MODES:
        assert not check_criterion(alpha94, mode).holds
        assert not check_criterion(alpha113, mode).holds


@criterion(3)
def test_criterion_3_low_weight_sum_vacuity():
    rng = random.Random(20260816)
    for n in range(3, 13):
        for _ in range(200):
            alpha = random_weight_vector(rng, n, 2)
            assert alpha.s == 2
            assert alpha_partitions(alpha, 3) == []


def _all_disjoint_pairs(n):
    for mask1 in range(1, 1 << n):
        rest = ((1 << n) - 1) ^ mask1
        sub = rest
        while sub:
            yield mask1, sub
            sub = (sub - 1) & rest


def _triple_bound_holds_exactly(m1, m2, m3):
    lhs = (
        Fraction(delta(m1, m2), m1.r * m2.r)
        + Fraction(delta(m2, m3), m2.r * m3.r)
        + Fraction(delta(m3, m1), m3.r * m1.r)
    )
    return lhs <= 1


@criterion(4)
def test_criterion_4_pairing_inequalities():
    # Parity: exhaustive over disjoint-support pairs, small slot counts.
    for n in range(2, 7):
        for mask1, mask2 in _all_disjoint_pairs(n):
            base1 = MultiplicityVector.from_mask(n, -1, mask1)
            base2 = MultiplicityVector.from_mask(n, -1, mask2)
            for d1 in range(-5, 0):
                for d2 in range(-5, 0):
                    m1 = MultiplicityVector(d1, base1.mults)
                    m2 = MultiplicityVector(d2, base2.mults)
                    assert (delta(m1, m2) - m1.r * m2.r) % 2 == 0

    # Triple bound: exhaustive over all rank <= 4 vectors on 6 slots.  The
    # degree contributions telescope around the triple, so checking the
    # degree-free cross terms covers every degree assignment; the telescoping
    # itself is re-verified on random degreeful triples below.
    vectors = [
        mults
        for r in range(1, 5)
        for mults in itertools.product(range(5), repeat=6)
        if sum(mults) == r
    ]
    assert len(vectors) == 209
    M = np.array(vectors, dtype=np.int64)
    A = np.zeros((6, 6), dtype=np.int64)
    for a in range(6):
        for b in range(6):
            A[a, b] = 1 if b > a else (-1 if b < a else 0)
    X = M @ A @ M.T
    r = M.sum(axis=1)
    rng = random.Random(97)
    for _ in range(2000):
        i, j = rng.randrange(209), rng.randrange(209)
        di, dj = rng.randint(-4, 0), rng.randint(-4, 0)
        mi = MultiplicityVector(di, vectors[i])
        mj = MultiplicityVector(dj, vectors[j])
        assert delta(mi, mj) == 2 * (r[i] * dj - r[j] * di) + X[i, j]
    rr = np.outer(r, r)
    for i in range(209):
        lhs = (
            X[i, :][:, None] * r[None, :]
            + X * r[i]
            + np.outer(r, X[:, i])
        )
        assert (lhs <= r[i] * rr).all()

    # Triple bound again, exact arithmetic with degrees, on random triples.
    rng = random.Random(4242)
    for _ in range(10000):
        n = rng.randint(2, 8)
        m1 = random_mult_vector(rng, n)
        m2 = random_mult_vector(rng, n)
        m3 = random_mult_vector(rng, n)
        assert _triple_bound_holds_exactly(m1, m2, m3)

    # Antisymmetry and bilinearity on random pairs and triples.
    rng = random.Random(515151)
    for _ in range(10000):
        n = rng.randint(2, 8)
        m1 = random_mult_vector(rng, n)
        m2 = random_mult_vector(rng, n)
        m3 = random_mult_vector(rng, n)
        assert delta(m1, m2) == -delta(m2, m1)
        assert delta(m1 + m2, m3) == delta(m1, m3) + delta(m2, m3)
        assert delta(m1, m2 + m3) == delta(m1, m2) + delta(m1, m3)
        k = rng.randint(1, 4)
        scaled = MultiplicityVector(
            k * m1.d_check, tuple(k * c for c in m1.mults)
        )
        assert delta(scaled, m2) == k * delta(m1, m2)


def test_criterion_4_rank_two_pairs(pool):
    # Companion sweep for criterion 4: on every realisable partition with at
    # most 9 slots, rank-2 block pairs pair to exactly zero.
    checked = 0
    for n in range(4, 10):
        for partition, _ in pool[n]:
            twos = [b for b in partition.blocks if b.r == 2]
            for b1, b2 in itertools.combinations(twos, 2):
                assert delta(b1, b2) == 0
                checked += 1
    assert checked > 400


@criterion(5)
def test_criterion_5_stable_rotation_uniqueness(pool):
    rng = random.Random(321)
    flat = [
        (partition, alpha)
        for n in range(4, 10)
        for partition, alpha in pool[n]
        if len(partition) >= 2
    ]
    betas = {}
    for _ in range(1000):
        partition, alpha = flat[rng.randrange(len(flat))]
        beta = betas.get(alpha.entries)
        if beta is None:
            beta = betas[alpha.entries] = find_generic_near(alpha)
        blocks = list(partition.blocks)
        rng.shuffle(blocks)
        seq = OrderedPartition(tuple(blocks))
        found = stable_rotation(seq, beta)
        stable = {
            l
            for l in range(len(seq))
            if is_alpha_stable_seq(seq.rotation(l), beta)
        }
        assert stable == {found}
        best_l, best = 0, Fraction(0)
        acc = None
        for l, block in enumerate(seq.seq[:-1], start=1):
            acc = block if acc is None else acc + block
            d = deg_alpha(acc, beta)
            if d > best:
                best_l, best = l, d
        assert found == best_l


@criterion(6)
def test_criterion_6_dimension_margin_identity(pool, alpha94, triple94):
    for n in range(4, 10):
        for partition, _ in pool[n]:
            codim = {g: stratum_codim(partition, g) for g in (2, 3, 5)}
            for rep in ordering_representatives(partition):
                expected = (
                    len(rep) - 1 - delta_seq(rep.seq)
                    if len(rep) >= 2
                    else 0
                )
                for g in (2, 3, 5):
                    dim = fiber_component_dim(rep, g)
                    assert isinstance(dim, int)
                    assert codim[g] - 2 * dim == expected
    reference = OrderedPartition(triple94)
    assert stratum_codim(Partition(triple94), 2) == 79
    assert fiber_component_dim(reference, 2) == 40
    assert stratum_codim(Partition(triple94), 2) - 2 * 40 == -1


@criterion(7)
def test_criterion_7_duality_agreement(pool):
    rng = random.Random(777)
    alphas = []
    while len(alphas) < 250:
        n = rng.randint(3, 9)
        alphas.append(random_weight_vector(rng, n, rng.randint(1, n - 1)))
    witnesses = [
        alpha
        for n in range(4, 10)
        for _, alpha in pool[n]
    ]
    alphas.extend(
        witnesses[rng.randrange(len(witnesses))] for _ in range(250)
    )
    assert len(alphas) == 500
    for alpha in alphas:
        dual = dual_weight(alpha)
        for mode in MODES:
            assert (
                check_criterion(alpha, mode).holds
                == check_criterion(dual, mode).holds
            )


@criterion(8)
def test_criterion_8_generic_nearby_points(pool):
    rng = random.Random(888)
    on_walls = [
        alpha
        for n in range(4, 10)
        for partition, alpha in pool[n]
        if len(partition) >= 2
    ]
    assert len(on_walls) >= 500
    sample = rng.sample(range(len(on_walls)), 500)
    for idx in sample:
        alpha = on_walls[idx]
        assert not is_generic(alpha)[0]
        beta = find_generic_near(alpha)
        assert is_generic(beta) == (True, None)
        assert is_near(alpha, beta) == (True, None)
        assert beta.n == alpha.n
        assert beta.s == alpha.s
        assert 0 < beta.entries[0]
        assert beta.entries[-1] < 1
        assert all(
            a < b for a, b in zip(beta.entries, beta.entries[1:])
        )
        assert find_generic_near(alpha) == beta
