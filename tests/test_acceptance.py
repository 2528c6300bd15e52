"""Acceptance suite: one test per criterion, each printing its own pass line.

Budgets are node counts; TFORGE_BUDGET overrides the attempt sizes so slower
or faster machines can rebalance without touching the assertions.
"""

import os
import random
import time

import pytest

from tforge.algebra import block, cyclic, difference_list, fpoint, ipoint
from tforge.codes import (
    Code,
    code_stats,
    code_to_gbtp,
    ec_table,
    ec_table_exhaustive,
    gbtp_to_code,
    min_distance,
    is_equitable,
    optimality_cert_2q3,
    plotkin_check,
)
from tforge.constructions import (
    build_td,
    drtd_from_td,
    fill_hole,
    frame_fill,
    inflate,
    tripling,
)
from tforge.designs import (
    DesignGrid,
    promote_coloring,
    verify_auto,
    verify_coloring,
    verify_gbtd,
)
from tforge.search import (
    Budget,
    arrange_resolution,
    eswc_witness,
    max_eswc,
    plotkin_cap,
    search_gbtp,
    search_starter,
)
from tforge.starters import (
    build_fq_gbtd_starter,
    build_frgbtd_6_8,
    build_igbtp_33,
    develop_gbtd,
    develop_starter,
    frgbtd_6_8_base_blocks,
)


def _budget(default):
    """TFORGE_BUDGET as `Budget` reads it (one that is not a positive integer
    raises BudgetZero), or default when it is unset."""
    return Budget().limit if "TFORGE_BUDGET" in os.environ else default


def report(name, detail=""):
    print("\nACCEPT %-38s PASS  %s" % (name, detail))


def test_criterion_01_fixture_verification(fig1, fig2, fig3, fig7, fig8):
    t0 = time.perf_counter()
    for g in (fig1, fig2, fig3, fig7, fig8):
        rep = verify_auto(g)
        assert rep.ok, "%s failed:\n%s" % (g.kind, rep.describe())
    assert verify_coloring(fig2, 3, want_pi=True).ok
    assert verify_coloring(fig3, 2).ok
    dt = time.perf_counter() - t0
    assert dt < 1.0
    report("1 fixture-verification", "5 fixtures, %.2fs" % dt)


def test_criterion_02_example_reproduction(fig1):
    t0 = time.perf_counter()
    code = gbtp_to_code(fig1)
    words = [tuple(int(code.labels[s]) for s in w) for w in code.words]
    assert words == [
        (2, 1, 3, 2), (2, 2, 1, 3), (2, 3, 2, 1),
        (3, 1, 2, 3), (3, 2, 3, 1), (3, 3, 1, 2),
    ]
    back = code_to_gbtp(code, fig1.k_set, fig1.lam, points=fig1.points)
    assert back.cells == fig1.cells
    dt = time.perf_counter() - t0
    assert dt < 1.0
    report("2 example-reproduction", "6 words exact, round trip cellwise")


def test_criterion_03_small_optimal_values(fig2):
    exact_cases = [(3, 2, 2, 3), (5, 3, 2, 4), (7, 4, 2, 7),
                   (3, 2, 3, 6), (4, 3, 3, 6), (5, 4, 4, 12)]
    for n, d, q, want in exact_cases:
        res = max_eswc(n, d, q, budget=_budget(5_000_000))
        assert res.exact and res.M == want, (n, d, q, res.M, res.exact)

    # the (7,6) case over five symbols: attempted exact, demoted to a
    # heuristic witness plus the bound cap when the budget runs out
    res = max_eswc(7, 6, 5, budget=_budget(400_000))
    cap = plotkin_cap(7, 6, 5)
    assert cap == 15
    if res.exact:
        assert res.M == 14
        detail_a5 = "A_5(7,6)=14 exact"
    else:
        inf = ipoint(0)
        classes = [[tuple(p for p in b if p != inf) for b in fig2.col_blocks(c)]
                   for c in fig2.cols]
        grid = arrange_resolution(classes, 5, 7)
        witness = gbtp_to_code(grid)
        assert witness.size == 14 and is_equitable(witness)
        assert min_distance(witness) >= 6
        detail_a5 = "A_5(7,6) demoted: witness 14, cap 15 (bracket [14,15])"

    # the (9,8) case over six symbols: witness of 14 plus refutation of 15
    wit = eswc_witness(9, 8, 6, 14)
    assert wit is not None and wit.size == 14
    assert is_equitable(wit) and min_distance(wit) >= 8
    assert not plotkin_check(9, 8, 6, 15).holds
    report("3 small-optimal-values",
           "6 exact values; %s; A_6(9,8): witness 14 + size-15 refuted" % detail_a5)


def test_criterion_04_prime_power_pipeline():
    t0 = time.perf_counter()
    for q in (7, 13, 19, 25, 31):
        grid = develop_gbtd(build_fq_gbtd_starter(q))
        rep = verify_gbtd(grid)
        assert rep.ok, "q=%d:\n%s" % (q, rep.describe())
        assert grid.special is not None
        stats = code_stats(gbtp_to_code(grid))
        assert (stats.n, stats.d, stats.M) == ((3 * q - 1) // 2, (3 * q - 3) // 2, 3 * q)
        assert stats.equitable and stats.plotkin.equality
        assert stats.capability == q - 1
    dt = time.perf_counter() - t0
    assert dt < 30.0
    report("4 prime-power-pipeline", "q in {7,13,19,25,31}, %.1fs" % dt)


def test_criterion_05_tripling_chain(fig3):
    t0 = time.perf_counter()
    promoted = promote_coloring(fig3)
    assert verify_coloring(promoted, 3, want_pi=True).ok
    drtd = drtd_from_td(build_td(5, 27))
    big = tripling(promoted, drtd)
    rep = verify_auto(big)
    assert rep.ok, rep.describe()
    assert big.special is not None
    stats = code_stats(gbtp_to_code(big))
    assert (stats.n, stats.d, stats.q, stats.M) == (40, 39, 27, 81)
    assert stats.equitable and stats.plotkin.equality
    dt = time.perf_counter() - t0
    assert dt < 60.0
    report("5 tripling-chain", "special 27x40 array, code (40,39)_27 size 81, %.1fs" % dt)


def test_criterion_06_frame_chain(fig8, fig3):
    t0 = time.perf_counter()
    frame = inflate(fig8, drtd_from_td(build_td(5, 4)))
    rep = verify_auto(frame)
    assert rep.ok
    assert sorted(len(g) for g in frame.groups) == [24] * 6
    big = frame_fill(frame, [fig3] * 6, final="w")
    rep = verify_auto(big)
    assert rep.ok, rep.describe()
    assert big.kind == "GBTD" and big.special is not None
    stats = code_stats(gbtp_to_code(big))
    assert (stats.n, stats.d, stats.q, stats.M) == (73, 72, 49, 147)
    assert stats.equitable and stats.plotkin.equality
    dt = time.perf_counter() - t0
    assert dt < 120.0
    report("6 frame-chain", "special 49x73 array, code (73,72)_49 size 147, %.1fs" % dt)


def test_criterion_07_explicit_constructions():
    t0 = time.perf_counter()
    frame = build_frgbtd_6_8()
    rep = verify_auto(frame)
    assert rep.ok
    diffs = difference_list(frgbtd_6_8_base_blocks(), cyclic(48))
    assert diffs == {(x,): 1 for x in range(48) if x % 8 != 0}

    ig = build_igbtp_33()
    rep = verify_auto(ig)
    assert rep.ok, rep.describe()

    inner = search_gbtp({"K": [2, 3], "v": 9, "m": 4, "n": 5, "star3": True},
                        budget=_budget(5_000_000))
    assert inner.grid is not None
    full = fill_hole(ig, inner.grid)
    rep = verify_auto(full)
    assert rep.ok, rep.describe()
    assert full.star
    stats = code_stats(gbtp_to_code(full))
    assert (stats.n, stats.d, stats.q, stats.M) == (29, 28, 16, 33)
    assert stats.equitable
    bound = plotkin_check(29, 28, 16, 34)
    assert not bound.holds and (bound.lhs, bound.rhs) == (15708, 15689)
    dt = time.perf_counter() - t0
    assert dt < 120.0
    report("7 explicit-constructions",
           "frame 6^8 + 33-point fill, optimality 15708>15689, %.1fs" % dt)


def test_criterion_08_bound_arithmetic():
    t0 = time.perf_counter()
    for m in range(7, 101):
        lhs = 4 * m ** 3 - 2 * m ** 2 - 10 * m - 4
        rhs = 4 * m ** 3 - 2 * m ** 2 - 12 * m + 9
        assert lhs > rhs
        res = plotkin_check(2 * m - 3, 2 * m - 4, m, 2 * m + 2)
        assert (res.lhs, res.rhs) == (lhs, rhs)
        assert not res.holds
        cert = optimality_cert_2q3(m)
        assert cert.violated
    for m in (4, 5, 6):
        assert plotkin_check(2 * m - 3, 2 * m - 4, m, 2 * m + 2).holds
    dt = time.perf_counter() - t0
    assert dt < 1.0
    report("8 bound-arithmetic", "m in 7..100 violated, 4..6 not, %.2fs" % dt)


def test_criterion_09_nonexistence_echoes():
    res3 = search_gbtp({"K": [3], "v": 9, "m": 3, "n": 4}, budget=_budget(5_000_000))
    assert res3.grid is None and res3.exhausted

    res5 = search_gbtp({"K": [3], "v": 15, "m": 5, "n": 7}, budget=_budget(2_000_000))
    assert res5.grid is None
    if res5.exhausted:
        detail = "order-15 case exhausted (NotFound conclusive)"
    else:
        cap = plotkin_cap(7, 6, 5)
        assert cap == 15
        detail = ("order-15 case demoted at %d nodes; code-side bracket "
                  "[14,%d] stands in" % (res5.nodes, cap))
    report("9 nonexistence-echoes", "order-9 case exhausted; " + detail)


@pytest.fixture(scope="module")
def searched_starters():
    batches = [
        ("gbtd", {"m": 7}, 6),
        ("frgbtd", {"t": 5}, 6),
        ("igbtp_z2", {"m": 11, "w": 9}, 4),
        ("igbtp_z4", {"m": 5}, 4),
    ]
    out = []
    for kind, params, count in batches:
        res = search_starter(kind, params, budget=_budget(30_000_000), count=count)
        assert res.starters, (kind, params)
        out.extend((kind, s) for s in res.starters)
    return out


def test_criterion_10a_develop_verify_adjunction(searched_starters):
    assert len(searched_starters) >= 20
    kinds = {k for k, _ in searched_starters}
    assert kinds == {"gbtd", "frgbtd", "igbtp_z2", "igbtp_z4"}
    for kind, st in searched_starters:
        grid = develop_starter(st)
        rep = verify_auto(grid)
        assert rep.ok, "%s starter developed into a failing grid" % kind
    report("10a adjunction", "%d searched starters across 4 kinds" % len(searched_starters))


def test_criterion_10b_capability_oracle():
    rng = random.Random(2024)
    checked = 0
    while checked < 100:
        q = rng.randrange(2, 9)
        n = rng.randrange(2, 10)
        words = {tuple(rng.randrange(q) for _ in range(n))
                 for _ in range(rng.randrange(2, 8))}
        if len(words) < 2:
            continue
        c = Code(q, n, tuple(sorted(words)))
        assert ec_table(c) == ec_table_exhaustive(c)
        checked += 1
    report("10b capability-oracle", "100 random codes, q <= 8")


def test_criterion_10c_mutation_fuzz(fig3):
    rng = random.Random(99)
    cells = fig3.sorted_cells()
    mutated_count = 0
    for _ in range(100):
        (r, c), b = cells[rng.randrange(len(cells))]
        old = rng.choice(list(b))
        new = rng.choice(fig3.points)
        if new in b:
            continue
        mutated = dict(fig3.cells)
        mutated[(r, c)] = block([p for p in b if p != old] + [new])
        g = DesignGrid("GBTD", 1, fig3.k_set, fig3.points, fig3.rows, fig3.cols,
                       mutated)
        assert not verify_gbtd(g).ok
        mutated_count += 1
    assert mutated_count > 50
    report("10c mutation-fuzz", "%d single-point mutations all caught" % mutated_count)
