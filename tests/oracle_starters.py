"""Reference starter verifiers: the test oracle for the indexed difference pass.

These are the triple-system and frame starter verifiers tforge.starters
used before their conditions were read off element positions: every
difference condition runs `difference_list` in its own mode, and the row
multiset and color classes translate blocks with `translate_block`.  They
are slow, but they share no counting logic with the program.  The
differential tests require ``describe()`` to be byte-identical between the
two on the fq starters, found starters and their mutants.
"""

from __future__ import annotations

import itertools
from collections import Counter

from tforge.algebra import difference_list, format_point, fpoint, is_finite, translate_block
from tforge.designs import VerifyReport
from tforge.starters import FrGbtdStarter, GbtdStarter


def _counter_eq(rep, cid, got: Counter, want: Counter):
    bad = []
    for k in sorted(set(got) | set(want)):
        if got.get(k, 0) != want.get(k, 0):
            bad.append("%r: got %d want %d" % (k, got.get(k, 0), want.get(k, 0)))
    rep.add(cid, bad)


def _r_multiset(s: GbtdStarter) -> Counter:
    g = s.group
    r = Counter()
    for alpha, b in s.blocks_a.items():
        for p in translate_block(b, g.neg(alpha), g):
            r[p] += 1
    for b in s.blocks_b:
        for p in b:
            r[p] += 1
    return r


def verify_gbtd_starter(s: GbtdStarter) -> VerifyReport:
    rep = VerifyReport()
    g = s.group
    m = s.m
    shape_bad = []
    if m % 2 == 0:
        shape_bad.append("group order %d is even" % m)
    if sorted(s.blocks_a) != sorted(g.elements()):
        shape_bad.append("A blocks not indexed by the group")
    if len(s.blocks_b) != (m - 1) // 2:
        shape_bad.append("expected %d B blocks" % ((m - 1) // 2))
    for b in list(s.blocks_a.values()) + list(s.blocks_b):
        if len(b) != 3:
            shape_bad.append("block size %d" % len(b))
        for p in b:
            if not is_finite(p) or p[2] not in (0, 1, 2):
                shape_bad.append("point %s outside Gamma x {0,1,2}" % format_point(p))
    rep.add("shape", shape_bad)
    if shape_bad:
        return rep

    blocks = list(s.blocks_a.values()) + list(s.blocks_b)
    nonzero = Counter({e: 1 for e in g.elements() if e != g.zero()})
    full = Counter({e: 1 for e in g.elements()})
    for i in range(3):
        _counter_eq(rep, "pure-diffs-%d" % i, difference_list(blocks, g, ("pure", i)), nonzero)
    for i, j in itertools.permutations(range(3), 2):
        _counter_eq(rep, "mixed-diffs-%d%d" % (i, j),
                    difference_list(blocks, g, ("mixed", i, j)), full)

    cover = Counter(p for b in s.blocks_a.values() for p in b)
    want = Counter({fpoint(e, c): 1 for e in g.elements() for c in range(3)})
    _counter_eq(rep, "a-cover", cover, want)

    b_bad = []
    for t, b in enumerate(s.blocks_b, start=1):
        if {p[2] for p in b} != {0, 1, 2}:
            b_bad.append("B_%d misses a copy" % t)
    rep.add("b-transversal", b_bad)

    r = _r_multiset(s)
    r_bad = []
    for e in g.elements():
        for c in range(3):
            k = r.get(fpoint(e, c), 0)
            if k not in (1, 2):
                r_bad.append("%s appears %d times in R" % (format_point(fpoint(e, c)), k))
    rep.add("row-multiset", r_bad)

    if s.special:
        a0 = s.blocks_a[g.zero()]
        sp_bad = ["%s appears %d times in R" % (format_point(p), r.get(p, 0))
                  for p in a0 if r.get(p, 0) != 1]
        rep.add("special-a0-once", sp_bad)

    if s.colors_a is not None:
        by_color = {}
        for alpha, b in s.blocks_a.items():
            col = s.colors_a[alpha]
            by_color.setdefault(col, []).append(translate_block(b, g.neg(alpha), g))
        for t, b in enumerate(s.blocks_b):
            by_color.setdefault(s.colors_b[t], []).append(b)
        col_bad = []
        for col, bs in sorted(by_color.items()):
            cnt = Counter(p for b in bs for p in b)
            for p, k in sorted(cnt.items()):
                if k > 1:
                    col_bad.append("color %d: %s in %d blocks" % (col, format_point(p), k))
        rep.add("color-disjoint", col_bad)
        wit_bad = []
        all_pts = {fpoint(e, c) for e in g.elements() for c in range(3)}
        for col, bs in sorted(by_color.items()):
            covered = {p for b in bs for p in b}
            if not all_pts - covered:
                wit_bad.append("color %d has no witness" % col)
        rep.add("color-witness", wit_bad)
    return rep


def verify_frgbtd_starter(s: FrGbtdStarter) -> VerifyReport:
    rep = VerifyReport()
    t = s.t
    g = s.group
    shape_bad = []
    if sorted(s.blocks) != [(i, j) for i in range(1, t) for j in (0, 1)]:
        shape_bad.append("blocks must be indexed by [t-1] x {0,1}")
    for key, b in sorted(s.blocks.items()):
        if len(b) != 3:
            shape_bad.append("block %r has size %d" % (key, len(b)))
        for p in b:
            if not is_finite(p) or p[2] not in (0, 1):
                shape_bad.append("point %s outside Z_3t x {0,1}" % format_point(p))
    rep.add("shape", shape_bad)
    if shape_bad:
        return rep

    blocks = [s.blocks[k] for k in sorted(s.blocks)]
    forbidden = {(0,), (t,), (2 * t,)}
    want = Counter({e: 1 for e in g.elements() if e not in forbidden})
    for i in range(2):
        _counter_eq(rep, "pure-diffs-%d" % i, difference_list(blocks, g, ("pure", i)), want)
    for i, j in ((0, 1), (1, 0)):
        _counter_eq(rep, "mixed-diffs-%d%d" % (i, j),
                    difference_list(blocks, g, ("mixed", i, j)), want)

    cover = Counter(p for b in blocks for p in b)
    want_pts = Counter({fpoint(e, c): 1 for e in g.elements() if e not in forbidden
                        for c in range(2)})
    _counter_eq(rep, "cover", cover, want_pts)

    r_bad = []
    for j in (0, 1):
        r = Counter()
        for i in range(1, t):
            for p in s.blocks[(i, j)]:
                r[((p[1][0] - i) % t, p[2])] += 1
        for (res, c), k in sorted(r.items()):
            if res == 0:
                r_bad.append("R_%d hits the zero residue (copy %d)" % (j, c))
        for res in range(1, t):
            for c in range(2):
                k = r.get((res, c), 0)
                if k not in (1, 2):
                    r_bad.append("R_%d: residue %d copy %d appears %d times" % (j, res, c, k))
    rep.add("row-multisets", r_bad)
    return rep


def verify_starter(s) -> VerifyReport:
    if isinstance(s, GbtdStarter):
        return verify_gbtd_starter(s)
    return verify_frgbtd_starter(s)
