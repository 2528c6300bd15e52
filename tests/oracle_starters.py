"""Reference starter verifiers: the test oracle for the indexed difference pass.

These are the four starter verifiers tforge.starters used before their
conditions were read off element positions: every difference condition
runs `difference_list` in its own mode, or the plain one for the two
incomplete-packing kinds, each cover and row multiset is a Counter, and
the row multisets and color classes translate blocks with
`translate_block`.  They are slow, but they share no counting logic with
the program.  The differential tests require ``describe()`` to be
byte-identical between the two on the fq starters, found starters of all
four kinds and their mutants.
"""

from __future__ import annotations

import itertools
from collections import Counter

from tforge.algebra import (
    difference_list,
    format_point,
    fpoint,
    ipoint,
    is_finite,
    translate_block,
)
from tforge.designs import VerifyReport
from tforge.starters import FrGbtdStarter, GbtdStarter, IgbtpStarterZ2, IgbtpStarterZ4


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


def verify_igbtp_z2_starter(s: IgbtpStarterZ2) -> VerifyReport:
    rep = VerifyReport()
    g = s.group
    m, w = s.m, s.w
    shape_bad = []
    if m % 2 == 0:
        shape_bad.append("m must be odd")
    if w % 2 == 0 or w < 5:
        shape_bad.append("w must be odd and >= 5")
    if len(s.blocks_a) != (w - 5) // 2:
        shape_bad.append("expected %d A blocks" % ((w - 5) // 2))
    if len(s.blocks_b) != (w - 1) // 2:
        shape_bad.append("expected %d B blocks" % ((w - 1) // 2))
    if len(s.blocks_c) != m:
        shape_bad.append("expected %d C blocks" % m)
    for i, b in enumerate(s.blocks_c):
        if len(b) != (3 if i == 0 else 2):
            shape_bad.append("C_%d has size %d" % (i, len(b)))
    for b in s.blocks_a + s.blocks_b:
        if len(b) != 2:
            shape_bad.append("A/B block of size %d" % len(b))
    rep.add("shape", shape_bad)
    if shape_bad:
        return rep
    if m < 11:
        rep.conditions[-1].detail = "m < 11 is outside the stated range"

    blocks = list(s.blocks_a) + list(s.blocks_b) + list(s.blocks_c)
    want = Counter({e: 1 for e in g.elements() if e not in ((0, 0), (0, 1))})
    _counter_eq(rep, "difference-list", difference_list(blocks, g, "plain"), want)

    a_bad = []
    for i, b in enumerate(s.blocks_a, start=1):
        if any(not is_finite(p) for p in b) or {p[1][1] for p in b} != {0, 1}:
            a_bad.append("A_%d does not meet both parities" % i)
    rep.add("a-parities", a_bad)

    cover = Counter(p for b in list(s.blocks_b) + list(s.blocks_c) for p in b)
    want_pts = Counter({fpoint(e): 1 for e in g.elements()})
    for i in range(1, w + 1):
        want_pts[ipoint(i)] = 1
    _counter_eq(rep, "bc-cover", cover, want_pts)

    c_bad = []
    for i, b in enumerate(s.blocks_c):
        if sum(1 for p in b if not is_finite(p)) > 1:
            c_bad.append("C_%d has two infinite points" % i)
    rep.add("c-one-infinite", c_bad)

    r = Counter()
    for p in (fpoint((0, 0)), fpoint((0, 1))):
        r[p] += 1
    for b in s.blocks_a:
        for j in (0, 1):
            for p in translate_block(b, (0, j), g):
                r[p] += 1
    for i, b in enumerate(s.blocks_c):
        for j in (0, 1):
            for p in translate_block(b, g.neg((i, j)), g):
                r[p] += 1
    r_bad = []
    for p in [fpoint(e) for e in g.elements()] + [ipoint(i) for i in range(1, w + 1)]:
        k = r.get(p, 0)
        if k not in (1, 2):
            r_bad.append("%s appears %d times in R" % (format_point(p), k))
    rep.add("row-multiset", r_bad)
    return rep


def _z4_r_multisets(s: IgbtpStarterZ4):
    g = s.group
    m, x, y = s.m, s.x, s.y
    r_o = Counter()
    r_b = Counter()
    for p in (fpoint((0, 0)), fpoint((0, 1)), fpoint((x, 0)), fpoint((x, 2)),
              fpoint((y, 0)), fpoint((y, 3))):
        r_o[p] += 1
    for p in (fpoint((0, 2)), fpoint((0, 3)), fpoint((x, 1)), fpoint((x, 3)),
              fpoint((y, 1)), fpoint((y, 2))):
        r_b[p] += 1
    for j, tgt in ((0, r_o), (2, r_o), (1, r_b), (3, r_b)):
        for p in translate_block(s.block_a, (0, j), g):
            tgt[p] += 1
    for i in range(m):
        for j in (0, 2):
            for p in translate_block(s.blocks_c[i], g.neg((i, j)), g):
                r_o[p] += 1
            for p in translate_block(s.blocks_d[i], g.neg((i, j)), g):
                r_b[p] += 1
        for j in (1, 3):
            for p in translate_block(s.blocks_c[i], g.neg((i, j)), g):
                r_b[p] += 1
            for p in translate_block(s.blocks_d[i], g.neg((i, j)), g):
                r_o[p] += 1
    return r_o, r_b


def verify_igbtp_z4_starter(s: IgbtpStarterZ4) -> VerifyReport:
    rep = VerifyReport()
    g = s.group
    m = s.m
    shape_bad = []
    if m % 2 == 0 or m < 5:
        shape_bad.append("m must be odd and >= 5")
    if len(s.block_a) != 2:
        shape_bad.append("A must be a pair")
    if len(s.blocks_b) != 4:
        shape_bad.append("expected 4 B blocks")
    if len(s.blocks_c) != m or len(s.blocks_d) != m:
        shape_bad.append("expected %d C and D blocks" % m)
    for i, b in enumerate(s.blocks_c):
        if len(b) != (3 if i == 0 else 2):
            shape_bad.append("C_%d has size %d" % (i, len(b)))
    for b in s.blocks_b + s.blocks_d:
        if len(b) != 2:
            shape_bad.append("B/D block of size %d" % len(b))
    rep.add("shape", shape_bad)
    if shape_bad:
        return rep

    blocks = [s.block_a] + list(s.blocks_b) + list(s.blocks_c) + list(s.blocks_d)
    want = Counter({e: 1 for e in g.elements() if e[0] != 0})
    _counter_eq(rep, "difference-list", difference_list(blocks, g, "plain"), want)

    a_bad = []
    if any(not is_finite(p) for p in s.block_a) or {p[1][1] for p in s.block_a} != {0, 2}:
        a_bad.append("A must meet parities 0 and 2")
    rep.add("a-parities", a_bad)

    cover = Counter(p for b in list(s.blocks_b) + list(s.blocks_c) + list(s.blocks_d)
                    for p in b)
    want_pts = Counter({fpoint(e): 1 for e in g.elements()})
    for i in range(1, 10):
        want_pts[ipoint(i)] = 1
    _counter_eq(rep, "bcd-cover", cover, want_pts)

    cd_bad = []
    for name, fam in (("C", s.blocks_c), ("D", s.blocks_d)):
        for i, b in enumerate(fam):
            if sum(1 for p in b if not is_finite(p)) > 1:
                cd_bad.append("%s_%d has two infinite points" % (name, i))
    rep.add("cd-one-infinite", cd_bad)

    r_o, r_b = _z4_r_multisets(s)
    r_bad = []
    universe = [fpoint(e) for e in g.elements()] + [ipoint(i) for i in range(1, 10)]
    for tag, r in (("o", r_o), ("b", r_b)):
        for p in universe:
            k = r.get(p, 0)
            if k not in (1, 2):
                r_bad.append("%s appears %d times in R_%s" % (format_point(p), k, tag))
    rep.add("row-multisets", r_bad)
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
    if isinstance(s, IgbtpStarterZ2):
        return verify_igbtp_z2_starter(s)
    if isinstance(s, IgbtpStarterZ4):
        return verify_igbtp_z4_starter(s)
    return verify_frgbtd_starter(s)
