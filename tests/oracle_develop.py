"""Reference develops and JSON emitters: the test oracle for the index tables
and the template emitters.

These are the develops tforge.starters used before blocks were translated by
element index: every cell translates its block with `translate_block` and
formats its labels.  The emitters are the definition of the canonical bytes,
json.dumps(obj, sort_keys=True, indent=1) plus a newline.  They are slow,
but they share no logic with the program's develops and emitters.  The
differential tests require the same cells and colors, and byte-identical
files, from both.
"""

from __future__ import annotations

import itertools
import json

from tforge import starters
from tforge.algebra import AbelianGroup, block, cyclic, fpoint, ipoint, translate_block
from tforge.codes import Code, code_to_obj
from tforge.designs import DesignGrid, grid_to_obj
from tforge.starters import FrGbtdStarter, GbtdStarter, IgbtpStarterZ2, IgbtpStarterZ4


def _elem_label(elem) -> str:
    return ".".join(str(x) for x in elem)


def dumps_grid(g: DesignGrid) -> str:
    return json.dumps(grid_to_obj(g), sort_keys=True, indent=1) + "\n"


def dumps_code(c: Code) -> str:
    return json.dumps(code_to_obj(c), sort_keys=True, indent=1) + "\n"


def develop_gbtd(s: GbtdStarter) -> DesignGrid:
    """Place A_alpha+beta at (alpha+beta, beta) and B_t+alpha at (alpha, t)."""
    g = s.group
    elems = sorted(g.elements())
    rows = tuple(_elem_label(e) for e in elems)
    t_count = len(s.blocks_b)
    cols = rows + tuple("t%d" % t for t in range(1, t_count + 1))
    cells = {}
    colors = {} if s.colors_a is not None else None
    # A_alpha and its color at alpha's position in sorted element order
    for a, (alpha, b) in enumerate(zip(elems, s.blocks_a)):
        for beta in elems:
            rc = (_elem_label(g.add(alpha, beta)), _elem_label(beta))
            cells[rc] = translate_block(b, beta, g)
            if colors is not None:
                colors[rc] = s.colors_a[a]
    for t, b in enumerate(s.blocks_b, start=1):
        for alpha in elems:
            rc = (_elem_label(alpha), "t%d" % t)
            cells[rc] = translate_block(b, alpha, g)
            if colors is not None:
                colors[rc] = s.colors_b[t - 1]
    points = tuple(fpoint(e, c) for e in elems for c in range(3))
    special = None
    if s.special:
        z = _elem_label(g.zero())
        special = (z, z)
    return DesignGrid("GBTD", 1, (3,), points, rows, cols, cells,
                      colors, special=special)


def develop_igbtp_z2(s: IgbtpStarterZ2) -> DesignGrid:
    g = s.group
    m, w = s.m, s.w
    hole_rows = tuple("p%d" % i for i in range(1, (w - 1) // 2 + 1))
    rows = hole_rows + tuple(str(i) for i in range(m))
    hole_cols = tuple("q%d" % j for j in range(1, w - 4 + 1))
    gcols = [(j, l) for j in range(m) for l in (0, 1)]
    cols = hole_cols + tuple(_elem_label(e) for e in gcols)
    cells = {}
    for i in range(m):
        cells[(str(i), "q1")] = block([fpoint((i, 0)), fpoint((i, 1))])
        for a, b in enumerate(s.blocks_a, start=1):
            for j in (0, 1):
                cells[(str(i), "q%d" % (2 * a + j))] = translate_block(b, (i, j), g)
    for bi, b in enumerate(s.blocks_b, start=1):
        for e in gcols:
            cells[("p%d" % bi, _elem_label(e))] = translate_block(b, e, g)
    for e in gcols:
        j, l = e
        for rr in range(m):
            cells[(str(rr), _elem_label(e))] = translate_block(
                s.blocks_c[(rr - j) % m], e, g)
    points = tuple(fpoint(e) for e in g.elements()) + tuple(ipoint(i) for i in range(1, w + 1))
    hole = (tuple(sorted(ipoint(i) for i in range(1, w + 1))), hole_rows, hole_cols)
    return DesignGrid("IGBTP", 1, (2, 3), points, rows, cols, cells,
                      hole=hole, star=True)


def develop_igbtp_z4(s: IgbtpStarterZ4) -> DesignGrid:
    g = s.group
    m, x, y = s.m, s.x, s.y
    hole_rows = tuple("p%d" % i for i in range(1, 5))
    o_rows = tuple("%d:0" % i for i in range(m))
    b_rows = tuple("%d:1" % i for i in range(m))
    rows = hole_rows + o_rows + b_rows
    hole_cols = tuple("q%d" % j for j in range(1, 6))
    gcols = [(j, l) for j in range(m) for l in range(4)]
    cols = hole_cols + tuple(_elem_label(e) for e in gcols)
    cells = {}
    for i in range(m):
        cells[(o_rows[i], "q1")] = block([fpoint((i, 0)), fpoint((i, 1))])
        cells[(b_rows[i], "q1")] = block([fpoint((i, 2)), fpoint((i, 3))])
        cells[(o_rows[i], "q2")] = block([fpoint(((x + i) % m, 0)), fpoint(((x + i) % m, 2))])
        cells[(b_rows[i], "q2")] = block([fpoint(((x + i) % m, 1)), fpoint(((x + i) % m, 3))])
        cells[(o_rows[i], "q3")] = block([fpoint(((y + i) % m, 0)), fpoint(((y + i) % m, 3))])
        cells[(b_rows[i], "q3")] = block([fpoint(((y + i) % m, 1)), fpoint(((y + i) % m, 2))])
        cells[(o_rows[i], "q4")] = translate_block(s.block_a, (i, 0), g)
        cells[(b_rows[i], "q4")] = translate_block(s.block_a, (i, 1), g)
        cells[(o_rows[i], "q5")] = translate_block(s.block_a, (i, 2), g)
        cells[(b_rows[i], "q5")] = translate_block(s.block_a, (i, 3), g)
    for bi, b in enumerate(s.blocks_b, start=1):
        for e in gcols:
            cells[("p%d" % bi, _elem_label(e))] = translate_block(b, e, g)
    for e in gcols:
        j, l = e
        first = s.blocks_c if l in (0, 2) else s.blocks_d
        second = s.blocks_d if l in (0, 2) else s.blocks_c
        for rr in range(m):
            cells[(o_rows[rr], _elem_label(e))] = translate_block(first[(rr - j) % m], e, g)
            cells[(b_rows[rr], _elem_label(e))] = translate_block(second[(rr - j) % m], e, g)
    points = tuple(fpoint(e) for e in g.elements()) + tuple(ipoint(i) for i in range(1, 10))
    hole = (tuple(sorted(ipoint(i) for i in range(1, 10))), hole_rows, hole_cols)
    return DesignGrid("IGBTP", 1, (2, 3), points, rows, cols, cells,
                      hole=hole, star=True)


def develop_frgbtd(s: FrGbtdStarter) -> DesignGrid:
    """Place block (i,j) translated by k at row (i+k mod t, j), column k."""
    t = s.t
    g = s.group
    rows = tuple("%d:%d" % (i, j) for i in range(t) for j in (0, 1))
    cols = tuple(str(k) for k in range(3 * t))
    cells = {}
    # block (i, j) at position 2(i - 1) + j
    for (i, j), b in zip([(i, j) for i in range(1, t) for j in (0, 1)], s.blocks):
        for k in range(3 * t):
            cells[("%d:%d" % ((i + k) % t, j), str(k))] = translate_block(b, (k,), g)
    points = tuple(fpoint(e, c) for e in g.elements() for c in range(2))
    groups = []
    rgi = []
    cgi = []
    for i in range(t):
        groups.append(tuple(sorted(fpoint(((u * t + i) % (3 * t),), c)
                                   for u in range(3) for c in range(2))))
        rgi.append(("%d:0" % i, "%d:1" % i))
        cgi.append(tuple(str((u * t + i) % (3 * t)) for u in range(3)))
    return DesignGrid("FrGBTD", 1, (3,), points, rows, cols, cells,
                      groups=tuple(groups), row_group_index=tuple(rgi),
                      col_group_index=tuple(cgi))


def build_frgbtd_6_8() -> DesignGrid:
    """16 x 24 frame of type 6^8 over Z_48; block i+j sits at (i+j mod 16, j mod 24)."""
    g = cyclic(48)
    rows = tuple(str(r) for r in range(16))
    cols = tuple(str(c) for c in range(24))
    cells = {}
    for i, base in sorted(starters.FRGBTD_6_8_BLOCKS.items()):
        b = block(fpoint(x) for x in base)
        for j in range(48):
            rc = (str((i + j) % 16), str(j % 24))
            assert rc not in cells
            cells[rc] = translate_block(b, (j,), g)
    points = tuple(fpoint(x) for x in range(48))
    groups = []
    rgi = []
    cgi = []
    for i in range(8):
        groups.append(tuple(sorted(fpoint(i + 8 * k) for k in range(6))))
        rgi.append(tuple(str(r) for r in range(16) if r % 8 == i))
        cgi.append(tuple(str(c) for c in range(24) if c % 8 == i))
    return DesignGrid("FrGBTD", 1, (3,), points, rows, cols, cells,
                      groups=tuple(groups), row_group_index=tuple(rgi),
                      col_group_index=tuple(cgi))


def build_igbtp_33() -> DesignGrid:
    """16 x 29 incomplete packing with a 4 x 5 hole on the nine infinite points."""
    g = AbelianGroup((3, 8))
    hole_rows = tuple("p%d" % i for i in range(1, 5))
    body_rows = tuple("b%d.%d" % (rb, rs) for rb in range(4) for rs in range(3))
    rows = hole_rows + body_rows
    hole_cols = tuple("q%d" % j for j in range(1, 6))
    gcols = [(c, l) for l in range(8) for c in range(3)]
    cols = hole_cols + tuple(_elem_label(e) for e in gcols)
    cells = {}
    for rb in range(4):
        for rs in range(3):
            row = "b%d.%d" % (rb, rs)
            for j in range(1, 6):
                b = block(fpoint(p) for p in starters.IGBTP_33_A[5 * rb + j - 1])
                cells[(row, "q%d" % j)] = translate_block(b, (rs, 0), g)
    for bi, base in enumerate(starters.IGBTP_33_B, start=1):
        b = block(fpoint(p) for p in base)
        for e in gcols:
            cells[("p%d" % bi, _elem_label(e))] = translate_block(b, e, g)
    inf_index = itertools.count(1)
    for (i, sdx), pts in sorted(starters.IGBTP_33_C.items()):
        members = [fpoint(p) for p in pts]
        if len(members) == 1:
            members.append(ipoint(next(inf_index)))
        b = block(members)
        for (c, l) in gcols:
            row = "b%d.%d" % ((i - 1 + l) % 4, (sdx + c) % 3)
            cells[(row, _elem_label((c, l)))] = translate_block(b, (c, l), g)
    points = tuple(fpoint(e) for e in g.elements()) + tuple(ipoint(i) for i in range(1, 10))
    hole = (tuple(sorted(ipoint(i) for i in range(1, 10))), hole_rows, hole_cols)
    return DesignGrid("IGBTP", 1, (2, 3), points, rows, cols, cells,
                      hole=hole, star=True)


def develop_starter(s) -> DesignGrid:
    if isinstance(s, GbtdStarter):
        return develop_gbtd(s)
    if isinstance(s, IgbtpStarterZ2):
        return develop_igbtp_z2(s)
    if isinstance(s, IgbtpStarterZ4):
        return develop_igbtp_z4(s)
    if isinstance(s, FrGbtdStarter):
        return develop_frgbtd(s)
    raise TypeError("unknown starter type %r" % type(s))
