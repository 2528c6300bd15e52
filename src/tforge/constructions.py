"""Recursive constructions: products, hole filling, frames and truncations.

Composite objects relabel their input points to canonical integer indices,
so every construction is deterministic given its inputs.
"""

from __future__ import annotations

import json
import os
from collections import Counter

from .algebra import block, elem_label, factor_prime_power, fpoint, gf_build, ipoint
from .designs import (
    DesignGrid,
    check_keys,
    demote_special,
    gbtd_misfit,
    load_grid,
    pi_witness_row,
    promote_coloring,
    save_grid,
    verify_auto,
    verify_coloring,
    verify_drtd,
    verify_frgbtd,
    verify_packing,
    verify_td,
)
from .errors import (
    BadParameters,
    BadShape,
    ColorMissing,
    GroupCountMismatch,
    HoleMismatch,
    KeepOutOfRange,
    KTooLarge,
    MissingIngredient,
    NotPrimePower,
    NotVerified,
    NoWitnessBlock,
    WMismatch,
)
from .search import search_gbtp
from .starters import build_fq_gbtd_starter, build_frgbtd_6_8, build_igbtp_33, develop_gbtd


def build_td(k: int, q: int) -> DesignGrid:
    """Transversal design TD(k, q) from field lines, k <= q+1."""
    pe = factor_prime_power(q)
    if pe is None:
        raise NotPrimePower("q = %d is not a prime power" % q)
    if k < 1:
        raise BadParameters("k = %d is below 1" % k)
    if k > q + 1:
        raise KTooLarge("k = %d exceeds q+1 = %d" % (k, q + 1))
    fld = gf_build(*pe)
    elems = fld.elements()
    slopes = elems[:min(k, q)]
    infinite_group = k == q + 1
    cells = {}
    for x in elems:
        for b in elems:
            pts = [fpoint(fld.add(fld.mul(a, x), b), i) for i, a in enumerate(slopes)]
            if infinite_group:
                pts.append(fpoint(x, q))
            cells[(elem_label(x), elem_label(b))] = block(pts)
    points = tuple(fpoint(e, i) for i in range(k) for e in elems)
    groups = tuple(tuple(sorted(fpoint(e, i) for e in elems)) for i in range(k))
    rows = tuple(elem_label(e) for e in elems)
    return DesignGrid("TD", 1, (k,), points, rows, rows, cells, groups=groups)


def drtd_from_td(td: DesignGrid) -> DesignGrid:
    """Drop the last two groups; they index the rows and columns of the array."""
    rep = verify_td(td)
    if not rep.ok:
        raise NotVerified("input fails verify_td:\n" + rep.describe())
    k = len(td.groups) - 2
    if k < 1:
        raise BadShape("need at least three groups")
    row_pts = td.groups[-2]
    col_pts = td.groups[-1]
    keep = set(p for grp in td.groups[:k] for p in grp)
    row_pos = {p: i for i, p in enumerate(row_pts)}
    col_pos = {p: i for i, p in enumerate(col_pts)}
    n = len(row_pts)
    rows = tuple(str(i + 1) for i in range(n))
    cols = tuple(str(i + 1) for i in range(n))
    cells = {}
    for b in td.blocks():
        u = next(p for p in b if p in row_pos)
        v = next(p for p in b if p in col_pos)
        trunc = block(p for p in b if p in keep)
        cells[(rows[row_pos[u]], cols[col_pos[v]])] = trunc
    points = tuple(sorted(keep))
    return DesignGrid("DRTD", 1, (k,), points, rows, cols, cells,
                      groups=td.groups[:k])


def _check_rbibd_shape(g: DesignGrid):
    if len(g.k_set) != 1 or g.k_set[0] != 3:
        raise BadParameters("tripling needs block size 3")
    m = g.v
    if m % 3 or g.m != m // 3 or g.n != (m - 1) // 2:
        raise BadShape("array must be m/3 x (m-1)/2 over m points")
    rep = verify_packing(g, exact=True)
    if not rep.ok or any(g.incidence.column_misses(c) for c in g.cols):
        raise NotVerified("input is not a resolvable triple system in array form")


def tripling(rbibd: DesignGrid, drtd: DesignGrid) -> DesignGrid:
    """Three color-shifted copies stacked over a doubly resolvable square.

    When the input coloring has a witness row, the square is relabeled so
    the witness block lands there and the output is special.
    """
    _check_rbibd_shape(rbibd)
    if rbibd.colors is None:
        raise ColorMissing("tripling needs a 3-colored input")
    crep = verify_coloring(rbibd, 3)
    if not crep.ok:
        raise ColorMissing("input coloring is invalid:\n" + crep.describe())
    m = rbibd.v
    drep = verify_drtd(drtd)
    if not drep.ok:
        raise NotVerified("input fails verify_drtd:\n" + drep.describe())
    if len(drtd.groups) != 3 or len(drtd.groups[0]) != m:
        raise BadShape("need a doubly resolvable square of side %d" % m)

    inc = rbibd.incidence
    pi = pi_witness_row(rbibd, 3)
    drow = list(range(m))  # the output row of each square row
    if pi is not None:
        wit_row, wits = pi
        targets = [inc.index[wits[c]] for c in range(3)]
        bstar = drtd.cells[(drtd.rows[0], drtd.cols[0])]
        r_idx = inc.row_index[wit_row]
        drow[0], drow[r_idx] = r_idx, 0
    sigma = {}
    for c, grp in enumerate(sorted(drtd.groups, key=lambda grp: tuple(sorted(grp)))):
        src, tgt = sorted(grp), list(range(m))
        if pi is not None:  # the square's first block goes to the witness points
            anchor = next(p for p in bstar if p in grp)
            src.remove(anchor)
            tgt.remove(targets[c])
            sigma[anchor] = fpoint(targets[c], c)
        sigma.update((p, fpoint(u, c)) for p, u in zip(src, tgt))

    mm, half = m // 3, (m - 1) // 2
    rows = tuple(str(i + 1) for i in range(m))
    cols = tuple(str(j + 1) for j in range(half + m))
    cells, colors = {}, {}
    for i, row in enumerate(inc.by_row):
        for j, rc, xs in row:
            for s in range(3):  # copy s shifts every colour class on by s
                out = (rows[s * mm + i], cols[j])
                cells[out] = block(fpoint(x, (rbibd.colors[rc] + s) % 3) for x in xs)
                colors[out] = 0
    dpts = drtd.incidence.points
    for i, row in enumerate(drtd.incidence.by_row):
        for j, _, xs in row:
            out = (rows[drow[i]], cols[half + j])
            cells[out] = block(sigma[dpts[x]] for x in xs)
            colors[out] = 1
    points = tuple(fpoint(u, c) for u in range(m) for c in range(3))
    special = None
    if pi is not None:
        special = (rows[r_idx], cols[half])
        if set(cells[special]) != {fpoint(x, c) for c, x in enumerate(targets)}:
            raise NoWitnessBlock("witness block did not land on the witness row")
    return DesignGrid("GBTD", 1, (3,), points, rows, cols, cells, colors,
                      special=special)


def _one_triple_per_column(cells, cols) -> bool:
    triples = Counter(c for (_, c), b in cells.items() if len(b) == 3)
    return all(triples[c] == 1 for c in cols)


def _grid_is_star(cells, cols) -> bool:
    return 3 in {len(b) for b in cells.values()} and _one_triple_per_column(cells, cols)


def _classify_filled(g: DesignGrid) -> str:
    """The kind of g once its hole is filled: the parameters stay g's."""
    return "GBTP" if gbtd_misfit(g.k_set, g.v, g.m, g.n, g.lam) else "GBTD"


def fill_hole(outer: DesignGrid, inner: DesignGrid) -> DesignGrid:
    """Paste a matching packing over the empty subarray of an incomplete one."""
    if outer.hole is None:
        raise HoleMismatch("outer grid has no hole")
    w_pts, p_rows, q_cols = outer.hole
    if inner.m != len(p_rows) or inner.n != len(q_cols):
        raise HoleMismatch("inner array is %dx%d, hole is %dx%d"
                           % (inner.m, inner.n, len(p_rows), len(q_cols)))
    if inner.v != len(w_pts):
        raise HoleMismatch("inner has %d points, hole has %d" % (inner.v, len(w_pts)))
    if inner.lam != outer.lam or not set(inner.k_set) <= set(outer.k_set):
        raise HoleMismatch("inner parameters do not match the hole")
    point_map = dict(zip(sorted(inner.points), sorted(w_pts)))
    cells = dict(outer.cells)
    for (r, c), b in inner.cells.items():
        rc = (p_rows[inner.rows.index(r)], q_cols[inner.cols.index(c)])
        if rc in cells:
            raise HoleMismatch("hole cell (%s,%s) is already filled" % rc)
        cells[rc] = block(point_map[p] for p in b)
    special = (p_rows[0], q_cols[0]) if inner.m == 1 and inner.n == 1 else None
    return DesignGrid(_classify_filled(outer), outer.lam, outer.k_set, outer.points,
                      outer.rows, outer.cols, cells, special=special,
                      star=_grid_is_star(cells, outer.cols))


def make_w_block(points) -> DesignGrid:
    """One-cell array holding a single block: the trivial filler."""
    pts = tuple(sorted(points))
    kind = "GBTD" if len(pts) == 3 else "GBTP"
    return DesignGrid(kind, 1, (len(pts),), pts, ("1",), ("1",),
                      {("1", "1"): block(pts)})


def frame_fill(frame: DesignGrid, inners, final: DesignGrid | str | None = None) -> DesignGrid:
    """Fill each group of a frame with an incomplete packing sharing one hole.

    Special single-k inputs are demoted by emptying their special cell.  With
    a final filler (or the string "w" for the single hole block) the result
    is a complete packing, special when the hole is one cell.
    """
    if not (final is None or final == "w" or isinstance(final, DesignGrid)):
        raise BadParameters("final must be a grid, \"w\" or None, not %r" % (final,))
    rep = verify_frgbtd(frame)
    if not rep.ok:
        raise NotVerified("frame fails verify_frgbtd:\n" + rep.describe())
    if len(inners) != len(frame.groups):
        raise GroupCountMismatch("need one inner per group")
    demoted = []
    for g in inners:
        if g.special is not None:
            g = demote_special(g)
        if g.hole is None:
            raise WMismatch("inner has no hole")
        demoted.append(g)
    w = len(demoted[0].hole[0])
    hm = len(demoted[0].hole[1])
    hn = len(demoted[0].hole[2])
    for g in demoted:
        if len(g.hole[0]) != w or len(g.hole[1]) != hm or len(g.hole[2]) != hn:
            raise WMismatch("inners disagree on the hole parameters")
    w_pts = tuple(ipoint(i) for i in range(1, w + 1))
    p_rows = tuple("P%d" % i for i in range(1, hm + 1))
    q_cols = tuple("Q%d" % j for j in range(1, hn + 1))

    cells = dict(frame.cells)
    k_set = set(frame.k_set)
    for gi, inner in enumerate(demoted):
        grp = frame.groups[gi]
        if inner.v != len(grp) + w:
            raise WMismatch("inner order %d does not fit group of size %d"
                            % (inner.v, len(grp)))
        hole_w, hole_p, hole_q = inner.hole
        pmap = dict(zip(sorted(hole_w), sorted(w_pts)))
        rest = [p for p in inner.points if p not in set(hole_w)]
        pmap.update(zip(sorted(rest), sorted(grp)))
        body_rows = [r for r in inner.rows if r not in set(hole_p)]
        body_cols = [c for c in inner.cols if c not in set(hole_q)]
        ri = frame.row_group_index[gi]
        ci = frame.col_group_index[gi]
        if len(body_rows) != len(ri) or len(body_cols) != len(ci):
            raise WMismatch("inner array does not fit the group's rows/columns")
        rmap = dict(zip(hole_p, p_rows))
        rmap.update(zip(body_rows, ri))
        cmap = dict(zip(hole_q, q_cols))
        cmap.update(zip(body_cols, ci))
        for (r, c), b in inner.cells.items():
            rc = (rmap[r], cmap[c])
            if rc in cells:
                raise WMismatch("inner %d: cell (%s,%s) is already filled" % (gi, *rc))
            cells[rc] = block(pmap[p] for p in b)
        k_set |= set(inner.k_set)

    rows = p_rows + frame.rows
    cols = q_cols + frame.cols
    points = tuple(sorted(frame.points + w_pts))
    out = DesignGrid("IGBTP", 1, tuple(sorted(k_set)), points, rows, cols, cells,
                     hole=(w_pts, p_rows, q_cols),
                     star=final is None and _grid_is_star_partial(cells, cols, q_cols))
    if final is None:
        return out
    if final == "w":
        final = make_w_block(w_pts)
    return fill_hole(out, final)


def _grid_is_star_partial(cells, cols, hole_cols) -> bool:
    hole = set(hole_cols)
    sizes = {len(b) for b in cells.values()}
    return 3 in sizes and 2 in sizes and _one_triple_per_column(
        cells, [c for c in cols if c not in hole])


def inflate(frame: DesignGrid, drtd: DesignGrid) -> DesignGrid:
    """Blow up every frame point into n copies via a doubly resolvable square."""
    rep = verify_frgbtd(frame)
    if not rep.ok:
        raise NotVerified("frame fails verify_frgbtd:\n" + rep.describe())
    drep = verify_drtd(drtd)
    if not drep.ok:
        raise NotVerified("square fails verify_drtd:\n" + drep.describe())
    k = frame.k_set[0]
    if len(drtd.groups) != k:
        raise BadShape("square must have %d groups" % k)
    n = len(drtd.groups[0])
    index = {p: i for i, p in enumerate(frame.points)}
    dgroups = sorted(drtd.groups, key=lambda grp: tuple(sorted(grp)))
    dpos = {}
    for gi, grp in enumerate(dgroups):
        for u, p in enumerate(sorted(grp)):
            dpos[p] = (gi, u + 1)
    drow = {r: a + 1 for a, r in enumerate(drtd.rows)}
    dcol = {c: b + 1 for b, c in enumerate(drtd.cols)}

    rows = tuple("%s:%d" % (r, a) for r in frame.rows for a in range(1, n + 1))
    cols = tuple("%s:%d" % (c, b) for c in frame.cols for b in range(1, n + 1))
    cells = {}
    for (fr, fc), fb in frame.cells.items():
        anchors = sorted(fb)
        for (dr, dc), db in drtd.cells.items():
            pts = []
            for p in db:
                gi, u = dpos[p]
                pts.append(fpoint((index[anchors[gi]], u)))
            rc = ("%s:%d" % (fr, drow[(dr)]), "%s:%d" % (fc, dcol[(dc)]))
            assert rc not in cells
            cells[rc] = block(pts)
    points = tuple(fpoint((index[p], u)) for p in frame.points for u in range(1, n + 1))
    groups = []
    rgi = []
    cgi = []
    for gi, grp in enumerate(frame.groups):
        groups.append(tuple(sorted(fpoint((index[p], u)) for p in grp
                                   for u in range(1, n + 1))))
        rgi.append(tuple("%s:%d" % (r, a) for r in frame.row_group_index[gi]
                         for a in range(1, n + 1)))
        cgi.append(tuple("%s:%d" % (c, b) for c in frame.col_group_index[gi]
                         for b in range(1, n + 1)))
    return DesignGrid("FrGBTD", 1, (k,), points, rows, cols, cells,
                      groups=tuple(groups), row_group_index=tuple(rgi),
                      col_group_index=tuple(cgi))


def fundamental(master: DesignGrid, weights: dict, provider) -> DesignGrid:
    """Weighted replacement: every master block is replaced by a frame ingredient.

    provider maps a sorted weight tuple to an FrGBTD grid of that type (or
    None, which aborts the construction).
    """
    if master.groups is None:
        raise BadShape("master must carry groups")
    k = None
    index = {p: i for i, p in enumerate(master.points)}

    def wt(p):
        return weights.get(p, 0)

    cells = {}
    for mb in master.blocks():
        t_active = sorted((wt(p) for p in mb if wt(p) > 0))
        if len(t_active) < 2:
            continue
        ing = provider(tuple(t_active))
        if ing is None:
            raise MissingIngredient("no frame of type %r" % (t_active,))
        if k is None:
            k = ing.k_set[0]
        sizes_needed = Counter(t_active)
        sizes_have = Counter(len(grp) for grp in ing.groups)
        if sizes_needed != sizes_have:
            raise MissingIngredient("ingredient type mismatch")
        by_size = {}
        for gi, grp in enumerate(ing.groups):
            by_size.setdefault(len(grp), []).append(gi)
        pmap = {}
        rmap = {}
        cmap = {}
        for p in sorted(mb, key=lambda p: index[p]):
            if wt(p) == 0:
                continue
            gi = by_size[wt(p)].pop(0)
            grp = ing.groups[gi]
            for u, q in enumerate(sorted(grp), start=1):
                pmap[q] = fpoint((index[p], u))
            for u, r in enumerate(ing.row_group_index[gi], start=1):
                rmap[r] = "%d:%d" % (index[p], u)
            for u, c in enumerate(ing.col_group_index[gi], start=1):
                cmap[c] = "%d:%d" % (index[p], u)
        for (r, c), b in ing.cells.items():
            rc = (rmap[r], cmap[c])
            assert rc not in cells
            cells[rc] = block(pmap[q] for q in b)
    if k is None:
        raise MissingIngredient("master has no weighted blocks")

    points = []
    rows = []
    cols = []
    groups = []
    rgi = []
    cgi = []
    for grp in master.groups:
        gpts = []
        grows = []
        gcols = []
        for p in sorted(grp, key=lambda p: index[p]):
            gpts.extend(fpoint((index[p], u)) for u in range(1, wt(p) + 1))
            grows.extend("%d:%d" % (index[p], u) for u in range(1, wt(p) // k + 1))
            gcols.extend("%d:%d" % (index[p], u) for u in range(1, wt(p) // (k - 1) + 1))
        if not gpts:
            continue
        points.extend(gpts)
        rows.extend(grows)
        cols.extend(gcols)
        groups.append(tuple(sorted(gpts)))
        rgi.append(tuple(grows))
        cgi.append(tuple(gcols))
    return DesignGrid("FrGBTD", 1, (k,), tuple(points), tuple(rows), tuple(cols),
                      cells, groups=tuple(groups), row_group_index=tuple(rgi),
                      col_group_index=tuple(cgi))


def truncate_td(td: DesignGrid, keeps) -> DesignGrid:
    """Delete points from the trailing groups; blocks become their intersections."""
    keeps = list(keeps)
    n = len(td.groups[0])
    if any(type(g) is not int or not 0 <= g <= n for g in keeps):
        raise KeepOutOfRange("keeps must be integers in 0..%d" % n)
    survivors = set()
    groups = []
    u = len(td.groups) - len(keeps)
    for gi, grp in enumerate(td.groups):
        kept = sorted(grp) if gi < u else sorted(grp)[:keeps[gi - u]]
        survivors.update(kept)
        if kept:
            groups.append(tuple(kept))
    return _gdd_from_blocks(td, survivors, groups)


def truncate_td_block(td: DesignGrid, drop: int) -> DesignGrid:
    """Delete `drop` points of the first block, one from each leading group."""
    first = td.blocks()[0]
    by_group = []
    for grp in td.groups:
        gset = set(grp)
        by_group.append(next(p for p in first if p in gset))
    doomed = set(by_group[:drop])
    survivors = {p for p in td.points if p not in doomed}
    groups = [tuple(sorted(set(grp) - doomed)) for grp in td.groups]
    return _gdd_from_blocks(td, survivors, [g for g in groups if g])


def _gdd_from_blocks(td: DesignGrid, survivors, groups) -> DesignGrid:
    blocks = []
    for b in td.blocks():
        nb = [p for p in b if p in survivors]
        if len(nb) >= 2:
            blocks.append(block(nb))
    cols = tuple(str(i + 1) for i in range(len(blocks)))
    cells = {("1", cols[i]): b for i, b in enumerate(blocks)}
    k_set = tuple(sorted({len(b) for b in blocks}))
    return DesignGrid("GDD", 1, k_set, tuple(sorted(survivors)), ("1",), cols,
                      cells, groups=tuple(groups))


# ---------------------------------------------------------------------------
# declarative recipes


def _search_step(params: dict) -> DesignGrid:
    res = search_gbtp(params)
    if res.grid is None:
        raise NotVerified("search found no design for %r" % (params,))
    return res.grid


def _param(p: dict, key: str, kind: type = int, default=None):
    """A recipe step's param, which must have type kind; default when absent."""
    x = p.get(key, default)
    if type(x) is not kind:
        raise ValueError("param %r is %s, not of type %s"
                         % (key, json.dumps(x) if key in p else "missing", kind.__name__))
    return x


# recipe op name -> (the number of input grids it reads, its step: a function
# of (input grids, params))
RECIPE_OPS = {
    "fq_gbtd": (0, lambda ins, p: develop_gbtd(build_fq_gbtd_starter(_param(p, "q")))),
    "build_td": (0, lambda ins, p: build_td(_param(p, "k"), _param(p, "q"))),
    "drtd_from_td": (1, lambda ins, p: drtd_from_td(ins[0])),
    "drtd": (0, lambda ins, p: drtd_from_td(build_td(_param(p, "k") + 2, _param(p, "q")))),
    "build_frgbtd_6_8": (0, lambda ins, p: build_frgbtd_6_8()),
    "build_igbtp_33": (0, lambda ins, p: build_igbtp_33()),
    "promote_coloring": (1, lambda ins, p: promote_coloring(ins[0])),
    "tripling": (2, lambda ins, p: tripling(ins[0], ins[1])),
    "fill_hole": (2, lambda ins, p: fill_hole(ins[0], ins[1])),
    "frame_fill": (2, lambda ins, p: frame_fill(ins[0], ins[1:] * _param(p, "copies", default=1),
                                                final=p.get("final"))),
    "inflate": (2, lambda ins, p: inflate(ins[0], ins[1])),
    "truncate_td": (1, lambda ins, p: truncate_td(ins[0], _param(p, "keeps", list))),
    "demote_special": (1, lambda ins, p: demote_special(ins[0])),
    "search_gbtp": (0, lambda ins, p: _search_step(p)),
}


def run_recipe(recipe: dict, base_dir, out_dir, verbose=print) -> dict:
    """Execute build/derive steps; verify every output; stop on first failure.

    Returns {step name: grid}.  Raises NotVerified when a step's output fails
    its class verifier.
    """
    made = {}

    def resolve(ref):
        if ref in made:
            return made[ref]
        path = ref if os.path.isabs(ref) else os.path.join(base_dir, ref)
        return load_grid(path)

    for i, step in enumerate(recipe["steps"]):
        op = step["op"]
        if op not in RECIPE_OPS:
            raise ValueError("unknown recipe op %r" % op)
        need, build = RECIPE_OPS[op]
        ins = [resolve(r) for r in step.get("in", [])]
        if len(ins) < need:
            raise ValueError("recipe step %d: %s reads %d inputs, got %d"
                             % (i, op, need, len(ins)))
        out = build(ins, step.get("params", {}))
        rep = verify_auto(out)
        if not rep.ok:
            raise NotVerified("step %r output failed verification:\n%s"
                              % (step.get("out", op), rep.describe()))
        name = step.get("out", op)
        made[name] = out
        if out_dir is not None:
            save_grid(out, os.path.join(out_dir, name + ".json"))
        verbose("step %-24s kind=%-7s v=%-4d %dx%d  verified"
                % (name, out.kind, out.v, out.m, out.n))
    return made


def load_recipe(path) -> dict:
    """Read a recipe file; ValueError names an entry of the wrong type."""
    with open(path, encoding="utf-8") as fh:
        recipe = json.load(fh)
    check_keys(recipe, ("steps",), "recipe", ValueError)
    if type(recipe["steps"]) is not list:
        raise ValueError("recipe steps is not a list")
    for i, step in enumerate(recipe["steps"]):
        what = "recipe step %d" % i
        check_keys(step, ("op",), what, ValueError)
        ins = step.get("in", [])
        if type(step["op"]) is not str:
            raise ValueError("%s: op is not a string" % what)
        if type(ins) is not list or any(type(ref) is not str for ref in ins):
            raise ValueError("%s: in is not a list of strings" % what)
        if type(step.get("params", {})) is not dict:
            raise ValueError("%s: params is not an object" % what)
        if type(step.get("out", "")) is not str:
            raise ValueError("%s: out is not a string" % what)
    return recipe
