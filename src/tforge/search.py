"""Backtracking searches: optimal code sizes, small packings, starters, colorings.

Budgets are node counts, not wall time, so results reproduce across machines.
Exact answers are only claimed when the search space was exhausted within
budget; otherwise the best object found so far is returned with exact=False.

The starter searches are generators: they yield each candidate in a fixed
order and leave verifying, counting and stopping to `search_starter`.
`search_gbtp`, `arrange_resolution` and the exact-cover engine `_covers`
(every cover and assign phase of the starter searches, and each row of a
block coloring) search depth first
in a loop, not a recursion (frames one per block would cross a Python
data-stack chunk to and fro); the first two return at their first grid.
A budget running out raises `_Exhausted` to its owner, except in
`arrange_resolution`, which counts its ticks itself and leaves the count on
its Budget, and `search_gbtp`, which counts them in a local.

`search_gbtp` compiles its candidate blocks into bits once per call and
carries its state as a few words per frame; each column memoises, per
uncovered set, the anchor and its candidate blocks, so a node is one dict
lookup.  igbtp_z2's assign phase pairs each leftover point set once.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
from collections import Counter
from dataclasses import dataclass

from .algebra import block, cyclic, fpoint, ipoint
from .codes import Code, hamming
from .designs import DesignGrid, gbtd_misfit
from .errors import BadKind, BudgetZero, InconsistentParams
from .starters import (
    FrGbtdStarter,
    GbtdStarter,
    IgbtpStarterZ2,
    IgbtpStarterZ4,
    verify_starter,
)

DEFAULT_BUDGET = 20_000_000
MAX_CLIQUE_VERTICES = 60_000
PLOTKIN_LIMIT = 10_000


class _Exhausted(Exception):
    pass


class Budget:
    """A node count; None takes TFORGE_BUDGET, or DEFAULT_BUDGET when it is unset."""

    def __init__(self, limit: int | None = None):
        if limit is None:
            text = os.environ.get("TFORGE_BUDGET")
            try:
                limit = DEFAULT_BUDGET if text is None else int(text)
            except ValueError:
                raise BudgetZero("TFORGE_BUDGET=%r is not an integer" % text) from None
        if limit <= 0:
            raise BudgetZero("budget must be positive")
        self.limit = limit
        self.used = 0

    def tick(self, n: int = 1) -> None:
        self.used += n
        if self.used > self.limit:
            raise _Exhausted()


# ---------------------------------------------------------------------------
# equitable words and the maximum-code search


def equitable_words(n: int, q: int):
    """All equitable words of length n over 0..q-1, in lexicographic order."""
    lo, hi = n // q, -(-n // q)

    def rec(prefix, counts, short):
        # short: how far the symbols' counts fall below lo in total
        left = n - len(prefix)
        if not left:
            yield tuple(prefix)
            return
        for s in range(q):
            c = counts[s]
            rest = short - (c < lo)
            if c < hi and rest < left:
                counts[s] = c + 1
                prefix.append(s)
                yield from rec(prefix, counts, rest)
                prefix.pop()
                counts[s] = c

    yield from rec([], [0] * q, q * lo)


def plotkin_cap(n: int, d: int, q: int, limit: int = PLOTKIN_LIMIT) -> int:
    """Largest size not excluded by the generalized Plotkin bound, or `limit`.

    `plotkin_check` in closed form: for M = aq + r the symbol counts M_i sum
    to M and their squares to (q - r)a^2 + r(a + 1)^2.
    """
    stop = limit
    if 0 < d and d * q <= n * (q - 1):
        # M = aq + r is excluded iff M^2 (dq - n(q-1)) - dqM + n r(q-r) > 0;
        # with the first term <= 0 that needs dqM < n r(q-r) <= nq^2/4, so
        # no size from nq/(4d) on is excluded
        stop = min(limit, -(-n * q // (4 * d)))
    for m in range(2, stop + 1):
        a, r = divmod(m, q)
        if m * (m - 1) // 2 * d > n * (m * m - (q - r) * a * a - r * (a + 1) ** 2) // 2:
            return m - 1
    return limit


@dataclass
class EswcResult:
    n: int
    d: int
    q: int
    M: int
    code: Code
    exact: bool
    nodes: int


def _adjacency(words, d):
    """Per word, the bitmask of the words at distance >= d from it.

    With the words bucketed by (coordinate, symbol), near[k] gathers those
    that agree with the word in at least k coordinates so far, up to
    k = n - d + 1; its neighbours are the words outside near[n - d + 1].
    """
    n = len(words[0])
    t = n - d + 1
    full = (1 << len(words)) - 1
    buckets = [{} for _ in range(n)]
    for j, w in enumerate(words):
        for i, s in enumerate(w):
            buckets[i][s] = buckets[i].get(s, 0) | 1 << j
    adj = []
    for w in words:
        near = [full] + [0] * t
        for i, s in enumerate(w):
            b = buckets[i][s]
            for k in range(min(i + 1, t), 0, -1):
                near[k] |= near[k - 1] & b
        adj.append(full & ~near[t])
    return adj


def _colour_bound(cand_mask: int, apart) -> int:
    """Colours that first fit in vertex order gives the vertices of `cand_mask`.

    Classes are filled one at a time (San Segundo et al. 2011): the lowest
    vertex left joins the class and takes itself and its neighbours out of the
    class's free set, until that set is empty.  `apart[v]` holds the vertices
    that are neither v nor its neighbours.
    """
    k = 0
    while cand_mask:
        k += 1
        free = cand_mask
        while free:
            v = (free & -free).bit_length() - 1
            cand_mask ^= 1 << v
            free &= apart[v]
    return k


def _greedy_extend(words_iter, d, seed, bud: Budget):
    """First-fit chain, one tick a word, ending where the budget does: a cheap
    witness when the vertex set is too big to search."""
    chosen = list(seed)
    try:
        for w in words_iter:
            bud.tick()
            if all(hamming(w, u) >= d for u in chosen):
                chosen.append(w)
    except _Exhausted:
        pass
    return chosen


def max_eswc(n: int, d: int, q: int, budget: int | None = None) -> EswcResult:
    """Largest equitable-weight code via branch-and-bound clique search.

    The lexicographically least equitable word is forced into the code (every
    word maps onto it under symbol and position permutations), candidates are
    ordered lexicographically, and a greedy-coloring bound plus the Plotkin
    cap prune the tree.  On budget exhaustion the best code found is returned
    with exact=False.
    """
    if n < 1 or d < 1 or q < 1:
        raise InconsistentParams("n, d, q must be positive")
    bud = Budget(budget)
    cap = plotkin_cap(n, d, q)
    gen = equitable_words(n, q)
    w0 = next(gen)
    cand_words = []
    for w in gen:
        if hamming(w, w0) >= d:
            cand_words.append(w)
            if len(cand_words) > MAX_CLIQUE_VERTICES:
                best = _greedy_extend(itertools.chain(cand_words, gen), d, [w0], bud)
                code = Code(q, n, tuple(sorted(best)))
                return EswcResult(n, d, q, len(best), code, False, bud.used)

    nv = len(cand_words)
    best_set: list = []
    exact = True
    if nv:
        full = (1 << nv) - 1
        # one list, made in place: a child's candidates m & adj[v] are
        # m & ~apart[v], as m never holds v
        apart = _adjacency(cand_words, d)
        for v, a in enumerate(apart):
            apart[v] = full ^ a ^ 1 << v

        class _CapReached(Exception):
            pass

        def expand(cur: list, cand_mask: int):
            bud.tick()
            if len(cur) > len(best_set):
                best_set[:] = cur
                if len(best_set) + 1 >= cap:
                    raise _CapReached()
            k = cand_mask.bit_count()
            if len(cur) + k <= len(best_set):
                return
            if k > 2 and len(cur) + _colour_bound(cand_mask, apart) <= len(best_set):
                return
            m = cand_mask
            while m:
                if len(cur) + m.bit_count() <= len(best_set):
                    return
                v = (m & -m).bit_length() - 1
                m &= m - 1
                cur.append(v)
                expand(cur, m & ~apart[v])
                cur.pop()

        try:
            expand([], full)
        except _Exhausted:
            exact = False
        except _CapReached:
            pass

    best = [w0] + [cand_words[v] for v in best_set]
    code = Code(q, n, tuple(sorted(best)))
    return EswcResult(n, d, q, len(best), code, exact, bud.used)


def _row_masks(v: int, m: int, n: int):
    """Row equity of an m x n array whose columns each partition the v points:
    each point ends with floor(n/m) or hi = ceil(n/m) cells in every row, so
    with t_hi = n - m*(hi-1) rows at hi.  Returns `(st, shut, inc)`: `st[x]`
    packs point x's count in row r at bits b*r, b = hi.bit_length(), so a
    cell of row r is `st[x] += inc[r]` and taking it back `st[x] -= inc[r]`;
    `shut[s]` (worked out once per state s) is the rows closed at s: the rows
    at hi, and the rows at hi - 1 too once t_hi rows are at hi.  No deficiency
    test is needed: with at most t_hi rows at hi, enough columns remain."""
    hi = -(-n // m)
    t_hi = n - m * (hi - 1)
    b = hi.bit_length()

    class Shut(dict):
        def __missing__(self, s):
            cap = near = 0
            for r in range(m):
                c = s >> b * r & ((1 << b) - 1)
                cap |= (c == hi) << r
                near |= (c == hi - 1) << r
            self[s] = rows = (cap | near) if cap.bit_count() == t_hi else cap
            return rows

    return [0] * v, Shut(), [1 << b * r for r in range(m)]


def _array_grid(kind: str, lam: int, k_set, points, m: int, columns,
                star: bool = False) -> DesignGrid:
    """The m-row grid of `columns`, each a list of (row, block of indices
    into points); rows and columns are labelled "1", "2", ..."""
    rows = tuple(str(r + 1) for r in range(m))
    cols = tuple(str(c + 1) for c in range(len(columns)))
    cells = {(rows[r], cols[ci]): block(points[x] for x in b)
             for ci, col in enumerate(columns) for r, b in col}
    return DesignGrid(kind, lam, k_set, tuple(points), rows, cols, cells, star=star)


def arrange_resolution(classes, m: int, n: int,
                       budget: int | None = None) -> DesignGrid | None:
    """Arrange given parallel classes into an m x n array with equitable rows.

    classes: n lists of blocks (each a partition of the same point set).
    Searches row placements column by column; returns the grid or None.
    """
    if len(classes) != n:
        raise InconsistentParams("need one class per column")
    pts = sorted({p for cls in classes for b in cls for p in b})
    index = {p: i for i, p in enumerate(pts)}
    bud, allrows = Budget(budget), (1 << m) - 1
    st, shut, inc = _row_masks(len(pts), m, n)
    # each column's blocks in placing order as point indices, then in one run
    col_ids = [[[index[p] for p in b] for b in sorted(cls, key=lambda b: (-len(b), b))]
               for cls in classes]
    seq = [xs for blocks in col_ids for xs in blocks]
    after = [0] * (len(seq) + 1)  # ticks due at k blocks placed: 2 per column end
    for k in itertools.accumulate(map(len, col_ids)):
        after[k] += 2
    # per block: its row, its column's rows before it, its rows left to try
    end = len(seq)
    rows, before, todo = [0] * end, [0] * end, [0] * end
    # ticks counted here, as Budget.tick would count them up to the limit
    ticks, limit = 1 + after[0], bud.limit
    p, used, fresh = 0, 0, True
    while ticks <= limit and p < end:
        xs = seq[p]
        if fresh:  # a node: the rows open to every point of xs
            ticks += 1
            free = allrows & ~used
            for x in xs:
                free &= ~shut[st[x]]
            before[p] = used
        else:  # back from a failed child: take the row tried last
            d = inc[rows[p]]
            for x in xs:
                st[x] -= d
            free = todo[p]
        if not free:
            if not p:
                break
            p, fresh = p - 1, False
            continue
        low = free & -free
        todo[p] = free ^ low
        rows[p] = r = low.bit_length() - 1
        d = inc[r]
        for x in xs:
            st[x] += d
        p, fresh = p + 1, True
        if after[p]:
            ticks += after[p]
            used = 0
        else:
            used = before[p - 1] | low
    bud.used = min(ticks, limit + 1)
    if ticks > limit or p < end:
        return None
    placed = iter(zip(rows, seq))
    return _array_grid("GBTP", 1, tuple(sorted({len(xs) for xs in seq})), pts, m,
                       [[next(placed) for _ in blocks] for blocks in col_ids])


# Base parallel classes over (Z_3 x [4]) u {inf1, inf2}: developing each by
# the Z_3 shift gives nine classes covering every pair once except the pair
# of infinite points, which is the array behind the size-14 witness of the
# (9,8) code over six symbols.
_Z3_WITNESS_BASES = (
    ((("i", 1), (0, 0), (0, 1)), (("i", 2), (1, 0), (0, 2)),
     ((0, 3), (1, 1)), ((1, 2), (1, 3)), ((2, 0), (2, 2)), ((2, 1), (2, 3))),
    ((("i", 1), (0, 2)), (("i", 2), (0, 3)),
     ((0, 0), (1, 2), (2, 3)), ((0, 1), (1, 3), (2, 2)),
     ((1, 0), (2, 1)), ((1, 1), (2, 0))),
    ((("i", 1), (0, 3)), (("i", 2), (0, 1)),
     ((0, 0), (2, 0)), ((0, 2), (1, 2)),
     ((1, 0), (1, 3), (2, 3)), ((1, 1), (2, 1), (2, 2))),
)


def _z3_witness_classes():
    def pt(x):
        if x[0] == "i":
            return ipoint(x[1])
        return fpoint(x)

    def shift(x, t):
        if x[0] == "i":
            return x
        return ((x[0] + t) % 3, x[1])

    classes = []
    for base in _Z3_WITNESS_BASES:
        for t in range(3):
            classes.append([block(pt(shift(x, t)) for x in b) for b in base])
    return classes


def witness_code_9_8_6() -> Code:
    """Size-14 equitable witness for (n, d, q) = (9, 8, 6), built from the
    Z_3-developed classes and a row arrangement search."""
    from .codes import gbtp_to_code

    grid = arrange_resolution(_z3_witness_classes(), 6, 9, DEFAULT_BUDGET)  # not TFORGE_BUDGET
    assert grid is not None
    return gbtp_to_code(grid)


def eswc_witness(n: int, d: int, q: int, M: int) -> Code:
    """An equitable code of size M <= 14 for (n, d, q) = (9, 8, 6): the M
    least words of the structured size-14 witness."""
    if (n, d, q) != (9, 8, 6) or M > 14:
        raise InconsistentParams("no witness construction for (%d,%d,%d) with M=%d"
                                 % (n, d, q, M))
    code = witness_code_9_8_6()
    if M == 14:
        return code
    return Code(q, n, tuple(sorted(code.words)[:M]))


# ---------------------------------------------------------------------------
# column-by-column search for small packings in array form


@dataclass
class GbtpSearchResult:
    grid: DesignGrid | None
    exhausted: bool
    nodes: int


def _column_compositions(v: int, m: int, k_set, star3: bool):
    """Descending block-size tuples that partition v points into <= m blocks."""
    out = []

    def rec(sizes, total):
        if total == v:
            if not star3 or sizes.count(3) == 1:
                out.append(tuple(sizes))
            return
        if total > v or len(sizes) == m:
            return
        last = sizes[-1] if sizes else max(k_set)
        for s in sorted(k_set, reverse=True):
            if s <= last:
                rec(sizes + [s], total + s)

    rec([], 0)
    return out


def _positive(x) -> bool:
    """Whether x is an integer >= 1; a bool is not."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= 1


def _gbtp_params(params) -> tuple:
    """(K sorted, v, m, n) of a `search_gbtp` spec; InconsistentParams names
    the key that is missing or not a positive integer (K: a non-empty list
    of them)."""
    if not isinstance(params, dict):
        raise InconsistentParams("search parameters must be a JSON object, not %s"
                                 % type(params).__name__)
    try:
        k_list, v, m, n = params["K"], params["v"], params["m"], params["n"]
    except KeyError as exc:
        raise InconsistentParams("missing search parameter %r" % exc.args[0]) from None
    if not isinstance(k_list, (list, tuple)) or not k_list or not all(map(_positive, k_list)):
        raise InconsistentParams("search parameter 'K' must be a non-empty list of "
                                 "integers >= 1, not %r" % (k_list,))
    for key, val in (("v", v), ("m", m), ("n", n)):
        if not _positive(val):
            raise InconsistentParams("search parameter %r must be an integer >= 1, not %r"
                                     % (key, val))
    return tuple(sorted(k_list)), v, m, n


def _unpack(word: int, count: int, nbytes: int):
    """The `count` fields of `nbytes` bytes each packed in word, lowest
    first, as ints: one pass in C for a field of 1, 2, 4 or 8 bytes."""
    raw = word.to_bytes(count * nbytes, sys.byteorder)
    if nbytes in (1, 2, 4, 8):
        return memoryview(raw).cast("BHIQ"[nbytes.bit_length() - 1])
    return [int.from_bytes(raw[i:i + nbytes], sys.byteorder)
            for i in range(0, len(raw), nbytes)]


def _compile_blocks(v: int, sizes) -> tuple:
    """Every block of the given sizes on points 0..v-1, sizes in the order
    given and then lexicographic, block g at bit g, and per point x the bits
    `with_pt[x]` of the blocks through it: (blocks, with_pt)."""
    blocks = [b for s in sizes for b in itertools.combinations(range(v), s)]
    marks = [bytearray(len(blocks) // 8 + 1) for _ in range(v)]
    for g, b in enumerate(blocks):
        i, bit = g >> 3, 1 << (g & 7)
        for x in b:
            marks[x][i] |= bit
    return blocks, [int.from_bytes(mk, "little") for mk in marks]


def search_gbtp(params: dict, budget: int | None = None) -> GbtpSearchResult:
    """Column-by-column parallel-class search with pair and row-equity pruning.

    params: K, v, m, n, lambda (must be 1), star3.  The first column is fixed
    canonically, which is sound: any solution can be relabeled (points and
    rows) so one of its columns takes that form.  Exhaustion therefore proves
    nonexistence.  The hole variant is not supported.

    Each later column grows from its uncovered point with the fewest unused
    partners, least index on ties: its children are the blocks through that
    point whose points are all uncovered and whose pairs are all unused,
    sizes descending and then lexicographic, each in every row open to all
    its points, low row first.  Placing a block leaves the uncovered points'
    pairs and rows alone, so within one column a node's anchor and candidate
    blocks depend on its uncovered set only, and each column keeps them in a
    memo keyed by that set.
    """
    k_set, v, m, n = _gbtp_params(params)
    lam = params.get("lambda", 1)
    star3 = params.get("star3", False)
    if type(lam) is not int:
        raise InconsistentParams("search parameter 'lambda' must be an integer, not %r" % (lam,))
    if type(star3) is not bool:
        raise InconsistentParams("search parameter 'star3' must be true or false, not %r"
                                 % (star3,))
    if lam != 1:
        raise InconsistentParams("only index 1 is supported")
    if params.get("hole"):
        raise InconsistentParams("hole search is not supported")
    if v > m * k_set[-1]:
        raise InconsistentParams("array cannot hold the point set")
    limit = Budget(budget).limit

    exact = gbtd_misfit(k_set, v, m, n, lam) is None
    comps = _column_compositions(v, m, k_set, star3)
    if not comps:
        return GbtpSearchResult(None, True, 0)
    min_col_pairs = min(sum(s * (s - 1) // 2 for s in comp) for comp in comps)
    total_pairs = v * (v - 1) // 2
    allrows, allpts = (1 << m) - 1, (1 << v) - 1
    _st, shut, inc = _row_masks(v, m, n)
    # the words of a node: ST packs every point's `_row_masks` state, point
    # x's in bytes x*sb.., and PU has bit x*8*pb + y for each used pair (x, y),
    # so that each unpacks to per-point ints in one pass (`_unpack`)
    sb, pb = -(-m * (-(-n // m)).bit_length() // 8), -(-v // 8)
    # compiled once a first column passes `feasible`; info[g] holds block g's
    # words, made the first time it is a child
    blocks = with_pt = info = None
    everything = 0

    def pair_bits(b):
        out = 0
        for x, y in itertools.permutations(b, 2):
            out |= 1 << 8 * pb * x + y
        return out

    def spread(b):
        return sum(1 << 8 * sb * x for x in b)

    def block_words(g):
        # (points, 1 if a triple, the blocks sharing no point with it,
        # spread, pairs, the blocks sharing no pair with it)
        b = blocks[g]
        pts = near = shared = 0
        for x in b:
            pts |= 1 << x
            near |= with_pt[x]
        for x, y in itertools.combinations(b, 2):
            shared |= with_pt[x] & with_pt[y]
        info[g] = words = (pts, int(len(b) == 3), everything ^ near,
                           spread(b), pair_bits(b), everything ^ shared)
        return words

    def feasible(pu, remaining):
        # the columns so far are complete, their pairs in pu: each point's
        # partners, unpacked, or None if the later columns' new pairs
        # (min_col_pairs each, min(K)-1 per point) cannot fit lambda = 1
        if pu.bit_count() // 2 + remaining * min_col_pairs > total_pairs:
            return None
        partners = _unpack(pu, v, pb)
        if max(map(int.bit_count, partners)) + remaining * (k_set[0] - 1) > v - 1:
            return None
        return partners

    def column(st, partners):
        # a column instance: each point's closed rows, read off ST once, and
        # partners; the memo from an uncovered set to its children
        return list(map(shut.__getitem__, _unpack(st, v, sb))), partners, {}

    def children(unc, colalive, col):
        # the anchor's closed rows and its candidate blocks as (closed rows,
        # g), all of them and the non-triples
        shut_pt, partners, _memo = col
        p0, fewest, scan = 0, v + 1, unc
        while scan:
            low = scan & -scan
            scan ^= low
            x = low.bit_length() - 1
            k = (unc & ~partners[x]).bit_count()
            if k < fewest:
                p0, fewest = x, k
        cands, out = colalive & with_pt[p0], []
        while cands:
            low = cands & -cands
            cands ^= low
            g = low.bit_length() - 1
            closed = 0
            for x in blocks[g]:
                closed |= shut_pt[x]
            out.append((closed, g))
        return shut_pt[p0], out, [c for c in out if len(blocks[c[1]]) != 3] if star3 else out

    def dive(ST, PU, partners, pairalive, ticks):
        # depth first from the second column's root: (ticks, the frames at
        # the first grid, or None).  The node in hand sits in locals; each
        # ancestor is a frame of its words, its column, its children left
        # (candidate list and index, the rows left to the block in hand, the
        # rows free) and the row bit and block of the child it entered
        frames: list = []
        unc, triples, used, rem, colalive = allpts, 0, 0, n - 2, pairalive
        col = column(ST, partners)
        ticks += 1
        if ticks > limit:
            raise _Exhausted()
        while True:
            if unc:
                got = col[2].get(unc)
                if got is None:
                    got = col[2][unc] = children(unc, colalive, col)
                shut0, cands, cands_nt = got
                free = allrows & ~(used | shut0)
                if not free:
                    cands = ()
                elif star3 and triples == 1:
                    cands = cands_nt
                i = rows = 0
            else:
                cands, i, rows = (), 0, 0
                partners = None if star3 and triples != 1 else feasible(PU, rem)
                if partners is not None:
                    if not rem:
                        return ticks, frames
                    # a complete column: the next column's root is the one child
                    frames.append((ST, PU, pairalive, colalive, unc, triples, used, rem, col,
                                   cands, i, rows, 0, 0, -1))
                    unc, triples, used, rem, colalive = allpts, 0, 0, rem - 1, pairalive
                    col = column(ST, partners)
                    ticks += 1
                    if ticks > limit:
                        raise _Exhausted()
                    continue
            # enter the next child of the deepest node that has one left
            while True:
                if rows:
                    low = rows & -rows
                    rows ^= low
                    break
                if i < len(cands):
                    closed, g = cands[i]
                    i += 1
                    rows = free & ~closed
                    continue
                if not frames:
                    return ticks, None
                (ST, PU, pairalive, colalive, unc, triples, used, rem, col,
                 cands, i, rows, free, low, g) = frames.pop()
            frames.append((ST, PU, pairalive, colalive, unc, triples, used, rem, col,
                           cands, i, rows, free, low, g))
            pts, tri, apart, spr, pairs, pair_apart = info[g] or block_words(g)
            ST += inc[low.bit_length() - 1] * spr
            PU |= pairs
            pairalive &= pair_apart
            colalive &= apart
            unc ^= pts
            triples += tri
            used |= low
            ticks += 1
            if ticks > limit:
                raise _Exhausted()

    ticks = 0
    try:
        for comp in comps:
            # the first column canonical: points in order, blocks sized by comp
            first = [(r, tuple(range(x, x + s)))
                     for r, (x, s) in enumerate(zip(itertools.accumulate(comp, initial=0), comp))]
            ST = sum(inc[r] * spread(b) for r, b in first)
            PU = 0
            for _r, b in first:
                PU |= pair_bits(b)
            partners = feasible(PU, n - 1)
            if partners is None:
                continue
            if n == 1:
                found = []
                break
            if blocks is None:
                blocks, with_pt = _compile_blocks(v, k_set[::-1])
                info = [None] * len(blocks)
                everything = (1 << len(blocks)) - 1
            pairalive = everything
            for _r, b in first:
                pairalive &= block_words(blocks.index(b))[5]
            ticks, found = dive(ST, PU, partners, pairalive, ticks)
            if found is not None:
                break
        else:  # no grid
            return GbtpSearchResult(None, True, ticks)
    except _Exhausted:
        return GbtpSearchResult(None, False, limit + 1)
    columns = [first] + [[] for _ in range(n - 1)]
    for frame in found:
        rem, low, g = frame[7], frame[13], frame[14]
        if g >= 0:
            columns[n - 1 - rem].append((low.bit_length() - 1, blocks[g]))
    points = [fpoint(x + 1) for x in range(v)]
    g = _array_grid("GBTD" if exact else "GBTP", lam, k_set, points, m, columns, star=star3)
    return GbtpSearchResult(g, True, ticks)


# ---------------------------------------------------------------------------
# starter searches


@dataclass
class StarterSearchResult:
    starters: list
    exhausted: bool
    nodes: int


class _Ledger:
    """Counts per key, each held at or below its cap of 1 or 2, kept as two
    bitmask words: `one` has the bit of every key counted at least once,
    `two` of every key counted twice.

    `option(keys)` compiles a key sequence once into (m1, m2), the bits of
    the keys it names once and twice, or None when it can never fit (a key
    with no cap, or one named more often than its cap).  `add(option)` counts
    an option all or nothing: it returns the token that `undo` takes back,
    or None when some key would pass its cap.  `zeros` is the number of
    capped keys still at zero, `has(key)` whether a key is counted.
    """

    def __init__(self, caps: dict):
        if any(c not in (1, 2) for c in caps.values()):
            raise ValueError("ledger caps must be 1 or 2")
        self.bit = {k: 1 << i for i, k in enumerate(caps)}
        self.single = sum(1 << i for i, c in enumerate(caps.values()) if c == 1)
        self.capped = (1 << len(caps)) - 1
        self.one = self.two = 0

    def option(self, keys):
        bit, m1, m2 = self.bit, 0, 0
        for k in keys:
            b = bit.get(k)
            if b is None or b & m2 or b & m1 & self.single:
                return None
            if b & m1:
                m1 ^= b
                m2 |= b
            else:
                m1 |= b
        return m1, m2

    def add(self, option):
        m1, m2 = option
        one, two = self.one, self.two
        if m1 & (two | (one & self.single)) or m2 & one:
            return None
        self.one = one | m1 | m2
        self.two = two | (one & m1) | m2
        return one, two

    def undo(self, token) -> None:
        self.one, self.two = token

    @property
    def zeros(self) -> int:
        return (self.capped & ~self.one).bit_count()

    def has(self, key) -> bool:
        return bool(self.one & self.bit[key])


def _keyed(led: _Ledger, options, keys) -> list:
    """(option, compiled keys) for each option whose keys, `keys(option)`,
    can ever fit the ledger, in the order given."""
    return [(o, c) for o in options if (c := led.option(keys(o))) is not None]


def _fitting(led: _Ledger, keyed):
    """Each option of `keyed`, pairs (option, compiled keys), that the ledger
    can count; its keys stay counted while the consumer runs."""
    for option, opt in keyed:
        taken = led.add(opt)
        if taken is not None:
            yield option
            led.undo(taken)


def _ascending(bud: Budget, led: _Ledger, keyed: list, count: int, chosen: list):
    """Yield once per increasing choice (in list order) of `count` options of
    `keyed`, pairs (option, compiled keys), that fit the ledger together; the
    choice sits at the end of `chosen` while the consumer runs.  Each step of
    a choice ticks once."""
    indexed = [((i, o), opt) for i, (o, opt) in enumerate(keyed)]
    depth = len(chosen) + count

    def rec(start):
        bud.tick()
        if len(chosen) == depth:
            yield
            return
        for i, option in _fitting(led, indexed[start:]):
            chosen.append(option)
            yield from rec(i + 1)
            chosen.pop()

    yield from rec(0)


def _covers(bud: Budget, led: _Ledger, options, primary: int, chosen: list, prune=None):
    """Exact covers of the items in the bitmask `primary`, in a fixed order.

    `options[i]` lists the ways to cover item i, each (label, item bits,
    compiled ledger keys).  Items outside `primary` are secondary: covered at
    most once, but not necessarily.  Each node ticks once.  A node whose
    primary items are all covered yields its covered-item bitmask, with the
    labels of its options at the end of `chosen` and their keys counted while
    the consumer runs.  Any other node returns if `prune(covered)`, and else
    branches on its lowest uncovered primary item: each option in list order
    whose items are all uncovered and whose keys fit the ledger.  An option
    with no keys, (), leaves the ledger alone.

    The options are compiled once per call into one flat list, anchor by
    anchor.  A node carries `alive`, the bitset of the options disjoint from
    everything chosen, so its candidates are its anchor's slice of `alive`,
    walked low bit first, which is list order.  Choosing option g is one AND
    with `keep[g]`, the options that share no item with g (the bitset form
    of unlinking in Knuth's dancing links); `keep[g]` is built from the
    per-item option masks when g is first chosen.  The search runs depth
    first in one loop: the node in hand sits in locals, and each of its
    ancestors is a frame on a stack, (candidates left, anchor offset,
    covered, alive, ledger token of the child it entered).
    """
    flat = [o for anchored in options for o in anchored]
    start = list(itertools.accumulate(map(len, options), initial=0))
    full = [(1 << len(anchored)) - 1 for anchored in options]
    # holders[bit]: the flat options that name the item at that bit
    holders: dict = {}
    for i, (_label, mask, _opt) in enumerate(flat):
        while mask:
            low = mask & -mask
            holders[low] = holders.get(low, 0) | 1 << i
            mask ^= low
    everything = (1 << len(flat)) - 1
    keep: list = [None] * len(flat)  # each filled when its option is first chosen

    def unlinked(mask):
        # the options that name none of the items of mask
        out = everything
        while mask:
            low = mask & -mask
            out &= ~holders[low]
            mask ^= low
        return out

    tick, add, undo, push, pop = bud.tick, led.add, led.undo, chosen.append, chosen.pop
    frames: list = []  # the ancestors of the node in hand
    covered, alive = 0, everything
    tick()
    while True:
        rest = primary & ~covered
        if not rest:
            yield covered
            live = 0
        elif prune is not None and prune(covered):
            live = 0
        else:
            a = (rest & -rest).bit_length() - 1
            base = start[a]
            live = (alive >> base) & full[a]
        # enter the next child of the deepest frame that has one left
        while True:
            while live:
                low = live & -live
                live ^= low
                g = base + low.bit_length() - 1
                label, mask, opt = flat[g]
                taken = opt and add(opt)
                if taken is not None:
                    break
            else:
                if not frames:
                    return
                live, base, covered, alive, taken = frames.pop()
                pop()
                if taken:
                    undo(taken)
                continue
            push(label)
            frames.append((live, base, covered, alive, taken))
            covered |= mask
            k = keep[g]
            if k is None:
                k = keep[g] = unlinked(mask)
            alive &= k
            break
        tick()


def _class_diffs(pts, mod: int) -> dict:
    """Both differences of each pair of points (x, c) mod `mod`, keyed by the
    list they belong to: ("p", c) inside class c, ("m", (c, c')) across."""
    table = {}
    for p, q in itertools.combinations(pts, 2):
        items = tuple((("p", cx) if cx == cy else ("m", (cx, cy)), (x - y) % mod)
                      for (x, cx), (y, cy) in ((p, q), (q, p)))
        table[(p, q)] = table[(q, p)] = items
    return table


def _triple_diffs(table: dict, b) -> tuple:
    return table[(b[0], b[1])] + table[(b[0], b[2])] + table[(b[1], b[2])]


def _anchored_triples(pts, pool: _Ledger, table: dict) -> list:
    """For each point index a, the triples (pts[a], pts[i], pts[j]) with
    a < i < j in combination order, as `_covers` options (triple, item bits,
    no keys).  The items are the points, then the differences: each
    difference is used at most once, so it is a secondary item, at the bit of
    its key in `pool` (a ledger of the differences alone, each cap 1) above
    the points.  Triples whose differences never fit are left out."""
    out = []
    for a in range(len(pts)):
        anchored = []
        for i, j in itertools.combinations(range(a + 1, len(pts)), 2):
            b = (pts[a], pts[i], pts[j])
            opt = pool.option(_triple_diffs(table, b))
            if opt is not None:
                anchored.append((b, 1 << a | 1 << i | 1 << j | opt[0] << len(pts), ()))
        out.append(anchored)
    return out


def _gbtd_starters(m: int, special: bool, bud: Budget):
    """Cover Gamma x {0,1,2} by m triples plus transversal extras with exact
    difference lists, then choose translation indices satisfying the row rule."""
    if m < 1:
        raise InconsistentParams("m must be >= 1")
    if m % 2 == 0:
        raise InconsistentParams("m must be odd")
    group = cyclic(m)
    pts = sorted((e, c) for e in range(m) for c in range(3))
    pure = [(("p", c), d) for c in range(3) for d in range(1, m)]
    mixed = [(("m", pr), d) for pr in itertools.permutations(range(3), 2) for d in range(m)]
    pool = _Ledger(dict.fromkeys(pure + mixed, 1))
    diffs = _class_diffs(pts, m)
    # the row multiset R: each point at most twice, and in the end at least
    # once; a special starter's index-0 translate names its points twice, so
    # they are unused before it and take nothing more after it
    rows = _Ledger(dict.fromkeys(pts, 2))

    @functools.cache
    def translates(b):
        # (alpha, compiled row keys) of A block b at each index alpha
        return [(alpha, rows.option([((x - alpha) % m, c) for x, c in b]
                                    * (2 if special and alpha == 0 else 1)))
                for alpha in range(m)]

    a_blocks: list = []
    b_blocks: list = []
    assign: list = []  # (A block, alpha)
    a_items = (1 << m) - 1  # the item bits of the A blocks

    def starved(covered):
        # each A block left takes at most 3 points of R off zero
        return rows.zeros > 3 * (m - (covered & a_items).bit_count())

    def assign_phase():
        # the items are the A blocks, then the indices
        r = Counter(p for b in b_blocks for p in b)
        # a point of B three times is held at 2 and fails at the leaf
        base = rows.add(rows.option([p for p in pts for _ in range(min(r[p], 2))]))
        over = any(c > 2 for c in r.values())
        options = [[((b, alpha), 1 << bi | 1 << (m + alpha), opt)
                    for alpha, opt in translates(b)]
                   for bi, b in enumerate(sorted(a_blocks))]
        for _ in _covers(bud, rows, options, (1 << 2 * m) - 1, assign, starved):
            if not rows.zeros and not over:
                ba = tuple(block(fpoint(x, c) for x, c in bl)  # A_alpha at position alpha
                           for bl, _ in sorted(assign, key=lambda e: e[1]))
                bb = tuple(block(fpoint(x, c) for x, c in bl) for bl in sorted(b_blocks))
                yield GbtdStarter(group, ba, bb, special=special)
        rows.undo(base)

    transversals = [((x, 0), (y, 1), (z, 2)) for x in range(m) for y in range(m) for z in range(m)]
    b_keyed = _keyed(pool, transversals, lambda b: _triple_diffs(diffs, b))
    # the A blocks' differences are secondary items of the cover, so the pool
    # counts them only once the A blocks cover every point
    cover = _anchored_triples(pts, pool, diffs)
    for covered in _covers(bud, pool, cover, (1 << len(pts)) - 1, a_blocks):
        a_diffs = pool.add((covered >> len(pts), 0))
        if all(pool.has(k) for k in pure):
            for _ in _ascending(bud, pool, b_keyed, (m - 1) // 2, b_blocks):
                if not pool.zeros:
                    yield from assign_phase()
        pool.undo(a_diffs)


def _frgbtd_starters(t: int, bud: Budget):
    """Exact cover of the punctured point set by triples, with the (i, j)
    placement chosen as each block is formed so the row-multiset caps prune
    during the cover, not after it."""
    if t < 1:
        raise InconsistentParams("t must be >= 1")
    n3 = 3 * t
    hole = {0, t, 2 * t}
    pts = sorted((e, c) for c in range(2) for e in range(n3) if e not in hole)
    lists = (("p", 0), ("p", 1), ("m", (0, 1)), ("m", (1, 0)))
    slot_order = sorted((i, j) for i in range(1, t) for j in (0, 1))
    # the row multiset R_j of each row class j: every nonzero residue mod t of
    # either copy at most twice, and in the end at least once
    residues = [[(j, res, c) for res in range(1, t) for c in (0, 1)] for j in (0, 1)]
    led = _Ledger(dict.fromkeys(residues[0] + residues[1], 2))
    row_keys = [sum(led.bit[k] for k in keys) for keys in residues]

    # the items are the points, the differences (secondary) and the slots;
    # an option is an anchored triple placed in a slot (i, j), whose
    # translate by i lands in R_j
    pool = _Ledger({(key, d): 1 for key in lists for d in range(n3) if d not in hole})
    first = len(pts) + len(pool.bit)
    class_slots = [sum(1 << first + s for s, (_i, j) in enumerate(slot_order) if j == jj)
                   for jj in (0, 1)]
    options = []
    for anchored in _anchored_triples(pts, pool, _class_diffs(pts, n3)):
        out = []
        for b, mask, _ in anchored:
            for s, (i, j) in enumerate(slot_order):
                opt = led.option([(j, (x - i) % t, c) for x, c in b])
                if opt is not None:
                    out.append((((i, j), b), mask | 1 << first + s, opt))
        options.append(out)

    def starved(covered):
        # each free slot of row class j fills at most 3 residues of R_j
        unused, free = ~led.one, ~covered
        return ((row_keys[0] & unused).bit_count() > 3 * (class_slots[0] & free).bit_count()
                or (row_keys[1] & unused).bit_count() > 3 * (class_slots[1] & free).bit_count())

    assign: list = []  # (slot, triple)
    primary = (1 << len(pts)) - 1 | class_slots[0] | class_slots[1]
    for _ in _covers(bud, led, options, primary, assign, starved):
        if not led.zeros:
            yield FrGbtdStarter(t, tuple(block(fpoint(x, c) for x, c in bl)
                                         for _, bl in sorted(assign)))


def _block_diffs(b, mods) -> list:
    """Every ordered difference of a block over Z_m x Z_k, as keys (0, d)."""
    m, k = mods
    return [(0, ((p[0] - q[0]) % m, (p[1] - q[1]) % k))
            for p, q in itertools.permutations(b, 2)]


def _igbtp_z2_starters(m: int, w: int, bud: Budget):
    """Row-multiset first: the C family is searched in row-anchored form
    E_i = C_i - (i,0), where both the difference list and the row condition
    are independent of the index i; the indices are then an exact cover of
    the point set by first-coordinate translates, with the leftover points
    forming the B pairs on the leftover differences."""
    if w % 2 == 0 or w < 5:
        raise InconsistentParams("w must be odd and >= 5")
    if m % 2 == 0:
        raise InconsistentParams("m must be odd")
    n_a = (w - 5) // 2
    n_cpair = m - w - 1
    if n_cpair < 0:
        raise InconsistentParams("m must be > w")
    mods = (m, 2)
    finite = [(x, j) for x in range(m) for j in (0, 1)]  # point p has bit 2x + j
    bit = {p: 1 << (p[0] * 2 + p[1]) for p in finite}
    full = (1 << len(finite)) - 1
    # one ledger: (0, d) each nonzero difference once, (1, p) the row
    # multiset R at most twice per point
    diff_keys = [(0, (dx, dj)) for dx in range(1, m) for dj in (0, 1)]
    led = _Ledger(dict.fromkeys(diff_keys, 1) | {(1, p): 2 for p in finite})
    led.add(led.option([(1, (0, 0)), (1, (0, 1))]))
    all_diffs = sum(led.bit[k] for k in diff_keys)
    # the ledger bits of both differences p - q and q - p of a leftover pair,
    # 0 when the pair can never be a B block (the same first coordinate)
    pair_diffs = [[0 if p[0] == q[0] else
                   led.bit[(0, ((p[0] - q[0]) % m, (p[1] - q[1]) % 2))]
                   | led.bit[(0, ((q[0] - p[0]) % m, (q[1] - p[1]) % 2))]
                   for q in finite] for p in finite]

    a_blocks: list = []
    e_blocks: list = []  # row-anchored C blocks: (points, has_inf)
    assign: list = []  # (position in e_blocks, translation index)

    def row_items(b):
        return [(1, (p[0], (p[1] - j) % 2)) for p in b for j in (0, 1)]

    def keys(b):
        return _block_diffs(b, mods) + row_items(b)

    @functools.cache
    def index_options(bi, pts):
        # E block pts at position bi translated by each index i, as (label,
        # item bits, no ledger keys); the items are the blocks, then the
        # indices, then the points as secondary items.  Block 0 takes index
        # 0, so no other block ever does
        out = []
        for i in range(1) if bi == 0 else range(1, m):
            mk = 0
            for (x, j) in pts:
                mk |= bit[((x + i) % m, j)]
            out.append(((bi, i), 1 << bi | 1 << m + i | mk << 2 * m, ()))
        return out

    def assign_phase():
        # R must be exactly once-or-twice everywhere before indexing
        if not all(led.has((1, p)) for p in finite):
            return
        options = [index_options(bi, pts) for bi, (pts, _inf) in enumerate(e_blocks)]
        # the options count no ledger keys, so the differences left unused
        # are the same at every cover, and the B pairings depend only on
        # the points no translate took: each such set is paired once
        unused, pairings = all_diffs & ~led.one, {}
        for covered in _covers(bud, led, options, (1 << 2 * m) - 1, assign):
            rest = full & ~(covered >> 2 * m)
            found = pairings.get(rest)
            if found is None:
                found = pairings[rest] = match(rest, unused)
            for picked in found:
                yield starter(picked)

    def match(rest, unused) -> list:
        # every pairing of the points of rest, each a tuple of B pairs:
        # the least point with each later one, in point order, on two
        # differences both still unused
        if not rest:
            return [()]
        low = rest & -rest
        a = low.bit_length() - 1
        rest ^= low
        others, out = rest, []
        while others:
            high = others & -others
            others ^= high
            b = high.bit_length() - 1
            need = pair_diffs[a][b]
            if need and unused & need == need:
                pair = (finite[a], finite[b])
                out += [(pair,) + tail for tail in match(rest ^ high, unused ^ need)]
        return out

    def starter(picked):
        inf_iter = itertools.count(1)
        cb = [None] * m
        for bi, i in assign:
            pts, has_inf = e_blocks[bi]
            moved = [fpoint(((x + i) % m, j)) for (x, j) in pts]
            if has_inf:
                moved.append(ipoint(next(inf_iter)))
            cb[i] = block(moved)
        return IgbtpStarterZ2(
            m, w,
            tuple(block(fpoint(p) for p in b) for b in a_blocks),
            tuple(block(fpoint(p) for p in b) for b in picked),
            tuple(cb))

    a_options = _keyed(led, [((a, 0), (bb, 1)) for a in range(m) for bb in range(m)], keys)
    # the index-0 block in row-anchored form; anchored at (0,*) wlog is
    # unsound, so every triple is tried
    triples = _keyed(led, itertools.combinations(finite, 3), keys)
    epairs = _keyed(led, [(pair, False) for pair in itertools.combinations(finite, 2)],
                    lambda e: keys(e[0]))
    singles = _keyed(led, [((p,), True) for p in finite], lambda e: row_items(e[0]))
    for _ in _ascending(bud, led, a_options, n_a, a_blocks):
        for triple in _fitting(led, triples):
            e_blocks.append((triple, False))
            for _ in _ascending(bud, led, epairs, n_cpair, e_blocks):
                for _ in _ascending(bud, led, singles, w, e_blocks):
                    yield from assign_phase()
            e_blocks.pop()


def _igbtp_z4_starters(m: int, bud: Budget):
    """Forced structure: A on parities {0,2}, four finite B pairs, finite
    triple C_0, all nine infinite points as partner blocks in C or D."""
    if m % 2 == 0 or m < 5:
        raise InconsistentParams("m must be odd and >= 5")
    finite = [(x, j) for x in range(m) for j in range(4)]
    n_pair = 2 * m - 10
    mods = (m, 4)
    # (0, d) each nonzero difference once, (1, p) each finite point in at
    # most one of the B, C and D blocks
    pool = _Ledger({(0, (dx, dj)): 1 for dx in range(1, m) for dj in range(4)}
                   | {(1, p): 1 for p in finite})
    # the points no B, C or D pair or triple takes, partnered with the nine
    # infinite points
    n_single = len(finite) - 2 * 4 - 3 - 2 * n_pair
    # the two row multisets R_o and R_b, each point at most twice per multiset
    rows = _Ledger({(tag, p): 2 for tag in "ob" for p in finite})
    slots = [("C", i) for i in range(1, m)] + [("D", i) for i in range(m)]

    def keys(b):
        return _block_diffs(b, mods) + [(1, p) for p in b]

    def free_points():
        return [p for p in finite if not pool.has((1, p))]

    def row_items(blk, flav, i):
        # translate j in {0, 2} lands in R_o for C blocks and in R_b for D
        # blocks, translate j in {1, 3} the other way round
        even, odd = ("o", "b") if flav == "C" else ("b", "o")
        return [(even if j % 2 == 0 else odd, ((qx - i) % m, (qj - j) % 4))
                for (qx, qj) in blk for j in range(4)]

    @functools.cache
    def placements(blk):
        # each slot (s, (flav, i)) whose row multisets can ever take blk
        return _keyed(rows, enumerate(slots), lambda e: row_items(blk, *e[1]))

    def assign_phase(a_blk, b_blocks, triple, cpairs, singles):
        # the items are the blocks, then the slots
        blocks = list(cpairs) + [(p,) for p in sorted(singles)]
        first = len(blocks)
        options = [[((slot, blk), 1 << bi | 1 << first + s, opt)
                    for (s, slot), opt in placements(blk)]
                   for bi, blk in enumerate(blocks)]
        assign: list = []  # (slot, block)

        def starter():
            inf_iter = itertools.count(1)
            cblocks = [None] * m
            dblocks = [None] * m
            cblocks[0] = block(fpoint(p) for p in triple)
            for (flav, i), blk in sorted(assign):
                pts = [fpoint(p) for p in blk]
                if len(blk) == 1:
                    pts.append(ipoint(next(inf_iter)))
                (cblocks if flav == "C" else dblocks)[i] = block(pts)
            return IgbtpStarterZ4(
                m, x, y,
                block(fpoint(p) for p in a_blk),
                tuple(block(fpoint(p) for p in b) for b in b_blocks),
                tuple(cblocks), tuple(dblocks))

        for x in range(m):
            for y in range(m):
                bud.tick()
                fixed = rows.option(
                    [("o", p) for p in ((0, 0), (0, 1), (x, 0), (x, 2), (y, 0), (y, 3))]
                    + [("b", p) for p in ((0, 2), (0, 3), (x, 1), (x, 3), (y, 1), (y, 2))]
                    + [("o" if j % 2 == 0 else "b", (px, (pj + j) % 4))
                       for j in range(4) for (px, pj) in a_blk]
                    + row_items(triple, "C", 0))
                taken = None if fixed is None else rows.add(fixed)
                if taken is None:
                    continue
                for _ in _covers(bud, rows, options, (1 << first + len(slots)) - 1, assign):
                    if not rows.zeros:
                        yield starter()
                rows.undo(taken)

    a_options = _keyed(pool, [((a, 0), (bb, 2)) for a in range(m) for bb in range(m)],
                       lambda a: _block_diffs(a, mods))
    pairs = _keyed(pool, itertools.combinations(finite, 2), keys)
    pair_keys = dict(pairs)
    triple_keys = dict(_keyed(pool, itertools.combinations(finite, 3), keys))

    def free_keyed(table, size):
        return [(b, table[b]) for b in itertools.combinations(free_points(), size)
                if b in table]

    b_blocks: list = []
    cpairs: list = []
    for a_blk in _fitting(pool, a_options):
        for _ in _ascending(bud, pool, pairs, 4, b_blocks):
            for triple in _fitting(pool, free_keyed(triple_keys, 3)):
                for _ in _ascending(bud, pool, free_keyed(pair_keys, 2), n_pair, cpairs):
                    # the n_single points left free are the only zeros unless
                    # some nonzero difference is still unused
                    if pool.zeros == n_single:
                        yield from assign_phase(a_blk, b_blocks, triple, cpairs, free_points())


# Each starter kind's search, as a generator of candidate starters.
STARTER_SEARCHES = {
    "gbtd": lambda p, bud: _gbtd_starters(p["m"], bool(p.get("special", False)), bud),
    "igbtp_z2": lambda p, bud: _igbtp_z2_starters(p["m"], p.get("w", 9), bud),
    "igbtp_z4": lambda p, bud: _igbtp_z4_starters(p["m"], bud),
    "frgbtd": lambda p, bud: _frgbtd_starters(p["t"], bud),
}


def search_starter(kind: str, params: dict, budget: int | None = None,
                   count: int = 1) -> StarterSearchResult:
    """Deterministic backtracking per starter family: the first `count`
    candidates that pass `verify_starter`, in the search's own order."""
    bud = Budget(budget)
    if kind not in STARTER_SEARCHES:
        raise BadKind("unknown starter kind %r" % kind)
    try:
        candidates = STARTER_SEARCHES[kind](params, bud)
    except KeyError as exc:
        raise InconsistentParams("missing search parameter %r" % exc.args[0]) from None
    found: list = []
    try:
        for st in itertools.islice((s for s in candidates if verify_starter(s).ok), count):
            found.append(st)
    except _Exhausted:
        return StarterSearchResult(found, False, bud.used)
    return StarterSearchResult(found, True, bud.used)


# ---------------------------------------------------------------------------
# block colorings


@dataclass
class ColoringResult:
    colors: dict | None
    exhausted: bool


def search_coloring(g: DesignGrid, colors: int, want_pi: bool = False) -> ColoringResult:
    """Row-independent block coloring; optionally force a witness row (Π:
    every color leaves some point free).  A row is one `_covers` call:
    its cells in column order are the primary items, each colored in color
    order, and each (color, point) is a secondary item, so same-color blocks
    in a row stay disjoint.  One Budget serves the call."""
    if colors < 1:
        raise InconsistentParams("need at least one color, got %d" % colors)
    inc = g.incidence
    v, every, rows = inc.v, (1 << inc.v) - 1, inc.by_row
    bud, led = Budget(), _Ledger({})

    def colorings(cells):
        """(bits of the (color, point) items used, cell -> color), per cover."""
        k, chosen = len(cells), []
        pts = [sum(1 << x for x in set(xs)) << k for _, _, xs in cells]
        options = [[((rc, c), 1 << i | pts[i] << c * v, ()) for c in range(colors)]
                   for i, (_, rc, _) in enumerate(cells)]
        for covered in _covers(bud, led, options, (1 << k) - 1, chosen):
            yield covered >> k, dict(chosen)

    try:
        base = {}
        for cells in rows:
            first = next(colorings(cells), None)
            if first is None:
                return ColoringResult(None, True)
            base.update(first[1])
        if not want_pi:
            return ColoringResult(base, True)
        for cells in rows:
            for used, wit in colorings(cells):
                if all(~used >> c * v & every for c in range(colors)):
                    return ColoringResult({**base, **wit}, True)
        return ColoringResult(None, True)
    except _Exhausted:
        return ColoringResult(None, False)
