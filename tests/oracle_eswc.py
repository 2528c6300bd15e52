"""Reference pieces of `max_eswc`: the test oracles for its bitmask set-up and bound.

These share no logic with the program.  The adjacency compares every pair of
words with `hamming`; the colouring is the class-list first fit that the
search's bound used before it coloured one class at a time; the word list
and the Plotkin cap are a filter over all q^n words and a loop over
`plotkin_check`.  They are slow, and need no numpy.
"""

from __future__ import annotations

import itertools
from collections import Counter

from tforge.codes import hamming, plotkin_check


def adjacency(words, d) -> list:
    """Per word, the bitmask of the other words at distance >= d."""
    return [sum(1 << j for j, u in enumerate(words) if j != i and hamming(w, u) >= d)
            for i, w in enumerate(words)]


def first_fit_colours(adj, mask: int) -> int:
    """Colours first fit gives the vertices of `mask` in increasing order.

    Each vertex joins the first class holding none of its neighbours; a class
    is kept as the union of its members' neighbourhoods.
    """
    classes = []
    for v in range(mask.bit_length()):
        if not (mask >> v) & 1:
            continue
        for i, blocked in enumerate(classes):
            if not (blocked >> v) & 1:
                classes[i] |= adj[v]
                break
        else:
            classes.append(adj[v])
    return len(classes)


def equitable_words(n: int, q: int) -> list:
    """Words of length n over 0..q-1 whose symbol counts differ by at most one."""
    out = []
    for w in itertools.product(range(q), repeat=n):
        counts = Counter(w)
        per = [counts[s] for s in range(q)]
        if max(per) - min(per) <= 1:
            out.append(w)
    return out


def plotkin_cap(n: int, d: int, q: int, limit: int = 10_000) -> int:
    """The size before the first that the Plotkin bound excludes, or `limit` if none up to it is."""
    m = 1
    while m < limit and plotkin_check(n, d, q, m + 1).holds:
        m += 1
    return m
