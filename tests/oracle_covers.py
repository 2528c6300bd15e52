"""Scan-based exact cover: the test oracle for the starter searches' `_covers`.

This is the engine as it was before it carried a bitset of the options still
disjoint from everything chosen: a recursive generator, one frame per depth,
that walks every option of its anchor item and rejects the ones whose items
are already covered.  It shares no compiled state with the program's engine.
The differential test requires the same yields in the same order, the same
chosen labels and ledger words at each yield, the same node counts, and the
same budget stop at every limit.
"""

from __future__ import annotations


def covers(bud, led, options, primary: int, chosen: list, prune=None):
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
    """
    tick, add, undo, push, pop = bud.tick, led.add, led.undo, chosen.append, chosen.pop

    def rec(covered):
        tick()
        rest = primary & ~covered
        if not rest:
            yield covered
            return
        if prune is not None and prune(covered):
            return
        for label, mask, opt in options[(rest & -rest).bit_length() - 1]:
            if mask & covered:
                continue
            taken = opt and add(opt)
            if taken is None:
                continue
            push(label)
            yield from rec(covered | mask)
            pop()
            if taken:
                undo(taken)

    yield from rec(0)
