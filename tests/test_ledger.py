"""The bitmask `_Ledger` of the starter searches against the dict-count oracle,
and the exact-cover engine `_covers` against brute force and against the
scan-based engine it replaced (tests/oracle_covers.py).

Both ledgers get the same key sequences, added and undone last-in first-out;
after every step they must agree on whether the add was taken, on `zeros`
and on which capped keys are counted.  The engine must yield exactly the
option sets that an enumeration of every subset of the options finds, each
once, and must walk the same search as the scan engine: the same yields in
the same order, the same chosen labels and ledger words at each yield, with
or without a prune, and the same budget stop at every limit.
"""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle_covers import covers as scan_covers
from oracle_ledger import DictLedger
from tforge.search import Budget, _covers, _Exhausted, _Ledger

UNCAPPED = "u"  # a key no ledger gives a cap


def _run(caps: dict, steps) -> None:
    led, ref = _Ledger(caps), DictLedger(caps)
    taken: list = []  # (ledger token, oracle token) of each add still counted

    def agree():
        assert led.zeros == ref.zeros
        assert [led.has(k) for k in caps] == [ref.count[k] > 0 for k in caps]

    agree()
    for step in steps:
        if step is None:
            if taken:
                tok, rtok = taken.pop()
                led.undo(tok)
                ref.undo(rtok)
        else:
            opt = led.option(step)
            tok = None if opt is None else led.add(opt)
            rtok = ref.add(list(step))
            assert (tok is None) == (rtok is None), step
            if tok is not None:
                taken.append((tok, rtok))
        agree()
    while taken:
        tok, rtok = taken.pop()
        led.undo(tok)
        ref.undo(rtok)
        agree()
    assert led.zeros == len(caps)


@st.composite
def _ledger_runs(draw):
    caps = {k: c for k, c in enumerate(draw(st.lists(st.sampled_from([1, 2]),
                                                     min_size=1, max_size=6)))}
    key = st.sampled_from(list(caps) + [UNCAPPED])
    # None undoes the last add still counted
    step = st.one_of(st.none(), st.lists(key, max_size=5))
    return caps, draw(st.lists(step, max_size=60))


@settings(max_examples=300, deadline=None)
@given(_ledger_runs())
@example(({0: 1, 1: 2}, [[1, 1], [1], [0, 0], [0], [0], None, [0, UNCAPPED], [0], None, None]))
@example(({0: 2, 1: 1}, [[0], [0], [0], [1, 0], None, [1], [0, 1]]))
def test_ledger_matches_dict_oracle(run):
    _run(*run)


@pytest.mark.parametrize("keys,fits", [
    (["a"], True),
    (["a", "a"], False),  # cap 1 named twice
    (["b", "b"], True),  # cap 2 named twice
    (["b", "b", "b"], False),
    (["a", UNCAPPED], False),
    ([], True),
])
def test_ledger_option_compiles_caps(keys, fits):
    led = _Ledger({"a": 1, "b": 2})
    assert (led.option(keys) is not None) == fits
    assert (DictLedger({"a": 1, "b": 2}).add(keys) is not None) == fits


@pytest.mark.parametrize("cap", [0, 3])
def test_ledger_rejects_caps_other_than_1_or_2(cap):
    with pytest.raises(ValueError):
        _Ledger({"a": 1, "b": cap})


def _brute_covers(primary: int, caps: dict, options) -> set:
    """Every set of option indices whose item masks are disjoint, cover every
    item of the bitmask `primary` and together keep each key within its cap."""
    found = set()
    for size in range(len(options) + 1):
        for combo in itertools.combinations(range(len(options)), size):
            covered = 0
            for i in combo:
                if options[i][0] & covered:
                    break
                covered |= options[i][0]
            else:
                keys = [k for i in combo for k in options[i][1]]
                if covered & primary == primary and DictLedger(caps).add(keys) is not None:
                    found.add(frozenset(combo))
    return found


def _engine_covers(primary: int, caps: dict, options) -> list:
    led = _Ledger(caps)
    # every option is listed under each primary item it covers; keys that
    # compile to nothing are given as (), which leaves the ledger alone
    by_item = [[(i, mask, opt if opt != (0, 0) else ())
                for i, (mask, keys) in enumerate(options)
                if mask >> item & 1 and (opt := led.option(keys)) is not None]
               for item in range(primary.bit_length())]
    chosen: list = []
    found = []
    for covered in _covers(Budget(10**6), led, by_item, primary, chosen):
        assert covered == sum(options[i][0] for i in chosen)
        # the chosen options' keys are counted while the consumer runs
        ref = DictLedger(caps)
        assert ref.add([k for i in chosen for k in options[i][1]]) is not None
        assert led.zeros == ref.zeros
        found.append(frozenset(chosen))
    assert not chosen and led.zeros == len(caps)
    return found


@st.composite
def _cover_instances(draw):
    # up to 10 primary items and 3 secondary ones, in any bit positions
    n_items = draw(st.integers(0, 13))
    primary_items = draw(st.sets(st.integers(0, n_items - 1), max_size=10)) if n_items else set()
    secondary_items = sorted(set(range(n_items)) - primary_items)[:3]
    caps = dict(enumerate(draw(st.lists(st.sampled_from([1, 2]), max_size=4))))
    key = st.sampled_from(list(caps) + [UNCAPPED])
    options = []
    if primary_items:
        # each option covers one to three primary items, so that the engine
        # can reach it, and maybe some secondary ones
        secondary = (st.sets(st.sampled_from(secondary_items)) if secondary_items
                     else st.just(set()))
        option = st.tuples(st.sets(st.sampled_from(sorted(primary_items)), min_size=1, max_size=3),
                           secondary, st.lists(key, max_size=3))
        options = [(sum(1 << x for x in items | extra), keys)
                   for items, extra, keys in draw(st.lists(option, max_size=12))]
    return sum(1 << x for x in primary_items), caps, options


@settings(max_examples=300, deadline=None)
@given(_cover_instances())
@example((0b111, {}, [(0b101, []), (0b110, []), (0b010, [])]))  # items 0 and 1 share item 2
@example((0b011, {}, [(0b101, []), (0b110, []), (0b010, [])]))  # ... or a secondary item
@example((0b101, {}, [(0b011, []), (0b110, []), (0b100, [])]))  # ... below a primary one
@example((0b11, {0: 1, 1: 2}, [(0b01, [1, 1]), (0b10, [0]), (0b10, [1]), (0b11, [0, 1])]))
def test_covers_matches_brute_force(inst):
    found = _engine_covers(*inst)
    assert len(found) == len(set(found))
    assert set(found) == _brute_covers(*inst)


def _walk(engine, inst, limit):
    """Each yield of `engine` on `inst` as (covered, chosen labels, ledger
    words), then how the run ended: the ticks used, whether the budget
    stopped it, and the labels and ledger words it stopped with."""
    primary, caps, anchored, mod = inst
    led = _Ledger(caps)
    # keys that never fit leave their option out, as the searches' own
    # compilers do; None stands for no keys at all, ()
    options = [[(label, mask, () if keys is None else opt)
                for label, mask, keys in opts
                if keys is None or (opt := led.option(keys)) is not None]
               for opts in anchored]

    def prune(covered):
        # a rule that reads both the covered items and the ledger; it never
        # prunes the root, where all three are 0
        return (covered + 3 * led.one + 5 * led.two) % mod == 1

    bud, chosen, seen = Budget(limit), [], []
    try:
        for covered in engine(bud, led, options, primary, chosen, prune if mod else None):
            seen.append((covered, tuple(chosen), led.one, led.two))
    except _Exhausted:
        return seen, (bud.used, True, tuple(chosen), led.one, led.two)
    return seen, (bud.used, False, tuple(chosen), led.one, led.two)


@st.composite
def _anchored_instances(draw):
    # up to 11 items, the primary ones among the lowest 8 and the rest
    # secondary; each item up to the highest primary one gets its own option
    # list, whose options mostly name that item and up to two others, but
    # need not name it (every option names some item, so each choice covers
    # something new)
    n_items = draw(st.integers(1, 11))
    primary = draw(st.integers(1, (1 << min(n_items, 8)) - 1))
    caps = dict(enumerate(draw(st.lists(st.sampled_from([1, 2]), max_size=4))))
    keys = st.one_of(st.none(), st.lists(st.sampled_from(list(caps) + [UNCAPPED]), max_size=3))
    option = st.tuples(st.sampled_from([True, True, True, False]),
                       st.sets(st.integers(0, n_items - 1), max_size=2), keys)
    anchored = []
    for item in range(primary.bit_length()):
        opts = []
        for i, (own, others, k) in enumerate(draw(st.lists(option, max_size=6))):
            mask = sum(1 << x for x in others) | (own or not others) << item
            opts.append(((item, i), mask, k))
        anchored.append(opts)
    return primary, caps, anchored, draw(st.sampled_from([0, 0, 2, 3, 5]))


@settings(max_examples=300, deadline=None)
@given(_anchored_instances())
@example((0b111, {}, [[(0, 0b101, None), (1, 0b001, None)], [(2, 0b010, None)],
                      [(3, 0b100, None)]], 0))
@example((0b11, {0: 1, 1: 2}, [[(0, 0b01, [1, 1]), (1, 0b11, [0, 1]), (2, 0b01, [])],
                               [(3, 0b10, [0]), (4, 0b10, [1]), (5, 0b110, None)]], 3))
def test_covers_matches_scan_engine(inst):
    seen, end = _walk(scan_covers, inst, 10**6)
    assert _walk(_covers, inst, 10**6) == (seen, end)
    assert not end[1] and not end[2]
    # a budget of `limit` ticks stops both at the same node, after the same
    # yields, with the same labels chosen and the same ledger words
    for limit in range(1, end[0] + 1):
        assert _walk(_covers, inst, limit) == _walk(scan_covers, inst, limit), limit
