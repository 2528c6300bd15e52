"""The bitmask `_Ledger` of the starter searches against the dict-count oracle.

Both ledgers get the same key sequences, added and undone last-in first-out;
after every step they must agree on whether the add was taken, on `zeros`
and on which capped keys are counted.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle_ledger import DictLedger
from tforge.search import _Ledger

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
