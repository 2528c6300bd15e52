"""Dict-count reference ledger: the test oracle for the bitmask `_Ledger`.

This is the ledger the starter searches used before their state was kept as
two bitmask words.  It counts each key in a dict and checks every key of a
sequence on every `add`, so it is slow, but it shares no logic with the
program's ledger.  The differential test drives both with the same key
sequences and requires the same accepts, rejects, `zeros` and counted keys.
"""

from __future__ import annotations


class DictLedger:
    """Counts per key, each held at or below its cap (a key with no cap has cap 0).

    `caps` maps keys to positive caps.  `add` counts a sequence of keys all or
    nothing: it returns the token that `undo` takes back, or None when some
    key would pass its cap.  `zeros` is the number of capped keys still at zero.
    """

    def __init__(self, caps: dict):
        self.caps = caps
        self.count = dict.fromkeys(caps, 0)
        self.zeros = len(caps)

    def add(self, keys):
        count, caps = self.count, self.caps
        for i, k in enumerate(keys):
            c = count.get(k, 0)
            if c >= caps.get(k, 0):
                self.undo(keys[:i])
                return None
            count[k] = c + 1
            if not c:
                self.zeros -= 1
        return keys

    def undo(self, keys) -> None:
        count = self.count
        for k in keys:
            count[k] -= 1
            if not count[k]:
                self.zeros += 1
