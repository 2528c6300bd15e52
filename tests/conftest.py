import copy
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from tforge.designs import load_grid  # noqa: E402

FIXTURES = ROOT / "fixtures"
# the label keys of a grid file per axis: cell entry, hole, group index classes
LABEL_KEYS = {"rows": ("r", "p_rows", "row_group_index"),
              "cols": ("c", "q_cols", "col_group_index")}


def relabel(obj: dict, axis: str, old, new) -> dict:
    """A copy of grid file object obj with row (axis "rows") or column
    ("cols") label old replaced by new wherever it occurs."""
    def swap(labels):
        return [new if x == old else x for x in labels]

    obj = copy.deepcopy(obj)
    key, hole_key, index_key = LABEL_KEYS[axis]
    obj[axis] = swap(obj[axis])
    for cell in obj["cells"]:
        if cell[key] == old:
            cell[key] = new
    if "hole" in obj:
        obj["hole"][hole_key] = swap(obj["hole"][hole_key])
    if obj.get("special", {}).get(key) == old:
        obj["special"][key] = new
    if index_key in obj:
        obj[index_key] = [swap(labels) for labels in obj[index_key]]
    return obj


@pytest.fixture(scope="session")
def fig1():
    return load_grid(FIXTURES / "fig1.json")


@pytest.fixture(scope="session")
def fig2():
    return load_grid(FIXTURES / "fig2_rbibd_15.json")


@pytest.fixture(scope="session")
def fig3():
    return load_grid(FIXTURES / "fig3_gbtd_3_9.json")


@pytest.fixture(scope="session")
def fig7():
    return load_grid(FIXTURES / "fig7_igbtp_29.json")


@pytest.fixture(scope="session")
def fig8():
    return load_grid(FIXTURES / "fig8_frgbtd_6_6.json")


@pytest.fixture(scope="session")
def frgbtd_t5():
    """The first frgbtd starter for t=5 (a 73k-node search), run once."""
    from tforge.search import search_starter

    return search_starter("frgbtd", {"t": 5}, budget=5_000_000)


@pytest.fixture(scope="session")
def witness_9_8_6():
    """The size-14 (9,8)_6 witness (a 244k-tick row arrangement), built once."""
    from tforge.search import eswc_witness

    return eswc_witness(9, 8, 6, 14)
