import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from tforge.designs import load_grid  # noqa: E402

FIXTURES = ROOT / "fixtures"


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
