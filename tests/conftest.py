import pytest

from gridrecover.builtins import builtin_scenario, table1_dc
from gridrecover.states import generate_scenario


@pytest.fixture(scope="session")
def table1_network():
    return table1_dc()


@pytest.fixture(scope="session")
def table1_states(table1_network):
    """200 exact states of the 6-node network, generator at node 1."""
    scen = builtin_scenario("table1_dc")
    return generate_scenario(table1_network, scen, 200, seed=7)
