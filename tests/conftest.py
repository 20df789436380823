import numpy as np
import pytest

from raagham.graphs import complete_graph, cycle_graph, find_planar_emulator, path_graph, planarity
from raagham.lift import assemble_Hv, default_study_annulus, enumerate_group, schottky_pair
from raagham.twist import build_configuration, build_representation


@pytest.fixture(scope="session")
def k5_emulator():
    res = find_planar_emulator(complete_graph(list("abcde")), 2, allow_trivial=False)
    assert not isinstance(res, tuple)
    return res


@pytest.fixture(scope="session")
def p3_rep():
    return build_representation(path_graph(["u", "v", "w"]), N=2)


@pytest.fixture(scope="session")
def c4_rep():
    return build_representation(cycle_graph(list("wxyz")), N=2)


@pytest.fixture(scope="session")
def k4_rep():
    return build_representation(complete_graph(list("abcd")), N=2)


@pytest.fixture(scope="session")
def k6_emulator():
    return find_planar_emulator(complete_graph(list("abcdef")), 2)


@pytest.fixture(scope="session")
def k6_rep(k6_emulator):
    """K6 through its 2-sheet planar emulator; the benchmark builds the same rep."""
    return build_representation(complete_graph(list("abcdef")), 2, emulator=k6_emulator)


@pytest.fixture(scope="session")
def schottky_gens():
    return schottky_pair(0.98)


@pytest.fixture(scope="session")
def assembled_depth6(schottky_gens):
    elements = enumerate_group(schottky_gens, 6)
    tail = [e for e in enumerate_group(schottky_gens, 7) if e.length == 7]
    return assemble_Hv("v", elements, default_study_annulus(), tail_elements=tail[:64])
