import itertools

import networkx as nx
import numpy as np
import pytest

from raagham import graphs
from raagham.graphs import (
    EmulatorResult,
    GraphMorphism,
    NoEmulatorCertificate,
    NonplanarWitness,
    NotApplicable,
    NotFound,
    OrbicoverCertificate,
    PlanarEmbedding,
    SimplicialGraph,
    Violation,
    VoltageAssignment,
    certificate_no_emulator,
    check_orbicover,
    complete_graph,
    cycle_graph,
    double,
    double_projection,
    find_planar_emulator,
    incidence_nerve,
    path_graph,
    planarity,
    validate_embedding,
)
from graphs_reference import graphs_isomorphic


def test_no_loops_or_duplicate_edges():
    with pytest.raises(ValueError):
        SimplicialGraph(["a"], [("a", "a")])
    g = SimplicialGraph(["a", "b"], [("a", "b"), ("b", "a")])
    assert len(g.edges) == 1


def test_double_single_vertex():
    g = SimplicialGraph(["v"], [])
    dg = double(g)
    assert len(dg.vertices) == 2
    assert len(dg.edges) == 0


def test_double_edge_is_four_cycle():
    g = SimplicialGraph(["u", "v"], [("u", "v")])
    dg = double(g)
    assert len(dg.vertices) == 4 and len(dg.edges) == 4
    assert graphs_isomorphic(dg, cycle_graph(list("wxyz")))


def test_double_counts_triangle():
    dg = double(complete_graph(list("abc")))
    assert len(dg.vertices) == 6
    assert len(dg.edges) == 12


def test_double_swap_is_automorphism():
    g = path_graph(list("abcd"))
    dg = double(g)
    swapped = {frozenset(((u, -su), (v, -sv))) for (u, su), (v, sv) in map(tuple, dg.edges)}
    assert swapped == set(dg.edges)


def test_projection_is_orbicover():
    for g in (complete_graph(list("abc")), path_graph(list("abcd"))):
        cert = check_orbicover(double_projection(g))
        assert isinstance(cert, OrbicoverCertificate)
        assert all(n == 2 for n in cert.fiber_sizes.values())


def test_identity_morphism_certified():
    g = complete_graph(list("abc"))
    cert = check_orbicover(GraphMorphism(g, g, {v: v for v in g.vertices}))
    assert isinstance(cert, OrbicoverCertificate)


def test_missing_lift_violation():
    c4 = cycle_graph(list("abcd"))
    p3 = path_graph(list("uvw"))
    m = GraphMorphism(c4, p3, {"a": "u", "b": "v", "c": "u", "d": "v"})
    v = check_orbicover(m)
    assert isinstance(v, Violation)
    assert v.kind == "local-surjectivity"
    assert v.vertex in ("b", "d")
    assert v.edge == frozenset(("v", "w"))


def test_malformed_morphism_distinct():
    c4 = cycle_graph(list("abcd"))
    p3 = path_graph(list("uvw"))
    collapsed = GraphMorphism(c4, p3, {"a": "u", "b": "u", "c": "u", "d": "v"})
    v = check_orbicover(collapsed)
    assert isinstance(v, Violation) and v.kind == "malformed"


def test_planarity_k4():
    emb = planarity(complete_graph(list("abcd")))
    assert isinstance(emb, PlanarEmbedding)
    assert validate_embedding(emb)


def test_planarity_k5_witness():
    w = planarity(complete_graph(list("abcde")))
    assert isinstance(w, NonplanarWitness)


def test_planarity_k33_witness():
    g = SimplicialGraph(
        list("abcxyz"), [(u, v) for u in "abc" for v in "xyz"]
    )
    w = planarity(g)
    assert isinstance(w, NonplanarWitness)
    assert w.kind == "kuratowski"


def test_planarity_four_cycle():
    emb = planarity(cycle_graph(list("wxyz")))
    assert isinstance(emb, PlanarEmbedding)
    assert validate_embedding(emb)


def test_planarity_disconnected():
    g = SimplicialGraph(list("abcdef"), [("a", "b"), ("c", "d"), ("d", "e"), ("e", "c")])
    emb = planarity(g)
    assert isinstance(emb, PlanarEmbedding)
    assert validate_embedding(emb)


def test_emulator_k5(k5_emulator):
    res = k5_emulator
    assert isinstance(res, EmulatorResult)
    assert len(res.cover.vertices) == 10 and len(res.cover.edges) == 20
    assert res.cover.is_connected()
    assert isinstance(check_orbicover(res.projection), OrbicoverCertificate)
    assert validate_embedding(res.embedding)


def test_emulator_planar_graph_trivial_answer():
    g = cycle_graph(list("wxyz"))
    res = find_planar_emulator(g, 2)
    assert isinstance(res, EmulatorResult)
    assert res.voltage.group_order == 1
    res2 = find_planar_emulator(g, 2, allow_trivial=False)
    assert isinstance(res2, EmulatorResult)
    assert res2.voltage.group_order == 2
    assert res2.cover.is_connected()


def test_emulator_cap_reported():
    k7 = complete_graph(list("abcdefg"))
    out = find_planar_emulator(k7, 3)
    assert isinstance(out, NotFound)
    assert out.exhausted  # the Euler prefilter rules out every sheet count


def test_certificate_six_regular():
    k7 = complete_graph(list("abcdefg"))
    cert = certificate_no_emulator(k7)
    assert isinstance(cert, NoEmulatorCertificate)
    assert cert.min_valence == 6
    assert cert.euler_gap() <= 0


def test_certificate_not_applicable():
    assert isinstance(certificate_no_emulator(complete_graph(list("abcde"))), NotApplicable)
    assert isinstance(certificate_no_emulator(SimplicialGraph([], [])), NotApplicable)


def test_incidence_nerve():
    flags = np.zeros((3, 3), bool)
    g = incidence_nerve(["a", "b", "c"], flags)
    assert len(g.edges) == 0
    flags2 = np.array([[False, True], [True, False]])
    g2 = incidence_nerve(["a", "b"], flags2)
    assert g2.has_edge("a", "b")
    with pytest.raises(ValueError):
        incidence_nerve(["a", "b"], [[False, True], [False, False]])


class TestChecksSurviveOptimize:
    """Invariant checks raise errors, so `python -O` keeps them."""

    def test_failed_layout_validation_raises(self, monkeypatch):
        monkeypatch.setattr(graphs, "validate_embedding", lambda emb: False)
        with pytest.raises(RuntimeError, match="planar layout failed geometric validation"):
            planarity(path_graph(["a", "b", "c"]))

    def test_derived_graph_failing_orbicover_raises(self, monkeypatch):
        monkeypatch.setattr(
            graphs, "check_orbicover", lambda m: Violation(kind="malformed")
        )
        with pytest.raises(RuntimeError, match="not an orbi-cover"):
            find_planar_emulator(cycle_graph(list("wxyz")), 2)

    def test_positive_euler_gap_raises(self, monkeypatch):
        monkeypatch.setattr(NoEmulatorCertificate, "euler_gap", lambda self: 1.0)
        with pytest.raises(RuntimeError, match="Euler gap"):
            certificate_no_emulator(complete_graph(list("abcdefg")))


def four_vertex_graphs():
    """One graph per isomorphism class on four vertices."""
    pairs = list(itertools.combinations("abcd", 2))
    out = []
    for mask in range(2 ** len(pairs)):
        g = SimplicialGraph(list("abcd"), [p for i, p in enumerate(pairs) if mask >> i & 1])
        if not any(graphs_isomorphic(g, h) for h in out):
            out.append(g)
    assert len(out) == 11
    return out


def reference_emulator(g, max_sheets, allow_trivial=True):
    """Reference route: draw every candidate with planarity() and keep the
    lexicographically first connected one it draws.

    Returns (voltage assignment or None, tried, exhausted, positions).
    """
    nv, ne = len(g.vertices), len(g.edges)
    tried = 0
    for k in range(1 if allow_trivial else 2, max_sheets + 1):
        if k * nv >= 3 and k * ne > 3 * k * nv - 6:
            continue
        for voltages in itertools.product(range(k), repeat=ne):
            tried += 1
            va = VoltageAssignment(g, k, voltages)
            cover = va.derived_graph()
            if not nx.is_connected(cover.to_networkx()):
                continue
            emb = planarity(cover)
            if isinstance(emb, PlanarEmbedding):
                return va, tried, False, emb.positions
    return None, tried, True, None


ORACLE_CASES = (
    [(g, 3, trivial) for g in four_vertex_graphs() for trivial in (True, False)]
    + [
        (SimplicialGraph(list("abcxyz"), [(u, v) for u in "abc" for v in "xyz"]), 2, True),
        (complete_graph(list("abcde")), 2, False),
        (complete_graph(list("abcdefg")), 3, True),
    ]
)


@pytest.mark.parametrize("g, sheets, trivial", ORACLE_CASES)
def test_emulator_search_matches_reference_route(g, sheets, trivial):
    va, tried, exhausted, positions = reference_emulator(g, sheets, trivial)
    res = find_planar_emulator(g, sheets, allow_trivial=trivial)
    if va is None:
        assert isinstance(res, NotFound)
        assert (res.tried, res.exhausted) == (tried, exhausted)
    else:
        assert isinstance(res, EmulatorResult)
        assert res.voltage == va
        assert res.embedding.positions == positions


def counting(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that counts its calls."""
    real, calls = getattr(owner, name), []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


@pytest.mark.parametrize("g", [
    SimplicialGraph(list("abcdef"), [("a", "b"), ("c", "d"), ("d", "e"), ("e", "c")]),
    SimplicialGraph(list("abcxyz"), [(u, v) for u in "abc" for v in "xyz"]),
    SimplicialGraph([], []),
])
def test_planarity_tests_once(monkeypatch, g):
    calls = counting(monkeypatch, graphs.nx, "check_planarity")
    planarity(g)
    assert len(calls) == 1


def test_emulator_search_draws_only_the_returned_cover(monkeypatch):
    calls = counting(monkeypatch, graphs, "planarity")
    res = find_planar_emulator(complete_graph(list("abcde")), 2, allow_trivial=False)
    assert isinstance(res, EmulatorResult)
    assert calls == [(res.cover,)]
    assert isinstance(find_planar_emulator(complete_graph(list("abcdefg")), 3), NotFound)
    assert len(calls) == 1


def test_components_in_vertex_order():
    g = SimplicialGraph(list("abcdef"), [("e", "a"), ("c", "f"), ("f", "b")])
    assert g.components() == [["a", "e"], ["b", "c", "f"], ["d"]]
    assert not g.is_connected()
    assert SimplicialGraph([], []).components() == []
    assert SimplicialGraph([], []).is_connected()


def test_to_networkx_labels_are_vertex_indices():
    g = SimplicialGraph(["x", "y", "z"], [("z", "x")])
    gx = g.to_networkx()
    assert list(gx.nodes) == [0, 1, 2]
    assert list(gx.edges) == [(0, 2)]
