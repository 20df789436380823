import itertools

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_equal_graphs_hash_equal():
    # the hash is taken once, at construction, from the vertex tuple and the edge set
    g = SimplicialGraph(list("abcd"), [("a", "b"), ("c", "b"), ("d", "a")])
    h = SimplicialGraph(list("abcd"), [("a", "d"), ("b", "c"), ("b", "a")])
    assert g == h and hash(g) == hash(h)
    assert g != SimplicialGraph(list("abcd"), [("a", "b"), ("c", "b")])


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
    assert w.detail == "K3,3 subdivision on 6 vertices"


def test_planarity_subdivided_k5_witness():
    """The subdivision vertex has degree 2; the branch vertices name it K5."""
    edges = [e for e in itertools.combinations("abcde", 2) if e != ("a", "b")]
    g = SimplicialGraph(list("abcdex"), edges + [("a", "x"), ("x", "b")])
    w = planarity(g)
    assert isinstance(w, NonplanarWitness)
    assert w.kind == "kuratowski"
    assert w.detail == "K5 subdivision on 6 vertices"
    assert w.subgraph_edges == g.edges


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
    calls = counting(monkeypatch, nx, "check_planarity")
    planarity(g)
    assert len(calls) == 1


def test_k6_search_tests_six_candidates(monkeypatch):
    """The Euler count leaves 6 of the 236 connected 2-sheet covers of K6 to
    the library test; the first planar one has lexicographic rank 237."""
    calls = counting(monkeypatch, nx, "check_planarity")
    drawn = counting(monkeypatch, graphs, "planarity")
    res = find_planar_emulator(complete_graph(list("abcdef")), 2)
    assert isinstance(res, EmulatorResult)
    assert res.voltage.group_order == 2
    assert res.voltage.voltages == (0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 1, 1, 0, 0)
    assert int("".join(map(str, res.voltage.voltages)), 2) + 1 == 237
    assert res.cover == res.voltage.derived_graph()
    # six yes/no tests, then the one inside planarity() that draws the cover
    assert drawn == [(res.cover,)] and len(calls) == 7
    assert res.embedding.positions == planarity(res.cover).positions


def tree_reduced_covers(g, max_sheets):
    """Every connected derived graph of g with at most max_sheets sheets, up
    to isomorphism.

    Adding c to the sheet index over one vertex (switching) relabels a
    derived graph, so voltage 0 on the edges of a spanning tree reaches
    every Z/k cover (Gross & Tucker, Topological Graph Theory, 1987).
    """
    edges, tree = g.sorted_edges(), set()
    seen, stack = {g.vertices[0]}, [g.vertices[0]]
    while stack:
        u = stack.pop()
        for w in sorted(g.neighbors(u), key=g.index):
            if w not in seen:
                seen.add(w)
                tree.add(frozenset((u, w)))
                stack.append(w)
    free = [i for i, e in enumerate(edges) if frozenset(e) not in tree]
    for k in range(1, max_sheets + 1):
        for values in itertools.product(range(k), repeat=len(free)):
            voltages = [0] * len(edges)
            for i, a in zip(free, values):
                voltages[i] = a
            cover = VoltageAssignment(g, k, tuple(voltages)).derived_graph()
            if cover.is_connected():
                yield cover


PRECHECK_BASES = {
    "K5": complete_graph(list("abcde")),
    "K6": complete_graph(list("abcdef")),
    "K3,3": SimplicialGraph(list("abcxyz"), [(u, v) for u in "abc" for v in "xyz"]),
    "C4": cycle_graph(list("wxyz")),
}


@pytest.mark.parametrize("name", PRECHECK_BASES)
def test_euler_precheck_sound_on_small_covers(name):
    covers = list(tree_reduced_covers(PRECHECK_BASES[name], 2))
    assert covers
    for cover in covers:
        if graphs._euler_refutes(cover):
            assert not nx.check_planarity(cover.to_networkx())[0]


@st.composite
def connected_graphs(draw, max_vertices=10):
    """A random spanning tree plus each other pair with probability about
    1/2: near 3v - 6 edges, where the Euler count starts to refute."""
    n = draw(st.integers(1, max_vertices))
    names = [f"v{i}" for i in range(n)]
    tree = [(names[draw(st.integers(0, i - 1))], names[i]) for i in range(1, n)]
    extra = [p for p in itertools.combinations(names, 2) if draw(st.booleans())]
    return SimplicialGraph(names, tree + extra)


@st.composite
def planar_connected_graphs(draw, max_vertices=12):
    """A stacked triangulation (each new vertex joins the corners of one
    triangular face) with edges off its spanning tree removed at random."""
    n = draw(st.integers(3, max_vertices))
    names = [f"v{i}" for i in range(n)]
    faces = [(0, 1, 2), (0, 2, 1)]
    tree, others = [(0, 1), (1, 2)], [(0, 2)]
    for v in range(3, n):
        a, b, c = faces.pop(draw(st.integers(0, len(faces) - 1)))
        faces += [(a, b, v), (b, c, v), (c, a, v)]
        tree.append((a, v))
        others += [(b, v), (c, v)]
    kept = [e for e in others if draw(st.booleans())]
    return SimplicialGraph(names, [(names[u], names[v]) for u, v in tree + kept])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(connected_graphs())
def test_euler_precheck_never_refutes_a_planar_graph(g):
    if graphs._euler_refutes(g):
        assert not nx.check_planarity(g.to_networkx())[0]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(planar_connected_graphs())
def test_euler_precheck_accepts_subgraphs_of_triangulations(g):
    assert g.is_connected() and nx.check_planarity(g.to_networkx())[0]
    assert not graphs._euler_refutes(g)


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
