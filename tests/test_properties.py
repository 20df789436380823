"""Property-based checks of the algebraic laws the exact routes rely on."""

import itertools
import math

import networkx as nx
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from raagham.flows import rep_apply
from raagham.graphs import PlanarEmbedding, SimplicialGraph, planarity
from raagham.lift import MobiusMap
from raagham.twist import (
    MAX_SWEEPS,
    PACKING_TOL,
    RoundAnnulus,
    _inflate,
    _pack_component,
    _plane_packing,
    build_configuration,
    double_dehn_twist,
    make_profile,
)
from raagham.words import Word, normal_form, word_from_tokens
from twist_reference import bisect_delta, gap_floor, inflation_valid, non_neighbour_hits, reference_fold
from words_reference import normal_form_closure

TWO_PI = 2 * math.pi
# derandomized so that every run draws the same examples
FEW = settings(max_examples=40, deadline=None, derandomize=True)

angles = st.floats(0.0, TWO_PI, allow_nan=False)


@st.composite
def disk_points(draw, radius=0.9):
    r, theta = draw(st.floats(0.0, radius)), draw(angles)
    return r * complex(math.cos(theta), math.sin(theta))


mobius_maps = st.builds(MobiusMap, angles, disk_points())


@FEW
@given(mobius_maps, mobius_maps, st.lists(disk_points(), min_size=1, max_size=8))
def test_mobius_compose_and_inverse_round_trip(f, g, zs):
    z = np.array(zs)
    assert np.abs(f.inverse()(f(z)) - z).max() <= 1e-12
    assert np.abs(f.compose(g)(z) - f(g(z))).max() <= 1e-12
    assert np.abs(f.compose(f.inverse())(z) - z).max() <= 1e-12


@FEW
@given(angles, disk_points(), st.lists(disk_points(), min_size=1, max_size=8))
def test_mobius_pair_is_the_theta_a_map(theta, a, zs):
    """The (alpha, beta) pair built from (theta, a) is the map
    e^{i theta} (z - a) / (1 - conj(a) z), with its derivative."""
    f, z = MobiusMap(theta, a), np.array(zs)
    rot, den = complex(math.cos(theta), math.sin(theta)), 1.0 - np.conj(a) * z
    assert abs(abs(f.alpha) ** 2 - abs(f.beta) ** 2 - 1.0) <= 1e-12 * abs(f.alpha) ** 2
    assert np.abs(f(z) - rot * (z - a) / den).max() <= 1e-12
    assert np.abs(f.derivative(z) - rot * (1.0 - abs(a) ** 2) / den**2).max() <= 1e-11


TWIST_ANNULUS = RoundAnnulus((0.3, -0.2), 1.0, math.sqrt(3))
TWIST_PROFILE = make_profile(TWIST_ANNULUS.a, 0.1)
TWIST_POINTS = TWIST_ANNULUS.sample_points(64, np.random.default_rng(3))
taus = st.floats(-3.0, 3.0, allow_nan=False)


@FEW
@given(taus, taus)
def test_double_dehn_twist_group_law(t1, t2):
    f1 = double_dehn_twist(TWIST_ANNULUS, TWIST_PROFILE, t1)
    f2 = double_dehn_twist(TWIST_ANNULUS, TWIST_PROFILE, t2)
    f12 = double_dehn_twist(TWIST_ANNULUS, TWIST_PROFILE, t1 + t2)
    assert np.abs(f1.apply(f2.apply(TWIST_POINTS)) - f12.apply(TWIST_POINTS)).max() <= 1e-11


@st.composite
def simple_graphs(draw, max_vertices):
    n = draw(st.integers(1, max_vertices))
    names = [f"v{i}" for i in range(n)]
    pairs = list(itertools.combinations(names, 2))
    edges = [p for p, keep in zip(pairs, draw(st.lists(st.booleans(), min_size=len(pairs),
                                                     max_size=len(pairs)))) if keep]
    return SimplicialGraph(names, edges)


@st.composite
def graph_words(draw, max_letters=7):
    g = draw(simple_graphs(5))
    letters = st.tuples(st.sampled_from(g.vertices), st.sampled_from((1, -1)))
    return Word(g, draw(st.lists(letters, max_size=max_letters)))


@st.composite
def word_pairs(draw):
    """Two words over one graph, the second often a copy of the first."""
    w1 = draw(graph_words())
    letters = st.tuples(st.sampled_from(w1.graph.vertices), st.sampled_from((1, -1)))
    second = draw(st.one_of(st.just(list(w1.letters)), st.lists(letters, max_size=7)))
    return w1, Word(w1.graph, second)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(word_pairs())
def test_word_pair_view_round_trips(pair):
    w1, w2 = pair
    g = w1.graph
    twin = SimplicialGraph(list(g.vertices), g.edges)  # an equal graph, another object
    for w in pair:
        assert Word(g, w.letters) == w and Word(twin, w.letters) == w
        assert word_from_tokens(g, w.tokens()) == w
        assert w.inverse().letters == tuple((v, -e) for v, e in reversed(w.letters))
    assert (w1 * w2).letters == w1.letters + w2.letters
    assert (w1 == w2) == (w1.letters == w2.letters)
    if w1 == w2:
        assert hash(w1) == hash(w2) == hash(Word(twin, w1.letters))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(graph_words())
def test_piling_normal_form_matches_closure(w):
    assert normal_form(w).word == normal_form_closure(w).word


@settings(max_examples=80, deadline=None, derandomize=True)
@given(graph_words(max_letters=24))
def test_prefixes_of_a_normal_form_are_normal_forms(w):
    """The law enumeration by extension relies on: every prefix of a
    shortlex-least geodesic is the shortlex-least geodesic of its element."""
    letters = normal_form(w).word.letters
    for k in range(len(letters) + 1):
        prefix = Word(w.graph, letters[:k])
        assert normal_form(prefix).word == prefix


@FEW
@given(simple_graphs(9))
def test_components_partition_like_networkx(g):
    comps = g.components()
    assert sorted(map(set, comps), key=sorted) == sorted(
        ({g.vertices[i] for i in c} for c in nx.connected_components(g.to_networkx())),
        key=sorted,
    )
    assert all(c == sorted(c, key=g.index) for c in comps)
    assert [c[0] for c in comps] == sorted((c[0] for c in comps), key=g.index)
    assert g.is_connected() == (len(comps) <= 1)


def retest_layout(g):
    """Each component planarity-tested and drawn on its own, side by side."""
    positions, offset = {}, 0.0
    for comp in g.components():
        idx = [g.index(v) for v in comp]
        sub = nx.Graph()
        sub.add_nodes_from(idx)
        sub.add_edges_from((g.index(u), g.index(v)) for u, v in g.sorted_edges() if u in comp)
        if len(idx) == 1:
            pos = {idx[0]: (0.0, 0.0)}
        else:
            is_planar, cert = nx.check_planarity(sub)
            assert is_planar
            pos = nx.combinatorial_embedding_to_pos(cert, fully_triangulate=False)
        xs = [float(x) for x, _ in pos.values()]
        for i, (x, y) in pos.items():
            positions[g.vertices[i]] = (float(x) - min(xs) + offset, float(y))
        offset += max(xs) - min(xs) + 2.0
    return positions


@settings(max_examples=80, deadline=None, derandomize=True)
@given(simple_graphs(9))
# the component {v1, v4, v8} is listed 8, 1, 4 by a networkx subgraph view
@example(SimplicialGraph([f"v{i}" for i in range(9)], [("v0", "v7"), ("v1", "v8"), ("v4", "v8")]))
def test_one_certificate_layout_matches_per_component_retest(g):
    emb = planarity(g)
    if isinstance(emb, PlanarEmbedding):
        assert emb.positions == retest_layout(g)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(simple_graphs(9))
def test_packing_is_tangent_and_separated(g):
    """Every component of a planar graph packs: adjacent circles tangent to
    PACKING_TOL, all other pairs strictly apart, in fewer than MAX_SWEEPS."""
    emb = planarity(g)
    if not isinstance(emb, PlanarEmbedding):
        return
    for comp in g.components():
        circles, record = _pack_component(g, comp, emb.positions)
        assert record["size"] == len(comp) == len(circles)
        assert type(record["sweeps"]) is int and record["sweeps"] < MAX_SWEEPS
        for u, v in itertools.combinations(comp, 2):
            (cu, ru), (cv, rv) = circles[u], circles[v]
            d = float(np.hypot(*(cu - cv)))
            if g.has_edge(u, v):
                assert abs(d - ru - rv) <= PACKING_TOL
            else:
                assert d > ru + rv


@settings(max_examples=80, deadline=None, derandomize=True)
@given(simple_graphs(9))
def test_inflation_matches_bisection(g):
    """The closed-form delta is within 5e-9 of the 60-step bisection, whose
    pairwise and triple-disk test accepts it."""
    emb = planarity(g)
    if not isinstance(emb, PlanarEmbedding):
        return
    c, r, _ = _plane_packing(g, emb.positions)
    packed = {v: (c[i], float(r[i])) for i, v in enumerate(g.vertices)}
    delta = _inflate(g, c, r)[0]
    assert abs(delta - bisect_delta(g, packed)) <= 5e-9
    assert inflation_valid(g, packed, delta, gap_floor(g, packed))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(simple_graphs(9))
def test_punctures_avoid_the_annuli(g):
    """Region points lie in no annulus, with the recorded positive
    clearance, no more components than the Euler count of faces, each P_v
    lies on C_v outside every other annulus, and the overlap probes of
    every ordered edge (u, v) lie in A(u) and A(v), off C_u and C_v."""
    emb = planarity(g)
    if not isinstance(emb, PlanarEmbedding):
        return
    cfg = build_configuration(emb)
    info = cfg.provenance["components"]
    assert info["least_clearance"] > 0.0
    assert info["n_free"] == len(cfg.region_points) <= info["n_faces"]
    regions = np.concatenate(cfg.region_points + [cfg.far_point[None]])
    for v, P in cfg.punctures_on_circles.items():
        assert not cfg.annuli[v].contains(regions).any()
        c, r = cfg.centers[v], cfg.radii[v]
        assert np.abs(np.hypot(*(P - c).T) - r).max() <= 1e-12 * r
        assert not any(cfg.annuli[u].contains(P).any() for u in g.vertices if u != v)
    for x, y in g.sorted_edges():
        for u, v in ((x, y), (y, x)):
            probes = cfg.overlap_points(u, v)
            assert len(probes) == 4
            assert cfg.annuli[u].contains(probes).all() and cfg.annuli[v].contains(probes).all()
            for s in (u, v):  # off the circle beyond rounding; widths go down to ~1e-9
                off = np.abs(np.hypot(*(probes - cfg.centers[s]).T) - cfg.radii[s])
                assert off.min() > 1e-12 * cfg.radii[s]


@FEW
@given(simple_graphs(9))
def test_only_neighbours_meet_an_annulus(g):
    """No annulus but those of v's neighbours holds a point of A(v),
    its boundary circles included (the word kernel tracks only those)."""
    emb = planarity(g)
    if isinstance(emb, PlanarEmbedding):
        assert non_neighbour_hits(build_configuration(emb)) == []


C4_VERTICES = list("wxyz")
c4_letters = st.tuples(st.sampled_from(C4_VERTICES), st.sampled_from([1, -1]))
unit = st.floats(0.0, 1.0)
# a point of the box around the annuli, or a point on the circle of radius
# r_inner or r_outer (rounded down, exact, rounded up) of one annulus
point_specs = st.one_of(
    st.tuples(st.just("box"), unit, unit),
    st.tuples(st.integers(0, 3), angles, st.integers(0, 5)),
)


@FEW
@given(st.lists(c4_letters, max_size=24), st.lists(point_specs, min_size=1, max_size=24))
def test_closed_route_matches_letter_fold(c4_rep, letters, specs):
    annuli = [c4_rep.config.annuli[v] for v in C4_VERTICES]
    centers = np.array([a.center for a in annuli])
    outer = np.array([a.r_outer for a in annuli])[:, None]
    lo, hi = (centers - outer).min(0) - 1.0, (centers + outer).max(0) + 1.0
    pts = []
    for spec in specs:
        if spec[0] == "box":
            pts.append(lo + (hi - lo) * np.array(spec[1:]))
            continue
        ann, theta, k = annuli[spec[0]], spec[1], spec[2]
        r = (ann.r_inner, ann.r_outer)[k // 3]
        r = (np.nextafter(r, 0.0), r, np.nextafter(r, np.inf))[k % 3]
        pts.append(np.asarray(ann.center) + r * np.array([math.cos(theta), math.sin(theta)]))
    pts = np.array(pts)
    w = Word(c4_rep.word_graph, letters)
    assert np.array_equal(rep_apply(c4_rep, w, pts), reference_fold(c4_rep, w, pts))
