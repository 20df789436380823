"""Finite simplicial graphs, doubles, orbi-covers and planar emulators.

A graph here is always simplicial: no loops, no repeated edges.  Vertex
identifiers are arbitrary hashable objects (strings in practice); the order in
which vertices are listed at construction time is fixed forever and is what
the word machinery uses to break ties.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Iterable, Mapping, Optional, Sequence

import numpy as np

if TYPE_CHECKING:
    import networkx as nx

VertexId = Hashable


class SimplicialGraph:
    """Immutable finite graph with no loops and no bigons."""

    def __init__(self, vertices: Sequence[VertexId], edges: Iterable[tuple]):
        self._vertices = tuple(vertices)
        if len(set(self._vertices)) != len(self._vertices):
            raise ValueError("duplicate vertex names")
        self._index = {v: i for i, v in enumerate(self._vertices)}
        edge_set = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop edge at {u!r}")
            if u not in self._index or v not in self._index:
                raise ValueError(f"edge ({u!r},{v!r}) references unknown vertex")
            edge_set.add(frozenset((u, v)))
        self._edges = frozenset(edge_set)
        # immutable, so hashed once: every letter table lookup and word hash uses it
        self._hash = hash((self._vertices, self._edges))
        self._adj = {v: set() for v in self._vertices}
        for e in self._edges:
            u, v = tuple(e)
            self._adj[u].add(v)
            self._adj[v].add(u)

    @property
    def vertices(self) -> tuple:
        return self._vertices

    @property
    def edges(self) -> frozenset:
        return self._edges

    def index(self, v: VertexId) -> int:
        return self._index[v]

    def has_vertex(self, v) -> bool:
        return v in self._index

    def has_edge(self, u, v) -> bool:
        return frozenset((u, v)) in self._edges

    def neighbors(self, v) -> set:
        return set(self._adj[v])

    def degree(self, v) -> int:
        return len(self._adj[v])

    def sorted_edges(self) -> list:
        """Edges as (u, v) pairs with u before v in vertex order, sorted."""
        out = []
        for e in self._edges:
            u, v = sorted(e, key=self._index.__getitem__)
            out.append((u, v))
        out.sort(key=lambda p: (self._index[p[0]], self._index[p[1]]))
        return out

    def components(self) -> list:
        """Connected components, each in vertex order, ordered by first vertex."""
        out, seen = [], set()
        for v in self._vertices:
            if v in seen:
                continue
            seen.add(v)
            comp, stack = [v], [v]
            while stack:
                for w in self._adj[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        comp.append(w)
                        stack.append(w)
            out.append(sorted(comp, key=self._index.__getitem__))
        return out

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def to_networkx(self) -> nx.Graph:
        """Node i is vertices[i]: integer labels keep networkx traversals
        independent of the hash seed, which artifact byte-determinism needs."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(len(self._vertices)))
        g.add_edges_from((self._index[u], self._index[v]) for u, v in self.sorted_edges())
        return g

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialGraph)
            and self._vertices == other._vertices
            and self._edges == other._edges
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"SimplicialGraph({len(self._vertices)} vertices, {len(self._edges)} edges)"


def complete_graph(names: Sequence[VertexId]) -> SimplicialGraph:
    return SimplicialGraph(names, itertools.combinations(names, 2))


def path_graph(names: Sequence[VertexId]) -> SimplicialGraph:
    return SimplicialGraph(names, zip(names, names[1:]))


def cycle_graph(names: Sequence[VertexId]) -> SimplicialGraph:
    edges = list(zip(names, names[1:])) + [(names[-1], names[0])]
    return SimplicialGraph(names, edges)


@dataclass(frozen=True)
class GraphMorphism:
    """Vertex map between graphs; validity is checked, not assumed."""

    source: SimplicialGraph
    target: SimplicialGraph
    vertex_map: Mapping[VertexId, VertexId]

    def morphism_defect(self) -> Optional[frozenset]:
        """First source edge that fails to map homeomorphically onto a target edge."""
        for e in sorted(self.source.sorted_edges()):
            fu, fv = self.vertex_map[e[0]], self.vertex_map[e[1]]
            if fu == fv or not self.target.has_edge(fu, fv):
                return frozenset(e)
        for v in self.source.vertices:
            if not self.target.has_vertex(self.vertex_map[v]):
                return frozenset((v,))
        return None


@dataclass(frozen=True)
class OrbicoverCertificate:
    morphism: GraphMorphism
    fiber_sizes: Mapping[VertexId, int]


@dataclass(frozen=True)
class Violation:
    """Why a morphism is not an orbi-cover.

    kind is 'malformed' (an edge collapses or lands on a non-edge) or
    'local-surjectivity' (target edge at vertex has no lift at witness).
    """

    kind: str
    vertex: Optional[VertexId] = None
    edge: Optional[frozenset] = None


def double(g: SimplicialGraph) -> SimplicialGraph:
    """Two copies of g plus cross edges over every original edge.

    Vertex v becomes (v, +1) and (v, -1), ordered with the +1 copy first so
    the vertex order lifts the order of g lexicographically.
    """
    verts = []
    for v in g.vertices:
        verts.append((v, +1))
        verts.append((v, -1))
    edges = []
    for u, v in g.sorted_edges():
        edges.append(((u, +1), (v, +1)))
        edges.append(((u, -1), (v, -1)))
        edges.append(((u, +1), (v, -1)))
        edges.append(((u, -1), (v, +1)))
    return SimplicialGraph(verts, edges)


def double_projection(g: SimplicialGraph) -> GraphMorphism:
    """The natural 2-fold orbi-cover Dg -> g."""
    dg = double(g)
    return GraphMorphism(dg, g, {(v, s): v for (v, s) in dg.vertices})


def check_orbicover(m: GraphMorphism):
    """Certify local surjectivity of a graph morphism.

    Returns an OrbicoverCertificate, or a Violation naming the first witness.
    A malformed morphism (edge collapsed or sent to a non-edge) is reported as
    its own Violation kind, distinct from a local-surjectivity failure.
    """
    bad = m.morphism_defect()
    if bad is not None:
        return Violation(kind="malformed", edge=bad)
    for x in m.source.vertices:
        fx = m.vertex_map[x]
        lifted = {m.vertex_map[y] for y in m.source.neighbors(x)}
        for w in sorted(m.target.neighbors(fx), key=m.target.index):
            if w not in lifted:
                return Violation(
                    kind="local-surjectivity", vertex=x, edge=frozenset((fx, w))
                )
    fibers = {v: 0 for v in m.target.vertices}
    for x in m.source.vertices:
        fibers[m.vertex_map[x]] += 1
    return OrbicoverCertificate(morphism=m, fiber_sizes=fibers)


@dataclass(frozen=True)
class PlanarEmbedding:
    """Straight-line drawing; positions maps vertex -> (x, y)."""

    graph: SimplicialGraph
    positions: Mapping[VertexId, tuple]


@dataclass(frozen=True)
class NonplanarWitness:
    """kind is 'edge-bound' (e > 3v - 6) or 'kuratowski' (a forbidden subdivision)."""

    kind: str
    detail: str
    subgraph_edges: frozenset = frozenset()


def _segments_cross(p1, p2, p3, p4):
    """Closed segments p1p2 and p3p4 intersect somewhere off shared endpoints."""
    eps = 1e-12  # orientations this small count as collinear

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    shared = {tuple(p1), tuple(p2)} & {tuple(p3), tuple(p4)}
    if shared:
        # Segments sharing an endpoint only collide if one overlaps the other.
        others = [q for q in (p1, p2, p3, p4) if tuple(q) not in shared]
        a = shared.pop()
        for q, r in itertools.permutations(others, 2):
            if abs(orient(a, q, r)) < eps:
                # collinear: overlap iff r lies between a and q
                lo, hi = sorted((a, tuple(q)))
                if lo <= tuple(r) <= hi and tuple(r) not in (lo, hi):
                    return True
        return False
    d1 = orient(p3, p4, p1)
    d2 = orient(p3, p4, p2)
    d3 = orient(p1, p2, p3)
    d4 = orient(p1, p2, p4)
    if ((d1 > eps and d2 < -eps) or (d1 < -eps and d2 > eps)) and (
        (d3 > eps and d4 < -eps) or (d3 < -eps and d4 > eps)
    ):
        return True

    def on_segment(a, b, c):
        return (
            abs(orient(a, b, c)) < eps
            and min(a[0], b[0]) - eps <= c[0] <= max(a[0], b[0]) + eps
            and min(a[1], b[1]) - eps <= c[1] <= max(a[1], b[1]) + eps
        )

    return (
        on_segment(p3, p4, p1)
        or on_segment(p3, p4, p2)
        or on_segment(p1, p2, p3)
        or on_segment(p1, p2, p4)
    )


def validate_embedding(emb: PlanarEmbedding) -> bool:
    """Independent geometric check: no two closed edge segments cross."""
    segs = []
    for u, v in emb.graph.sorted_edges():
        segs.append((tuple(emb.positions[u]), tuple(emb.positions[v])))
    for (a, b), (c, d) in itertools.combinations(segs, 2):
        if _segments_cross(a, b, c, d):
            return False
    # no vertex may sit in the interior of a foreign edge
    for v in emb.graph.vertices:
        p = tuple(emb.positions[v])
        for u, w in emb.graph.sorted_edges():
            if v in (u, w):
                continue
            a, b = tuple(emb.positions[u]), tuple(emb.positions[w])
            if _segments_cross(a, b, p, p):
                return False
    return True


def _layout_component(cert: nx.PlanarEmbedding, nodes: list) -> dict:
    """Straight-line positions of one component from the whole-graph certificate.

    A component's rotation system is the restriction of the certificate to
    it; a connected component with no edges has one vertex.
    """
    if len(nodes) == 1:
        return {nodes[0]: (0.0, 0.0)}
    import networkx as nx

    # rebuilt in vertex order: a subgraph view would list the nodes in set order
    restricted = nx.PlanarEmbedding({v: cert.adj[v] for v in nodes})
    pos = nx.combinatorial_embedding_to_pos(restricted, fully_triangulate=False)
    return {v: (float(x), float(y)) for v, (x, y) in pos.items()}


def _euler_refutes(g: SimplicialGraph) -> bool:
    """Exact Euler-count refutation: True only when connected g is nonplanar.

    False decides nothing.  For a connected simple plane graph with v >= 3,
    Euler's formula and Σ_faces L = 2e, L the length of a face's boundary
    walk, give 3v - 6 - e = Σ_faces (L - 3).  When v >= 4, an edge with
    triangular faces on both sides lies in two distinct triangles: two
    faces bounded by one triangle would make the triangle the whole graph.
    So each edge lying in fewer than two triangles puts a side on a face
    with L >= 4; such a face has at most L sides and L <= 4(L - 3), hence
    #(those edges) <= 4(3v - 6 - e) whenever g is planar.
    """
    nv, ne = len(g.vertices), len(g.edges)
    if nv < 4:
        return False
    budget = 4 * (3 * nv - 6 - ne)
    for e in g.edges:
        u, v = tuple(e)
        if len(g._adj[u] & g._adj[v]) < 2:
            budget -= 1
            if budget < 0:
                return True
    return budget < 0


def planarity(g: SimplicialGraph):
    """Planarity test with a drawing or a refutation.

    A planar graph gets a straight-line PlanarEmbedding, each component laid
    out side by side from the rotation system of one ``nx.check_planarity``
    certificate and validated against the segment-intersection checker; a
    nonplanar one gets a NonplanarWitness: the cheap e > 3v - 6 count when
    it applies, otherwise a Kuratowski subgraph found by the library test,
    named K5 when its branch vertices have degree 4 and K3,3 when 3.
    A yes/no caller should use ``nx.check_planarity`` alone: the witness
    costs a planarity test per edge, and the drawing a layout.
    """
    nv, ne = len(g.vertices), len(g.edges)
    if nv >= 3 and ne > 3 * nv - 6:
        return NonplanarWitness(
            kind="edge-bound", detail=f"e={ne} > 3v-6={3 * nv - 6}"
        )
    import networkx as nx

    is_planar, cert = nx.check_planarity(g.to_networkx(), counterexample=True)
    if not is_planar:
        sub = frozenset(
            frozenset((g.vertices[a], g.vertices[b])) for a, b in cert.edges()
        )
        # subdivision vertices have degree 2; branch vertices 4 (K5) or 3 (K3,3)
        kind = "K5" if max(d for _, d in cert.degree()) >= 4 else "K3,3"
        return NonplanarWitness(
            kind="kuratowski",
            detail=f"{kind} subdivision on {cert.number_of_nodes()} vertices",
            subgraph_edges=sub,
        )
    positions = {}
    offset = 0.0
    for comp in g.components():
        sub = _layout_component(cert, [g.index(v) for v in comp])
        xs = [p[0] for p in sub.values()]
        for i, (x, y) in sub.items():
            positions[g.vertices[i]] = (x - min(xs) + offset, y)
        offset += max(xs) - min(xs) + 2.0
    emb = PlanarEmbedding(g, positions)
    if not validate_embedding(emb):
        raise RuntimeError("planar layout failed geometric validation")
    return emb


@dataclass(frozen=True)
class VoltageAssignment:
    """Cyclic voltages on the edges of a base graph.

    Each base edge (taken in vertex order u < v) carries an element of Z/k;
    the derived graph has vertex fibers v x Z/k and edges
    {(u, i), (v, i + voltage)}.
    """

    base: SimplicialGraph
    group_order: int
    voltages: tuple  # aligned with base.sorted_edges()

    def derived_graph(self) -> SimplicialGraph:
        k = self.group_order
        verts = [(v, i) for v in self.base.vertices for i in range(k)]
        edges = []
        for (u, v), a in zip(self.base.sorted_edges(), self.voltages):
            for i in range(k):
                edges.append(((u, i), (v, (i + a) % k)))
        return SimplicialGraph(verts, edges)

    def projection(self, derived: SimplicialGraph) -> GraphMorphism:
        return GraphMorphism(derived, self.base, {(v, i): v for (v, i) in derived.vertices})


@dataclass(frozen=True)
class EmulatorResult:
    cover: SimplicialGraph
    projection: GraphMorphism
    embedding: PlanarEmbedding
    voltage: VoltageAssignment


@dataclass(frozen=True)
class NotFound:
    exhausted: bool
    tried: int
    reason: str


# find_planar_emulator: the most voltage assignments it tries before giving up
EMULATOR_ASSIGNMENT_CAP = 500_000


def find_planar_emulator(g: SimplicialGraph, max_sheets: int, allow_trivial: bool = True):
    """Search cyclic voltage covers for a planar one.

    Enumerates Z/k voltage assignments, k = 1..max_sheets, in lexicographic
    order and returns the first connected derived graph that is planar,
    together with its certified projection and validated embedding.
    Disconnected derived graphs are skipped, and so are those the exact
    Euler count ``_euler_refutes`` proves nonplanar (K6 at 2 sheets: 230 of
    236 connected candidates).  Each remaining candidate gets a bare yes/no
    ``nx.check_planarity``; only the returned cover is drawn, by
    ``planarity``.  A derived graph whose projection fails the orbi-cover
    check raises RuntimeError.  Returns NotFound when the search space is
    exhausted or EMULATOR_ASSIGNMENT_CAP assignments have been tried;
    neither outcome proves nonexistence.
    """
    if max_sheets < 2:
        raise ValueError("max_sheets must be at least 2")
    import networkx as nx

    nv, ne = len(g.vertices), len(g.edges)
    tried = 0
    k_start = 1 if allow_trivial else 2
    for k in range(k_start, max_sheets + 1):
        # every k-sheet derived graph has exactly k*nv vertices and k*ne edges
        if k * nv >= 3 and k * ne > 3 * k * nv - 6:
            continue
        for voltages in itertools.product(range(k), repeat=ne):
            tried += 1
            if tried > EMULATOR_ASSIGNMENT_CAP:
                return NotFound(exhausted=False, tried=tried - 1, reason="assignment cap")
            va = VoltageAssignment(g, k, voltages)
            cover = va.derived_graph()
            if (
                not cover.is_connected()
                or _euler_refutes(cover)
                or not nx.check_planarity(cover.to_networkx())[0]
            ):
                continue
            proj = va.projection(cover)
            if isinstance(check_orbicover(proj), Violation):
                raise RuntimeError(f"derived graph of voltages {voltages} is not an orbi-cover")
            return EmulatorResult(
                cover=cover, projection=proj, embedding=planarity(cover), voltage=va
            )
    return NotFound(exhausted=True, tried=tried, reason="search space exhausted")


@dataclass(frozen=True)
class NoEmulatorCertificate:
    """Euler-count obstruction: valence >= 6 everywhere forbids planar emulators.

    For any planar graph one may triangulate a drawing and count
    2 = v - e + f <= v - e/3, while valence >= 6 gives 2e >= 6v, i.e.
    v - e/3 <= 0.  Any orbi-cover inherits the valence bound, so no finite
    cover of this graph can be planar.
    """

    min_valence: int
    vertices: int
    edges: int

    def euler_gap(self) -> float:
        # v - e/3 must be >= 2 for a triangulated sphere drawing
        return self.vertices - self.edges / 3.0


@dataclass(frozen=True)
class NotApplicable:
    reason: str


def certificate_no_emulator(g: SimplicialGraph):
    """Emit the minimum-valence-6 obstruction when it applies."""
    if not g.vertices:
        return NotApplicable(reason="empty graph")
    degs = [g.degree(v) for v in g.vertices]
    if min(degs) < 6:
        return NotApplicable(reason=f"minimum valence {min(degs)} < 6")
    cert = NoEmulatorCertificate(
        min_valence=min(degs), vertices=len(g.vertices), edges=len(g.edges)
    )
    if cert.euler_gap() > 0:
        raise RuntimeError("valence-6 certificate with a positive Euler gap")
    return cert


def incidence_nerve(labels: Sequence[VertexId], flags) -> SimplicialGraph:
    """Graph with a vertex per curve and an edge per intersecting pair.

    flags is a square boolean array (or nested lists); it must be symmetric.
    """
    flags = np.asarray(flags, dtype=bool)
    n = len(labels)
    if flags.shape != (n, n):
        raise ValueError("flag matrix shape does not match labels")
    if not np.array_equal(flags, flags.T):
        raise ValueError("intersection flags must be symmetric")
    edges = [
        (labels[i], labels[j]) for i in range(n) for j in range(i + 1, n) if flags[i, j]
    ]
    return SimplicialGraph(labels, edges)
