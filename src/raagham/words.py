"""Group words over an Artin graph, normal forms and the word problem.

Convention used throughout: two generators commute exactly when their
vertices are NOT adjacent in the Artin graph.  An edge therefore records an
obstruction to commuting, the reverse of the common convention for
right-angled Artin groups.

``normal_form``, an O(L (log n + degree)) piling pass producing the canonical
(shortlex-least geodesic) representative, decides the word problem: two
words are equal exactly when their normal forms are.  ``oracle_equal``, an
exhaustive search over the shuffle/cancellation closure, slow but
transparently complete, is kept as the test oracle the normal form is
checked against; nothing in the package decides equality with it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from heapq import heappop, heappush
from typing import Mapping, Sequence

from .graphs import GraphMorphism, SimplicialGraph, Violation, check_orbicover, double

# the most words the test oracle's closure search may visit
DEFAULT_CLOSURE_CAP = 1_000_000


class ResourceCapExceeded(RuntimeError):
    """A search hit its size cap; the answer is unknown."""


class Word:
    """A signed generator sequence over a fixed Artin graph.

    A word is stored as one tuple of letter ids: letter (v, e) has id
    2 * graph.index(v) + (0 if e == +1 else 1), so the inverse letter is
    id ^ 1 and shortlex order on ids is the vertex order with g_v before
    g_v^-1.  The (vertex, exponent) pairs are validated once, where they
    enter (this constructor); ``letters`` is the derived pair view for I/O.
    """

    __slots__ = ("graph", "_ids")

    def __init__(self, graph: SimplicialGraph, letters: Sequence[tuple]):
        letter_id = _alphabet(graph)[2]
        ids = []
        for v, e in letters:
            i = letter_id.get((v, e))
            if i is None:
                if not graph.has_vertex(v):
                    raise ValueError(f"letter references unknown vertex {v!r}")
                raise ValueError(f"exponent must be +1 or -1, got {e}")
            ids.append(i)
        self.graph = graph
        self._ids = tuple(ids)

    @classmethod
    def _trusted(cls, graph: SimplicialGraph, ids: tuple) -> "Word":
        """A word from letter ids already known to be valid; no validation."""
        w = object.__new__(cls)
        w.graph, w._ids = graph, ids
        return w

    @property
    def letters(self) -> tuple:
        return tuple(map(_alphabet(self.graph)[3].__getitem__, self._ids))

    def __len__(self):
        return len(self._ids)

    def __eq__(self, other):
        # ids agree across equal graphs: equality compares the ordered vertices
        return (
            isinstance(other, Word)
            and self.graph == other.graph
            and self._ids == other._ids
        )

    def __hash__(self):
        return hash((self.graph, self._ids))

    def __mul__(self, other: "Word") -> "Word":
        if self.graph != other.graph:
            raise ValueError("words over different graphs")
        return Word._trusted(self.graph, self._ids + other._ids)

    def inverse(self) -> "Word":
        return Word._trusted(self.graph, tuple(i ^ 1 for i in reversed(self._ids)))

    def tokens(self) -> list:
        return [f"{v}" if e == 1 else f"{v}^-1" for v, e in self.letters]

    def __repr__(self):
        return "Word(" + (" ".join(self.tokens()) or "1") + ")"


def word_from_tokens(graph: SimplicialGraph, tokens: Sequence[str]) -> Word:
    """Parse whitespace-split tokens of the form ``v`` or ``v^-1``."""
    letters = []
    for tok in tokens:
        if tok.endswith("^-1"):
            letters.append((tok[:-3], -1))
        elif tok.endswith("^1"):
            letters.append((tok[:-2], 1))
        else:
            letters.append((tok, 1))
    return Word(graph, letters)


def empty_word(graph: SimplicialGraph) -> Word:
    return Word(graph, ())


def generator(graph: SimplicialGraph, v, exponent: int = 1) -> Word:
    return Word(graph, ((v, exponent),))


def commutator(w1: Word, w2: Word) -> Word:
    return w1 * w2 * w1.inverse() * w2.inverse()


# ------------------------- commutation tables -----------------------------


@lru_cache(maxsize=256)
def _alphabet(graph: SimplicialGraph):
    """Neighbour indices per vertex, commute[a][b] for letter ids a, b, and
    the (vertex, exponent) -> id map with its inverse, the id -> pair tuple."""
    neighbors = tuple(
        tuple(sorted(graph.index(u) for u in graph.neighbors(v))) for v in graph.vertices
    )
    letter = tuple((v, e) for v in graph.vertices for e in (1, -1))
    ids = range(len(letter))
    commute = tuple(
        tuple(a >> 1 != b >> 1 and b >> 1 not in neighbors[a >> 1] for b in ids) for a in ids
    )
    return neighbors, commute, {x: i for i, x in enumerate(letter)}, letter


# -------------------------- fast route: piling -----------------------------


def _normal_ids(neighbors: tuple, ids: Sequence[int]) -> tuple:
    """Letter ids of the shortlex-least geodesic of the word ``ids``.

    Cartier-Foata piling: each letter goes on its generator's pile, with a
    -1 marker on each non-commuting generator's pile, and cancels against
    its own pile's top when nothing non-commuting intervened.  Reading back
    off emits the least ready vertex (pile head a letter) and advances its
    head and its neighbours'.  Ready vertices sit in a heap: adjacent ones
    are never ready together, so no entry goes stale, and only the emitted
    vertex and its neighbours can become ready.  O(L (log n + degree)).
    """
    piles = [[] for _ in neighbors]
    for lid in ids:
        v = lid >> 1
        if piles[v] and piles[v][-1] == lid ^ 1:
            piles[v].pop()
            for u in neighbors[v]:
                piles[u].pop()
        else:
            piles[v].append(lid)
            for u in neighbors[v]:
                piles[u].append(-1)
    # a -1 sentinel ends every pile, so "head is a letter" is one comparison
    piles = [p + [-1] for p in piles]
    heads = [0] * len(piles)
    heap = [v for v, p in enumerate(piles) if p[0] >= 0]
    out = []
    while heap:
        v = heappop(heap)
        k = heads[v]
        out.append(piles[v][k])
        heads[v] = k + 1
        if piles[v][k + 1] >= 0:
            heappush(heap, v)
        for u in neighbors[v]:
            k = heads[u] + 1
            heads[u] = k
            if piles[u][k] >= 0:
                heappush(heap, u)
    if heads != [len(p) - 1 for p in piles]:  # pragma: no cover
        raise AssertionError("inconsistent piling")
    return tuple(out)


@dataclass(frozen=True)
class NormalForm:
    word: Word

    def __len__(self):
        return len(self.word)


def normal_form(w: Word) -> NormalForm:
    """Canonical representative: shortlex-least geodesic of w's element."""
    return NormalForm(word=Word._trusted(w.graph, _normal_ids(_alphabet(w.graph)[0], w._ids)))


def geodesic_length(w: Word) -> int:
    return len(normal_form(w).word)


def enumerate_normal_forms(graph: SimplicialGraph, max_len: int):
    """Yield the canonical normal forms of length <= max_len in shortlex order.

    Every prefix of a shortlex-least geodesic is one itself, so the forms
    of length L are the forms of length L - 1 extended by each letter that
    leaves them fixed under the piling pass.
    """
    if max_len < 0:
        raise ValueError(f"max_len={max_len} must be at least 0")
    neighbors = _alphabet(graph)[0]
    letters = range(2 * len(neighbors))
    level = [()]
    for length in range(max_len + 1):
        if length:
            extended = (ids + (a,) for ids in level for a in letters)
            level = [e for e in extended if _normal_ids(neighbors, e) == e]
        yield from (Word._trusted(graph, ids) for ids in level)


# --------------------- slow route: closure search ---------------------------


def is_trivial(w: Word) -> bool:
    """Exhaustive shuffle/cancel search for the empty word.

    Shuffles preserve length and cancellations shorten, so the reachable set
    is finite; w represents the identity iff the empty word is reachable.
    Explores short words first so trivial inputs resolve quickly, and raises
    ResourceCapExceeded past DEFAULT_CLOSURE_CAP words.
    """
    commute = _alphabet(w.graph)[1]
    seen = {w._ids}
    heap = [(len(w._ids), w._ids)]
    while heap:
        _, cur = heappop(heap)
        if not cur:
            return True
        nexts = []
        for i in range(len(cur) - 1):
            a, b = cur[i], cur[i + 1]
            if a ^ 1 == b:
                nexts.append(cur[:i] + cur[i + 2 :])
            if commute[a][b]:
                nexts.append(cur[:i] + (b, a) + cur[i + 2 :])
        for nxt in nexts:
            if nxt not in seen:
                if len(seen) >= DEFAULT_CLOSURE_CAP:
                    raise ResourceCapExceeded(
                        f"word-problem search exceeded {DEFAULT_CLOSURE_CAP} words"
                    )
                seen.add(nxt)
                if not nxt:
                    return True
                heappush(heap, (len(nxt), nxt))
    return False


def oracle_equal(w1: Word, w2: Word) -> bool:
    """Decide w1 = w2 in the group by closure search on w1 * w2^-1.

    The test oracle for ``normal_form``: slow past a few letters, and it
    raises ResourceCapExceeded past DEFAULT_CLOSURE_CAP words.  Compare
    normal forms to decide equality.
    """
    if w1.graph != w2.graph:
        raise ValueError("words over different graphs")
    return is_trivial(w1 * w2.inverse())


# ----------------------------- homomorphisms -------------------------------


@dataclass(frozen=True)
class Homomorphism:
    """Generator-image map between Artin groups, applied letterwise."""

    source: SimplicialGraph
    target: SimplicialGraph
    images: Mapping

    def __post_init__(self):
        # hom_apply reads image letter ids in the target's vertex order
        if any(img.graph != self.target for img in self.images.values()):
            raise ValueError("generator images must be words over the target graph")


def hom_apply(h: Homomorphism, w: Word) -> Word:
    if w.graph != h.source:
        raise ValueError("word is not over the homomorphism's source graph")
    # letter id -> image ids: g_v's image, then its inverse
    table = [x._ids for v in h.source.vertices for x in (h.images[v], h.images[v].inverse())]
    return Word._trusted(h.target, tuple(j for i in w._ids for j in table[i]))


def check_well_defined(h: Homomorphism) -> bool:
    """Images of commuting generators must commute in the target (by normal form)."""
    verts = h.source.vertices
    for u, v in itertools.combinations(verts, 2):
        if not h.source.has_edge(u, v):
            a, b = h.images[u], h.images[v]
            if normal_form(a * b) != normal_form(b * a):
                return False
    return True


def hom_diagonal(graph: SimplicialGraph) -> Homomorphism:
    """g_v -> g_{v+} g_{v-} into the group of the doubled graph."""
    dg = double(graph)
    images = {v: Word(dg, (((v, +1), 1), ((v, -1), 1))) for v in graph.vertices}
    h = Homomorphism(source=graph, target=dg, images=images)
    if not check_well_defined(h):
        raise RuntimeError("diagonal images of commuting generators do not commute")
    return h


def hom_retraction(graph: SimplicialGraph) -> Homomorphism:
    """g_{v+} -> g_v and g_{v-} -> 1; left inverse of the diagonal."""
    dg = double(graph)
    images = {}
    for v, s in dg.vertices:
        images[(v, s)] = generator(graph, v) if s == +1 else empty_word(graph)
    return Homomorphism(source=dg, target=graph, images=images)


def hom_pullback(p: GraphMorphism) -> Homomorphism:
    """g_v -> product of the fiber generators over v, in cover vertex order.

    Requires p to be a certified orbi-cover; fibers over a vertex are never
    joined by an edge upstairs, so the product order does not change the
    element (checked below).
    """
    cert = check_orbicover(p)
    if isinstance(cert, Violation):
        raise ValueError(f"not an orbi-cover: {cert}")
    cover, base = p.source, p.target
    images = {}
    for v in base.vertices:
        fiber = sorted(
            (x for x in cover.vertices if p.vertex_map[x] == v), key=cover.index
        )
        images[v] = Word(cover, tuple((x, 1) for x in fiber))
    h = Homomorphism(source=base, target=cover, images=images)
    for v in base.vertices:
        fiber = images[v].letters
        for (x, _), (y, _) in itertools.combinations(fiber, 2):
            if cover.has_edge(x, y):
                raise RuntimeError(f"fiber vertices {x!r} and {y!r} joined by an edge")
    if not check_well_defined(h):
        raise RuntimeError("pulled-back images of commuting generators do not commute")
    return h


def check_no_cancellation(h: Homomorphism, w: Word) -> bool:
    """Length additivity of h on a normal form w.

    True iff every letter of w has a nonempty image and the image's geodesic
    length equals the sum of the generator image lengths, i.e. nothing
    cancels while reducing h(w); maps that kill a used generator fail.
    """
    if any(len(h.images[v]) == 0 for v, _ in w.letters):
        return False
    expected = sum(len(h.images[v]) for v, _ in w.letters)
    return geodesic_length(hom_apply(h, w)) == expected
