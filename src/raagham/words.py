"""Group words over an Artin graph, normal forms and the word problem.

Convention used throughout: two generators commute exactly when their
vertices are NOT adjacent in the Artin graph.  An edge therefore records an
obstruction to commuting, the reverse of the common convention for
right-angled Artin groups.

Two independent routes decide the word problem:

* ``normal_form`` - a linear-time piling pass producing the canonical
  (shortlex-least geodesic) representative;
* ``oracle_equal`` - exhaustive search over the shuffle/cancellation closure,
  slow but transparently complete, used as the oracle the fast path is
  checked against.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

from .graphs import GraphMorphism, SimplicialGraph, Violation, check_orbicover, double

DEFAULT_CLOSURE_CAP = 1_000_000


class ResourceCapExceeded(RuntimeError):
    """The shuffle-closure search hit its size cap; the answer is unknown."""


class Word:
    """A signed generator sequence over a fixed Artin graph."""

    __slots__ = ("graph", "letters")

    def __init__(self, graph: SimplicialGraph, letters: Sequence[tuple]):
        self.graph = graph
        lets = tuple((v, int(e)) for v, e in letters)
        for v, e in lets:
            if not graph.has_vertex(v):
                raise ValueError(f"letter references unknown vertex {v!r}")
            if e not in (1, -1):
                raise ValueError(f"exponent must be +1 or -1, got {e}")
        self.letters = lets

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        return (
            isinstance(other, Word)
            and self.graph == other.graph
            and self.letters == other.letters
        )

    def __hash__(self):
        return hash((self.graph, self.letters))

    def __mul__(self, other: "Word") -> "Word":
        if self.graph != other.graph:
            raise ValueError("words over different graphs")
        return Word(self.graph, self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(self.graph, tuple((v, -e) for v, e in reversed(self.letters)))

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


# ---------------------------------------------------------------------------
# integer encoding shared by the fast and slow routes
#
# letter id = 2 * vertex_index + (0 for exponent +1, 1 for -1); the inverse
# letter is id ^ 1 and shortlex order on ids agrees with the vertex order
# with g_v before g_v^-1.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def _alphabet(graph: SimplicialGraph):
    n = len(graph.vertices)
    neighbor_idx = []
    for v in graph.vertices:
        neighbor_idx.append(tuple(sorted(graph.index(u) for u in graph.neighbors(v))))
    commute = [[False] * (2 * n) for _ in range(2 * n)]
    for a in range(2 * n):
        va = a // 2
        for b in range(2 * n):
            vb = b // 2
            commute[a][b] = va != vb and vb not in neighbor_idx[va]
    return tuple(neighbor_idx), tuple(tuple(row) for row in commute)


def _encode(w: Word) -> tuple:
    g = w.graph
    return tuple(2 * g.index(v) + (0 if e == 1 else 1) for v, e in w.letters)


def _decode(graph: SimplicialGraph, ids: Sequence[int]) -> Word:
    return Word(graph, tuple((graph.vertices[i // 2], 1 if i % 2 == 0 else -1) for i in ids))


def inversion_count(w: Word) -> int:
    """Consecutive commuting pairs that are out of order (later vertex first)."""
    count = 0
    g = w.graph
    for (y, _), (x, _) in zip(w.letters, w.letters[1:]):
        if x != y and g.index(y) > g.index(x) and not g.has_edge(x, y):
            count += 1
    return count


# -------------------------- fast route: piling -----------------------------


def _pile(graph: SimplicialGraph, ids: Sequence[int]):
    """Stack letters onto per-generator piles with cancellation.

    pile[v] holds, bottom to top, the letters of generator v interleaved with
    0-markers for letters of non-commuting generators; a letter cancels
    against the top of its own pile when nothing non-commuting intervened.
    """
    neighbor_idx, _ = _alphabet(graph)
    n = len(graph.vertices)
    piles = [[] for _ in range(n)]
    for lid in ids:
        v, sign = lid // 2, 1 - 2 * (lid % 2)
        if piles[v] and piles[v][-1] == -sign:
            piles[v].pop()
            for u in neighbor_idx[v]:
                piles[u].pop()
        else:
            piles[v].append(sign)
            for u in neighbor_idx[v]:
                piles[u].append(0)
    return piles


def _depile(graph: SimplicialGraph, piles) -> tuple:
    """Read the shortlex-least linearization back off the piles."""
    neighbor_idx, _ = _alphabet(graph)
    n = len(graph.vertices)
    heads = [0] * n
    total = sum(1 for p in piles for x in p if x != 0)
    out = []
    while len(out) < total:
        for v in range(n):
            p = piles[v]
            if heads[v] < len(p) and p[heads[v]] != 0:
                sign = p[heads[v]]
                out.append(2 * v + (0 if sign == 1 else 1))
                heads[v] += 1
                for u in neighbor_idx[v]:
                    heads[u] += 1
                break
        else:  # pragma: no cover - piles are always consistent
            raise AssertionError("inconsistent piling")
    return tuple(out)


@dataclass(frozen=True)
class NormalForm:
    word: Word

    def __len__(self):
        return len(self.word)


def normal_form(w: Word) -> NormalForm:
    """Canonical representative: shortlex-least geodesic of w's element."""
    ids = _depile(w.graph, _pile(w.graph, _encode(w)))
    return NormalForm(word=_decode(w.graph, ids))


def geodesic_length(w: Word) -> int:
    return len(normal_form(w).word)


# --------------------- slow route: closure search ---------------------------


def _shuffle_closure_ids(graph, ids, cap):
    _, commute = _alphabet(graph)
    seen = {ids}
    stack = [ids]
    while stack:
        cur = stack.pop()
        for i in range(len(cur) - 1):
            a, b = cur[i], cur[i + 1]
            if commute[a][b]:
                nxt = cur[:i] + (b, a) + cur[i + 2 :]
                if nxt not in seen:
                    if len(seen) >= cap:
                        raise ResourceCapExceeded(f"shuffle closure exceeded {cap} words")
                    seen.add(nxt)
                    stack.append(nxt)
    return seen


def shuffle_closure(w: Word, cap: int = DEFAULT_CLOSURE_CAP):
    """Every word reachable from w by swapping adjacent commuting letters."""
    return {
        _decode(w.graph, ids) for ids in _shuffle_closure_ids(w.graph, _encode(w), cap)
    }


def _first_cancellation(ids):
    for i in range(len(ids) - 1):
        if ids[i] ^ 1 == ids[i + 1]:
            return ids[:i] + ids[i + 2 :]
    return None


def normal_form_closure(w: Word, cap: int = DEFAULT_CLOSURE_CAP) -> NormalForm:
    """Reference normal form by explicit closure search.

    Repeatedly computes the full shuffle closure, cancels the first
    cancelling pair found in any member (scanning members in sorted order for
    determinism) and restarts; once no member cancels, the shortlex-least
    member is the answer.  Exponential in the worst case; the piling route
    must agree with this one.
    """
    current = _encode(w)
    while True:
        closure = _shuffle_closure_ids(w.graph, current, cap)
        reduced = None
        for ids in sorted(closure):
            shorter = _first_cancellation(ids)
            if shorter is not None:
                reduced = shorter
                break
        if reduced is None:
            return NormalForm(word=_decode(w.graph, min(closure)))
        current = reduced


def is_trivial(w: Word, cap: int = DEFAULT_CLOSURE_CAP) -> bool:
    """Exhaustive shuffle/cancel search for the empty word.

    Shuffles preserve length and cancellations shorten, so the reachable set
    is finite; w represents the identity iff the empty word is reachable.
    Explores short words first so trivial inputs resolve quickly.
    """
    _, commute = _alphabet(w.graph)
    start = _encode(w)
    if not start:
        return True
    seen = {start}
    heap = [(len(start), start)]
    while heap:
        _, cur = heapq.heappop(heap)
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
                if len(seen) >= cap:
                    raise ResourceCapExceeded(
                        f"word-problem search exceeded {cap} words"
                    )
                seen.add(nxt)
                if not nxt:
                    return True
                heapq.heappush(heap, (len(nxt), nxt))
    return False


def oracle_equal(w1: Word, w2: Word, cap: int = DEFAULT_CLOSURE_CAP) -> bool:
    """Decide w1 = w2 in the group by closure search on w1 * w2^-1."""
    if w1.graph != w2.graph:
        raise ValueError("words over different graphs")
    return is_trivial(w1 * w2.inverse(), cap=cap)


def enumerate_normal_forms(graph: SimplicialGraph, max_len: int, vertices=None):
    """All canonical normal forms of length <= max_len, in shortlex order."""
    if vertices is None:
        vertices = graph.vertices
    alphabet = [(v, e) for v in vertices for e in (1, -1)]
    out = []
    for length in range(max_len + 1):
        for lets in itertools.product(alphabet, repeat=length):
            w = Word(graph, lets)
            if normal_form(w).word == w:
                out.append(w)
    return out


# ----------------------------- homomorphisms -------------------------------


@dataclass(frozen=True)
class Homomorphism:
    """Generator-image map between Artin groups, applied letterwise."""

    source: SimplicialGraph
    target: SimplicialGraph
    images: Mapping


def hom_apply(h: Homomorphism, w: Word) -> Word:
    if w.graph != h.source:
        raise ValueError("word is not over the homomorphism's source graph")
    letters = []
    for v, e in w.letters:
        img = h.images[v]
        letters.extend(img.letters if e == 1 else img.inverse().letters)
    return Word(h.target, letters)


def check_well_defined(h: Homomorphism, cap: int = DEFAULT_CLOSURE_CAP) -> bool:
    """Images of commuting generators must commute in the target."""
    verts = h.source.vertices
    for u, v in itertools.combinations(verts, 2):
        if not h.source.has_edge(u, v):
            if not oracle_equal(h.images[u] * h.images[v], h.images[v] * h.images[u], cap=cap):
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
    element (checked through the oracle).
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
