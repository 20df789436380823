import itertools

import numpy as np
import pytest

from raagham import words
from raagham.graphs import (
    GraphMorphism,
    SimplicialGraph,
    complete_graph,
    double_projection,
    path_graph,
)
from raagham.words import (
    Homomorphism,
    ResourceCapExceeded,
    Word,
    check_no_cancellation,
    check_well_defined,
    commutator,
    empty_word,
    enumerate_normal_forms,
    generator,
    geodesic_length,
    hom_apply,
    hom_diagonal,
    hom_pullback,
    hom_retraction,
    is_trivial,
    normal_form,
    oracle_equal,
    word_from_tokens,
)
from words_reference import normal_form_closure, shuffle_closure
from test_acceptance import FOUR_VERTEX_GRAPHS

FREE2 = SimplicialGraph(["u", "v"], [("u", "v")])  # edge: no commuting
AB2 = SimplicialGraph(["u", "v"], [])  # non-edge: commuting pair


def random_word(graph, rng, length):
    alphabet = [(v, e) for v in graph.vertices for e in (1, -1)]
    return Word(graph, [alphabet[i] for i in rng.integers(0, len(alphabet), length)])


def test_normal_form_examples():
    assert normal_form(word_from_tokens(AB2, ["v", "u"])).word.tokens() == ["u", "v"]
    assert normal_form(word_from_tokens(FREE2, ["v", "u"])).word.tokens() == ["v", "u"]
    assert len(normal_form(word_from_tokens(FREE2, ["u", "u^-1"])).word) == 0


def test_normal_form_idempotent_and_shorter():
    rng = np.random.default_rng(0)
    g = SimplicialGraph(list("abc"), [("a", "b")])
    for _ in range(300):
        w = random_word(g, rng, int(rng.integers(0, 9)))
        nf = normal_form(w).word
        assert len(nf) <= len(w)
        assert normal_form(nf).word == nf


def test_normal_form_is_shortlex_least_in_closure():
    rng = np.random.default_rng(1)
    g = SimplicialGraph(list("abc"), [("b", "c")])
    for _ in range(100):
        w = random_word(g, rng, 6)
        nf = normal_form(w).word
        closure = shuffle_closure(nf)
        keys = sorted(tuple((x.graph.index(v), (1 - e) // 2) for v, e in x.letters) for x in closure)
        nf_key = tuple((g.index(v), (1 - e) // 2) for v, e in nf.letters)
        assert nf_key == keys[0]


def test_piling_agrees_with_closure_reference():
    g = SimplicialGraph(list("abc"), [("a", "b")])
    alphabet = [(v, e) for v in "abc" for e in (1, -1)]
    for L in range(5):
        for lets in itertools.product(alphabet, repeat=L):
            w = Word(g, lets)
            assert normal_form(w).word == normal_form_closure(w).word


def _pile_reference(graph, ids):
    """Reference piling: pile[v] holds, bottom to top, the letter ids of
    generator v interleaved with -1 markers for letters of non-commuting
    generators; a letter cancels against the top of its own pile when
    nothing non-commuting intervened."""
    neighbor_idx = words._alphabet(graph)[0]
    piles = [[] for _ in neighbor_idx]
    for lid in ids:
        v = lid >> 1
        if piles[v] and piles[v][-1] == lid ^ 1:
            piles[v].pop()
            for u in neighbor_idx[v]:
                piles[u].pop()
        else:
            piles[v].append(lid)
            for u in neighbor_idx[v]:
                piles[u].append(-1)
    return piles


def _depile_scan(graph, piles):
    """Reference depiling: rescan the vertices from index 0 for every output
    letter and emit the first whose pile head is a letter (O(L n))."""
    neighbor_idx = words._alphabet(graph)[0]
    heads = [0] * len(neighbor_idx)
    total = sum(1 for p in piles for x in p if x >= 0)
    out = []
    while len(out) < total:
        for v in range(len(neighbor_idx)):
            p = piles[v]
            if heads[v] < len(p) and p[heads[v]] >= 0:
                out.append(p[heads[v]])
                heads[v] += 1
                for u in neighbor_idx[v]:
                    heads[u] += 1
                break
        else:
            raise AssertionError("inconsistent piling")
    return tuple(out)


def test_heap_depiling_matches_scan_reference():
    rng = np.random.default_rng(17)
    for _ in range(2500):
        n = int(rng.integers(1, 9))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        g = SimplicialGraph(list(range(n)), edges)
        ids = tuple(int(i) for i in rng.integers(0, 2 * n, int(rng.integers(0, 41))))
        expected = _depile_scan(g, _pile_reference(g, ids))
        assert words._normal_ids(words._alphabet(g)[0], ids) == expected


def test_oracle_relator_examples():
    assert oracle_equal(commutator(generator(AB2, "u"), generator(AB2, "v")), empty_word(AB2))
    assert not oracle_equal(commutator(generator(FREE2, "u"), generator(FREE2, "v")), empty_word(FREE2))


def test_oracle_matches_normal_form_on_random_words():
    rng = np.random.default_rng(2)
    g = SimplicialGraph(list("abc"), [("a", "c")])
    for _ in range(200):
        w = random_word(g, rng, int(rng.integers(0, 8)))
        assert oracle_equal(w, normal_form(w).word)


def test_oracle_cap_is_loud(monkeypatch):
    monkeypatch.setattr(words, "DEFAULT_CLOSURE_CAP", 50)
    g = SimplicialGraph(list("abcd"), [])
    long_word = Word(g, [(v, 1) for v in "abcd"] * 3)
    with pytest.raises(ResourceCapExceeded):
        is_trivial(long_word * long_word.inverse())


def test_geodesic_length_conjugation():
    assert geodesic_length(empty_word(AB2)) == 0
    assert geodesic_length(word_from_tokens(AB2, ["v", "u", "v^-1"])) == 1
    assert geodesic_length(word_from_tokens(FREE2, ["v", "u", "v^-1"])) == 3


def test_diagonal_examples():
    g1 = SimplicialGraph(["v"], [])
    d = hom_diagonal(g1)
    img = d.images["v"]
    assert img.letters == ((("v", 1), 1), (("v", -1), 1))
    assert geodesic_length(img) == 2


def test_diagonal_commutation_transfer():
    du = hom_diagonal(AB2)
    assert oracle_equal(
        du.images["u"] * du.images["v"], du.images["v"] * du.images["u"]
    )
    de = hom_diagonal(FREE2)
    assert not oracle_equal(
        de.images["u"] * de.images["v"], de.images["v"] * de.images["u"]
    )


def test_retraction_splits_diagonal():
    rng = np.random.default_rng(4)
    g = SimplicialGraph(list("abc"), [("a", "b"), ("b", "c")])
    d, r = hom_diagonal(g), hom_retraction(g)
    minus_gen = generator(r.source, ("a", -1))
    assert len(hom_apply(r, minus_gen)) == 0
    for _ in range(100):
        w = random_word(g, rng, int(rng.integers(0, 7)))
        assert normal_form(hom_apply(r, hom_apply(d, w))).word == normal_form(w).word


def test_pullback_matches_diagonal_up_to_order():
    from raagham.graphs import double_projection

    g = path_graph(list("abc"))
    p = double_projection(g)
    pb = hom_pullback(p)
    d = hom_diagonal(g)
    for v in g.vertices:
        assert oracle_equal(pb.images[v], d.images[v])


def test_pullback_identity_cover():
    from raagham.graphs import GraphMorphism

    g = path_graph(list("abc"))
    ident = GraphMorphism(g, g, {v: v for v in g.vertices})
    pb = hom_pullback(ident)
    for v in g.vertices:
        assert pb.images[v].letters == ((v, 1),)


def test_pullback_rejects_non_cover():
    from raagham.graphs import GraphMorphism, cycle_graph

    c4 = cycle_graph(list("abcd"))
    p3 = path_graph(list("uvw"))
    bad = GraphMorphism(c4, p3, {"a": "u", "b": "v", "c": "u", "d": "v"})
    with pytest.raises(ValueError):
        hom_pullback(bad)


def test_hom_apply_substitution():
    g = AB2
    d = hom_diagonal(g)
    out = hom_apply(d, word_from_tokens(g, ["u", "v"]))
    assert out.letters == (
        (("u", 1), 1), (("u", -1), 1), (("v", 1), 1), (("v", -1), 1)
    )
    r = hom_retraction(g)
    w2 = Word(d.target, ((("u", 1), 1), (("v", -1), -1)))
    assert hom_apply(r, w2).letters == (("u", 1),)
    assert len(hom_apply(d, empty_word(g))) == 0


def test_no_cancellation_law():
    rng = np.random.default_rng(5)
    g = SimplicialGraph(list("abcd"), [("a", "b"), ("c", "d"), ("b", "c")])
    d = hom_diagonal(g)
    for _ in range(200):
        w = normal_form(random_word(g, rng, int(rng.integers(0, 7)))).word
        assert check_no_cancellation(d, w)
        assert geodesic_length(hom_apply(d, w)) == 2 * len(w)
    collapse = type(d)(source=g, target=g, images={v: empty_word(g) for v in g.vertices})
    w = generator(g, "a")
    assert not check_no_cancellation(collapse, w)


def test_well_definedness_check():
    d = hom_diagonal(AB2)
    assert check_well_defined(d)


def test_enumerate_normal_forms_edge_graph():
    forms = enumerate_normal_forms(FREE2, 2)
    nontrivial = [w for w in forms if len(w)]
    # free group of rank 2: 4 one-letter words, 16 - 4 reduced two-letter words
    assert len(nontrivial) == 16


def test_enumerate_normal_forms_rejects_a_negative_length():
    with pytest.raises(ValueError, match="max_len=-1 must be at least 0"):
        next(enumerate_normal_forms(FREE2, -1))
    assert [len(w) for w in enumerate_normal_forms(FREE2, 0)] == [0]


def test_unknown_vertex_rejected():
    with pytest.raises(ValueError, match="unknown vertex 'z'"):
        Word(FREE2, [("z", 1)])
    with pytest.raises(ValueError, match="unknown vertex 'z'"):
        Word(FREE2, [("u", 1), ("z", -1)])
    with pytest.raises(ValueError, match="unknown vertex 'z'"):
        Word(FREE2, [("z", 1.5)])


def test_non_integral_exponents_rejected():
    with pytest.raises(ValueError, match="exponent must be"):
        Word(FREE2, [("u", 1.7), ("v", -1.2)])
    with pytest.raises(ValueError, match="exponent must be"):
        generator(FREE2, "u", 1.9)


def test_homomorphism_images_must_be_over_target():
    with pytest.raises(ValueError, match="target graph"):
        Homomorphism(source=AB2, target=AB2, images={"u": generator(FREE2, "u"), "v": empty_word(AB2)})


def letterwise_image(h, w):
    """h(w) by substituting each letter's image pairs, the inverse reversed and negated."""
    out = []
    for v, e in w.letters:
        img = h.images[v].letters
        out.extend(img if e == 1 else [(x, -f) for x, f in reversed(img)])
    return tuple(out)


def test_hom_apply_matches_letterwise_reference(k5_emulator):
    rng = np.random.default_rng(6)
    g = SimplicialGraph(list("abc"), [("a", "b")])
    # the K5 pullback sends each generator to the product of its 2 fiber letters
    for h in (hom_diagonal(g), hom_retraction(g), hom_pullback(k5_emulator.projection)):
        for length in (0, 1, 5, 40):
            w = random_word(h.source, rng, length)
            out = hom_apply(h, w)
            assert out.graph == h.target
            assert out.letters == letterwise_image(h, w)


@pytest.mark.parametrize("edges", FOUR_VERTEX_GRAPHS.values(), ids=FOUR_VERTEX_GRAPHS)
def test_enumerate_normal_forms_is_the_fixed_point_filter(edges):
    g = SimplicialGraph(list("abcd"), edges)
    alphabet = [(v, e) for v in g.vertices for e in (1, -1)]
    every = [Word(g, lets) for L in range(4) for lets in itertools.product(alphabet, repeat=L)]
    assert list(enumerate_normal_forms(g, 3)) == [w for w in every if normal_form(w).word == w]


class TestChecksSurviveOptimize:
    """Invariant checks raise errors, so `python -O` keeps them."""

    def test_diagonal_not_well_defined_raises(self, monkeypatch):
        monkeypatch.setattr(words, "check_well_defined", lambda h: False)
        with pytest.raises(RuntimeError, match="diagonal"):
            hom_diagonal(path_graph(["u", "v", "w"]))

    def test_pullback_not_well_defined_raises(self, monkeypatch):
        monkeypatch.setattr(words, "check_well_defined", lambda h: False)
        with pytest.raises(RuntimeError, match="pulled-back"):
            hom_pullback(double_projection(path_graph(["u", "v", "w"])))

    def test_pullback_fiber_edge_raises(self, monkeypatch):
        # a collapsed edge, certified anyway: its two ends share a fiber
        collapse = GraphMorphism(FREE2, SimplicialGraph(["x"], []), {"u": "x", "v": "x"})
        monkeypatch.setattr(words, "check_orbicover", lambda p: None)
        with pytest.raises(RuntimeError, match="joined by an edge"):
            hom_pullback(collapse)
