import dataclasses
import math
import re

import numpy as np
import pytest

from raagham import flows
from raagham.flows import (
    HamiltonianField,
    IntegrationError,
    faithfulness_probe,
    flow_map,
    jacobian_probe,
    polydisk_extend,
    rep_apply,
    verify_relations,
)
from raagham.graphs import SimplicialGraph
from raagham.lift import (
    GroupElement,
    MobiusMap,
    assemble_Hv,
    default_study_annulus,
    enumerate_group,
    schottky_pair,
    smooth_Hv,
)
from raagham.twist import (
    Representation,
    RoundAnnulus,
    build_representation,
    double_dehn_twist,
    make_profile,
    twist_hamiltonian,
)
from raagham.words import (
    ResourceCapExceeded,
    Word,
    commutator,
    empty_word,
    generator,
    normal_form,
    word_from_tokens,
)
from flow_reference import fixed_point_flow, integrated_rep_apply, reference_jacobian_probe, stacked_turned
from twist_reference import letterwise_fold, mpmath_fold, probe_points, reference_fold, reference_twist


def rotation_field():
    def value(p):
        return math.pi * (p[:, 0] ** 2 + p[:, 1] ** 2)

    return HamiltonianField(value, lambda p: (value(p), 2 * math.pi * p))


def zero_field():
    def value(p):
        return np.zeros(len(p))

    return HamiltonianField(value, lambda p: (value(p), np.zeros_like(p)))


class TestFlowMap:
    @pytest.mark.parametrize("steps", [0, -5])
    def test_needs_a_step(self, steps):
        with pytest.raises(ValueError, match=f"steps={steps} must be at least 1"):
            flow_map(rotation_field(), np.array([1.0, 0.0]), T=1.0, steps=steps)

    def test_zero_field_identity(self):
        res = flow_map(zero_field(), np.array([[0.3, 0.4], [1.0, 2.0]]), T=3.0, steps=7)
        assert np.abs(res.final - [[0.3, 0.4], [1.0, 2.0]]).max() == 0.0

    def test_rotation_quarter_turn(self):
        res = flow_map(rotation_field(), np.array([1.0, 0.0]), T=0.25)
        assert np.abs(res.final - [0.0, -1.0]).max() < 1e-6

    def test_energy_conserved(self):
        res = flow_map(rotation_field(), np.array([1.0, 0.0]), T=1.0)
        assert res.energy_drift < 1e-8

    def test_matches_closed_form_twist(self):
        A = RoundAnnulus((0.2, -0.1), 1.0, math.sqrt(3))
        prof = make_profile(A.a, 0.0)
        rng = np.random.default_rng(5)
        pts = A.sample_points(25, rng)
        res = flow_map(HamiltonianField(*twist_hamiltonian(A, prof)), pts, T=1.0, steps=8000)
        closed = double_dehn_twist(A, prof, 1.0).apply(pts)
        assert np.hypot(*(res.final - closed).T).max() < 1e-4

    def test_newton_counters_on_rotation(self):
        # a linear field: one Newton update solves the stage up to the FD
        # Jacobian's rounding (~1e-9 relative), so at small steps a second
        # call confirms it; at h = 0.05 the first step (from y = z, residual
        # 0.31) and the second (from the first increment) need a second
        # update, 3 calls each.  Implicit midpoint maps the circle by an
        # exact rotation, so from step 3 on the turned increment is the
        # stage's solution up to rounding and one call accepts it:
        # 2 + 2 + 998 and 3 + 3 + 8 calls
        res = flow_map(rotation_field(), np.array([1.0, 0.0]), T=0.25, steps=1000)
        assert (res.iterations, res.max_iterations, res.points) == (1002, 2, 3006)
        res = flow_map(rotation_field(), np.array([1.0, 0.0]), T=0.5, steps=10)
        assert (res.iterations, res.max_iterations, res.points) == (14, 3, 42)

    def test_zero_field_counters(self):
        res = flow_map(zero_field(), np.zeros((4, 2)), T=1.0, steps=5)
        assert (res.iterations, res.max_iterations, res.points) == (5, 1, 60)

    def test_first_step_starts_at_z(self):
        seen = []
        rot = rotation_field()
        field = HamiltonianField(rot.value, lambda p: seen.append(p.copy()) or rot.jet(p))
        z0 = np.array([[1.0, 0.0], [0.0, 0.5]])
        first = flow_map(field, z0, T=0.05, steps=1)
        # the first midpoint is z itself; each Newton iteration is one jet call
        assert np.array_equal(seen[0][:2], z0)
        assert (first.iterations, len(seen)) == (3, 3)
        seen.clear()
        flow_map(field, z0, T=0.1, steps=2)
        # the second stage starts about h X / 2 ahead of its point
        assert np.array_equal(seen[0][:2], z0)
        assert np.abs(seen[3][:2] - first.final).min() > 0.01

    def test_row_at_rest_beside_moving_rows(self):
        # H = pi |p|^2 on R^4 rotates both coordinate pairs; the origin is at
        # rest, and the second row's second pair too, so their increments are
        # exactly 0 and the turned start must take rho = 1 there, not 0 / 0
        def value(p):
            return math.pi * (p * p).sum(1)

        field = HamiltonianField(value, lambda p: (value(p), 2 * math.pi * p))
        pts = np.array([[0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.3]])
        with np.errstate(all="raise"):
            batch = flow_map(field, pts, T=0.5, steps=20)
            rows = [flow_map(field, p, T=0.5, steps=20).final for p in pts]
        assert np.array_equal(batch.final[0], pts[0])
        assert np.array_equal(batch.final[1, 2:], pts[1, 2:])
        assert np.abs(batch.final[1:, :2] - [[-1.0, 0.0], [-0.5, 0.0]]).max() < 1e-2
        assert np.array_equal(batch.final, np.array(rows))


def turn_cases(d, rng):
    """(inc, prev) pairs of increments in R^d, pair by pair: turns with
    |rho - 1| < 1/2, turns beyond it, pairs at rest (prev = inc = 0), prev 0
    beside a moving inc, exact and signed zero coordinates, and magnitudes
    from 1e-300 to 1e300 (each row one scale)."""
    n, k = 600, d // 2
    scale = 10.0 ** rng.uniform(-300.0, 300.0, (n, 1))
    p = (rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))) * scale
    angle = rng.choice([0.05, 0.4, 1.0, 2.5], (n, k)) * rng.uniform(-1.0, 1.0, (n, k))
    c = p * rng.uniform(0.3, 1.8, (n, k)) * np.exp(1j * angle)
    rest = rng.random((n, k)) < 0.05
    c[rest] = p[rest] = 0.0
    p[:, 0][rng.random(n) < 0.05] = 0.0
    inc, prev = c.view(float).reshape(n, d).copy(), p.view(float).reshape(n, d).copy()
    for a in (inc, prev):  # exact zeros of both signs in single coordinates
        hit = rng.random(a.shape) < 0.08
        a[hit] = np.where(rng.random(hit.sum()) < 0.5, 0.0, -0.0)
    return inc, prev


@pytest.mark.parametrize("d", [2, 4, 6])
def test_turned_equals_stacked_reference(d):
    """The turn on complex views equals the stacked oracle as numbers.  The
    bits may differ only in the sign of an exact zero: x + 1j * y adds a
    signed 0 to each part and the stacked product rounds through -0 + 0,
    where the views read and write the coordinates as they are."""
    inc, prev = turn_cases(d, np.random.default_rng(d))
    got, want = flows._turned(inc, prev), stacked_turned(inc, prev)
    assert got.shape == want.shape == inc.shape and np.array_equal(got, want)
    signs = got.view(np.int64) != want.view(np.int64)
    assert not got[signs].any()


def nan_field(radius):
    """Rotation inside the given radius, NaN velocity outside it."""

    def gradient(p):
        g = 2 * math.pi * p
        g[np.hypot(p[:, 0], p[:, 1]) > radius] = np.nan
        return g

    return HamiltonianField(lambda p: np.zeros(len(p)), lambda p: (np.zeros(len(p)), gradient(p)))


class TestNonConvergence:
    @pytest.mark.parametrize("pts", [[[2.0, 0.0]], [[0.5, 0.0], [2.0, 0.0], [0.0, 0.3]]])
    def test_nan_field_raises(self, pts):
        with pytest.raises(IntegrationError, match="non-finite"):
            flow_map(nan_field(1.0), np.array(pts), T=0.1, steps=10)

    def test_nan_after_some_steps_raises(self):
        # unit speed along +x, NaN velocity beyond x = 0.5: the flow is fine
        # until a midpoint crosses that line, then it must raise
        def gradient(p):
            g = np.zeros_like(p)
            g[:, 1] = 1.0
            g[p[:, 0] > 0.5] = np.nan
            return g

        f = HamiltonianField(lambda p: p[:, 1], lambda p: (p[:, 1], gradient(p)))
        z0 = np.array([[0.0, 0.0], [0.0, 1.0]])
        res = flow_map(f, z0, T=0.4, steps=10)
        assert np.isfinite(res.final).all() and np.abs(res.final - (z0 + [0.4, 0.0])).max() < 1e-15
        with pytest.raises(IntegrationError, match="non-finite"):
            flow_map(f, z0, T=1.0, steps=10)

    def test_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(flows, "NEWTON_MAX_ITER", 1)
        with pytest.raises(IntegrationError, match="did not converge in 1 Newton"):
            flow_map(rotation_field(), np.array([1.0, 0.0]), T=0.25, steps=10)
        # a stage that is solved at the starting point needs no update
        assert flow_map(zero_field(), np.array([1.0, 0.0]), T=1.0, steps=3).iterations == 3


class TestRepApply:
    def test_empty_word(self, p3_rep):
        pts = np.array([[0.1, 0.2], [3.0, -1.0]])
        out = rep_apply(p3_rep, empty_word(p3_rep.word_graph), pts)
        assert np.abs(out - pts).max() == 0.0

    def test_homomorphism_property(self, p3_rep):
        g = p3_rep.word_graph
        rng = np.random.default_rng(7)
        pts = p3_rep.config.marked_points()
        w1 = word_from_tokens(g, ["u", "v^-1"])
        w2 = word_from_tokens(g, ["w", "u^-1", "v"])
        lhs = rep_apply(p3_rep, w1 * w2, pts)
        rhs = rep_apply(p3_rep, w1, rep_apply(p3_rep, w2, pts))
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_normal_form_invariance(self, p3_rep):
        g = p3_rep.word_graph
        pts = p3_rep.config.marked_points()
        w = word_from_tokens(g, ["u", "w", "u^-1", "v", "v^-1", "w"])
        nf = normal_form(w).word
        assert len(nf) < len(w)
        a = rep_apply(p3_rep, w, pts)
        b = rep_apply(p3_rep, nf, pts)
        assert np.abs(a - b).max() < 1e-9

    def test_nonedge_relator_fixes_everything(self, p3_rep):
        g = p3_rep.word_graph
        pts = p3_rep.config.marked_points()
        rel = commutator(generator(g, "u"), generator(g, "w"))
        out = rep_apply(p3_rep, rel, pts)
        assert np.abs(out - pts).max() < 1e-12

    def test_integrated_route_tracks_closed(self, p3_rep):
        g = p3_rep.word_graph
        w = word_from_tokens(g, ["v"])
        ov = p3_rep.config.overlap_points("v", "u")
        closed = rep_apply(p3_rep, w, ov)
        integ = integrated_rep_apply(p3_rep, w, ov, steps=6000)
        assert np.hypot(*(integ - closed).T).max() < 1e-3


REPS = ["p3_rep", "c4_rep", "k6_rep"]


def random_words(graph, rng, length, count):
    """count random words of the given length, inverse letters included."""
    out = []
    for _ in range(count):
        verts = rng.integers(0, len(graph.vertices), length)
        signs = rng.choice([1, -1], length)
        signs[:1] = -1
        out.append(Word(graph, [(graph.vertices[i], int(e)) for i, e in zip(verts, signs)]))
    return out


class TestClosedRouteBitIdentity:
    """The word kernel equals the stint rule's full-batch fold exactly."""

    @pytest.mark.parametrize("rep_name", REPS)
    @pytest.mark.parametrize("length", [0, 1, 4, 200])
    def test_rep_apply_equals_reference_fold(self, request, rep_name, length):
        rep = request.getfixturevalue(rep_name)
        rng = np.random.default_rng(length)
        pts = probe_points(rep, length)
        g = rep.word_graph
        if length == 1:
            words = [generator(g, v, e) for v in g.vertices for e in (1, -1)]
        else:
            words = random_words(g, rng, length, 1 if length == 200 else 3)
        for w in words:
            got = rep_apply(rep, w, pts)
            assert np.array_equal(got, reference_fold(rep, w, pts))
            if length:
                assert (got != pts).any()

    @pytest.mark.parametrize("rep_name", REPS)
    def test_single_point(self, request, rep_name):
        rep = request.getfixturevalue(rep_name)
        g = rep.word_graph
        rng = np.random.default_rng(2)
        w = random_words(g, rng, 6, 1)[0]
        inside = rep.config.annuli[rep.config.graph.vertices[0]].sample_points(1, rng)[0]
        for p in (inside, rep.config.far_point):
            got = rep_apply(rep, w, p)
            assert got.shape == (2,)
            assert np.array_equal(got, reference_fold(rep, w, p))

    @pytest.mark.parametrize("rep_name", REPS)
    @pytest.mark.parametrize("tau", [2.0, -2.0, 0.7])
    def test_plane_twists_equal_reference(self, request, rep_name, tau):
        rep = request.getfixturevalue(rep_name)
        pts = probe_points(rep, 5)
        for v, ann in rep.config.annuli.items():
            prof = rep.profiles[v]
            f = double_dehn_twist(ann, prof, tau)
            assert np.array_equal(f.apply(pts), reference_twist(ann, prof, tau, pts))
            f_inv = double_dehn_twist(ann, prof, -tau)
            assert np.array_equal(f_inv.apply(pts), reference_twist(ann, prof, -tau, pts))


def annulus_samples(rep, n, rng):
    return np.concatenate([a.sample_points(n, rng) for a in rep.config.annuli.values()])


class TestStintRule:
    """A row's factor lasts for its stint in one annulus."""

    def test_one_letter_words_equal_generator_maps(self, k6_rep):
        pts = annulus_samples(k6_rep, 2000, np.random.default_rng(3))
        for v in k6_rep.config.annuli:
            for e in (1, -1):
                got = k6_rep.apply_letters([(v, e)], pts)
                assert np.array_equal(got, k6_rep.generator_map(v, k6_rep.N * e).apply(pts))

    def test_inverse_letter_undoes_a_letter(self, k6_rep):
        # the letter-by-letter fold leaves rows off by up to 6.9e-11 here: the
        # inverse recomputed h'(t) from the rotated, rounded point
        pts = annulus_samples(k6_rep, 2000, np.random.default_rng(4))
        for v in k6_rep.config.annuli:
            back = k6_rep.apply_letters([(v, -1), (v, 1)], pts)
            assert np.hypot(*(back - pts).T).max() <= 1e-13

    @pytest.mark.parametrize("length", [8, 24, 48])
    def test_as_accurate_as_the_letterwise_fold(self, k6_rep, length):
        """Against 40 digits, on words whose every cover letter is doubled.

        Typical rows, the median and the 90th percentile of the moved rows'
        errors, are compared.  The greatest error is a chaotic tail: a
        row's error grows by the shear of each annulus it crosses into, and
        a stint repeats its first factor's rounding where the letterwise
        fold draws fresh rounding per letter, so on some words the kernel's
        greatest error is the larger of the two."""
        # the same twists, with words over the cover's letters
        cover = dataclasses.replace(k6_rep, word_graph=k6_rep.config.graph, pullback=None)
        rng = np.random.default_rng(length)
        pts = annulus_samples(cover, 25, rng)
        # membership decisions that rounding cannot flip, at least at the start
        keep = np.ones(len(pts), bool)
        for a in cover.config.annuli.values():
            r = np.hypot(*(pts - a.center).T)
            for rc in (a.r_inner, a.r_outer):
                keep &= np.abs(r - rc) >= 1e-9 * rc
        pts = pts[keep]
        alphabet = [(v, e) for v in cover.config.graph.vertices for e in (1, -1)]
        letters = [alphabet[i] for i in rng.integers(0, len(alphabet), length // 2) for _ in (0, 1)]
        w = Word(cover.word_graph, letters)
        exact = mpmath_fold(cover, letters, pts)
        moved = (exact != pts).any(1)
        kernel = np.hypot(*(rep_apply(cover, w, pts) - exact)[moved].T)
        letterwise = np.hypot(*(letterwise_fold(cover, w, pts) - exact)[moved].T)
        for q in (0.5, 0.9):
            assert np.quantile(kernel, q) <= np.quantile(letterwise, q)

    @pytest.mark.parametrize("extra", [0, 10_000])
    def test_sub_batch_keeps_its_bits_in_the_full_batch(self, k6_rep, extra):
        """The benchmark's batch: 90 % annulus samples, free points and the
        punctures, 100 000 rows; then extra samples of one annulus, which
        take it past 16 384 rows.  From there on NumPy may evaluate a
        product with a temporary right operand in place, with the operands
        swapped, which rounds differently; a row's bits must not depend on
        its batch mates, nor on having none."""
        rng = np.random.default_rng(5)
        annuli = list(k6_rep.config.annuli.values())
        per = 90_000 // len(annuli)
        inside = [a.sample_points(per, rng) for a in annuli]
        centers = np.array([a.center for a in annuli])
        outer = np.array([a.r_outer for a in annuli])[:, None]
        punctures = k6_rep.config.all_punctures()
        free = rng.uniform((centers - outer).min(0), (centers + outer).max(0),
                           size=(100_000 - per * len(annuli), 2))
        batch = np.concatenate(inside + [free, punctures, annuli[0].sample_points(extra, rng)])
        assert (annuli[0].contains(batch).sum() > 16_384) == bool(extra)
        w = random_words(k6_rep.word_graph, rng, 200, 1)[0]
        sub = np.sort(rng.choice(len(batch), 3000, replace=False))
        full = rep_apply(k6_rep, w, batch)
        assert np.array_equal(rep_apply(k6_rep, w, batch[sub]), full[sub])
        # a row alone: NumPy's in-place product of one element rounds differently
        for k in sub[:5]:
            assert np.array_equal(rep_apply(k6_rep, w, batch[k]), full[k])


def cover_of(rep):
    """The same twists, with words over the cover's letters."""
    return dataclasses.replace(rep, word_graph=rep.config.graph, pullback=None)


def boundary_rows(rep, u, v, n=4000):
    """Rows on the inner and outer circles of A(u) that A(u) and A(v) both
    contain and where u's twist does not turn (h'_u(t) == 0 exactly)."""
    A, prof = rep.config.annuli[u], rep.profiles[u]
    ang = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
    out = []
    for r in (A.r_inner, A.r_outer):
        pts = np.asarray(A.center) + r * np.stack([np.cos(ang), np.sin(ang)], -1)
        pts = pts[A.contains(pts) & rep.config.annuli[v].contains(pts)]
        rel = (pts - A.center) @ [1, 1j]
        assert len(pts) and not prof.dh(0.5 * (np.abs(rel) ** 2 - A.mid)).any()
        out.append(pts)
    return np.concatenate(out)


class TestEventKernel:
    """The word kernel claims a row only at the steps whose annulus holds it."""

    @pytest.mark.parametrize("bad", [2, 0, "vertex"])
    def test_bad_letters_are_value_errors(self, k6_rep, bad):
        v = k6_rep.config.graph.vertices[0]
        letter = ("q", 1) if bad == "vertex" else (v, bad)
        pts = annulus_samples(k6_rep, 20, np.random.default_rng(0))
        for letters in ([letter], [(v, 1), letter, (v, -1)]):
            with pytest.raises(ValueError, match=re.escape(repr(letter))):
                k6_rep.apply_letters(letters, pts)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_work_bound_is_exact(self, k6_rep, seed, monkeypatch):
        """Every row is tested once against each annulus the word uses, then a
        claimed row only against the neighbours u of the claiming v_s that
        act before v_s acts again: the count of rows passed to ``contains``
        is rows * annuli used + sum_s |claimed_s| * #{u ~ v_s acting before
        v_s acts again}, with claimed_s the reference fold's mask."""
        cover = cover_of(k6_rep)
        rng = np.random.default_rng(seed)
        pts = np.concatenate([annulus_samples(cover, 200, rng), cover.config.all_punctures()])
        w = random_words(cover.word_graph, rng, 60, 1)[0]
        masks = []
        expected_out = reference_fold(cover, w, pts, masks)
        acting = [v for v, _ in reversed(w.letters)]
        expected = len(pts) * len(set(acting))
        for s, v in enumerate(acting):
            again = acting.index(v, s + 1) if v in acting[s + 1:] else len(acting)
            before = {u for u in acting[s + 1:again] if cover.config.graph.has_edge(u, v)}
            expected += int(masks[s].sum()) * len(before)
        tested = []
        contains = RoundAnnulus.contains
        monkeypatch.setattr(RoundAnnulus, "contains", lambda a, p: tested.append(len(p)) or contains(a, p))
        assert np.array_equal(rep_apply(cover, w, pts), expected_out)
        assert sum(tested) == expected
        # one annulus: after the initial pass its letters test nothing
        v = cover.config.graph.vertices[seed]
        tested.clear()
        cover.apply_letters([(v, 1), (v, 1), (v, -1), (v, 1)], pts)
        assert tested == [len(pts)]

    def test_claimed_rows_that_do_not_turn(self, k6_rep):
        """Rows on the boundary circles of A(u) inside A(v): u claims them
        with h'_u(t) == 0 and starts their stint without turning them.  Rows
        in three annuli see two claiming neighbours at once."""
        cover = cover_of(k6_rep)
        rng = np.random.default_rng(6)
        samples = annulus_samples(cover, 3000, rng)
        held = sum(a.contains(samples).astype(int) for a in cover.config.annuli.values())
        triple = samples[held == 3]
        assert len(triple) >= 50
        edges = cover.config.graph.sorted_edges()
        for u, v in edges[:: len(edges) // 6]:
            pts = np.concatenate([boundary_rows(cover, u, v), boundary_rows(cover, v, u), triple])
            for pattern in ("v u v", "u v u", "v v u v", "u u v u", "v u- v u v-"):
                letters = [({"u": u, "v": v}[t[0]], -1 if t.endswith("-") else 1) for t in pattern.split()]
                w = Word(cover.word_graph, letters)
                assert np.array_equal(rep_apply(cover, w, pts), reference_fold(cover, w, pts))
        # words over the annuli that hold each triple row
        annuli = list(cover.config.annuli.values())
        for p in triple[:20]:
            names = [x for x, a in zip(cover.config.annuli, annuli) if a.contains(p)]
            letters = [(names[i], int(e)) for i, e in zip(rng.integers(0, 3, 12), rng.choice([1, -1], 12))]
            w = Word(cover.word_graph, letters)
            assert np.array_equal(rep_apply(cover, w, triple), reference_fold(cover, w, triple))


class TestRepApplyErrors:
    @pytest.mark.parametrize("rep_name", REPS)
    def test_word_over_another_graph(self, request, rep_name, monkeypatch):
        rep = request.getfixturevalue(rep_name)
        monkeypatch.setattr(Representation, "apply_letters", lambda *a: pytest.fail("geometry ran"))
        # the cover graph is the tempting wrong graph for an emulator rep
        other = rep.config.graph if rep.pullback is not None else SimplicialGraph(["q"], [])
        w = generator(other, other.vertices[0])
        with pytest.raises(ValueError, match="not over the representation's graph"):
            rep_apply(rep, w, np.zeros((3, 2)))

    @pytest.mark.parametrize("shape", [(3, 4), (3, 1), (3, 3), (2, 3, 2), (4,), ()])
    def test_malformed_point_arrays(self, p3_rep, shape):
        pts = np.full(shape, 0.5)
        w = generator(p3_rep.word_graph, "v")
        for apply in (lambda p: rep_apply(p3_rep, w, p), p3_rep.generator_map("v", 2).apply):
            with pytest.raises(ValueError, match=re.escape(f"not {shape}")):
                apply(pts)


@pytest.fixture(scope="module")
def thin_rep():
    """A 9-vertex graph whose inflation leaves A(v0) 2.5e-10 and A(v7) 2.1e-8
    of their radii wide."""
    edges = [(0, 1), (0, 2), (0, 5), (0, 6), (0, 7), (1, 4), (1, 5), (1, 6), (2, 3),
             (2, 4), (3, 4), (4, 6), (5, 8), (6, 8)]
    g = SimplicialGraph([f"v{i}" for i in range(9)], [(f"v{a}", f"v{b}") for a, b in edges])
    return build_representation(g, N=2)


class TestVerification:
    def test_p3_report_passes(self, p3_rep):
        report = verify_relations(p3_rep, samples=120, seed=11)
        assert report.all_passed()
        kinds = {c.kind for c in report.relation_checks}
        assert kinds == {"commuting", "twisting"}
        assert report.puncture_residual < 1e-9

    def test_edgeless_graph_all_commute(self):
        g = SimplicialGraph(["a", "b"], [])
        rep = build_representation(g, N=2)
        report = verify_relations(rep, samples=60, seed=1)
        assert report.all_passed()
        assert all(c.kind == "commuting" for c in report.relation_checks)

    def test_single_edge_noncommuting_detected(self):
        g = SimplicialGraph(["a", "b"], [("a", "b")])
        rep = build_representation(g, N=2)
        report = verify_relations(rep, samples=60, seed=2)
        assert report.all_passed()
        twist_checks = [c for c in report.relation_checks if c.kind == "twisting"]
        assert len(twist_checks) == 1 and twist_checks[0].displacement > 1e-3

    def test_thin_annulus_relations(self, thin_rep):
        # a stint turns its rows by the factor of their true height, so the
        # commutators of the thin annuli cancel to rounding
        assert verify_relations(thin_rep, seed=0).all_passed()

    @pytest.mark.xfail(
        strict=True,
        reason="_inflate leaves A(v0) 2.5e-10 of its radius wide; across so thin a band the "
        "twist at -2 recomputes h'(t) from rounded heights and misses the inverse by ~9e-4",
    )
    def test_thin_annulus_twist_undoes_itself(self, thin_rep):
        pts = thin_rep.config.annuli["v0"].sample_points(2000, np.random.default_rng(0))
        back = thin_rep.generator_map("v0", -2).apply(thin_rep.generator_map("v0", 2).apply(pts))
        assert np.hypot(*(back - pts).T).max() <= 1e-9


class TestJacobianProbe:
    def test_identity(self):
        stats = jacobian_probe(lambda p: p.copy(), np.random.default_rng(0).uniform(-1, 1, (50, 2)))
        assert stats["max_deviation"] < 1e-9

    def test_closed_twist(self):
        A = RoundAnnulus((0.0, 0.0), 1.0, 2.0)
        prof = make_profile(A.a, 0.0)
        f = double_dehn_twist(A, prof, 2.0)
        pts = A.sample_points(100, np.random.default_rng(1))
        stats = jacobian_probe(f.apply, pts, 1e-5)
        assert stats["max_deviation"] < 1e-6


class TestFaithfulnessProbe:
    def test_single_edge_short_words_all_move(self, monkeypatch):
        monkeypatch.setattr(flows, "PROBE_EXTRA_WORDS", 5)
        g = SimplicialGraph(["a", "b"], [("a", "b")])
        rep = build_representation(g, N=2)
        table = faithfulness_probe(rep, max_len=2, seed=0)
        short = [row for row in table if row["length"] <= 2]
        assert len(short) == 16
        assert all(row["verdict"] == "NONTRIVIAL" for row in short)

    def test_generator_moves_marked_points(self, p3_rep, monkeypatch):
        monkeypatch.setattr(flows, "PROBE_EXTRA_WORDS", 0)
        table = faithfulness_probe(p3_rep, max_len=1, seed=0)
        gens = {row["word"]: row for row in table if row["length"] == 1}
        assert all(row["displacement"] > 1e-6 for row in gens.values())

    def test_cap_stops_the_enumeration(self, p3_rep, monkeypatch):
        # P3 has far more than 5000 normal forms of length <= 30; the probe
        # must stop after drawing one form past the cap
        drawn = 0
        enumerate_all = flows.enumerate_normal_forms

        def counted(graph, max_len):
            nonlocal drawn
            for w in enumerate_all(graph, max_len):
                drawn += 1
                yield w

        monkeypatch.setattr(flows, "enumerate_normal_forms", counted)
        with pytest.raises(ResourceCapExceeded, match="more than 5000 normal forms"):
            faithfulness_probe(p3_rep, max_len=30, seed=0)
        assert drawn == flows.PROBE_WORD_CAP + 1


@pytest.fixture(scope="module")
def k_field():
    els = enumerate_group(schottky_pair(0.98), 2)
    H = assemble_Hv("v", els, default_study_annulus())
    return smooth_Hv(H, 0.05)


class TestPolydisk:

    def test_requires_n_at_least_two(self, k_field):
        with pytest.raises(ValueError):
            polydisk_extend(k_field, 1)

    def test_slice_values_and_gradient(self, k_field):
        pd = polydisk_extend(k_field, 3)
        rng = np.random.default_rng(3)
        pts = default_study_annulus().sample_points(100, rng)
        assert pd.slice_gradient_residual(pts) < 1e-9
        emb = pd.embed_slice(pts)
        assert np.abs(pd.value(emb) - k_field.value(pts)).max() == 0.0

    def test_flow_preserves_slice(self, k_field):
        pd = polydisk_extend(k_field, 2)
        rng = np.random.default_rng(4)
        pts = default_study_annulus().sample_points(6, rng)
        res = flow_map(pd, pd.embed_slice(pts), T=2.0, steps=400)
        flat = flow_map(k_field, pts, T=2.0, steps=400)
        assert np.abs(res.final[:, 2:]).max() < 1e-5
        assert np.abs(res.final[:, :2] - flat.final).max() < 1e-5


@pytest.fixture(scope="module")
def smoothed_field():
    """The depth-2 smoothed lift field of criterion 12 and the benchmark."""
    els = enumerate_group(schottky_pair(0.98), 2)
    return smooth_Hv(assemble_Hv("v", els, default_study_annulus()), 0.01)


def slice_points():
    """The polydisk verb's 8 slice points at its default seed 0."""
    return default_study_annulus().sample_points(100, np.random.default_rng(0))[:8]


def cellular_field():
    """H = sin 2x cos 3y + 0.3 x^2: elliptic and hyperbolic cells, so the
    orbits are not circles and the increments do not turn rigidly."""

    def value(p):
        return np.sin(2 * p[:, 0]) * np.cos(3 * p[:, 1]) + 0.3 * p[:, 0] ** 2

    def jet(p):
        x, y = p[:, 0], p[:, 1]
        dx = 2 * np.cos(2 * x) * np.cos(3 * y) + 0.6 * x
        dy = -3 * np.sin(2 * x) * np.sin(3 * y)
        return value(p), np.stack([dx, dy], -1)

    return HamiltonianField(value, jet)


def agreement_case(name, smoothed_field):
    rng = np.random.default_rng(17)
    if name == "rotation":
        return rotation_field(), rng.uniform(-1, 1, (20, 2))
    if name == "cellular":
        return cellular_field(), rng.uniform(-1, 1, (20, 2))
    if name == "twist":
        A = RoundAnnulus((0.2, -0.1), 1.0, math.sqrt(3))
        field = HamiltonianField(*twist_hamiltonian(A, make_profile(A.a, 0.0)))
        return field, A.sample_points(20, rng)
    if name == "lift":
        return smoothed_field, slice_points()
    pd = polydisk_extend(smoothed_field, 3)
    off = np.pad(rng.uniform(-0.05, 0.05, (8, 4)), ((0, 0), (2, 0)))
    return pd, pd.embed_slice(slice_points()) + off


class TestNewtonAgainstFixedPoint:
    """The Newton stage solves the same midpoint equation as fixed-point sweeps."""

    # step sizes of the suite (criteria 06, 12, the rotation oracle) and of
    # the benchmark's flows (batch 0.02, polydisk and probe 1/30); at
    # h = 0.08 the cellular field's increments turn by up to half their
    # length in a step, so the turned start falls back to rho = 1 on about a
    # fifth of its steps
    @pytest.mark.parametrize(
        "name, h",
        [
            ("rotation", 1e-3),
            ("rotation", 1 / 30),
            ("cellular", 1 / 30),
            ("cellular", 0.08),
            ("twist", 1 / 32000),
            ("twist", 1 / 8000),
            ("lift", 2 / 600),
            ("lift", 0.02),
            ("lift", 1 / 30),
            ("polydisk", 2 / 600),
            ("polydisk", 1 / 30),
        ],
    )
    def test_agrees_with_fixed_point_loop(self, smoothed_field, name, h, monkeypatch):
        field, pts = agreement_case(name, smoothed_field)
        steps = 30
        res = flow_map(field, pts, T=steps * h, steps=steps)
        ref = fixed_point_flow(field, pts, steps * h, steps, max_iter=500)
        assert np.abs(res.final - ref).max() <= 1e-10
        assert np.abs(res.final - pts).max() > 1e-3 * steps * h
        # solved near rounding, the two agree to far below the default tol's error
        monkeypatch.setattr(flows, "NEWTON_TOL", 1e-14)
        tight = flow_map(field, pts, T=steps * h, steps=steps).final
        ref_tight = fixed_point_flow(field, pts, steps * h, steps, tol=1e-14, max_iter=500)
        assert np.abs(tight - ref_tight).max() <= 1e-12

    def test_ring_batch_counters(self, smoothed_field):
        # the benchmark's 50-point batch: area-stratified radii, seeded angles;
        # the field is rotation invariant there, so the counts are the radii's:
        # 6 calls on the first step, from y = z, and 6 on the second, from the
        # first increment; from step 3 on the turned increment is the stage's
        # solution up to the field's rounding, and each step takes 1 call, or
        # 2 when some row's starting residual is just above tol (28 and 20 of
        # the 48 steps: 6 + 6 + 28 + 40)
        ring = default_study_annulus()
        r2 = ring.r_inner**2 + (ring.r_outer**2 - ring.r_inner**2) * (np.arange(50) + 0.5) / 50
        ang = np.random.default_rng(61).uniform(0.0, 2.0 * np.pi, 50)
        pts = np.sqrt(r2)[:, None] * np.stack([np.cos(ang), np.sin(ang)], -1)
        res = flow_map(smoothed_field, pts, T=1.0, steps=50)
        assert (res.iterations, res.max_iterations) == (80, 6)
        # converged rows leave the active set, so fewer rows than 3 per row and call
        assert res.points < 3 * 50 * res.iterations

    @pytest.mark.parametrize("name", ["lift", "polydisk"])
    def test_batch_equals_separate_flows(self, smoothed_field, name):
        field, pts = agreement_case(name, smoothed_field)
        T, steps = 1.0, 30
        batch = flow_map(field, pts, T=T, steps=steps)
        rows = [flow_map(field, p, T=T, steps=steps) for p in pts]
        assert np.array_equal(batch.final, np.array([r.final for r in rows]))
        # the batch makes as many calls as its slowest row
        assert batch.iterations >= max(r.iterations for r in rows)
        assert batch.max_iterations == max(r.max_iterations for r in rows)


class TestBatchedProbe:
    def test_plane_map_equals_reference(self, p3_rep):
        rng = np.random.default_rng(4)
        for v in "uvw":
            f = p3_rep.generator_map(v, p3_rep.N)
            pts = p3_rep.config.annuli[v].sample_points(60, rng)
            stats = jacobian_probe(f.apply, pts, 3e-6)
            assert stats == reference_jacobian_probe(f.apply, pts, 3e-6)

    def test_time_t_flow_equals_reference(self):
        ring = RoundAnnulus((0.0, 0.0), 0.48, 0.60)
        identity = GroupElement((), MobiusMap.identity())
        assembled = assemble_Hv("v", [identity], ring)
        field = smooth_Hv(assembled, 0.01)
        piece = assembled.pieces[0]
        rng = np.random.default_rng(8)
        rr = piece.chart.r_of_t(rng.uniform(piece.b - 0.3, piece.b + 0.3, 6))
        ang = rng.uniform(0, 2 * math.pi, 6)
        pts = np.stack([rr * np.cos(ang), rr * np.sin(ang)], -1)

        def time_t_map(p):
            return flow_map(field, p, T=0.5, steps=15).final

        stats = jacobian_probe(time_t_map, pts, step=1e-5)
        assert stats == reference_jacobian_probe(time_t_map, pts, step=1e-5)
        assert stats["max_deviation"] <= 1e-4
