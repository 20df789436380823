import math

import numpy as np
import pytest

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
    assemble_Hv,
    default_study_annulus,
    enumerate_group,
    schottky_pair,
    smooth_Hv,
)
from raagham.twist import (
    Representation,
    RoundAnnulus,
    area_chart,
    build_representation,
    double_dehn_twist,
    half_twists,
    make_profile,
    twist_hamiltonian,
)
from raagham.words import Word, commutator, empty_word, generator, normal_form, word_from_tokens
from twist_reference import boundary_points, reference_fold, reference_twist


def rotation_field():
    return HamiltonianField(
        lambda p: math.pi * (p[:, 0] ** 2 + p[:, 1] ** 2),
        lambda p: 2 * math.pi * p,
    )


class TestFlowMap:
    def test_zero_field_identity(self):
        f = HamiltonianField(lambda p: np.zeros(len(p)), lambda p: np.zeros_like(p))
        res = flow_map(f, np.array([[0.3, 0.4], [1.0, 2.0]]), T=3.0, steps=7)
        assert np.abs(res.final - [[0.3, 0.4], [1.0, 2.0]]).max() == 0.0

    def test_rotation_quarter_turn(self):
        res = flow_map(rotation_field(), np.array([1.0, 0.0]), T=0.25)
        assert np.abs(res.final - [0.0, -1.0]).max() < 1e-6

    def test_energy_conserved(self):
        res = flow_map(rotation_field(), np.array([1.0, 0.0]), T=1.0)
        assert res.energy_drift < 1e-8

    def test_matches_closed_form_twist(self):
        A = RoundAnnulus((0.2, -0.1), 1.0, math.sqrt(3))
        prof = make_profile(area_chart(A).a, 0.0)
        H, grad = twist_hamiltonian(A, prof)
        rng = np.random.default_rng(5)
        pts = A.sample_points(25, rng)
        res = flow_map(HamiltonianField(H, grad), pts, T=1.0, steps=8000)
        closed = double_dehn_twist(A, prof, 1.0).apply(pts)
        assert np.hypot(*(res.final - closed).T).max() < 1e-4

    def test_trajectory_recording(self):
        res = flow_map(rotation_field(), np.array([1.0, 0.0]), T=0.5, steps=10, record=True)
        assert res.trajectory.shape == (11, 1, 2)


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
        integ = rep_apply(p3_rep, w, ov, route="integrated", steps=6000)
        assert np.hypot(*(integ - closed).T).max() < 1e-3


REPS = ["p3_rep", "c4_rep", "k6_rep"]


def probe_points(rep, seed):
    """Annulus samples, points on and one ulp off every annulus boundary,
    free points among the annuli, the punctures and far points."""
    cfg = rep.config
    rng = np.random.default_rng(seed)
    annuli = list(cfg.annuli.values())
    centers = np.array([a.center for a in annuli])
    outer = np.array([a.r_outer for a in annuli])[:, None]
    free = rng.uniform((centers - outer).min(0), (centers + outer).max(0), size=(300, 2))
    far = np.stack([cfg.far_point, cfg.basepoint, [1e6, -1e6]])
    return np.concatenate(
        [a.sample_points(40, rng) for a in annuli]
        + [boundary_points(a) for a in annuli]
        + [free, cfg.all_punctures(), far]
    )


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
    """The tracked word kernel equals the letter-by-letter fold exactly."""

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
            assert np.array_equal(f.apply_inverse(pts), reference_twist(ann, prof, -tau, pts))
            lower, upper = half_twists(ann, prof, tau)
            b = prof.b
            assert np.array_equal(lower.apply(pts), reference_twist(ann, prof, tau, pts, t_hi=b))
            assert np.array_equal(
                lower.apply_inverse(pts), reference_twist(ann, prof, -tau, pts, t_hi=b)
            )
            assert np.array_equal(upper.apply(pts), reference_twist(ann, prof, tau, pts, t_lo=b))
            assert np.array_equal(
                upper.apply_inverse(pts), reference_twist(ann, prof, -tau, pts, t_lo=b)
            )


class TestRepApplyErrors:
    @pytest.fixture
    def no_geometry(self, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("geometry ran")

        monkeypatch.setattr(Representation, "apply_letters", fail)
        monkeypatch.setattr(Representation, "generator_field", fail)

    @pytest.mark.parametrize("rep_name", REPS)
    def test_word_over_another_graph(self, request, rep_name, no_geometry):
        rep = request.getfixturevalue(rep_name)
        # the cover graph is the tempting wrong graph for an emulator rep
        other = rep.config.graph if rep.pullback is not None else SimplicialGraph(["q"], [])
        w = generator(other, other.vertices[0])
        for route in ("closed", "integrated"):
            with pytest.raises(ValueError, match="not over the representation's graph"):
                rep_apply(rep, w, np.zeros((3, 2)), route=route)

    @pytest.mark.parametrize("rep_name", ["p3_rep", "k6_rep"])
    def test_unknown_route(self, request, rep_name, no_geometry):
        rep = request.getfixturevalue(rep_name)
        g = rep.word_graph
        for w in (empty_word(g), generator(g, g.vertices[0])):
            with pytest.raises(ValueError, match="unknown route 'bogus'"):
                rep_apply(rep, w, np.zeros((3, 2)), route="bogus")


class TestVerification:
    def test_p3_report_passes(self, p3_rep):
        report = verify_relations(p3_rep, samples=120, seed=11)
        assert report.all_passed()
        kinds = {c.kind for c in report.relation_checks}
        assert kinds == {"commuting", "twisting"}
        assert report.puncture_residual < 1e-9

    def test_edgeless_graph_all_commute(self):
        g = SimplicialGraph(["a", "b"], [])
        rep = build_representation(g, N=2, grid=256)
        report = verify_relations(rep, samples=60, seed=1)
        assert report.all_passed()
        assert all(c.kind == "commuting" for c in report.relation_checks)

    def test_single_edge_noncommuting_detected(self):
        g = SimplicialGraph(["a", "b"], [("a", "b")])
        rep = build_representation(g, N=2, grid=256)
        report = verify_relations(rep, samples=60, seed=2)
        assert report.all_passed()
        twist_checks = [c for c in report.relation_checks if c.kind == "twisting"]
        assert len(twist_checks) == 1 and twist_checks[0].displacement > 1e-3


class TestJacobianProbe:
    def test_identity(self):
        stats = jacobian_probe(lambda p: p.copy(), np.random.default_rng(0).uniform(-1, 1, (50, 2)))
        assert stats["max_deviation"] < 1e-9

    def test_closed_twist(self):
        A = RoundAnnulus((0.0, 0.0), 1.0, 2.0)
        prof = make_profile(area_chart(A).a, 0.0)
        f = double_dehn_twist(A, prof, 2.0)
        pts = A.sample_points(100, np.random.default_rng(1))
        stats = jacobian_probe(f, pts, 1e-5)
        assert stats["max_deviation"] < 1e-6


class TestFaithfulnessProbe:
    def test_single_edge_short_words_all_move(self):
        g = SimplicialGraph(["a", "b"], [("a", "b")])
        rep = build_representation(g, N=2, grid=256)
        table = faithfulness_probe(rep, max_len=2, seed=0, extra_random=5)
        short = [row for row in table if row["length"] <= 2]
        assert len(short) == 16
        assert all(row["verdict"] == "NONTRIVIAL" for row in short)

    def test_generator_moves_marked_points(self, p3_rep):
        table = faithfulness_probe(p3_rep, max_len=1, seed=0, extra_random=0)
        gens = {row["word"]: row for row in table if row["length"] == 1}
        assert all(row["displacement"] > 1e-6 for row in gens.values())


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

    def test_scaled_first_factor(self, k_field):
        pd = polydisk_extend(k_field, 2, c=2.0)
        pts = pd.embed_slice(np.array([[0.45, 0.0]]))
        v = pd.vector_field(pts)
        v1 = polydisk_extend(k_field, 2, c=1.0).vector_field(pts)
        assert np.abs(v[0, :2] - 0.5 * v1[0, :2]).max() < 1e-12
