import itertools
import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from raagham.graphs import (
    SimplicialGraph,
    complete_graph,
    cycle_graph,
    incidence_nerve,
    path_graph,
    planarity,
)
from raagham import twist
from raagham.twist import (
    ANGLE_TOL,
    MAX_SWEEPS,
    PackingError,
    RoundAnnulus,
    annuli_intersect,
    build_configuration,
    build_representation,
    double_dehn_twist,
    make_profile,
    twist_hamiltonian,
)
from graphs_reference import graphs_isomorphic
from twist_reference import (
    AreaChart,
    band_points,
    bisect_delta,
    boundary_points,
    chart_twist,
    circle_in_annulus_intervals,
    gap_floor,
    inflation_valid,
    flood_fill_labels,
    non_neighbour_hits,
    probe_points,
    product_twist,
    reference_region_points,
    reference_twist,
    reference_twist_hamiltonian,
    reference_widths,
)

TWO_PI = 2 * math.pi


class TestProfile:
    def test_slope_at_center(self):
        p = make_profile(0.5, 0.0)
        assert abs(p.dh(0.0) - TWO_PI) < 1e-12

    def test_flat_at_support_ends(self):
        p = make_profile(0.5, 0.0)
        assert p.h(0.5) == 0.0 and p.h(-0.5) == 0.0
        assert abs(p.dh(0.5)) < 1e-12 and abs(p.dh(-0.5)) < 1e-12

    def test_off_center_support(self):
        p = make_profile(0.5, 0.2)
        assert abs(p.dh(0.2) - TWO_PI) < 1e-12
        # support inside [-0.1, 0.5]
        t = np.linspace(-0.5, -0.1, 50)
        assert np.abs(p.h(t)).max() == 0.0
        # finite-difference check of the closed-form derivative
        tt = np.linspace(-0.05, 0.45, 41)
        h = 1e-7
        fd = (p.h(tt + h) - p.h(tt - h)) / (2 * h)
        assert np.abs(fd - p.dh(tt)).max() < 1e-5

    def test_rejects_bad_center(self):
        with pytest.raises(ValueError):
            make_profile(0.5, 0.7)

    def test_sup_abs_is_exact_maximum(self):
        for b in (0.0, 0.2, -0.37, 0.49):
            p = make_profile(0.5, b)
            sup = p.sup_abs()
            for lo, hi in ((p.b, p.b + p.width), (p.b - p.width, p.b)):
                opt = minimize_scalar(lambda t: -abs(p.h(t)), bounds=(lo, hi),
                                      method="bounded", options={"xatol": 1e-12})
                assert abs(abs(p.h(opt.x)) - sup) <= 1e-14 * sup
            for n in (101, 2001, 100001):
                assert sup >= np.abs(p.h(np.linspace(-0.5, 0.5, n))).max()


class TestProductTwist:
    def test_full_turn_on_rotation_circle(self):
        p = make_profile(0.5, 0.0)
        s, t = product_twist(p, 1.0, (1.0, 0.0))
        assert abs(s - 1.0) < 1e-12 and t == 0.0

    def test_half_time_half_angle(self):
        p = make_profile(0.5, 0.0)
        s, _ = product_twist(p, 0.5, (1.0, 0.0))
        assert abs(s - (1.0 + math.pi)) < 1e-12

    def test_boundary_fixed(self):
        p = make_profile(0.5, 0.0)
        for t0 in (0.5, -0.5):
            s, t = product_twist(p, 3.0, (2.0, t0))
            assert s == 2.0 and t == t0

    def test_out_of_band_rejected(self):
        p = make_profile(0.5, 0.0)
        with pytest.raises(ValueError):
            product_twist(p, 1.0, (0.0, 0.7))


class TestAreaChart:
    def test_half_width_and_midline(self):
        A = RoundAnnulus((0.0, 0.0), 1.0, math.sqrt(3))
        ch = AreaChart(A)
        assert abs(ch.a - 0.5) < 1e-12
        st = ch.to_product([[math.sqrt(2), 0.0]])
        assert abs(st[0, 1]) < 1e-12

    def test_boundaries_to_band_edges(self):
        A = RoundAnnulus((0.3, -0.2), 0.7, 1.1)
        ch = AreaChart(A)
        inner = ch.to_product([[0.3 + 0.7, -0.2]])
        outer = ch.to_product([[0.3, -0.2 + 1.1]])
        assert abs(inner[0, 1] + ch.a) < 1e-12
        assert abs(outer[0, 1] - ch.a) < 1e-12

    def test_sub_annulus_area_matches_product_measure(self):
        A = RoundAnnulus((0.0, 0.0), 1.0, math.sqrt(3))
        ch = AreaChart(A)
        for r in (1.1, 1.3, 1.6):
            area = math.pi * (r * r - 1.0)
            product = TWO_PI * (ch.t_of_radius(r) + ch.a)
            assert abs(area - product) < 1e-12

    def test_roundtrip_and_orientation(self):
        A = RoundAnnulus((0.1, 0.2), 0.8, 1.4)
        ch = AreaChart(A)
        rng = np.random.default_rng(0)
        pts = A.sample_points(100, rng)
        back = ch.to_plane(ch.to_product(pts))
        assert np.abs(back - pts).max() < 1e-12
        # chart jacobian determinant +1: (s,t) with s = -theta is symplectic
        h = 1e-6
        p0 = pts[:10]
        sx = (ch.to_product(p0 + [h, 0]) - ch.to_product(p0 - [h, 0]))
        sy = (ch.to_product(p0 + [0, h]) - ch.to_product(p0 - [0, h]))
        det = (sx[:, 0] * sy[:, 1] - sx[:, 1] * sy[:, 0]) / (2 * h) ** 2
        assert np.abs(det - 1.0).max() < 1e-6

    def test_annulus_area_height_equals_chart(self):
        """RoundAnnulus.mid and .a are the chart's to the bit; the boundary
        circles sit at area height -a and +a up to the roundings of r^2 and
        mid (exact on some annuli, within 2 ulp of mid on all)."""
        rng = np.random.default_rng(0)
        for r_i, w in rng.uniform(0.01, 2.0, (500, 2)):
            A = RoundAnnulus(tuple(rng.uniform(-1, 1, 2)), r_i, r_i + w)
            ch = AreaChart(A)
            assert A.mid == ch.mid and A.a == ch.a
            t = ch.t_of_radius([A.r_inner, A.r_outer])
            assert np.abs(t - [-A.a, A.a]).max() <= 2 * np.spacing(A.mid)
        A = RoundAnnulus((0.0, 0.0), 1.0, math.sqrt(3))
        assert AreaChart(A).t_of_radius([A.r_inner, A.r_outer]).tolist() == [-A.a, A.a]


class TestDoubleDehnTwist:
    A = RoundAnnulus((0.0, 0.0), 1.0, math.sqrt(3))

    def setup_method(self, _):
        self.prof = make_profile(self.A.a, 0.0)
        self.rng = np.random.default_rng(1)
        self.pts = self.A.sample_points(150, self.rng)

    def test_tau_zero_identity(self):
        f0 = double_dehn_twist(self.A, self.prof, 0.0)
        assert np.abs(f0.apply(self.pts) - self.pts).max() == 0.0

    def test_profile_wider_than_annulus_rejected(self):
        with pytest.raises(ValueError, match="profile wider than the annulus"):
            double_dehn_twist(self.A, make_profile(self.A.a + 2e-9, 0.0), 1.0)
        # within the 1e-9 slack the twist is built
        f = double_dehn_twist(self.A, make_profile(self.A.a + 5e-10, 0.0), 1.0)
        assert f.annulus == self.A

    def test_central_circle_full_turn(self):
        f = double_dehn_twist(self.A, self.prof, 1.0)
        r = math.sqrt(2)
        cc = np.stack([r * np.cos(np.linspace(0, 6, 20)), r * np.sin(np.linspace(0, 6, 20))], -1)
        assert np.abs(f.apply(cc) - cc).max() < 1e-9

    def test_boundary_fixed_exactly(self):
        f = double_dehn_twist(self.A, self.prof, 1.0)
        bd = np.array([[1.0, 0.0], [0.0, math.sqrt(3)], [-1.0, 0.0]])
        assert np.abs(f.apply(bd) - bd).max() == 0.0

    def test_flow_group_law(self):
        f1 = double_dehn_twist(self.A, self.prof, 0.3)
        f2 = double_dehn_twist(self.A, self.prof, 0.45)
        f3 = double_dehn_twist(self.A, self.prof, 0.75)
        lhs = f3.apply(self.pts)
        rhs = f1.apply(f2.apply(self.pts))
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_half_twists_compose_and_commute(self):
        # the halves below and above the rotation circle, t < b and t >= b,
        # composed in both orders
        A, prof = self.A, self.prof
        full = double_dehn_twist(A, prof, 1.0)
        lower = reference_twist(A, prof, 1.0, self.pts, t_hi=prof.b)
        upper = reference_twist(A, prof, 1.0, self.pts, t_lo=prof.b)
        a = reference_twist(A, prof, 1.0, lower, t_lo=prof.b)
        b = reference_twist(A, prof, 1.0, upper, t_hi=prof.b)
        assert np.abs(a - full.apply(self.pts)).max() < 1e-12
        assert np.abs(a - b).max() < 1e-12

    def test_inverse(self):
        f = double_dehn_twist(self.A, self.prof, 2.0)
        f_inv = double_dehn_twist(self.A, self.prof, -2.0)
        assert np.abs(f_inv.apply(f.apply(self.pts)) - self.pts).max() < 1e-12

    def test_jacobian_one(self):
        # step 1e-7: the h^2 truncation term carries the bump's third
        # derivatives and can exceed 1e-6 at the shoulder with step 1e-6
        f = double_dehn_twist(self.A, self.prof, 1.0)
        interior = band_points(self.A, 100, self.rng, 1.1**2, 1.65**2)
        h = 1e-7
        ex, ey = np.array([h, 0]), np.array([0, h])
        ax = (f.apply(interior + ex) - f.apply(interior - ex)) / (2 * h)
        ay = (f.apply(interior + ey) - f.apply(interior - ey)) / (2 * h)
        det = ax[:, 0] * ay[:, 1] - ax[:, 1] * ay[:, 0]
        assert np.abs(det - 1.0).max() < 1e-6

    def test_hamiltonian_gradient(self):
        H, jet = twist_hamiltonian(self.A, self.prof)
        pts = band_points(self.A, 60, self.rng, 1.1**2, 1.65**2)
        h = 1e-7
        gx = (H(pts + [h, 0]) - H(pts - [h, 0])) / (2 * h)
        gy = (H(pts + [0, h]) - H(pts - [0, h])) / (2 * h)
        g = jet(pts)[1]
        assert np.abs(np.stack([gx, gy], -1) - g).max() < 1e-5 * max(1, np.abs(g).max())


class TestRotationAccuracy:
    """The rotation z -> c + (z - c) exp(-i tau h'(t)) against the chart route
    it replaced (``chart_twist``) and against 50-digit arithmetic."""

    @pytest.mark.parametrize("rep_name", ["p3_rep", "c4_rep", "k4_rep", "k6_rep"])
    @pytest.mark.parametrize("tau", [2.0, -2.0, 0.7])
    def test_twists_match_the_chart_route(self, request, rep_name, tau):
        rep = request.getfixturevalue(rep_name)
        pts = probe_points(rep, 5)
        for v, ann in rep.config.annuli.items():
            prof = rep.profiles[v]
            f = double_dehn_twist(ann, prof, tau)
            assert np.abs(f.apply(pts) - chart_twist(ann, prof, tau, pts)).max() <= 1e-13

    def test_as_accurate_as_the_chart_route(self, p3_rep):
        import mpmath

        ann, prof, tau = p3_rep.config.annuli["v"], p3_rep.profiles["v"], float(p3_rep.N)
        pts = ann.sample_points(400, np.random.default_rng(7))
        rotated = double_dehn_twist(ann, prof, tau).apply(pts)
        charted = chart_twist(ann, prof, tau, pts)
        with mpmath.workdps(50):
            c, mid = mpmath.mpc(*ann.center), mpmath.mpf(ann.mid)
            err_rot = err_chart = 0.0
            for p, q_rot, q_chart in zip(pts, rotated, charted):
                rel = mpmath.mpc(*p) - c
                u = ((abs(rel) ** 2 - mid) / 2 - prof.b) / prof.width
                dh = 0 if abs(u) >= 1 else (
                    2 * mpmath.pi * mpmath.e * mpmath.exp(-1 / (1 - u * u)) * (1 - 2 * u * u / (1 - u * u) ** 2)
                )
                exact = c + rel * mpmath.expj(-tau * dh)
                err_rot = max(err_rot, float(abs(mpmath.mpc(*q_rot) - exact)))
                err_chart = max(err_chart, float(abs(mpmath.mpc(*q_chart) - exact)))
        assert err_rot <= 1.5 * err_chart

    def test_inverse_undoes_the_twist_on_the_k6_cover(self, k6_rep):
        rng = np.random.default_rng(11)
        errs = []
        for v, ann in k6_rep.config.annuli.items():
            f = k6_rep.generator_map(v, k6_rep.N)
            f_inv = k6_rep.generator_map(v, -k6_rep.N)
            pts = ann.sample_points(20_000, rng)
            errs.append(np.hypot(*(f_inv.apply(f.apply(pts)) - pts).T))
        assert np.percentile(np.concatenate(errs), 99) <= 2e-11


class FlatProfile:
    """h = h' = 1 everywhere: H and grad H then expose the support mask."""

    def h(self, t):
        return np.ones_like(t)

    def dh(self, t):
        return np.ones_like(t)

    def jet(self, t):
        return self.h(t), self.dh(t)


@pytest.mark.parametrize("A", [
    RoundAnnulus((0.0, 0.0), 1.0, math.sqrt(3)),
    RoundAnnulus((-1.37, 2.05), 0.31, 0.58),
])
def test_contains_matches_einsum_formula(A):
    """``contains`` equals the einsum r^2 closed-annulus mask, bit for bit."""
    rng = np.random.default_rng(11)
    c = np.asarray(A.center)
    box = c + rng.uniform(-1.2 * A.r_outer, 1.2 * A.r_outer, (20_000, 2))
    for pts in (box, boundary_points(A, n=64)):
        rel = pts - c
        r2 = np.einsum("...i,...i->...", rel, rel)
        expected = (r2 >= A.r_inner**2) & (r2 <= A.r_outer**2)
        assert expected.any() and not expected.all()
        assert np.array_equal(A.contains(pts), expected)
    # a single (2,) point gets the same answer as its row
    assert all(A.contains(p) == A.contains(p[None])[0] for p in boundary_points(A, n=4))


class TestTwistHamiltonianMask:
    """The mask built from H's own r^2 is ``RoundAnnulus.contains``, bit for bit."""

    ANNULI = [
        RoundAnnulus((0.0, 0.0), 1.0, math.sqrt(3)),
        RoundAnnulus((0.2, -0.1), 1.0, math.sqrt(3)),
        RoundAnnulus((-1.37, 2.05), 0.31, 0.58),
    ]

    @pytest.mark.parametrize("A", ANNULI)
    def test_mask_is_contains_on_and_off_the_circles(self, A):
        pts = boundary_points(A)
        inside = A.contains(pts)
        # on and one ulp off both circles: the closed mask must take both values
        assert inside.any() and not inside.all()
        H, jet = twist_hamiltonian(A, FlatProfile())
        val, grad = jet(pts)
        assert np.array_equal(H(pts), inside.astype(float))
        assert np.array_equal(val, inside.astype(float))
        rel = pts - np.asarray(A.center)
        assert np.array_equal(grad, np.where(inside[:, None], rel, 0.0))

    @pytest.mark.parametrize("A", ANNULI)
    @pytest.mark.parametrize("b_frac", [0.0, 0.4])
    def test_values_equal_contains_reference(self, A, b_frac):
        prof = make_profile(A.a, b_frac * A.a)
        rng = np.random.default_rng(3)
        pts = np.concatenate([boundary_points(A), A.sample_points(200, rng),
                              np.asarray(A.center) + rng.uniform(-2, 2, (50, 2))])
        H, jet = twist_hamiltonian(A, prof)
        H_ref, grad_ref = reference_twist_hamiltonian(A, prof)
        val, grad = jet(pts)
        assert np.array_equal(H(pts), H_ref(pts)) and np.array_equal(val, H_ref(pts))
        assert np.array_equal(grad, grad_ref(pts))


def check_packing_records(cfg):
    """One {size, sweeps, angle_error} record per component; each packing
    stopped on ANGLE_TOL, not on the sweep cap."""
    records = cfg.provenance["packing"]
    assert [r["size"] for r in records] == [len(c) for c in cfg.graph.components()]
    for r in records:
        assert set(r) == {"size", "sweeps", "angle_error"}
        assert type(r["sweeps"]) is int and 0 <= r["sweeps"] < MAX_SWEEPS
        assert type(r["angle_error"]) is float and 0.0 <= r["angle_error"] < ANGLE_TOL
        if r["size"] <= 2:  # closed forms
            assert r["sweeps"] == 0 and r["angle_error"] == 0.0


class TestConfiguration:
    def test_packing_records_per_component(self):
        g = SimplicialGraph(list("abcdef"), [("a", "b"), ("b", "c"), ("a", "c"), ("d", "f")])
        cfg = build_configuration(planarity(g))
        assert [r["size"] for r in cfg.provenance["packing"]] == [3, 2, 1]
        check_packing_records(cfg)

    @pytest.mark.parametrize("edges", [
        "v0v5 v0v6 v1v4 v1v5 v2v5 v2v6 v3v4 v3v5 v4v5 v4v6 v5v6",
        "v0v1 v0v2 v0v3 v0v5 v1v2 v1v3 v1v4 v1v5 v1v6 v2v6 v4v5 v4v6 v5v6",
    ])
    def test_builds_where_relaxation_left_circles_overlapping(self, edges):
        # the least-squares packing this replaced raised "non-adjacent
        # circles not separated" on both graphs
        g = SimplicialGraph([f"v{i}" for i in range(7)], [(e[:2], e[2:]) for e in edges.split()])
        cfg = build_configuration(planarity(g))
        check_packing_records(cfg)
        assert cfg.graph == g

    def test_sweep_cap_raises(self, monkeypatch):
        monkeypatch.setattr(twist, "MAX_SWEEPS", 1)
        with pytest.raises(PackingError, match="after 1 sweeps"):
            build_configuration(planarity(cycle_graph(list("wxyz"))))

    def test_symmetric_outer_face(self):
        """The boundary ring treats the outer face symmetrically: P3's end
        circles are equal, C4's four circles are equal and form a square."""
        p3 = build_configuration(planarity(path_graph(list("uvw"))))
        assert abs(p3.radii["u"] - p3.radii["w"]) <= 1e-12 * p3.radii["u"]
        assert p3.radii["v"] > 3 * p3.radii["u"]
        c4 = build_configuration(planarity(cycle_graph(list("wxyz"))))
        r = np.array([c4.radii[v] for v in "wxyz"])
        assert np.abs(r - r[0]).max() <= 1e-12 * r[0]
        c = np.array([c4.centers[v] for v in "wxyz"])
        diagonals = [np.hypot(*(c[0] - c[2])), np.hypot(*(c[1] - c[3]))]
        assert abs(diagonals[0] - diagonals[1]) <= 1e-10

    def test_single_vertex_puncture_count(self):
        cfg = build_configuration(planarity(SimplicialGraph(["v"], [])))
        assert len(cfg.region_points) == 2
        assert len(cfg.all_punctures()) == 7

    def test_edge_two_crossing_annuli(self):
        g = SimplicialGraph(["u", "v"], [("u", "v")])
        cfg = build_configuration(planarity(g))
        assert annuli_intersect(cfg.annuli["u"], cfg.annuli["v"])
        flags = np.array([[False, True], [True, False]])
        assert graphs_isomorphic(incidence_nerve(["u", "v"], flags), g)

    def test_path_outer_annuli_disjoint(self):
        g = path_graph(["u", "v", "w"])
        cfg = build_configuration(planarity(g))
        assert not annuli_intersect(cfg.annuli["u"], cfg.annuli["w"])
        assert annuli_intersect(cfg.annuli["u"], cfg.annuli["v"])

    def test_punctures_avoid_other_annuli(self):
        g = cycle_graph(list("wxyz"))
        cfg = build_configuration(planarity(g))
        for v in g.vertices:
            P = cfg.punctures_on_circles[v]
            assert cfg.annuli[v].contains(P).all()
            for u in g.vertices:
                if u != v:
                    assert not cfg.annuli[u].contains(P).any()
        for pts in cfg.region_points:
            for v in g.vertices:
                assert not cfg.annuli[v].contains(pts).any()
        for v in g.vertices:
            c, r = cfg.centers[v], cfg.radii[v]
            assert np.hypot(*(cfg.far_point - c)) > r

    @pytest.mark.parametrize("name", ["P3", "C4", "K4", "three-components", "2K2"])
    def test_region_points_match_per_component_transforms(self, name):
        """On graphs a fine grid resolves, each exact pair lies in one
        flood-fill component, distinct components hold distinct pairs, and
        they are the components the per-component transforms give points."""
        cfg = build_configuration(planarity(FACE_GRAPHS[name]))
        order = list(cfg.graph.vertices)
        labels = flood_fill_labels(cfg.annuli, order, 1024, np.concatenate(cfg.region_points)).reshape(-1, 2)
        assert (labels > 0).all() and (labels[:, 0] == labels[:, 1]).all()
        assert len(set(labels[:, 0].tolist())) == len(labels)
        ref = np.concatenate(reference_region_points(cfg.annuli, order, 1024))
        assert set(flood_fill_labels(cfg.annuli, order, 1024, ref).tolist()) == set(labels[:, 0].tolist())

    def test_region_points_match_per_component_transforms_k6(self, k6_rep):
        """Grid 512 keeps 25 of the 53 components; each holds an exact pair."""
        cfg = k6_rep.config
        order = list(cfg.graph.vertices)
        ref = np.concatenate(reference_region_points(cfg.annuli, order, 512))
        want = set(flood_fill_labels(cfg.annuli, order, 512, ref).tolist())
        labels = flood_fill_labels(cfg.annuli, order, 512, np.concatenate(cfg.region_points)).reshape(-1, 2)
        assert len(want) == 25 and want <= set(labels[labels[:, 0] == labels[:, 1], 0].tolist())

    def test_disk_intersections_match_edges(self):
        g = complete_graph(list("abc"))
        cfg = build_configuration(planarity(g))
        for u, v in itertools.combinations(g.vertices, 2):
            d = np.hypot(*(cfg.centers[u] - cfg.centers[v]))
            if g.has_edge(u, v):
                assert d < cfg.radii[u] + cfg.radii[v]
                assert d > abs(cfg.radii[u] - cfg.radii[v])
            else:
                assert d > cfg.radii[u] + cfg.radii[v]


def star_graph(k):
    return SimplicialGraph(["h"] + [f"l{i}" for i in range(k)], [("h", f"l{i}") for i in range(k)])


TWO_COMPONENTS = SimplicialGraph(list("abcd"), [("a", "b"), ("c", "d")])
THREE_COMPONENTS = SimplicialGraph(list("abcdef"), [("a", "b"), ("b", "c"), ("a", "c"), ("d", "f")])
# a 4-cycle with three pendant circles on one of its vertices
C4_PENDANTS = SimplicialGraph(
    [f"v{i}" for i in range(7)],
    [("v0", "v4"), ("v0", "v6"), ("v1", "v2"), ("v1", "v3"), ("v1", "v4"), ("v1", "v5"), ("v1", "v6")],
)
INFLATION_GRAPHS = {
    "vertex": SimplicialGraph(["v"], []),
    "K2": path_graph(["u", "v"]),
    "P3": path_graph(list("uvw")),
    "K3": complete_graph(list("abc")),
    "C4": cycle_graph(list("wxyz")),
    "K4": complete_graph(list("abcd")),
    "2K2": TWO_COMPONENTS,
    "three-components": THREE_COMPONENTS,
    "star5": star_graph(5),
    "C4-pendants": C4_PENDANTS,
}


def packing_of(embedding):
    c, r, _ = twist._plane_packing(embedding.graph, embedding.positions)
    return c, r, {v: (c[i], float(r[i])) for i, v in enumerate(embedding.graph.vertices)}


def check_inflation(embedding):
    """The closed-form delta is within 5e-9 of the bisection and the
    bisection's own test accepts it; returns it."""
    g = embedding.graph
    c, r, packed = packing_of(embedding)
    delta = twist._inflate(g, c, r)[0]
    assert abs(delta - bisect_delta(g, packed)) <= 5e-9
    assert inflation_valid(g, packed, delta, gap_floor(g, packed))
    return delta


def pair_limits(graph, packed):
    """The least adjacent-pair and non-adjacent-pair thresholds of 1 + delta, by loops."""
    floor = gap_floor(graph, packed)
    adjacent = apart = math.inf
    for u, v in itertools.combinations(graph.vertices, 2):
        (cu, ru), (cv, rv) = packed[u], packed[v]
        d = np.hypot(*(cu - cv))
        if not graph.has_edge(u, v):
            apart = min(apart, (d - floor) / (ru + rv))
        elif ru != rv:
            adjacent = min(adjacent, d / abs(ru - rv))
    return adjacent, apart


def check_against_loops(cfg, embedding):
    """delta as in ``check_inflation``; with it fixed, the centres, radii and
    widths of the configuration equal the loop references bit for bit."""
    delta = cfg.provenance["delta"]
    assert delta == check_inflation(embedding)
    _, _, packed = packing_of(embedding)
    for v, (c, r) in packed.items():
        assert np.array_equal(cfg.centers[v], c)
        assert cfg.radii[v] == r * (1.0 + delta)
    assert cfg.widths == reference_widths(cfg.graph, cfg.centers, cfg.radii)


class TestInflation:
    @pytest.mark.parametrize("graph", INFLATION_GRAPHS.values(), ids=INFLATION_GRAPHS.keys())
    def test_against_loop_references(self, graph):
        emb = planarity(graph)
        check_against_loops(build_configuration(emb), emb)

    def test_fixtures_against_loop_references(self, p3_rep, c4_rep, k6_rep, k6_emulator, k5_emulator):
        for rep in (p3_rep, c4_rep):
            check_against_loops(rep.config, planarity(rep.config.graph))
        check_against_loops(k6_rep.config, k6_emulator.embedding)
        check_inflation(k5_emulator.embedding)

    @pytest.mark.parametrize("graph, limit", [
        (star_graph(5), "adjacent"),
        (C4_PENDANTS, "gap"),
        (SimplicialGraph(list("abcd"), [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")]), "triangle"),
        (path_graph(list("uvw")), "cap"),
    ], ids=["adjacent", "gap", "triangle", "cap"])
    def test_each_limit_decides(self, graph, limit):
        emb = planarity(graph)
        _, _, packed = packing_of(emb)
        delta = check_inflation(emb)
        adjacent, apart = pair_limits(graph, packed)
        pairs = {"adjacent": adjacent, "gap": apart}
        if limit in pairs:
            assert delta == pytest.approx((1.0 - 1e-9) * pairs[limit] - 1.0, rel=0, abs=1e-15)
            assert delta < 0.2 and all(s > pairs[limit] for k, s in pairs.items() if k != limit)
        elif limit == "triangle":  # below both pair limits and the cap
            assert delta < (1.0 - 1e-9) * min(adjacent, apart) - 1.0 - 1e-3
            assert delta < 0.2 - 1e-3
        else:
            assert delta == 0.2

    def test_k3_closed_form(self):
        delta = check_inflation(planarity(complete_graph(list("abc"))))
        assert abs(delta - ((1.0 - 1e-9) * 2.0 / math.sqrt(3.0) - 1.0)) <= 1e-15

    def test_single_vertex_takes_the_cap(self):
        g = SimplicialGraph(["v"], [])
        assert twist._inflate(g, np.zeros((1, 2)), np.ones(1))[0] == 0.2

    def test_nearly_touching_circles_raise(self):
        g = SimplicialGraph(["u", "v"], [])
        c, r = np.array([[-1.0, 0.0], [1.0 + 1e-7, 0.0]]), np.ones(2)
        with pytest.raises(PackingError, match="no inflation factor"):
            twist._inflate(g, c, r)

    @pytest.mark.parametrize("graph", [path_graph(list("uvw")), cycle_graph(list("wxyz")), TWO_COMPONENTS],
                             ids=["P3", "C4", "2K2"])
    @pytest.mark.parametrize("grid", [128, 256, 512])
    def test_flood_fill_finds_every_face(self, graph, grid):
        """On these graphs the flood-fill oracle, the exact arrangement and
        Euler's count of faces agree at every grid."""
        cfg = build_configuration(planarity(graph))
        info = cfg.provenance["components"]
        assert info["n_faces"] == info["n_free"] == 2 * len(graph.edges) + 1 + len(graph.components())
        assert len(reference_region_points(cfg.annuli, list(graph.vertices), grid)) == info["n_free"]

    def test_k6_face_count(self, k6_rep):
        # 30 edges of the 2-sheet cover, one component
        assert k6_rep.config.provenance["components"]["n_faces"] == 62


# graphs on which grid 512 keeps a region in every component of the complement
FACE_GRAPHS = {
    "P3": path_graph(list("uvw")),
    "C4": cycle_graph(list("wxyz")),
    "K4": complete_graph(list("abcd")),
    "2K2": TWO_COMPONENTS,
    "three-components": THREE_COMPONENTS,
}


class TestArrangement:
    @pytest.mark.parametrize("name, n_free", [("P3", 6), ("C4", 10), ("K4", 11), ("2K2", 7)])
    def test_counts_match_flood_fill(self, name, n_free):
        cfg = build_configuration(planarity(FACE_GRAPHS[name]))
        info = cfg.provenance["components"]
        assert info["n_free"] == len(cfg.region_points) == n_free
        assert len(reference_region_points(cfg.annuli, list(cfg.graph.vertices), 512)) == n_free

    def test_cover_counts(self, k6_rep, k5_emulator):
        """Every component of the emulator configurations gets its points;
        the flood fill kept 10 of K6's at grid 256 and 26 of K5's at 512."""
        k5 = build_configuration(k5_emulator.embedding).provenance["components"]
        k6 = k6_rep.config.provenance["components"]
        assert (k5["n_free"], k5["n_faces"]) == (36, 42)
        assert (k6["n_free"], k6["n_faces"]) == (53, 62)
        assert len(k6_rep.config.region_points) == 53

    def test_clearance_recorded(self, c4_rep):
        cfg = c4_rep.config
        least = cfg.provenance["components"]["least_clearance"]
        c = np.array([a.center for a in cfg.annuli.values()])
        r_in = np.array([a.r_inner for a in cfg.annuli.values()])
        r_out = np.array([a.r_outer for a in cfg.annuli.values()])
        regions = np.concatenate(cfg.region_points + [cfg.far_point[None]])
        assert 0.0 < least <= twist._clearances(regions, c, r_in, r_out).min()

    @pytest.mark.parametrize("name", ["P3", "C4", "K4", "2K2", "K5-cover", "K6-cover"])
    def test_overlap_arcs_inside_the_closed_form_intervals(self, name, k5_emulator, k6_emulator):
        """Every ordered edge has an overlap arc, and it lies inside one
        interval of C_u inside A(v) from the closed form; where no third
        annulus cuts C_u inside A(v) (P3, C4) it is that interval."""
        emb = {"K5-cover": k5_emulator, "K6-cover": k6_emulator}.get(name)
        cfg = build_configuration(planarity(FACE_GRAPHS[name]) if emb is None else emb.embedding)
        edges = cfg.graph.sorted_edges()
        assert set(cfg.overlap_arcs) == set(edges) | {(v, u) for u, v in edges}
        for (u, v), (lo, hi) in cfg.overlap_arcs.items():
            assert 0.0 <= lo < TWO_PI and lo < hi
            fits = []
            for ilo, ihi in circle_in_annulus_intervals(cfg.centers[u], cfg.radii[u], cfg.annuli[v]):
                start = (lo - ilo + 1e-12) % TWO_PI - 1e-12  # the arc's start in the interval
                if start + (hi - lo) <= ihi - ilo + 1e-12:
                    fits.append(max(abs(start), (ihi - ilo) - (hi - lo)))
            assert len(fits) == 1
            if name in ("P3", "C4"):
                assert fits[0] <= 1e-12

    def test_overlap_points_of_a_non_edge_raise(self, p3_rep):
        with pytest.raises(ValueError, match="annuli of 'u' and 'w' do not overlap"):
            p3_rep.config.overlap_points("u", "w")

    @pytest.mark.parametrize("spoil, match", [
        (lambda P, regions, arcs: ([None] + P[1:], regions, arcs), "no free arc on the circle of 'w'"),
        (lambda P, regions, arcs: (P, regions * 2, arcs), "20 complementary components, Euler allows 10"),
        (lambda P, regions, arcs: (P, regions[:-1] + [P[0]], arcs), "inside an annulus it must avoid"),
        (lambda P, regions, arcs: (P, regions, {k: a for k, a in arcs.items() if k != (2, 1)}),
         "no arc of the circle of 'y' inside the annulus of 'x'"),
    ], ids=["no-free-arc", "too-many-components", "no-clearance", "no-overlap-arc"])
    def test_spoiled_punctures_raise(self, monkeypatch, spoil, match):
        exact = twist._arrangement_punctures
        monkeypatch.setattr(twist, "_arrangement_punctures", lambda *a: spoil(*exact(*a)))
        with pytest.raises(PackingError, match=match):
            build_configuration(planarity(FACE_GRAPHS["C4"]))


class TestRepresentation:
    def test_rejects_first_iterate(self):
        with pytest.raises(ValueError):
            build_representation(path_graph(["u", "v", "w"]), N=1)

    def test_nonplanar_needs_emulator(self):
        # the message names the one route a nonplanar graph has
        with pytest.raises(ValueError, match="nonplanar .* find one with find_planar_emulator"):
            build_representation(complete_graph(list("abcde")), N=2)

    def test_disjoint_supports_commute_exactly(self, p3_rep):
        rep = p3_rep
        rng = np.random.default_rng(3)
        pts = np.concatenate(
            [rep.config.annuli[v].sample_points(80, rng) for v in "uvw"]
        )
        fu = rep.generator_map("u", rep.N)
        fw = rep.generator_map("w", rep.N)
        assert np.abs(fu.apply(fw.apply(pts)) - fw.apply(fu.apply(pts))).max() == 0.0

    def test_edge_commutator_moves_overlap(self, p3_rep):
        rep = p3_rep
        ov = rep.config.overlap_points("u", "v")
        fu = rep.generator_map("u", rep.N)
        fv = rep.generator_map("v", rep.N)
        fu_inv = rep.generator_map("u", -rep.N)
        fv_inv = rep.generator_map("v", -rep.N)
        out = fu.apply(fv.apply(fu_inv.apply(fv_inv.apply(ov))))
        assert np.hypot(*(out - ov).T).max() > 1e-3

    def test_punctures_fixed(self, p3_rep):
        rep = p3_rep
        P = rep.config.all_punctures()
        for v in "uvw":
            f = rep.generator_map(v, rep.N)
            assert np.abs(f.apply(P) - P).max() < 1e-9

    @pytest.mark.parametrize("name", ["p3_rep", "c4_rep", "k4_rep", "k5_emulator", "k6_rep"])
    def test_only_neighbours_meet_an_annulus(self, request, name):
        """No annulus but those of v's neighbours holds a point of A(v), its
        boundary circles included: the word kernel tracks only those."""
        fixture = request.getfixturevalue(name)
        cfg = fixture.config if name.endswith("rep") else build_configuration(fixture.embedding)
        assert non_neighbour_hits(cfg) == []

    def test_emulator_route(self, k5_emulator):
        rep = build_representation(
            complete_graph(list("abcde")), N=2, emulator=k5_emulator
        )
        assert rep.pullback is not None
        assert len(rep.pullback.images["a"]) == 2
        check_packing_records(rep.config)
