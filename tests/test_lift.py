import functools
import gc
import math
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raagham import lift
from raagham.flows import HamiltonianField, flow_map
from raagham.lift import (
    AssembledHamiltonian,
    CorrectedHamiltonian,
    GroupElement,
    Mollifier,
    MobiusMap,
    QuadratureError,
    TransportChart,
    analytic_report,
    assemble_Hv,
    default_study_annulus,
    enumerate_group,
    lambda_scale,
    schottky_pair,
    smooth_Hv,
    _deriv_sq_polar,
)
from raagham.twist import RoundAnnulus
import lift_reference
from lift_reference import (
    RegionOverlapError,
    check_assembly_disjoint,
    check_disjoint,
    dense_locate,
    free_group_count,
    piece_loop,
)
from test_jets import INNER, same

IDENT = GroupElement((), MobiusMap.identity())


def _tracked_points(piece, n):
    """Plane points on the piece's tracked circle."""
    z = piece.element.map(piece._tracked_preimages(n))
    return np.stack([z.real, z.imag], -1)


class TestMobius:
    def test_rotation(self):
        sigma = MobiusMap(math.pi / 2, 0.0)
        img, der = sigma(0.5), sigma.derivative(0.5)
        assert abs(img - 0.5j) < 1e-14
        assert abs(abs(der) - 1.0) < 1e-14

    def test_zero_of_map(self):
        img = MobiusMap(0.0, 0.5)(0.5)
        assert abs(img) < 1e-14

    def test_derivative_at_origin(self):
        der = MobiusMap(0.0, 0.5).derivative(0.0)
        assert abs(der - 0.75) < 1e-14

    def test_unit_circle_preserved(self):
        m = MobiusMap(0.7, 0.3 - 0.2j)
        z = np.exp(1j * np.linspace(0, TWO_PI := 2 * math.pi, 64, endpoint=False))
        assert np.abs(np.abs(m(z)) - 1.0).max() < 1e-12

    def test_composition_matches_matrices(self):
        a, b = MobiusMap(0.3, 0.2 + 0.1j), MobiusMap(1.1, -0.3j)
        zs = np.array([0.1, 0.2 + 0.3j, -0.5, 0.6j])
        assert np.abs(a(b(zs)) - a.compose(b)(zs)).max() < 1e-12
        assert np.abs(a.inverse()(a(zs)) - zs).max() < 1e-13

    def test_image_circle(self):
        # a translate's outer and inner image circles, from its table column
        m = MobiusMap(0.9, 0.4 - 0.1j)
        c = 0.1 + 0.05j
        p = CorrectedHamiltonian(GroupElement((), m), RoundAnnulus((c.real, c.imag), 0.2, 0.3))
        for ic, ir, r in [(p.outer_center, p.outer_radius, 0.3), (p.inner_center, p.inner_radius, 0.2)]:
            zc = c + r * np.exp(1j * np.linspace(0, 2 * math.pi, 100))
            assert np.abs(np.abs(m(zc) - ic) - ir).max() < 1e-12


class TestEnumeration:
    def test_counts(self):
        gens = schottky_pair(0.98)
        for L, want in [(0, 1), (1, 5), (2, 17), (3, 53)]:
            els = enumerate_group(gens, L)
            assert len(els) == want == free_group_count(2, L)

    def test_elements_distinct_as_maps(self):
        gens = schottky_pair(0.98)
        els = enumerate_group(gens, 2)
        zs = np.array([0.05, -0.1 + 0.2j, 0.3j])
        images = [tuple(np.round(e.map(zs), 9)) for e in els]
        assert len(set(images)) == len(els)

    def test_next_words_are_the_start_of_the_next_length(self):
        gens = schottky_pair(0.98)
        for L in range(5):
            longer = [e for e in enumerate_group(gens, L + 1) if e.length == L + 1]
            for count in (0, 5, 64):
                got = lift.next_words(gens, enumerate_group(gens, L), count)
                assert [e.word for e in got] == [e.word for e in longer[:count]]
                assert [(e.map.alpha, e.map.beta) for e in got] == [
                    (e.map.alpha, e.map.beta) for e in longer[:count]
                ]

    def test_words_match_products(self):
        gens = schottky_pair(0.9)
        letters = [gens[0], gens[0].inverse(), gens[1], gens[1].inverse()]
        els = enumerate_group(gens, 3)
        zs = np.array([0.1, -0.2j, 0.25 + 0.25j])
        for el in els[:20]:
            prod = np.asarray(zs, complex)
            for lid in reversed(el.word):
                prod = letters[lid](prod)
            assert np.abs(prod - el.map(zs)).max() < 1e-9


class TestLambda:
    def test_identity_is_area(self):
        A = default_study_annulus()
        assert abs(lambda_scale(IDENT, A) - A.area) < 1e-10

    def test_rotation_is_area(self):
        A = default_study_annulus()
        rot = GroupElement((), MobiusMap(1.2, 0.0))
        assert abs(lambda_scale(rot, A) - A.area) < 1e-10

    def test_matches_exact_image_area(self):
        A = default_study_annulus()
        el = enumerate_group(schottky_pair(0.98), 1)[2]
        lam = lambda_scale(el, A)
        piece = CorrectedHamiltonian(el, A)
        ro, ri = piece.outer_radius, piece.inner_radius
        assert abs(lam - math.pi * (ro**2 - ri**2)) < 1e-8 * lam

    def test_decay_with_length(self):
        A = default_study_annulus()
        els = enumerate_group(schottky_pair(0.98), 4)
        by_len = {}
        for el in els:
            by_len.setdefault(el.length, []).append(lambda_scale(el, A))
        maxes = [max(by_len[L]) for L in sorted(by_len)]
        assert all(b < a for a, b in zip(maxes[1:], maxes[2:]))


class TestTransport:
    def test_identity_reduces_to_area_chart(self):
        A = default_study_annulus()
        ch = TransportChart(A, IDENT)
        assert abs(ch.mass - A.area) < 1e-10
        assert abs(ch.b) < 1e-12
        rr = np.linspace(A.r_inner, A.r_outer, 9)
        want = (rr**2 - A.r_inner**2) / (A.r_outer**2 - A.r_inner**2) - 0.5
        assert np.abs(ch.t_of_r(rr) - want).max() < 1e-12

    def test_total_mass_and_b_location(self):
        A = default_study_annulus()
        el = enumerate_group(schottky_pair(0.98), 2)[7]
        ch = TransportChart(A, el)
        lam = lambda_scale(el, A)
        assert abs(ch.mass - lam) < 1e-7 * lam
        assert -0.5 < ch.b < 0.5
        # mass below the distinguished circle is b + 1/2
        nr, nt = 600, 600
        x, w = np.polynomial.legendre.leggauss(nr)
        r = 0.5 * (ch.circle_radius - A.r_inner) * (x + 1) + A.r_inner
        wr = 0.5 * (ch.circle_radius - A.r_inner) * w
        th = np.arange(nt) * 2 * math.pi / nt
        vals = _deriv_sq_polar(el.map, ch.c, r, th)
        below = (vals.sum(1) * (2 * math.pi / nt) * r * wr).sum() / ch.mass
        assert abs(below - (ch.b + 0.5)) < 1e-6

    def test_pushforward_is_product_measure(self):
        A = default_study_annulus()
        el = enumerate_group(schottky_pair(0.98), 1)[3]
        ch = TransportChart(A, el)
        # t-sub-bands carry their product mass: P(t <= t0) == t0 + 1/2
        for t0 in (-0.3, 0.0, 0.2):
            r0 = float(ch.r_of_t(np.array([t0]))[0])
            assert abs(float(ch.t_of_r(r0)) - t0) < 1e-10


def _radial_cases():
    """Depth-3 Schottky elements on the study annulus, plus an off-centre one."""
    gens = schottky_pair(0.98)
    cases = [(default_study_annulus(), el) for el in enumerate_group(gens, 3)]
    cases.append((RoundAnnulus((0.1, -0.05), 0.3, 0.5), enumerate_group(gens, 2)[9]))
    return cases


def _quadrature_radial_leg(sigma, annulus, radii, nr=64, nt=512):
    """Cumulative mass inside each radius and the marginal there, by polar
    quadrature of |sigma'|^2: Gauss-Legendre in r, trapezoid in angle."""
    c = complex(*annulus.center)
    th = np.arange(nt) * 2 * math.pi / nt
    x, w = np.polynomial.legendre.leggauss(nr)
    cum = []
    for r in radii:
        rho = 0.5 * (r - annulus.r_inner) * (x + 1) + annulus.r_inner
        marg = _deriv_sq_polar(sigma, c, rho, th).mean(1) * 2 * math.pi * rho
        cum.append(0.5 * (r - annulus.r_inner) * (w * marg).sum())
    marg = _deriv_sq_polar(sigma, c, np.asarray(radii), th).mean(1) * 2 * math.pi * radii
    return np.array(cum), marg


class TestClosedFormRadialLeg:
    def test_t_of_r_matches_quadrature(self):
        for annulus, el in _radial_cases():
            ch = TransportChart(annulus, el)
            rr = np.linspace(annulus.r_inner, annulus.r_outer, 11)
            cum, marg = _quadrature_radial_leg(el.map, annulus, rr)
            mass = cum[-1]
            assert abs(ch.mass - mass) <= 1e-12 * mass
            assert np.abs(ch.t_of_r(rr) - (cum / mass - 0.5)).max() <= 1e-12
            assert np.abs(ch.t_jet(rr)[1] - marg / mass).max() <= 1e-12 * np.abs(marg / mass).max()

    def test_dt_dr_matches_central_difference(self):
        h = 1e-5
        for annulus, el in _radial_cases():
            ch = TransportChart(annulus, el)
            rr = np.linspace(annulus.r_inner + h, annulus.r_outer - h, 9)
            fd = (ch.t_of_r(rr + h) - ch.t_of_r(rr - h)) / (2 * h)
            assert np.abs(fd - ch.t_jet(rr)[1]).max() <= 1e-8 * np.abs(ch.t_jet(rr)[1]).max()

    def test_r_of_t_inverts_t_of_r(self, assembled_depth6):
        ts = np.linspace(-0.5, 0.5, 41)
        cases = [(annulus, TransportChart(annulus, el), ts) for annulus, el in _radial_cases()]
        # every depth-6 chart in one array pass: t a column against a row of charts
        cases.append((assembled_depth6.annulus, assembled_depth6.all_pieces.chart, ts[:, None]))
        for annulus, ch, t in cases:
            rr = ch.r_of_t(t)
            assert np.abs(ch.t_of_r(rr) - t).max() <= 1e-13
            assert np.abs(rr[0] - annulus.r_inner).max() <= 1e-14
            assert np.abs(rr[-1] - annulus.r_outer).max() <= 1e-14


class TestCorrected:
    def test_identity_reduces_to_flat_twist(self):
        A = default_study_annulus()
        ch = CorrectedHamiltonian(IDENT, A)
        assert abs(ch.b) < 1e-12
        assert abs(ch.lambda2 - A.area) < 1e-10

    def test_sup_bound(self):
        A = default_study_annulus()
        el = enumerate_group(schottky_pair(0.98), 1)[1]
        ch = CorrectedHamiltonian(el, A)
        sup_h = np.abs(ch.profile.h(np.linspace(-0.5, 0.5, 2001))).max()
        assert ch.sup_abs() <= ch.lambda2 * sup_h + 1e-15
        assert ch.sup_abs() >= ch.scale * sup_h

    def test_gradient_matches_finite_differences(self):
        H = assemble_Hv("v", enumerate_group(schottky_pair(0.98), 1), default_study_annulus())
        el = H.pieces[1].element
        rng = np.random.default_rng(1)
        wpts = np.sqrt(rng.uniform(0.36**2, 0.54**2, 30)) * np.exp(
            1j * rng.uniform(0, 2 * math.pi, 30)
        )
        z = el.map(wpts)
        pts = np.stack([z.real, z.imag], -1)
        g = H.gradient(pts)
        h = 1e-8
        gx = (H.value(pts + [h, 0]) - H.value(pts - [h, 0])) / (2 * h)
        gy = (H.value(pts + [0, h]) - H.value(pts - [0, h])) / (2 * h)
        assert np.abs(np.stack([gx, gy], -1) - g).max() < 1e-6 * np.abs(g).max()

    def test_flow_rotates_translated_circle_once(self):
        # the tracked circles of all four length-1 translates, flowed in one batch
        H = assemble_Hv("v", enumerate_group(schottky_pair(0.98), 1), default_study_annulus())
        pts = np.concatenate([_tracked_points(p, 8) for p in H.pieces if p.element.length == 1])
        res = flow_map(HamiltonianField(H.value, H.jet), pts, T=1.0, steps=2000)
        assert np.hypot(*(res.final - pts).T).max() < 1e-4


def _circles(pieces):
    """The columns check_disjoint reads: outer centres and radii, inner centres and radii."""
    cols = ("outer_center", "outer_radius", "inner_center", "inner_radius")
    return [np.array([getattr(p, k) for p in pieces]) for k in cols]


class TestAssembled:
    def test_chart_mass_matches_quadrature_on_every_piece(self, assembled_depth6):
        A = default_study_annulus()
        for piece in assembled_depth6.pieces:
            lam = lambda_scale(piece.element, A)
            assert abs(piece.chart.mass - lam) <= 1e-6 * lam
            assert -0.5 < piece.b < 0.5

    def test_zero_outside_disk(self, assembled_depth6):
        H = assembled_depth6
        z = np.concatenate([1.0 * np.exp(1j * np.linspace(0, 6, 50)), [1.3, 2.0 + 1j]])
        assert np.abs(H.value_complex(z)).max() == 0.0

    def test_small_near_boundary(self, assembled_depth6):
        assert assembled_depth6.boundary_ring_sup() < 1e-5

    def test_translate_diameters_shrink(self, assembled_depth6):
        diam = {}
        for p in assembled_depth6.pieces:
            diam[p.element.length] = max(diam.get(p.element.length, 0.0), 2.0 * p.outer_radius)
        Ls = sorted(diam)
        assert all(diam[b] < diam[a] for a, b in zip(Ls, Ls[1:]))

    def test_overlap_detected(self):
        # a rotation fixes the annulus, so this empty-word twin covers A exactly;
        # the certificate rejects it as a repeated word
        A = default_study_annulus()
        with pytest.raises(ValueError, match=r"pieces 0 and 1 have the same word \(\)"):
            assemble_Hv("v", [IDENT, GroupElement((), MobiusMap(0.5, 0.0))], A)

    def test_overlap_names_first_pair(self):
        A = default_study_annulus()
        els = enumerate_group(schottky_pair(0.98), 2)
        # a rotation fixes the annulus, so this copy covers translate 5 exactly
        twin = GroupElement(els[5].word, els[5].map.compose(MobiusMap(0.5, 0.0)))
        with pytest.raises(ValueError, match=r"pieces 5 and 17 have the same word \(0, 0\)"):
            assemble_Hv("v", els + [twin], A)

    def test_nested_translates_accepted(self):
        # the nested clause of the sweep oracle: as an assembly the two pieces
        # share the empty word, which is rejected
        outer = CorrectedHamiltonian(IDENT, default_study_annulus())
        inner = CorrectedHamiltonian(IDENT, RoundAnnulus((0.02, 0.0), 0.1, 0.2))
        for pieces in ([outer, inner], [inner, outer]):
            check_disjoint(*_circles(pieces))

    def test_overlap_check_matches_pairwise_loop(self):
        def disjoint(a, b):
            if abs(a.outer_center - b.outer_center) > a.outer_radius + b.outer_radius - 1e-13:
                return True
            if abs(a.inner_center - b.outer_center) + b.outer_radius <= a.inner_radius + 1e-13:
                return True
            return abs(b.inner_center - a.outer_center) + a.outer_radius <= b.inner_radius + 1e-13

        def ring(c, ro, ri, ic=None):
            return SimpleNamespace(outer_center=complex(c), outer_radius=float(ro),
                                   inner_center=complex(c if ic is None else ic), inner_radius=float(ri))

        def check(pieces):
            first = next(
                ((i, j) for i in range(len(pieces)) for j in range(i + 1, len(pieces))
                 if not disjoint(pieces[i], pieces[j])),
                None,
            )
            if first is None:
                check_disjoint(*_circles(pieces))
            else:
                with pytest.raises(RegionOverlapError, match=f"regions {first[0]} and {first[1]} "):
                    check_disjoint(*_circles(pieces))
            return first

        rng = np.random.default_rng(5)
        for trial in range(40):
            n = 12
            centres = rng.uniform(-3, 3, n) + 1j * rng.uniform(-3, 3, n)
            outer = rng.uniform(0.2, 1.0, n)
            inner = outer * rng.uniform(0.1, 0.9, n)
            pieces = [ring(c, ro, ri) for c, ro, ri in zip(centres, outer, inner)]
            if trial % 2:  # a small disk inside one hole
                pieces.append(ring(centres[3], 0.5 * inner[3], 0.1 * inner[3]))
            check(pieces)

        # many tiny disks on one vertical line: every x-extent coincides, so
        # every pair is a candidate; apart, then with one pair made to overlap
        ys = np.arange(200) * 1e-3
        column = [ring(0.25 + 1j * y, 4e-4, 1e-4) for y in ys]
        assert check(column) is None
        between = ring(0.25 + 1j * (ys[40] + 5e-4), 4e-4, 1e-4)
        assert check(column[:150] + [between] + column[150:]) == (40, 150)

        # touching within the slack, overlapping by more than it, and just apart
        for gap, overlaps in [(0.0, False), (-0.5e-13, False), (-3e-13, True), (1e-12, False)]:
            for dx, dy in [(1.0, 0.0), (0.6, 0.8)]:
                d = 0.7 + gap
                pair = [ring(0.1 - 0.2j, 0.3, 0.1), ring(0.1 - 0.2j + d * dx + 1j * d * dy, 0.4, 0.2)]
                assert (check(pair) is not None) == overlaps

        # nested pairs: inside the hole, touching its circle, poking out of it
        host = ring(0.0, 0.9, 0.5, ic=0.01)
        for c, r in [(0.02, 0.3), (0.01 + 0.2, 0.3), (0.01 + 0.25, 0.3), (-0.3j, 0.25)]:
            for pieces in ([host, ring(c, r, 0.5 * r)], [ring(c, r, 0.5 * r), host]):
                want_nested = abs(0.01 - c) + r <= 0.5 + 1e-13
                assert (check(pieces) is None) == want_nested

        # a circle with a non-finite extent fails against every other
        assert check([ring(0.0, 0.1, 0.05), ring(5.0, 0.1, 0.05), ring(np.nan, 0.1, 0.05)]) == (0, 2)
        assert check([ring(0.0, 0.1, 0.05), ring(5.0, np.inf, 0.05)]) == (0, 1)

    def test_assembly_is_freed_when_dropped(self):
        # its piece views hold the table, not the assembly: no reference cycle
        gc.disable()
        try:
            H = assemble_Hv("v", enumerate_group(schottky_pair(0.98), 1), default_study_annulus())
            assert H.pieces[1].element.word == (0,)
            dropped = weakref.ref(H)
            del H
            assert dropped() is None
        finally:
            gc.enable()

    def test_sweep_tests_few_pairs(self, assembled_depth6):
        p, n = assembled_depth6.all_pieces, len(assembled_depth6.pieces)
        pairs = check_disjoint(p.outer_center, p.outer_radius, p.inner_center, p.inner_radius)
        assert n == 1457 and 0 < pairs < n * (n - 1) // 2 // 50


# an annulus reaching close to the isometric disks, r_outer 0.8 < 0.817: its
# first translates come within |z| = 0.833 of the origin
WIDE = RoundAnnulus((0.0, 0.0), 0.7, 0.8)


class TestConstantTable:
    """The array-built table against the scalar arithmetic of one piece at a
    time (``lift_reference.piece_constants``), bit for bit."""

    @pytest.mark.parametrize("s", [0.9, 0.98])
    @pytest.mark.parametrize(
        "annulus",
        [default_study_annulus(), WIDE, RoundAnnulus((0.1, -0.05), 0.3, 0.5)],
        ids=["study", "wide", "off"],
    )
    def test_table_matches_per_piece_arithmetic(self, s, annulus):
        gens = schottky_pair(s)
        for depth in range(7):
            maps = [el.map for el in enumerate_group(gens, depth)]
            got, want = lift.constant_table(maps, annulus), lift_reference.constant_table(maps, annulus)
            assert all(np.array_equal(g, w) and same(g, w) for g, w in zip(got, want)), depth
        tail = [el.map for el in lift.next_words(gens, enumerate_group(gens, 6), 64)]
        assert len(tail) == 64
        got, want = (t(tail, annulus)[1][8] for t in (lift.constant_table, lift_reference.constant_table))
        assert np.array_equal(got, want) and same(got, want)

    def test_assembly_views_its_table(self, assembled_depth6):
        H = assembled_depth6
        cplx, real = lift_reference.constant_table([el.map for el in H.elements], H.annulus)
        assert same(H._complex, cplx) and same(H._real, real)
        # a piece built alone has its assembly's column, as Python scalars
        for k in (0, 1, 700, -1):
            alone, view = CorrectedHamiltonian(H.elements[k], H.annulus), H.pieces[k]
            for p in (alone, view):
                column = list(p._record[0])
                assert column == cplx[:, k].tolist() and all(type(x) is complex for x in column)
                named = [p.outer_center, p.inner_center, p.inv.alpha, p.inv.beta, p.chart.c]
                assert named == column[:4] + column[6:]
                assert p.b == real[9, k] and type(p.b) is float
            chart = TransportChart(H.annulus, H.elements[k])
            assert (chart.mass, chart.b) == (view.lambda2, view.b) == (real[8, k], real[9, k])

    def test_tail_estimate_is_the_largest_tail_mass(self):
        gens, A = schottky_pair(0.98), default_study_annulus()
        els = enumerate_group(gens, 4)
        tail = lift.next_words(gens, els, 64)
        masses = lift_reference.constant_table([el.map for el in tail], A)[1][8]
        sup_h = CorrectedHamiltonian(IDENT, A).profile.sup_abs()
        H = assemble_Hv("v", els, A, tail_elements=tail)
        assert H.tail_estimate == float(max(masses) * sup_h / (2 * math.pi))


@functools.lru_cache(maxsize=None)
def _schottky_assembly(depth, annulus=None):
    annulus = annulus or default_study_annulus()
    return assemble_Hv("v", enumerate_group(schottky_pair(0.98), depth), annulus)


def _point_set(H, name):
    """The smooth-study grid, the ring 0.999 <= |z| <= 1, 50 000 random points
    of [-1.05, 1.05]^2, or every piece's tracked points."""
    if name == "grid":
        grid = np.linspace(-0.9, 0.9, 241)
        X, Y = np.meshgrid(grid, grid)
        mask = X**2 + Y**2 <= 0.81
        return X[mask] + 1j * Y[mask]
    if name == "ring":
        ang = np.arange(4096) * 2 * math.pi / 4096
        return (np.linspace(0.999, 1.0, 8)[:, None] * np.exp(1j * ang)[None, :]).ravel()
    if name == "random":
        rng = np.random.default_rng(17)
        return rng.uniform(-1.05, 1.05, 50_000) + 1j * rng.uniform(-1.05, 1.05, 50_000)
    return np.concatenate([p.element.map(p._tracked_preimages(lift.SAMPLES_PER_PIECE)) for p in H.pieces])


def _isometric_circle_points(n=64):
    """Points on the isometric circles of the Schottky letters and inverses."""
    ang = np.exp(1j * np.arange(n) * 2 * math.pi / n)
    out = []
    for g in schottky_pair(0.98):
        for m in (g, g.inverse()):
            centre, radius = lift._isometric_disk(m.alpha, m.beta)
            out.append(centre + radius * ang)
    return np.concatenate(out)


OUTSIDE = np.array([1.0, -1.0j, np.exp(0.3j), 1.0 + 1e-15, -1.5, 2.0 + 1.0j, 30.0, 0.6 + 0.8j])


def _edge_points(H, n=8):
    """Both boundary circles of every piece, the isometric circles and points with |z| >= 1."""
    w = np.exp(1j * (np.arange(n) * 2 * math.pi / n + 0.1))
    circles = [
        p.element.map(p.chart.c + r * w) for p in H.pieces for r in (p.annulus.r_inner, p.annulus.r_outer)
    ]
    return np.concatenate(circles + [_isometric_circle_points(), OUTSIDE])


def _assert_located_is_loop(H, z):
    assert same(H.value_complex(z), piece_loop(H, z))
    (val, grad), (want_val, want_grad) = H.jet_complex(z), piece_loop(H, z, jet=True)
    assert same(val, want_val) and same(grad, want_grad)


class TestPointLocation:
    """Values and jets located by Schottky reduction against the loop over
    pieces (``lift_reference.piece_loop``), bit for bit."""

    @pytest.mark.parametrize("points", ["grid", "ring", "random", "tracked"])
    @pytest.mark.parametrize("depth", [4, 6])
    def test_point_sets_match_piece_loop(self, depth, points):
        H = _schottky_assembly(depth)
        _assert_located_is_loop(H, _point_set(H, points))

    @pytest.mark.parametrize("depth, annulus", [(d, None) for d in range(7)] + [(2, WIDE), (4, WIDE)])
    def test_edges_match_piece_loop(self, depth, annulus):
        H = _schottky_assembly(depth, annulus)
        # INNER alone runs on the identity piece's 0-d record, with the rest located
        inner = INNER.view(complex).ravel()
        _assert_located_is_loop(H, np.concatenate([_edge_points(H), inner]))
        _assert_located_is_loop(H, inner)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(0, 6), st.data())
    def test_drawn_points_match_piece_loop(self, depth, data):
        H = _schottky_assembly(depth)
        piece = H.pieces[data.draw(st.integers(0, len(H.pieces) - 1))]
        # points across the drawn translate and just beyond its boundary circles
        r = np.array(data.draw(st.lists(st.floats(0.3, 0.6), min_size=1, max_size=8)))
        ang = np.array(data.draw(st.lists(st.floats(0.0, 2 * math.pi), min_size=len(r), max_size=len(r))))
        near = piece.element.map(piece.chart.c + r * np.exp(1j * ang))
        free = np.array(data.draw(st.lists(st.complex_numbers(max_magnitude=1.5), max_size=8)), complex)
        z = np.concatenate([near, free, _isometric_circle_points(8), OUTSIDE])
        _assert_located_is_loop(H, z)
        _assert_located_is_loop(H, z[:1])

    @pytest.mark.parametrize("depth, pruned", [(d, False) for d in range(9)] + [(4, True)])
    def test_sorted_index_locates_as_the_dense_table(self, depth, pruned):
        H = _schottky_assembly(depth)
        tracked = [p.element.map(p._tracked_preimages(2)) for p in H.pieces]
        z = np.concatenate([_point_set(H, "random"), _isometric_circle_points(), OUTSIDE, *tracked])
        rho, full = np.abs(z), H._locate(z, np.abs(z))
        if pruned:  # every other word of the greatest length left out: codes no piece has
            kept = [e for i, e in enumerate(H.elements) if e.length < depth or i % 2]
            H = assemble_Hv("v", kept, default_study_annulus())
        got = H._locate(z, rho)
        assert np.array_equal(got, dense_locate(H, z, rho))
        assert ((got == -1).sum() > (full == -1).sum()) == pruned
        # the points reach many pieces, not only the identity
        assert len(np.unique(got[got >= 0])) > min(len(H.pieces) // 2, 50)
        # one code and one piece number per piece, not one entry per code of length <= L
        assert H._codes.nbytes + H._code_pieces.nbytes <= 16 * len(H.pieces)

    def test_chunks_match_one_pass(self, monkeypatch):
        H = _schottky_assembly(4)
        z = _point_set(H, "tracked")
        want = H.jet_complex(z)
        monkeypatch.setattr(lift, "LOCATE_CHUNK", 97)
        got = H.jet_complex(z)
        assert same(got[0], want[0]) and same(got[1], want[1])

    def test_rejects_a_repeated_word(self):
        # the second translate lies apart from A; its word still repeats the first's
        far = GroupElement((), MobiusMap(0.0, 0.9))
        with pytest.raises(ValueError, match=r"pieces 0 and 1 have the same word \(\)"):
            AssembledHamiltonian("v", [IDENT, far], default_study_annulus())

    def test_rejects_a_missing_prefix_or_letter(self):
        els = enumerate_group(schottky_pair(0.98), 2)
        A = default_study_annulus()
        with pytest.raises(ValueError, match=r"word \(0, 0\) but no piece has \(0,\)"):
            assemble_Hv("v", [e for e in els if e.word != (0,)], A)
        # (2, 0) keeps its prefix (2,), but its letter 0 is no piece's word
        with pytest.raises(ValueError, match=r"word \(2, 0\) but no piece has \(0,\)"):
            assemble_Hv("v", [e for e in els if e.word[:1] != (0,)], A)
        with pytest.raises(ValueError, match="at least one piece"):
            assemble_Hv("v", [], A)

    def test_rejects_meeting_isometric_disks(self):
        # for s <= 1/sqrt 2 neighbouring isometric disks overlap; a tiny annulus
        # keeps the translates apart, so only point location objects
        small = RoundAnnulus((0.0, 0.0), 0.01, 0.02)
        with pytest.raises(ValueError, match="isometric disks of letters 0 and 2 meet"):
            assemble_Hv("v", enumerate_group(schottky_pair(0.6), 1), small)

    def test_rejects_an_annulus_meeting_an_isometric_disk(self):
        ring = RoundAnnulus((0.85, 0.0), 0.005, 0.01)
        with pytest.raises(ValueError, match="isometric disk of letter 1 meets the annulus"):
            assemble_Hv("v", enumerate_group(schottky_pair(0.98), 1), ring)

    def test_rejects_a_letter_without_isometric_circle(self):
        off = RoundAnnulus((0.5, 0.0), 0.05, 0.1)
        half_turn = GroupElement((0,), MobiusMap(math.pi, 0.0))
        with pytest.raises(ValueError, match="letter 0 has no isometric circle"):
            assemble_Hv("v", [IDENT, half_turn], off)


def _moved(elements, i, j):
    """elements with piece i given the map of piece j."""
    return elements[:i] + [GroupElement(elements[i].word, elements[j].map)] + elements[i + 1 :]


class TestDisjointness:
    """The ping-pong certificate of ``_index_words`` against the float sweep it
    replaced (``lift_reference.check_disjoint``), an oracle to depth 6."""

    @pytest.mark.parametrize("depth", [7, 8])
    def test_rejects_a_deep_piece_given_its_siblings_map(self, depth):
        # the two translates coincide; their outer radius is below the sweep's
        # 1e-13 slack, so the sweep took them for apart
        els = enumerate_group(schottky_pair(0.98), depth)
        with pytest.raises(ValueError, match=rf"piece {len(els) - 1}'s map is not the product of the letters"):
            AssembledHamiltonian("v", _moved(els, len(els) - 1, len(els) - 2), default_study_annulus())

    def test_rejects_a_non_identity_empty_word(self):
        rotation = GroupElement((), MobiusMap(0.5, 0.0))
        with pytest.raises(ValueError, match="piece 0 has the empty word but a map other than the identity"):
            AssembledHamiltonian("v", [rotation], default_study_annulus())

    def test_rejects_an_unreduced_word(self):
        els = enumerate_group(schottky_pair(0.98), 1)
        unreduced = GroupElement((0, 1), els[1].map.compose(els[2].map))
        with pytest.raises(ValueError, match=r"word \(0, 1\), which is not freely reduced"):
            AssembledHamiltonian("v", els + [unreduced], default_study_annulus())

    def test_rejects_letters_whose_maps_are_not_inverse(self):
        # letter 1 given letter 0's map: on its own entry it is its letter's product
        els = enumerate_group(schottky_pair(0.98), 1)
        with pytest.raises(ValueError, match="the maps of letters 0 and 1 are not inverse"):
            AssembledHamiltonian("v", _moved(els, 2, 1), default_study_annulus())

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(1, 6), st.data())
    def test_a_piece_given_another_map_is_rejected_by_both(self, depth, data):
        els = enumerate_group(schottky_pair(0.98), depth)
        i = data.draw(st.integers(0, len(els) - 1))
        j = data.draw(st.integers(0, len(els) - 2))
        moved = _moved(els, i, j + (j >= i))
        A = default_study_annulus()
        with pytest.raises(ValueError, match="is not the product|empty word|not inverse|no isometric circle"):
            AssembledHamiltonian("v", moved, A)
        with pytest.raises(RegionOverlapError):
            check_assembly_disjoint([el.map for el in moved], A)

    @pytest.mark.parametrize("s", [0.9, 0.98])
    @pytest.mark.parametrize("annulus", [default_study_annulus(), WIDE], ids=["study", "wide"])
    def test_every_enumerated_assembly_is_judged_alike(self, s, annulus):
        # the certificate to depth 8, the oracle to depth 6; WIDE reaches the
        # isometric disks of schottky_pair(0.9), so both reject it from depth 1
        for depth in range(9):
            els = enumerate_group(schottky_pair(s), depth)
            maps = [el.map for el in els]
            if s == 0.9 and annulus is WIDE and depth > 0:
                with pytest.raises(ValueError, match="meets the annulus"):
                    AssembledHamiltonian("v", els, annulus)
                with pytest.raises(RegionOverlapError):
                    check_assembly_disjoint(maps, annulus)
            else:
                AssembledHamiltonian("v", els, annulus)
                if depth <= 6:
                    check_assembly_disjoint(maps, annulus)


def _mp_pairs(words, s=0.98):
    """60-digit SU(1,1) pairs (alpha, beta) of the Schottky words, each the
    product of its parent word's pair with its last letter."""
    import mpmath

    alpha = 1 / mpmath.sqrt(1 - mpmath.mpf(s) ** 2)
    # letter ids as in enumerate_group: 2k for generator k, 2k + 1 for its inverse (alpha, -beta)
    letters = [(alpha, b * s * alpha) for b in (1, -1, 1j, -1j)]
    pairs = {(): (mpmath.mpc(1), mpmath.mpc(0))}
    for word in sorted(filter(None, words), key=len):
        (a1, b1), (a2, b2) = pairs[word[:-1]], letters[word[-1]]
        pairs[word] = (a1 * a2 + b1 * mpmath.conj(b2), a1 * b2 + b1 * mpmath.conj(a2))
    return pairs


def _mp_image_radius(pair, c, r):
    """r / (|g|^2 - |beta|^2 r^2), g = conj(beta) c + conj(alpha)."""
    import mpmath

    alpha, beta = pair
    g = mpmath.conj(beta) * c + mpmath.conj(alpha)
    return r / (abs(g) ** 2 - abs(beta) ** 2 * r**2)


class TestSU11Precision:
    """The double SU(1,1) route against the same products in mpmath."""

    def test_scales_and_radii_match_60_digit_products(self, assembled_depth6):
        import mpmath

        with mpmath.workdps(60):
            pairs = _mp_pairs([p.element.word for p in assembled_depth6.pieces])
            worst = 0.0
            for p in assembled_depth6.pieces:
                pair = pairs[p.element.word]
                R_in, R_out = (
                    _mp_image_radius(pair, p.chart.c, r) for r in (p.annulus.r_inner, p.annulus.r_outer)
                )
                for got, want in [
                    (1 / abs(p.element.map.alpha) ** 2, 1 / abs(pair[0]) ** 2),
                    (p.lambda2, mpmath.pi * (R_out**2 - R_in**2)),  # the chart's mass
                    (p.inner_radius, R_in),
                    (p.outer_radius, R_out),
                ]:
                    worst = max(worst, float(abs(got - want) / want))
        assert {p.element.length for p in assembled_depth6.pieces} == set(range(7))
        assert worst <= 1e-12

    def test_boundary_distance_matches_40_digit_products(self, assembled_depth6):
        """Each row's r = min 1 - |sigma(w0)| over the tracked preimages."""
        import mpmath

        rep = analytic_report(assembled_depth6)
        worst = {}
        with mpmath.workdps(40):
            pairs = _mp_pairs([p.element.word for p in assembled_depth6.pieces])
            for p, row in zip(assembled_depth6.pieces, rep.rows):
                alpha, beta = pairs[p.element.word]
                want = min(
                    1 - abs((alpha * w + beta) / (mpmath.conj(beta) * w + mpmath.conj(alpha)))
                    for w in map(mpmath.mpc, p._tracked_preimages(lift.SAMPLES_PER_PIECE))
                )
                L = p.element.length
                worst[L] = max(worst.get(L, 0.0), float(abs(row["r"] - want) / want))
        assert sorted(worst) == list(range(7))
        assert max(worst.values()) <= 1e-12, worst

    def test_stencil_rows_match_50_digit_stencil(self, assembled_depth6):
        """Rows d1-d3 of the first 3 pieces of every length against the same
        stencil (base points sigma(w0) of the tracked preimages w0, step h)
        through the 50-digit products."""
        import mpmath

        rep = analytic_report(assembled_depth6)
        picked = {}
        for i, p in enumerate(assembled_depth6.pieces):
            picked.setdefault(p.element.length, []).append(i)
        picked = [i for L in sorted(picked) for i in picked[L][:3]]
        assert len(picked) == 1 + 3 * 6
        with mpmath.workdps(50):
            pairs = _mp_pairs([p.element.word for p in assembled_depth6.pieces])
            for i in picked:
                p, row = assembled_depth6.pieces[i], rep.rows[i]
                alpha, beta = pairs[p.element.word]
                c, prof = mpmath.mpc(p.chart.c), p.profile
                R2_in, R2_out = (
                    _mp_image_radius((alpha, beta), c, r) ** 2 for r in (p.annulus.r_inner, p.annulus.r_outer)
                )
                mass = mpmath.pi * (R2_out - R2_in)

                def H(z):
                    w = (mpmath.conj(alpha) * z - beta) / (alpha - mpmath.conj(beta) * z)
                    R2 = _mp_image_radius((alpha, beta), c, abs(w - c)) ** 2
                    u = (mpmath.pi * (R2 - R2_in) / mass - 0.5 - prof.b) / prof.width
                    assert abs(u) < 1
                    return mass * mpmath.e * prof.width * u * mpmath.exp(-1 / (1 - u * u))

                h = mpmath.mpf(1e-3 * row["r"])
                want = {1: 0, 2: 0, 3: 0}
                for w0 in map(mpmath.mpc, p._tracked_preimages(lift.SAMPLES_PER_PIECE)):
                    z = (alpha * w0 + beta) / (mpmath.conj(beta) * w0 + mpmath.conj(alpha))
                    for e in (h, 1j * h):
                        fp, fm, fp2, fm2, f0 = (H(z + k * e) for k in (1, -1, 2, -2, 0))
                        want[1] = max(want[1], abs(fp - fm) / (2 * h))
                        want[2] = max(want[2], abs(fp - 2 * f0 + fm) / h**2)
                        want[3] = max(want[3], abs(fp2 - 2 * fp + 2 * fm - fm2) / (2 * h**3))
                for n in (1, 2, 3):
                    assert abs(row[f"d{n}"] - want[n]) <= 1e-7 * want[n], (i, n)


class TestMollifier:
    def test_peak_and_outside(self):
        for eps in (0.1, 1.0):
            assert Mollifier(eps).value_radial(0.0) == 1.0
            assert Mollifier(eps).value_radial(1.0) == 0.0
            assert Mollifier(eps).value_radial(abs(1.5 + 0.5j)) == 0.0

    def test_half_radius_value(self):
        for eps in (0.1, 0.01):
            assert abs(Mollifier(eps).value_radial(0.5) - math.exp(-eps)) < 1e-14

    def test_range_and_monotonicity(self):
        m = Mollifier(0.3)
        rho = np.linspace(0, 1.2, 200)
        v = m.value_radial(rho)
        assert ((v >= 0) & (v <= 1)).all()
        assert (np.diff(v[rho < 1]) <= 1e-15).all()
        # pointwise non-decreasing as eps decreases
        v_small = Mollifier(0.05).value_radial(rho)
        assert (v_small >= v - 1e-15).all()

    def test_gradient(self):
        m = Mollifier(0.2)
        rng = np.random.default_rng(2)
        pts = rng.uniform(-0.9, 0.9, (100, 2))
        h = 1e-7
        gx = (m.value(pts + [h, 0]) - m.value(pts - [h, 0])) / (2 * h)
        gy = (m.value(pts + [0, h]) - m.value(pts - [0, h])) / (2 * h)
        assert np.abs(np.stack([gx, gy], -1) - m.gradient(pts)).max() < 1e-6


class TestSmoothing:
    def test_uniform_convergence_on_compact(self, assembled_depth6):
        H = assembled_depth6
        grid = np.linspace(-0.9, 0.9, 201)
        X, Y = np.meshgrid(grid, grid)
        mask = X**2 + Y**2 <= 0.81
        pts = np.stack([X[mask], Y[mask]], -1)
        base = H.value(pts)
        sups = []
        for eps in (0.1, 0.01, 0.001):
            sups.append(float(np.abs(smooth_Hv(H, eps).value(pts) - base).max()))
        assert sups[0] > sups[1] > sups[2] > 0

    def test_support_inherited(self, assembled_depth6):
        f = smooth_Hv(assembled_depth6, 0.05)
        outside = np.array([[1.01, 0.0], [0.0, -1.2], [2.0, 2.0]])
        assert np.abs(f.value(outside)).max() == 0.0

    def test_smoothed_gradient(self, assembled_depth6):
        f = smooth_Hv(assembled_depth6, 0.05)
        piece = assembled_depth6.pieces[1]
        pts = _tracked_points(piece, 6)
        h = 1e-8
        gx = (f.value(pts + [h, 0]) - f.value(pts - [h, 0])) / (2 * h)
        gy = (f.value(pts + [0, h]) - f.value(pts - [0, h])) / (2 * h)
        g = f.gradient(pts)
        assert np.abs(np.stack([gx, gy], -1) - g).max() < 1e-5 * max(1e-12, np.abs(g).max())


class TestReport:
    def test_lambda_trend_and_slopes(self, assembled_depth6):
        rep = analytic_report(assembled_depth6)
        assert rep.lambda_monotone
        lam = {L: m for L, _, m in rep.lambda_table}
        assert lam[6] < 1e-2 * lam[1]
        assert rep.slope_verdicts[2] and rep.slope_verdicts[3]
        assert rep.slopes[2] <= 0.3
        assert rep.slopes[3] <= 1.3
        assert rep.d1_trend

    def test_stacked_stencil_matches_per_offset_differences(self):
        H = assemble_Hv("v", enumerate_group(schottky_pair(0.98), 4), default_study_annulus())
        rep = analytic_report(H)
        assert len(rep.rows) == len(H.pieces)
        assert len(H.pieces) % lift.REPORT_BLOCK  # the last block is a partial one
        for p, row in zip(H.pieces, rep.rows):
            w0, sigma = p._tracked_preimages(8), p.element.map
            G = sigma.beta.conjugate() * w0 + sigma.alpha.conjugate()
            r = ((1.0 - np.abs(w0) ** 2) / (np.abs(G) ** 2 * (1.0 + np.abs(sigma(w0))))).min()
            assert row["r"] == float(r)
            h = 1e-3 * row["r"]

            # one call per offset, each taken exactly through sigma^-1
            def f(d):
                return p._value_near(w0, d)

            want = {1: 0.0, 2: 0.0, 3: 0.0}
            for e in (h, 1j * h):
                quotients = {
                    1: (f(e) - f(-e)) / (2 * h),
                    2: (f(e) - 2 * f(0.0) + f(-e)) / (h * h),
                    3: (f(2 * e) - 2 * f(e) + 2 * f(-e) - f(-2 * e)) / (2 * h * h * h),
                }
                for n, q in quotients.items():
                    want[n] = max(want[n], float(np.abs(q).max()))
            for n in (1, 2, 3):
                assert row[f"d{n}"] == want[n]

    def test_rows_do_not_depend_on_the_block(self, monkeypatch):
        H = _schottky_assembly(4)
        want = analytic_report(H).rows
        for block in (1, 7, len(H.pieces), 1000):
            monkeypatch.setattr(lift, "REPORT_BLOCK", block)
            assert analytic_report(H).rows == want

    def test_slope_rows_count_nonzero_sups(self, assembled_depth6):
        rep = analytic_report(assembled_depth6)
        for n in (1, 2, 3):
            kept = sum(row[f"d{n}"] > 0 for row in rep.rows)
            assert rep.slope_rows[n] == kept == len(rep.rows) == len(assembled_depth6.pieces)

    def test_needs_depth(self):
        gens = schottky_pair(0.98)
        A = default_study_annulus()
        shallow = assemble_Hv("v", enumerate_group(gens, 2), A)
        with pytest.raises(ValueError):
            analytic_report(shallow)
