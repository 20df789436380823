"""One-pass jets: every fused (value, gradient) equals its separate
projections bit for bit, on drawn points and on the edge cases (off the
disk, the origin, the boundary circles of the translates, empty arrays);
the one symplectic rule on those gradients equals the per-block and planar
rules it replaced."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raagham.flows import HamiltonianField, flow_map, polydisk_extend
from raagham.lift import (
    Mollifier,
    assemble_Hv,
    default_study_annulus,
    enumerate_group,
    schottky_pair,
    smooth_Hv,
)
from raagham.twist import TwistProfile, make_profile
from lift_reference import (
    plane_vector_field,
    polydisk_gradient,
    polydisk_vector_field,
    smoothed_field,
    smoothed_gradient,
)
from twist_reference import bump_reference

TWO_PI = 2 * math.pi
FEW = settings(max_examples=40, deadline=None, derandomize=True)

ANNULUS = default_study_annulus()
ELEMENTS = enumerate_group(schottky_pair(0.98), 3)
ASSEMBLED = {L: assemble_Hv("v", [e for e in ELEMENTS if e.length <= L], ANNULUS) for L in range(4)}
PIECES = ASSEMBLED[3].pieces


def same(a, b):
    """Bit-for-bit equality: dtype, shape and every byte (NaN, signed zero)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def boundary_points(piece, n=6):
    """Images of points on both boundary circles of the piece's annulus."""
    w = np.exp(1j * np.arange(n) * TWO_PI / n)
    z = np.concatenate(
        [piece.element.map(piece.chart.c + r * w) for r in (ANNULUS.r_inner, ANNULUS.r_outer)]
    )
    return np.stack([z.real, z.imag], -1)


EDGES = np.concatenate(
    [
        [[0.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.6, 0.8], [1.5, -2.0], [-1e-300, 0.0]],
        *(boundary_points(p) for p in PIECES[:5]),
    ]
)

# points inside the disk that needs no point location, so an assembly runs them
# on its identity piece's record of 0-d constants: zero coordinates of both
# signs, subnormals, and the study annulus's boundary circles r = 0.35 and 0.55
_CIRCLES = np.exp(1j * np.arange(8) * TWO_PI / 8)[:, None] * [ANNULUS.r_inner, ANNULUS.r_outer]
INNER = np.concatenate(
    [
        [[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0], [-0.0, 0.45], [0.45, -0.0], [-0.0, -0.45]],
        [[5e-324, 0.0], [-0.0, -5e-324], [0.45, 5e-324], [0.35, 0.0], [0.0, 0.55], [-0.55, -0.0], [-0.0, -0.35]],
        np.stack([_CIRCLES.real.ravel(), _CIRCLES.imag.ravel()], -1),
    ]
)

plane_points = st.lists(
    st.tuples(st.floats(-1.3, 1.3), st.floats(-1.3, 1.3)), min_size=1, max_size=12
)


@st.composite
def translate_points(draw):
    """Points on (and just around) one translate of depth <= 3."""
    piece = PIECES[draw(st.integers(0, len(PIECES) - 1))]
    r = draw(st.lists(st.floats(0.3, 0.6), min_size=1, max_size=8))
    ang = draw(st.lists(st.floats(0.0, TWO_PI), min_size=len(r), max_size=len(r)))
    z = piece.element.map(piece.chart.c + np.array(r) * np.exp(1j * np.array(ang)))
    return np.stack([z.real, z.imag], -1)


def with_edges(pts):
    return np.concatenate([np.asarray(pts, float).reshape(-1, 2), EDGES])


@FEW
@given(st.floats(-0.45, 0.45), st.lists(st.floats(-1.0, 1.0), max_size=12))
def test_profile_jet_is_h_and_dh(b, ts):
    """h, h' and the jet equal the masked ``bump_reference`` bit for bit,
    signbits included: inside, at the centre and ends of the support and off
    it, for one profile and for the per-point b, w and 2 pi e w that an
    assembly passes (columns of its constant table, or its identity piece's
    0-d record)."""
    p = make_profile(0.5, b)
    t = np.array(ts + [b, b - p.width, b + p.width, -0.5, 0.5])
    h, dh = bump_reference(t, p.b, p.width)
    assert same(p.jet(t)[0], h) and same(p.jet(t)[1], dh)
    assert same(p.h(t), h) and same(p.dh(t), dh)
    for s in (b, b + p.width, 2.0):
        ref = bump_reference(s, p.b, p.width)
        assert all(same(np.asarray(x), r) for x, r in zip((p.h(s), p.dh(s), *p.jet(s)), ref + ref))
    asm = ASSEMBLED[3]
    bs, ws = asm._real[9:11]
    cols = np.concatenate([np.arange(len(t)) % len(PIECES), np.tile(np.arange(len(PIECES)), 3)])
    t = np.concatenate([t, bs, bs - ws, bs + ws])
    for b_, w_, hw in (asm._real[9:12].take(cols, 1), asm._identity[1][9:12]):
        h, dh = TwistProfile._jet(t, b_, w_, hw)
        h_ref, dh_ref = bump_reference(t, b_, w_)
        assert same(h, h_ref) and same(dh, dh_ref)


@FEW
@given(st.integers(0, len(PIECES) - 1), st.lists(st.floats(0.0, 1.0), max_size=12))
def test_chart_height_jet_is_t_of_r(index, rs):
    chart = PIECES[index].chart
    r = np.array(rs + [ANNULUS.r_inner, ANNULUS.r_outer, chart.circle_radius])
    assert same(chart.t_jet(r)[0], chart.t_of_r(r))


@FEW
@given(st.integers(0, 3), translate_points(), plane_points)
def test_assembled_jet_is_value_and_gradient(depth, on, free):
    asm, pts = ASSEMBLED[depth], with_edges(np.concatenate([on, free]))
    val, grad = asm.jet(pts)
    assert same(val, asm.value(pts)) and same(grad, asm.gradient(pts))


@FEW
@given(st.floats(1e-3, 10.0), plane_points)
def test_mollifier_jet_is_value_and_gradient(eps, free):
    eta, pts = Mollifier(eps), with_edges(free)
    val, grad = eta.jet(pts)
    assert same(val, eta.value(pts)) and same(grad, eta.gradient(pts))
    origin = len(free)  # the first edge point
    assert val[origin] == 1.0 and not grad[origin].any()


@FEW
@given(st.integers(0, 3), st.floats(1e-3, 1.0), translate_points(), plane_points)
def test_smoothed_jet_matches_the_product_rule_oracle(depth, eps, on, free):
    asm, f = ASSEMBLED[depth], smooth_Hv(ASSEMBLED[depth], eps)
    for pts in (with_edges(np.concatenate([on, free])), INNER):
        val, grad = f.jet(pts)
        assert same(val, f.value(pts)) and same(grad, f.gradient(pts))
        assert same(grad, smoothed_gradient(asm, Mollifier(eps), pts))


@FEW
@given(st.integers(2, 4), translate_points(), plane_points, plane_points)
def test_polydisk_jet_matches_the_factorwise_oracle(n, on, free, off):
    pd = polydisk_extend(smooth_Hv(ASSEMBLED[2], 0.01), n)
    first = with_edges(np.concatenate([on, free]))
    rest = np.resize(with_edges(off), (len(first), 2 * (n - 1)))
    pts = np.concatenate([first, rest], 1)
    pts[:3, 2:] = 0.0  # slice points
    val, grad = pd.jet(pts)
    assert same(val, pd.value(pts)) and same(grad, pd.gradient(pts))
    assert same(grad, polydisk_gradient(pd, pts))


@FEW
@given(st.integers(2, 4), translate_points(), plane_points, plane_points)
def test_vector_field_matches_the_blockwise_and_planar_rules(n, on, free, off):
    k = smooth_Hv(ASSEMBLED[2], 0.01)
    pd = polydisk_extend(k, n)
    first = with_edges(np.concatenate([on, free]))
    rest = np.resize(with_edges(off), (len(first), 2 * (n - 1)))
    pts = np.concatenate([first, rest], 1)
    pts[:3, 2:] = 0.0  # slice points
    assert np.array_equal(pd.vector_field(pts), polydisk_vector_field(pd, pts))
    assert np.array_equal(k.vector_field(first), plane_vector_field(k, first))


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda: ASSEMBLED[3].jet(np.zeros((0, 2))),
        lambda: Mollifier(0.1).jet(np.zeros((0, 2))),
        lambda: smooth_Hv(ASSEMBLED[1], 0.1).jet(np.zeros((0, 2))),
        lambda: polydisk_extend(smooth_Hv(ASSEMBLED[1], 0.1), 3).jet(np.zeros((0, 6))),
    ],
    ids=["assembled", "mollifier", "smoothed", "polydisk"],
)
def test_jets_of_empty_arrays(evaluate):
    val, grad = evaluate()
    assert val.shape == (0,) and grad.shape[0] == 0 and grad.ndim == 2


def test_profile_jet_of_empty_array():
    h, dh = make_profile(0.5, 0.1).jet(np.zeros(0))
    assert h.shape == dh.shape == (0,)


def test_fused_ring_flow_matches_oracle_flow():
    """The benchmark's 50-point ring batch flows to the same bits, with the
    same Newton iteration counts, under the fused and the oracle field."""
    asm = ASSEMBLED[2]
    n = 50
    r2 = ANNULUS.r_inner**2 + (ANNULUS.r_outer**2 - ANNULUS.r_inner**2) * (np.arange(n) + 0.5) / n
    ang = np.random.default_rng(11).uniform(0.0, TWO_PI, n)
    pts = np.sqrt(r2)[:, None] * np.stack([np.cos(ang), np.sin(ang)], -1)
    fused = flow_map(smooth_Hv(asm, 0.01), pts, T=1.0, steps=50)
    oracle = flow_map(smoothed_field(asm, 0.01), pts, T=1.0, steps=50)
    assert same(fused.final, oracle.final)
    assert (fused.iterations, fused.max_iterations) == (oracle.iterations, oracle.max_iterations)
    assert fused.energy_drift == oracle.energy_drift


@pytest.mark.parametrize("depth", range(4))
def test_maskless_jets_raise_nothing_at_the_edges(depth):
    """Every row runs the mollifier and piece arithmetic, and the rows off the
    disk, off a translate or off its bump run it on harmless inputs: on the
    edge points (the origin, |z| >= 1, far points, translate boundary
    circles, a subnormal and a huge point) and on their slice points no
    division by zero, overflow or invalid operation occurs, and the jets
    equal the oracles bit for bit.  Underflow stays allowed: exp(-eps tan^2)
    and the bump's exp underflow to their exact limit 0 near the disk's and
    the bumps' edges, as they did when only the rows on them were computed."""
    asm, edges = ASSEMBLED[depth], np.concatenate([EDGES, [[0.0, 5e-324], [1e300, -1e300]]])
    for eps in (1e-3, 1e-2, 0.1, 1.0):
        f, oracle = smooth_Hv(asm, eps), smoothed_field(asm, eps)
        with np.errstate(all="raise", under="ignore"):
            val, grad = f.jet(edges)
        assert same(val, oracle.value(edges)) and same(grad, oracle.gradient(edges))
        for n in (2, 3, 4):
            pd = polydisk_extend(f, n)
            pts = pd.embed_slice(edges)
            with np.errstate(all="raise", under="ignore"):
                val, grad = pd.jet(pts)
            assert same(val, oracle.value(edges)) and same(grad, polydisk_gradient(pd, pts))


def polydisk_slice_points():
    """The polydisk verb's 8 slice points at its default seed 0."""
    return ANNULUS.sample_points(100, np.random.default_rng(0))[:8]


def test_fused_polydisk_flow_matches_oracle_flow():
    """The polydisk verb's 6-D flow (n = 3, N = 2, 60 steps, its default eps
    0.1 and 8 seed-0 slice points) flows to the same bits, with the same
    Newton counts, under the fused field and under the factorwise oracle
    field over the oracle smoothed field."""
    fused = polydisk_extend(smooth_Hv(ASSEMBLED[2], 0.1), 3)
    pd = polydisk_extend(smoothed_field(ASSEMBLED[2], 0.1), 3)
    oracle = HamiltonianField(pd.value, lambda pts: (pd.value(pts), polydisk_gradient(pd, pts)))
    pts = fused.embed_slice(polydisk_slice_points())
    got, want = flow_map(fused, pts, T=2.0, steps=60), flow_map(oracle, pts, T=2.0, steps=60)
    assert same(got.final, want.final)
    assert (got.iterations, got.max_iterations, got.points) == (want.iterations, want.max_iterations, want.points)
