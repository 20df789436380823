"""Loop references for the closed routes of ``raagham.twist``.

Bump: ``bump_reference`` evaluates h and h' by the masked route that the
package's maskless ``TwistProfile._jet`` replaced, only where |u| < 1; the
package must equal it bit for bit, and every reference below takes h and h'
from it.

Letter by letter: ``reference_twist`` scans the whole batch, masks the
closed annulus with ``RoundAnnulus.contains`` and turns the masked rows
whose angle tau*h'(t) is nonzero about the centre, z -> c + (z - c) *
exp(-i tau h'(t)), by the same floating-point operations as the package;
``PlaneMap.apply`` must equal it bit for bit.  ``letterwise_fold`` folds
it over a word, every letter recomputing its factors from the rows as the
last letter left them.

Stints: ``reference_fold`` applies the stint rule of the package's word
kernel letter by letter, with a full-batch ``contains`` mask per letter and
no tracking.  A letter of A(v) claims the rows of its closed annulus; a row
last claimed by another annulus, or by none, gets the factor rho =
exp(-i N h'(t)) of its height now, and the stint's later letters reuse it,
(v, +1) turning by rho and (v, -1) by conj(rho).  conj(exp(-iNx)) equals
exp(+iNx) bit for bit, so the first letter of each stint equals
``reference_twist``.  The tracked kernel must equal this fold bit for bit.
``mpmath_fold`` is the same word in 40-digit arithmetic.

Area chart: ``AreaChart`` is the symplectomorphism of a round annulus onto
the product annulus S^1 x [-a, a], and ``product_twist`` is the twist
(s, t) -> (s + tau*h'(t), t) there.  ``chart_twist`` is the route the
rotation replaced: it maps the masked rows to the product annulus with
``AreaChart.to_product``, shifts s by tau*h'(t), reduces it mod 2*pi and
maps back with ``AreaChart.to_plane``; the rotation must agree with it to
rounding, and ``RoundAnnulus.mid`` and ``.a`` must equal the chart's.

Nerve: ``non_neighbour_hits`` lists the annuli that contain a point
(``annulus_points``) of an annulus whose vertex is not their neighbour;
the word kernel re-tests moved rows only against the neighbours.

Punctures: ``flood_fill`` labels the free cells of a grid, the route the
exact circle arrangement of ``build_configuration`` replaced; it resolves
every component of the annulus complement only on small graphs.

Overlap arcs: ``circle_in_annulus_intervals`` is the closed-form
intersection of a circle with one annulus that ``overlap_points`` read
before the arrangement's arcs; each overlap arc must lie inside one of its
intervals.

Inflation: ``bisect_delta`` bisects delta with the pairwise and triple-disk
test ``inflation_valid``, which the closed-form ``_inflate`` replaced, and
``reference_widths`` is the pair loop its width table must equal.
"""

import itertools
import math

import numpy as np
from scipy import ndimage

from raagham.words import hom_apply

TWO_PI = 2.0 * math.pi


class AreaChart:
    """s = -theta (mod 2*pi) and t = (r^2 - mid)/2 onto S^1 x [-a, a]: the sign
    flip of the angle makes ds^dt = dx^dy including orientation."""

    def __init__(self, annulus):
        self.annulus = annulus
        self.mid = 0.5 * (annulus.r_inner**2 + annulus.r_outer**2)
        self.a = 0.25 * (annulus.r_outer**2 - annulus.r_inner**2)

    def to_product(self, pts):
        pts = np.atleast_2d(np.asarray(pts, float))
        rel = pts - np.asarray(self.annulus.center)
        r2 = np.einsum("ij,ij->i", rel, rel)
        theta = np.arctan2(rel[:, 1], rel[:, 0])
        s = (-theta) % TWO_PI
        t = 0.5 * (r2 - self.mid)
        return np.stack([s, t], -1)

    def to_plane(self, st):
        st = np.atleast_2d(np.asarray(st, float))
        r = np.sqrt(2.0 * st[:, 1] + self.mid)
        theta = -st[:, 0]
        return np.asarray(self.annulus.center) + np.stack(
            [r * np.cos(theta), r * np.sin(theta)], -1
        )

    def t_of_radius(self, r):
        return 0.5 * (np.asarray(r, float) ** 2 - self.mid)


def bump_reference(t, b, width):
    """(h(t), h'(t)) of the flat bump at b of width w by the masked route
    that the maskless ``TwistProfile._jet`` replaced: u = (t - b)/w, the
    formulas evaluated only where |u| < 1 and 0 elsewhere.  b and width may
    be arrays broadcasting against t, one profile per point, as an assembly
    passes them.  The package's h and h' must equal it bit for bit."""
    t = np.asarray(t, float)
    u = (t - b) / width
    inside = np.abs(u) < 1.0
    ui = u[inside]
    wi = np.broadcast_to(width, u.shape)[inside] if np.ndim(width) else width
    uu = ui * ui
    one_m = 1.0 - uu
    phi = np.exp(-1.0 / one_m)
    h, dh = np.zeros_like(u), np.zeros_like(u)
    h[inside] = TWO_PI * math.e * wi * ui * phi
    dh[inside] = TWO_PI * math.e * phi * (1.0 - 2.0 * uu / one_m**2)
    return h, dh


def product_twist(profile, tau, p):
    """Closed-form twist on the product annulus: (s, t) -> (s + tau*h'(t), t)."""
    s, t = float(p[0]), float(p[1])
    if abs(t) > profile.a + 1e-12:
        raise ValueError(f"t={t} outside [-a, a]")
    return ((s + tau * bump_reference(t, profile.b, profile.width)[1]) % TWO_PI, t)


def band_points(annulus, n, rng, r2_lo, r2_hi):
    """n area-uniform points of the annulus with r^2 in [r2_lo, r2_hi] (squared
    radii about the centre), uniform in angle: ``RoundAnnulus.sample_points``
    on a narrower band, by the same two draws in the same order."""
    r = np.sqrt(rng.uniform(r2_lo, r2_hi, n))
    ang = rng.uniform(0.0, TWO_PI, n)
    return np.asarray(annulus.center) + np.stack([r * np.cos(ang), r * np.sin(ang)], -1)


def reference_twist(annulus, profile, tau, pts, t_lo=-np.inf, t_hi=np.inf):
    out = np.atleast_2d(np.asarray(pts, float)).copy()
    mask = annulus.contains(out)
    c = complex(*annulus.center)
    rel = out[mask, 0] + 1j * out[mask, 1] - c
    t = 0.5 * (rel.real * rel.real + rel.imag * rel.imag - AreaChart(annulus).mid)
    ds = tau * bump_reference(t, profile.b, profile.width)[1]
    sub = (t >= t_lo) & (t < t_hi) & (ds != 0.0)
    moved = c + rel[sub] * np.exp(-1j * ds[sub])
    out[np.flatnonzero(mask)[sub]] = np.stack([moved.real, moved.imag], -1)
    return out


def chart_twist(annulus, profile, tau, pts, t_lo=-np.inf, t_hi=np.inf):
    chart = AreaChart(annulus)
    out = np.atleast_2d(np.asarray(pts, float)).copy()
    mask = annulus.contains(out)
    st = chart.to_product(out[mask])
    ds = tau * bump_reference(st[:, 1], profile.b, profile.width)[1]
    sub = (st[:, 1] >= t_lo) & (st[:, 1] < t_hi) & (ds != 0.0)
    st_sub = st[sub]
    st_sub[:, 0] = (st_sub[:, 0] + ds[sub]) % (2 * math.pi)
    out[np.flatnonzero(mask)[sub]] = chart.to_plane(st_sub)
    return out


def letterwise_fold(rep, w, pts):
    """The image of a word, one full-batch twist per cover letter, right to
    left: every letter recomputes its factors from the heights of the rows
    as the previous letter left them."""
    if rep.pullback is not None:
        w = hom_apply(rep.pullback, w)
    pts = np.asarray(pts, float)
    out = np.atleast_2d(pts).copy()
    for v, e in reversed(w.letters):
        out = reference_twist(rep.config.annuli[v], rep.profiles[v], rep.N * e, out)
    return out[0] if pts.ndim == 1 else out


def reference_fold(rep, w, pts):
    """The image of a word by the stint rule, one full-batch letter at a time.

    Each cover letter masks the whole batch with ``RoundAnnulus.contains``
    (no tracking) and claims the masked rows.  A row whose last claim was
    by another annulus, or by none, gets the factor rho = exp(-i N h'(t))
    of its height now; the other rows keep the factor of their stint.
    (v, +1) turns the rows with rho != 1 by rho and (v, -1) by conj(rho).
    """
    if rep.pullback is not None:
        w = hom_apply(rep.pullback, w)
    pts = np.asarray(pts, float)
    out = np.atleast_2d(pts).copy()
    index = {v: i for i, v in enumerate(rep.config.annuli)}
    owner = np.full(len(out), -1)
    rho = np.ones(len(out), complex)
    for v, e in reversed(w.letters):
        ann, prof = rep.config.annuli[v], rep.profiles[v]
        c = complex(*ann.center)
        mask = ann.contains(out)
        fresh = np.flatnonzero(mask & (owner != index[v]))
        rel = out[fresh, 0] + 1j * out[fresh, 1] - c
        t = 0.5 * (rel.real * rel.real + rel.imag * rel.imag - ann.mid)
        ds = rep.N * bump_reference(t, prof.b, prof.width)[1]
        rho[fresh] = np.where(ds != 0.0, np.exp(-1j * ds), 1.0)
        owner[mask] = index[v]
        f = rho if e > 0 else rho.conj()
        sub = np.flatnonzero(mask & (rho != 1.0))
        rel = out[sub, 0] + 1j * out[sub, 1] - c
        turns = f[sub]
        moved = c + rel * turns
        out[sub] = np.stack([moved.real, moved.imag], -1)
    return out[0] if pts.ndim == 1 else out


def mpmath_fold(rep, letters, pts, dps=40):
    """Cover letters (v, e) right to left on (n, 2) points in dps-digit
    arithmetic: each letter turns the points of its closed annulus by
    c + (z - c) * exp(-i N e h'(t)), with the annulus and profile constants
    taken as exact."""
    import mpmath

    with mpmath.workdps(dps):
        zs = [mpmath.mpc(*p) for p in pts]
        for v, e in reversed(letters):
            ann, prof = rep.config.annuli[v], rep.profiles[v]
            c = mpmath.mpc(*ann.center)
            lo, hi = mpmath.mpf(ann.r_inner) ** 2, mpmath.mpf(ann.r_outer) ** 2
            mid, b, width = mpmath.mpf(ann.mid), mpmath.mpf(prof.b), mpmath.mpf(prof.width)
            for k, z in enumerate(zs):
                rel = z - c
                r2 = rel.real**2 + rel.imag**2
                u = ((r2 - mid) / 2 - b) / width
                if lo <= r2 <= hi and abs(u) < 1:
                    one_m = 1 - u * u
                    dh = 2 * mpmath.pi * mpmath.e * mpmath.exp(-1 / one_m) * (1 - 2 * u * u / one_m**2)
                    zs[k] = c + rel * mpmath.expj(-rep.N * e * dh)
        return np.array([[float(z.real), float(z.imag)] for z in zs])


def boundary_points(annulus, n=16):
    """Points on the inner and outer circles of a closed annulus, and one ulp
    of radius inside and outside each, as floats allow."""
    ang = np.arange(n) * (2 * math.pi / n)
    ring = np.stack([np.cos(ang), np.sin(ang)], -1)
    radii = [
        r1
        for r in (annulus.r_inner, annulus.r_outer)
        for r1 in (np.nextafter(r, 0.0), r, np.nextafter(r, np.inf))
    ]
    return np.concatenate([np.asarray(annulus.center) + r * ring for r in radii])


def annulus_points(cfg, v, rng, n=200):
    """Points of the closed annulus A(v): area-uniform samples, points on and
    one ulp off its boundary circles, and the points of its inner, central
    and outer circles on the line to every other centre, where two disjoint
    round annuli come closest; only those ``contains`` accepts are kept."""
    A = cfg.annuli[v]
    c = np.asarray(A.center)
    rel = np.array([B.center for u, B in cfg.annuli.items() if u != v]).reshape(-1, 2) - c
    unit = rel / np.hypot(*rel.T)[:, None]
    radii = [A.r_inner, np.nextafter(A.r_inner, np.inf), cfg.radii[v], np.nextafter(A.r_outer, 0.0), A.r_outer]
    line = [c + s * r * unit for r in radii for s in (1.0, -1.0)]
    pts = np.concatenate([A.sample_points(n, rng), boundary_points(A), *line])
    return pts[A.contains(pts)]


def non_neighbour_hits(cfg, seed=0):
    """The (v, u) pairs for which an annulus A(u), u neither v nor one of
    v's neighbours in the graph, contains one of ``annulus_points`` of A(v);
    the word kernel's membership tracking needs this to be empty."""
    rng = np.random.default_rng(seed)
    hits = []
    for v in cfg.graph.vertices:
        pts = annulus_points(cfg, v, rng)
        near = cfg.graph.neighbors(v) | {v}
        hits += [(v, u) for u in cfg.graph.vertices if u not in near and cfg.annuli[u].contains(pts).any()]
    return hits


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


def reference_twist_hamiltonian(annulus, profile):
    """H and grad H with the support mask taken from ``RoundAnnulus.contains``."""
    chart = AreaChart(annulus)
    c = np.asarray(annulus.center)

    def H(pts):
        pts = np.atleast_2d(np.asarray(pts, float))
        rel = pts - c
        t = 0.5 * (np.einsum("ij,ij->i", rel, rel) - chart.mid)
        vals = np.zeros(len(pts))
        mask = annulus.contains(pts)
        vals[mask] = bump_reference(t[mask], profile.b, profile.width)[0]
        return vals

    def grad(pts):
        pts = np.atleast_2d(np.asarray(pts, float))
        rel = pts - c
        t = 0.5 * (np.einsum("ij,ij->i", rel, rel) - chart.mid)
        g = np.zeros_like(rel)
        mask = annulus.contains(pts)
        g[mask] = bump_reference(t[mask], profile.b, profile.width)[1][:, None] * rel[mask]
        return g

    return H, grad


def flood_fill(annuli, order, grid):
    """The grid flood fill that the exact arrangement replaced: cells of a
    grid x grid box farther than 0.75 cell from every annulus, labelled by
    4-connected component.  Returns the labels, their number, the cell
    centres X, Y and the cell size."""
    outs = np.array([annuli[v].r_outer for v in order])
    cs = np.array([annuli[v].center for v in order])
    margin = 0.6 * outs.max()
    lo = (cs - outs[:, None]).min(0) - margin
    hi = (cs + outs[:, None]).max(0) + margin
    xs, ys = np.linspace(lo[0], hi[0], grid), np.linspace(lo[1], hi[1], grid)
    cell = max(xs[1] - xs[0], ys[1] - ys[0])
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    blocked = np.zeros(X.shape, bool)
    pad = 0.75 * cell
    for v in order:
        a = annuli[v]
        d2 = (X - a.center[0]) ** 2 + (Y - a.center[1]) ** 2
        blocked |= (d2 >= (a.r_inner - pad) ** 2) & (d2 <= (a.r_outer + pad) ** 2)
    labels, ncomp = ndimage.label(~blocked)
    return labels, ncomp, X, Y, cell


def flood_fill_labels(annuli, order, grid, pts):
    """The flood-fill label of the free cell nearest to each point."""
    labels, _, X, Y, _ = flood_fill(annuli, order, grid)
    nearest = ndimage.distance_transform_edt(labels == 0, return_distances=False, return_indices=True)
    pts = np.asarray(pts, float)
    i = np.rint((pts[:, 0] - X[0, 0]) / (X[1, 0] - X[0, 0])).astype(int)
    j = np.rint((pts[:, 1] - Y[0, 0]) / (Y[0, 1] - Y[0, 0])).astype(int)
    return labels[nearest[0][i, j], nearest[1][i, j]]


def reference_region_points(annuli, order, grid):
    """Two points per flood-fill component of at least 4 cells, the region
    points before the exact arrangement: the cell deepest inside the
    component by its distance transform, then the deepest at least 3 cells
    from it."""
    labels, ncomp, X, Y, cell = flood_fill(annuli, order, grid)
    points = []
    for comp_id in range(1, ncomp + 1):
        mask = labels == comp_id
        if mask.sum() < 4:
            continue
        edt = ndimage.distance_transform_edt(mask)
        i1 = np.unravel_index(np.argmax(edt), edt.shape)
        far_mask = mask & ((X - X[i1]) ** 2 + (Y - Y[i1]) ** 2 > (3 * cell) ** 2)
        if far_mask.any():
            i2 = np.unravel_index(np.argmax(np.where(far_mask, edt, -1.0)), edt.shape)
        else:
            edt[i1] = -1.0
            i2 = np.unravel_index(np.argmax(edt), edt.shape)
        points.append(np.array([[X[i1], Y[i1]], [X[i2], Y[i2]]]))
    return points


def circle_in_annulus_intervals(center, radius, ann):
    """Angular intervals of the circle (center, radius) lying inside ann."""
    c = np.asarray(center, float)
    rel = np.asarray(ann.center) - c
    d = np.hypot(*rel)
    if d < 1e-15:
        inside = ann.r_inner <= radius <= ann.r_outer
        return [(0.0, 2 * math.pi)] if inside else []
    phi = math.atan2(rel[1], rel[0])

    def cos_bound(R):  # dist(theta)^2 = radius^2 + d^2 - 2 radius d cos(theta - phi)
        return (radius**2 + d**2 - R**2) / (2 * radius * d)

    c_out, c_in = cos_bound(ann.r_outer), cos_bound(ann.r_inner)
    lo_c, hi_c = max(c_out, -1.0), min(c_in, 1.0)
    if lo_c > 1.0 or hi_c < -1.0 or lo_c > hi_c:
        return []
    d_lo = math.acos(min(hi_c, 1.0))  # smallest |theta - phi| in the band
    d_hi = math.acos(max(lo_c, -1.0))
    if d_lo <= 1e-12 and d_hi >= math.pi - 1e-12:
        return [(0.0, 2 * math.pi)]
    out = []
    if d_hi - d_lo > 1e-12:
        out.append((phi + d_lo, phi + d_hi))
        out.append((phi - d_hi, phi - d_lo))
    return out


def disk_triple_intersects(circles, i, j, k, margin=0.0):
    """Do three closed disks share a point?  Exact up to the margin."""

    def inside(p, idx):
        c, r = circles[idx]
        return np.hypot(*(p - c)) <= r + margin

    def crossings(ia, ib):
        (c1, r1), (c2, r2) = circles[ia], circles[ib]
        d = np.hypot(*(c2 - c1))
        if d > r1 + r2 or d < abs(r1 - r2) or d == 0:
            return []
        x = (d * d + r1 * r1 - r2 * r2) / (2 * d)
        h2 = r1 * r1 - x * x
        if h2 < 0:
            return []
        h = math.sqrt(max(h2, 0.0))
        u = (c2 - c1) / d
        n = np.array([-u[1], u[0]])
        base = c1 + x * u
        return [base + h * n, base - h * n]

    for a, b, c in ((i, j, k), (i, k, j), (j, k, i)):
        for p in crossings(a, b):
            if inside(p, c):
                return True
    for a, b, c in ((i, j, k), (j, i, k), (k, i, j)):
        if inside(circles[a][0], b) and inside(circles[a][0], c):
            return True
    return False


def gap_floor(graph, packed):
    """The clearance non-adjacent circles keep: 5 % of the least radius, or
    30 % of the least gap between non-adjacent tangency circles if smaller."""
    order = list(graph.vertices)
    min_rad = min(packed[v][1] for v in order)
    min_gap = math.inf
    for u, v in itertools.combinations(order, 2):
        if not graph.has_edge(u, v):
            (cu, ru), (cv, rv) = packed[u], packed[v]
            min_gap = min(min_gap, np.hypot(*(cu - cv)) - ru - rv)
    return min(0.05 * min_rad, 0.3 * min_gap)


def inflation_valid(graph, packed, delta, floor):
    """Adjacent circles cross in two points, non-adjacent ones are floor
    apart and no three disks share a point after inflation."""
    order = list(graph.vertices)
    circles = {v: (packed[v][0], packed[v][1] * (1.0 + delta)) for v in order}
    for u, v in itertools.combinations(order, 2):
        (cu, ru), (cv, rv) = circles[u], circles[v]
        d = np.hypot(*(cu - cv))
        if graph.has_edge(u, v):
            if not (abs(ru - rv) + 1e-12 < d < ru + rv - 1e-12):
                return False
        else:
            if d - ru - rv < floor:
                return False
    carr = [circles[v] for v in order]
    for i, j, k in itertools.combinations(range(len(order)), 3):
        pairs = [(i, j), (i, k), (j, k)]
        if all(
            np.hypot(*(carr[a][0] - carr[b][0])) < carr[a][1] + carr[b][1]
            for a, b in pairs
        ):
            if disk_triple_intersects(carr, i, j, k, margin=1e-9):
                return False
    return True


def bisect_delta(graph, packed):
    """The largest valid delta in [1e-6, 0.2] by 60 bisection steps, or
    None when 1e-6 is already invalid."""
    floor = gap_floor(graph, packed)
    if not inflation_valid(graph, packed, 1e-6, floor):
        return None
    lo, hi = 1e-6, 0.2
    if inflation_valid(graph, packed, hi, floor):
        return hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if inflation_valid(graph, packed, mid, floor):
            lo = mid
        else:
            hi = mid
    return lo


def reference_widths(graph, centers, radii):
    """Annulus half-widths by the pair loop: a quarter of each circle's
    clearance, at most half its radius."""
    widths = {}
    for v in graph.vertices:
        clearance = math.inf
        for u in graph.vertices:
            if u == v:
                continue
            d = np.hypot(*(centers[v] - centers[u]))
            if graph.has_edge(u, v):
                clearance = min(
                    clearance, radii[v] + radii[u] - d, d - abs(radii[v] - radii[u])
                )
            else:
                clearance = min(clearance, d - radii[v] - radii[u])
        if clearance is math.inf:
            clearance = radii[v]
        widths[v] = min(0.25 * clearance, 0.5 * radii[v])
    return widths
