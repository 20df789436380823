"""Annulus twist maps and circle configurations in the plane.

Everything here is Euclidean: the symplectic form is dx^dy, a twist is the
time-tau map of a Hamiltonian depending only on the area height
t = (r^2 - mid)/2 of a round annulus (``RoundAnnulus.mid`` and ``.a``), and
configurations of overlapping disks realize an Artin graph as the nerve of
round annuli.  A twist (``PlaneMap``) is the exact rotation of each circle
of its annulus by an angle of its area height; the ODE integrator in
``flows`` is only ever a cross-check here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .graphs import NonplanarWitness, PlanarEmbedding, SimplicialGraph, incidence_nerve, planarity
from .words import Homomorphism, hom_pullback

TWO_PI = 2.0 * math.pi


# ------------------------------- profiles ----------------------------------


@dataclass(frozen=True)
class TwistProfile:
    """Flat bump h on [-a, a] with h'(b) = 2*pi at the rotation height b.

    h(t) = 2*pi*e * (t - b) * exp(-1 / (1 - ((t-b)/w)^2)) inside |t-b| < w
    and 0 elsewhere; w = min(a - b, a + b) keeps the support inside [-a, a],
    and h vanishes at the support ends together with all derivatives.
    ``h``, ``dh`` and ``jet`` are the one maskless kernel ``_jet``.
    """

    a: float
    b: float
    width: float

    def h(self, t):
        return self.jet(t)[0]

    def dh(self, t):
        return self.jet(t)[1]

    def jet(self, t):
        return self._jet(np.asarray(t, float), self.b, self.width, TWO_PI * math.e * self.width)

    @staticmethod
    def _jet(t, b, width, hw):
        """(h(t), h'(t)) of the bump at b of width w, hw = 2 pi e w (numbers or
        arrays broadcasting against t, as an assembly passes one profile per
        point), from one exp at every t: off the bump u is fed 0, so no t
        raises, and h is +0 and h' is 0 there."""
        u = (t - b) / width
        inside = np.abs(u) < 1.0
        u = np.where(inside, u, 0.0)
        uu = u * u
        one_m = 1.0 - uu
        phi = np.exp(-1.0 / one_m)
        return hw * u * phi, np.where(inside, TWO_PI * math.e * phi * (1.0 - 2.0 * uu / one_m**2), 0.0)

    def sup_abs(self) -> float:
        """max |h|, at |u| = (sqrt 6 - sqrt 2)/2 where dh vanishes: (1 - u^2)^2 = 2 u^2."""
        u = 0.5 * (math.sqrt(6.0) - math.sqrt(2.0))
        return TWO_PI * math.e * self.width * u * math.exp(-1.0 / (1.0 - u * u))


def make_profile(a: float, b: float) -> TwistProfile:
    if not (-a < b < a):
        raise ValueError(f"rotation height b={b} outside (-{a}, {a})")
    w = min(a - b, a + b)
    return TwistProfile(a=float(a), b=float(b), width=float(w))


# ------------------------------- annuli ------------------------------------


@dataclass(frozen=True)
class RoundAnnulus:
    center: tuple
    r_inner: float
    r_outer: float

    def __post_init__(self):
        if not (0.0 < self.r_inner < self.r_outer):
            raise ValueError("need 0 < r_inner < r_outer")

    @property
    def area(self) -> float:
        return math.pi * (self.r_outer**2 - self.r_inner**2)

    @property
    def mid(self) -> float:
        """Squared radius of the circle at area height 0: the area height of a
        point at radius r is t = (r^2 - mid)/2, and ds^dt = dx^dy with s = -theta."""
        return 0.5 * (self.r_inner**2 + self.r_outer**2)

    @property
    def a(self) -> float:
        """Half-range of the area height: t runs over [-a, a] across the annulus."""
        return 0.25 * (self.r_outer**2 - self.r_inner**2)

    def contains(self, pts):
        """Membership in the closed annulus, for (..., 2) points."""
        pts = np.asarray(pts, float)
        dx, dy = pts[..., 0] - self.center[0], pts[..., 1] - self.center[1]
        r2 = dx * dx + dy * dy
        return (r2 >= self.r_inner**2) & (r2 <= self.r_outer**2)

    def sample_points(self, n, rng):
        """n area-uniform points of the annulus, uniform in angle."""
        r = np.sqrt(rng.uniform(self.r_inner**2, self.r_outer**2, n))
        ang = rng.uniform(0.0, TWO_PI, n)
        return np.asarray(self.center) + np.stack([r * np.cos(ang), r * np.sin(ang)], -1)


def annuli_intersect(a: RoundAnnulus, b: RoundAnnulus) -> bool:
    """Exact test: some circle of radii in a meets some circle of radii in b."""
    d = math.hypot(a.center[0] - b.center[0], a.center[1] - b.center[1])
    min_sep = max(0.0, a.r_inner - b.r_outer, b.r_inner - a.r_outer)
    return min_sep <= d <= a.r_outer + b.r_outer


# ------------------------------ plane maps ---------------------------------


def _twist_rows(annulus, profile, tau, rel):
    """The twist's one arithmetic: the factors that turn points of its annulus,
    given as a complex array rel = z - c about its centre c.

    In the area coordinates (s, t) = (-theta, (r^2 - mid)/2) of the annulus
    the twist shifts s by tau*h'(t) and keeps t, so it turns each point about
    the centre by that angle: z -> c + (z - c) * exp(-i tau h'(t)).
    Returns the indices of the rows it moves (a nonzero angle tau*h'(t))
    and their factors exp(-i tau h'(t)); every other row's factor is 1.
    h'(t) is ``profile.dh``, the bump's one kernel ``TwistProfile._jet``.
    Rows within rounding of the annulus boundary have h'(t) == 0 exactly,
    because the bump's exp(-1/(1-u^2)) underflows there, so they never move.
    """
    t = 0.5 * (rel.real * rel.real + rel.imag * rel.imag - annulus.mid)
    ds = tau * profile.dh(t)
    rows = np.flatnonzero(ds != 0.0)
    return rows, np.exp(-1j * ds[rows])


def _point_rows(pts):
    """A C-ordered float copy of pts as (n, 2) rows, and whether pts was one
    (2,) point; any other shape is a ValueError that names it."""
    pts = np.asarray(pts, float)
    if pts.ndim not in (1, 2) or pts.shape[-1] != 2:
        raise ValueError(f"points must have shape (n, 2) or (2,), not {pts.shape}")
    return np.array(np.atleast_2d(pts), float, order="C"), pts.ndim == 1


@dataclass(frozen=True)
class PlaneMap:
    """The time-tau twist of one annulus, extended by the identity:
    ``_twist_rows`` on the points of the closed annulus.  Its inverse is the
    twist at -tau."""

    annulus: RoundAnnulus
    profile: TwistProfile
    tau: float

    def apply(self, pts):
        out, single = _point_rows(pts)
        z = out.view(complex).ravel()  # one complex scalar per row, sharing out's memory
        idx = np.flatnonzero(self.annulus.contains(out))
        c = complex(*self.annulus.center)
        rel = z[idx] - c
        rows, turns = _twist_rows(self.annulus, self.profile, self.tau, rel)
        z[idx[rows]] = c + rel[rows] * turns
        return out[0] if single else out


def double_dehn_twist(annulus: RoundAnnulus, profile: TwistProfile, tau: float) -> PlaneMap:
    """Twist supported on the annulus, extended by the identity.

    The product twist (s, t) -> (s + tau*h'(t), t) in the annulus's area
    coordinates, evaluated in closed form as the rotation of each circle
    about the centre by the angle -tau*h'(t) of its area height
    (``_twist_rows``); tau = 1 rotates the circle at height b by a full
    turn, tau = N is the N-fold iterate, and the Jacobian is identically 1.
    """
    if profile.a > annulus.a + 1e-9:
        raise ValueError("profile wider than the annulus")
    return PlaneMap(annulus, profile, tau)


def twist_hamiltonian(annulus: RoundAnnulus, profile: TwistProfile):
    """The twist's generating function H and its jet (H, grad H) in plane
    coordinates; ``HamiltonianField(*twist_hamiltonian(A, profile))`` is
    its field.

    H(z) = h(t(z)) with t the area coordinate; grad t is simply the vector
    from the annulus center, so grad H = h'(t) * (z - c).  Both take r^2
    once and h, h' from one maskless ``TwistProfile.jet`` at every point,
    then select the closed annulus (``RoundAnnulus.contains`` on the same
    r^2) with 0 elsewhere: no gather or scatter.
    """
    c, mid = np.asarray(annulus.center), annulus.mid
    lo, hi = annulus.r_inner**2, annulus.r_outer**2

    def jet(pts):
        rel = np.atleast_2d(np.asarray(pts, float)) - c
        r2 = np.einsum("ij,ij->i", rel, rel)
        mask = (r2 >= lo) & (r2 <= hi)
        h, dh = profile.jet(0.5 * (r2 - mid))
        return np.where(mask, h, 0.0), np.where(mask[:, None], dh[:, None] * rel, 0.0)

    def H(pts):
        return jet(pts)[0]

    return H, jet


# ------------------------- configuration building --------------------------


class PackingError(RuntimeError):
    pass


# packing: angle-sum error to stop at, sweeps before giving up, and the
# tangency residual the laid-out circles must reach
ANGLE_TOL = 1e-13
MAX_SWEEPS = 100_000
PACKING_TOL = 1e-10


def _disk_triangulation(graph: SimplicialGraph, comp, pos):
    """Counterclockwise triangles, boundary and vertex count of a disk
    triangulation around the drawing of a connected component of >= 3
    vertices (vertex i < len(comp) is comp[i]).  Faces are walked with the
    face on the left.  A face whose walk is not a triangle gets a ring of
    auxiliary vertices, one per side and adjacent to both its ends, around
    an auxiliary centre, so walks that repeat vertices stay simplicial and
    no two original vertices are joined.  The outer (clockwise) walk gets
    the ring but no centre; that ring, or the outer triangle, is the boundary.
    """
    index = {v: i for i, v in enumerate(comp)}
    q = np.array([complex(*pos[v]) for v in comp])
    rot = [sorted((index[u] for u in graph.neighbors(v)), key=lambda j, c=c: np.angle(q[j] - c))
           for v, c in zip(comp, q)]
    faces, seen = [], set()
    for i in range(len(comp)):
        for j in rot[i]:
            walk, a, b = [], i, j
            while (a, b) not in seen:  # a -> b turns at b to the next edge clockwise
                seen.add((a, b))
                walk.append(a)
                a, b = b, rot[b][rot[b].index(a) - 1]
            if walk:
                faces.append(walk)
    # by twice the signed area: negative for the outer walk only, 0 for a tree's one walk
    outer = int(np.argmin([(q[f].conj() * q[np.roll(f, -1)]).imag.sum() for f in faces]))
    tris, m, boundary = [], len(comp), faces[outer]
    for f, walk in enumerate(faces):
        k = len(walk)
        if k == 3:
            if f != outer:
                tris.append(walk)
            continue
        ring, m = list(range(m, m + k)), m + k
        for s, t in zip(range(k), range(1 - k, 1)):  # side s runs from walk[s] to walk[t]
            tris += [(walk[s], walk[t], ring[s]), (walk[t], ring[t], ring[s])]
        if f == outer:
            boundary = ring
        else:
            tris += [(m, ring[s - 1], ring[s]) for s in range(k)]
            m += 1
    return np.array(tris), boundary, m


def _corner_angles(r, v, u, w):
    """Angle at v between the centres of mutually tangent circles v, u, w, by
    tan(angle/2)^2 = r_u r_w / (r_v (r_v + r_u + r_w)) (no cancellation)."""
    return 2.0 * np.arctan(np.sqrt(r[u] * r[w] / (r[v] * (r[v] + r[u] + r[w]))))


def _pack_component(graph: SimplicialGraph, comp, pos0):
    """Tangency packing of one component by Collins-Stephenson angle sums
    (Collins & Stephenson, "A circle packing algorithm", Comput. Geom. 25, 2003).

    In ``_disk_triangulation`` of the drawing the boundary radii are 1 and
    all others are iterated together to angle sum 2*pi by the uniform-
    neighbour update until the worst angle error is below ANGLE_TOL.  The
    circles are laid out by tangency, the auxiliary ones dropped and the
    rest scaled to geometric-mean radius 1; adjacent ones must be tangent to
    PACKING_TOL and all others strictly apart.  At most 2 vertices are
    closed forms.  Returns the circles and {"size", "sweeps", "angle_error"}.
    """
    comp, n = list(comp), len(comp)
    if n <= 2:
        circles = {v: (np.array([2.0 * i - (n - 1), 0.0]), 1.0) for i, v in enumerate(comp)}
        return circles, {"size": n, "sweeps": 0, "angle_error": 0.0}
    tris, boundary, m = _disk_triangulation(graph, comp, pos0)
    v, u, w = (np.roll(tris, -s, axis=1).ravel() for s in range(3))
    inner = np.isin(np.arange(m), boundary, invert=True)
    k = np.bincount(v, minlength=m)[inner]
    delta = np.sin(math.pi / k)
    r = np.ones(m)
    for sweeps in range(MAX_SWEEPS):
        theta = np.bincount(v, _corner_angles(r, v, u, w), minlength=m)[inner]
        error = float(np.abs(theta - TWO_PI).max(initial=0.0))
        if error < ANGLE_TOL:
            break
        # k equal neighbours that reproduce theta, then the radius they close up at 2*pi
        beta = np.sin(theta / (2 * k))
        r[inner] *= beta / (1.0 - beta) * (1.0 - delta) / delta
    else:
        raise PackingError(f"angle sums off by {error:.2e} after {MAX_SWEEPS} sweeps")

    # lay out by tangency: each corner's w lies counterclockwise of v -> u
    z = np.full(m, np.nan, complex)
    z[v[0]], z[u[0]] = 0.0, r[v[0]] + r[u[0]]
    turns = np.exp(1j * _corner_angles(r, v, u, w))
    corners = list(zip(v.tolist(), u.tolist(), w.tolist(), turns))
    while np.isnan(z).any():
        for a, b, c, turn in corners:
            if np.isnan(z[c]) and not np.isnan(z[a] + z[b]):
                z[c] = z[a] + (r[a] + r[c]) * turn * (z[b] - z[a]) / abs(z[b] - z[a])
    scale = math.exp(np.log(r[:n]).mean())
    z, r = z[:n] / scale, r[:n] / scale
    d = np.abs(z[:, None] - z[None, :])
    rsum = r[:, None] + r[None, :]
    adjacent = np.array([[graph.has_edge(x, y) for y in comp] for x in comp])
    worst = float(np.abs(d - rsum)[adjacent].max())
    if worst > PACKING_TOL:
        raise PackingError(f"tangency residual {worst:.2e} above {PACKING_TOL:.0e}")
    apart = ~adjacent & ~np.eye(n, dtype=bool)
    if not (d[apart] > rsum[apart] * (1.0 + 1e-6)).all():
        raise PackingError("non-adjacent circles not separated")
    circles = {x: (np.array([z[i].real, z[i].imag]), float(r[i])) for i, x in enumerate(comp)}
    return circles, {"size": n, "sweeps": sweeps, "angle_error": error}


def _plane_packing(graph: SimplicialGraph, positions):
    """The packings of the components side by side, centred on the origin
    (the twists round off in proportion to |coordinates|).  Returns the
    centres (n, 2) and radii (n,) in vertex order and the packing records."""
    packed = {}
    packing = []
    offset = 0.0
    for comp in graph.components():
        sub, record = _pack_component(graph, comp, positions)
        packing.append(record)
        lo = min(c[0] - r for c, r in sub.values())
        hi = max(c[0] + r for c, r in sub.values())
        packed.update({v: (c + [offset - lo, 0.0], r) for v, (c, r) in sub.items()})
        offset += (hi - lo) + 2.0 * max(r for _, r in sub.values())
    c = np.array([packed[v][0] for v in graph.vertices])
    r = np.array([packed[v][1] for v in graph.vertices])
    mid = 0.5 * ((c - r[:, None]).min(0) + (c + r[:, None]).max(0))
    return c - mid, r, packing


def _inflate(graph: SimplicialGraph, c, r):
    """Inflate a tangency packing (centres c, radii r in vertex order) by the
    largest 1 + delta <= 1.2 under which adjacent circles cross twice,
    non-adjacent ones stay gap_floor apart and no three disks share a point.
    Returns delta, the inflated radii and the annulus half-widths (a quarter
    of each circle's clearance, at most half its radius).

    Each condition has an exact threshold s of 1 + delta, read from one table
    of centre distances d: d / |r_u - r_v| for an adjacent pair (none if the
    radii are equal), (d - gap_floor) / (r_u + r_v) for a non-adjacent pair,
    and for a triangle of the graph the s at which its circles pass through
    one point p.  With t = s^2, q = p - c_0 = q0 + t q1 solves
    2 q.(c_m - c_0) = |c_m - c_0|^2 - t (r_m^2 - r_0^2), m = 1, 2, and t is
    the least positive root of |q|^2 = t r_0^2.  Other triples have a
    non-adjacent pair.  delta stays a relative 1e-9 below the least threshold.
    """
    adjacent = np.array([[graph.has_edge(u, v) for v in graph.vertices] for u in graph.vertices])
    d = np.hypot(c[:, None, 0] - c[None, :, 0], c[:, None, 1] - c[None, :, 1])
    ri, rj = r[:, None], r[None, :]
    min_gap = (d - ri - rj)[np.triu(~adjacent, 1)].min(initial=np.inf)
    gap_floor = min(0.05 * r.min(), 0.3 * min_gap)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(adjacent, d / np.abs(ri - rj), (d - gap_floor) / (ri + rj))
    np.fill_diagonal(s, np.inf)
    upper = np.triu(adjacent)
    i, j, k = np.nonzero(upper[:, :, None] & upper[:, None, :] & upper[None, :, :])
    e = np.stack([c[j] - c[i], c[k] - c[i]], 1)
    rhs = np.stack([(e * e).sum(-1), r[i, None] ** 2 - r[np.stack([j, k], 1)] ** 2], -1)
    q0, q1 = np.moveaxis(np.linalg.solve(2.0 * e, rhs), -1, 0)
    a, b, c0 = (q1 * q1).sum(-1), 2.0 * (q0 * q1).sum(-1) - r[i] ** 2, (q0 * q0).sum(-1)
    disc = b * b - 4.0 * a * c0
    meet = (b < 0.0) & (disc >= 0.0)  # else both roots are negative or complex
    t = 2.0 * c0[meet] / (np.sqrt(disc[meet]) - b[meet])  # the smaller root, also at a = 0
    s_min = min(s.min(), math.sqrt(t.min(initial=np.inf)))
    delta = min(0.2, (1.0 - 1e-9) * s_min - 1.0)
    if delta <= 1e-6:
        raise PackingError("no inflation factor satisfies the crossing constraints")

    R = r * (1.0 + delta)
    Ri, Rj = R[:, None], R[None, :]
    clearance = np.where(adjacent, np.minimum(Ri + Rj - d, d - np.abs(Ri - Rj)), d - Ri - Rj)
    np.fill_diagonal(clearance, np.inf)
    clearance = clearance.min(1)
    widths = np.minimum(0.25 * np.where(np.isinf(clearance), R, clearance), 0.5 * R)
    return float(delta), R, widths


@dataclass
class Configuration:
    """Circles, disks, annuli and punctures realizing an Artin graph.

    The punctures are exact (``build_configuration``): P_v on C_v outside
    every other annulus, two points in every component of the complement
    of the annuli, and the far point q; ``provenance["components"]`` counts
    the components and records the least clearance of a puncture.  For
    each ordered edge (u, v), ``overlap_arcs`` holds the longest arc of C_u
    inside A(v) between crossings of the arrangement, where the overlap
    probes are placed.
    """

    graph: SimplicialGraph
    centers: Mapping  # v -> np.array(2)
    radii: Mapping  # v -> inflated circle radius (the circle C_v)
    widths: Mapping  # v -> annulus half-width in radius
    annuli: Mapping  # v -> RoundAnnulus
    punctures_on_circles: Mapping  # v -> (2, 2) array, the two points of P_v on C_v
    overlap_arcs: Mapping  # (u, v) edge, both orders -> (lo, hi) angles of an arc of C_u in A(v)
    region_points: list  # one (2, 2) array per component of the annulus complement
    far_point: np.ndarray  # q: avoids every annulus and every disk
    basepoint: np.ndarray
    provenance: dict

    def all_punctures(self):
        pts = [self.punctures_on_circles[v] for v in self.graph.vertices]
        pts += list(self.region_points)
        pts.append(self.far_point[None, :])
        return np.concatenate(pts, 0)

    def central_circle_points(self, v):
        """Eight points on C_v."""
        c, r = self.centers[v], self.radii[v]
        ang = np.arange(8) * TWO_PI / 8 + 0.1
        return c + r * np.stack([np.cos(ang), np.sin(ang)], -1)

    def near_puncture_points(self, v):
        """Points radially offset from each puncture of P_v, off the circle."""
        c, r, w = self.centers[v], self.radii[v], self.widths[v]
        out = []
        for p in self.punctures_on_circles[v]:
            u = (p - c) / np.hypot(*(p - c))
            out.append(c + (r + 0.4 * w) * u)
            out.append(c + (r - 0.4 * w) * u)
        return np.array(out)

    def overlap_points(self, u, v):
        """Four points inside both A(u) and A(v), off both rotation circles.

        Points exactly on a central circle come back to themselves under the
        integer twist, so the probes start on the overlap arc of C_u inside
        A(v), at 1/2, 1/2, 0.35 and 0.65 of its angle, and step radially off
        it by a fraction of the smaller width.  A non-edge raises ValueError.
        """
        if (u, v) not in self.overlap_arcs:
            raise ValueError(f"annuli of {u!r} and {v!r} do not overlap")
        lo, hi = self.overlap_arcs[u, v]
        off = 0.35 * min(self.widths[u], self.widths[v])
        ang = lo + (hi - lo) * np.array([0.5, 0.5, 0.35, 0.65])
        r = self.radii[u] + off * np.array([1.0, -1.0, 0.6, -0.6])
        return self.centers[u] + r[:, None] * np.stack([np.cos(ang), np.sin(ang)], -1)

    def marked_points(self):
        pts = []
        for v in self.graph.vertices:
            pts.append(self.central_circle_points(v))
            pts.append(self.near_puncture_points(v))
        for u, v in self.graph.sorted_edges():
            pts.append(self.overlap_points(u, v))
            pts.append(self.overlap_points(v, u))
        return np.concatenate(pts, 0)


def _clearances(pts, c, r_in, r_out):
    """Distance from each of m points to each of n closed annuli, (m, n),
    negative inside an annulus."""
    d = np.hypot(pts[:, None, 0] - c[None, :, 0], pts[:, None, 1] - c[None, :, 1])
    return np.maximum(r_in - d, d - r_out)


def _arrangement_punctures(c, R, w):
    """Punctures from the arrangement of the inner, central and outer circle
    of each annulus (centres c, central radii R, half-widths w in vertex order).

    Each circle is cut into arcs where it crosses a boundary circle of
    another annulus (closed form).  An arc is free when its 1/3 and 2/3
    points lie outside every other annulus.  P_v is those two points of the
    longest free arc of C_v, or None if C_v has none.  The overlap arc of
    C_u in A(v) is the longest arc of C_u whose two points lie inside A(v),
    the first in angular order on a tie.  Free boundary arcs that meet at a
    crossing bound the same complementary component (there are two at a
    crossing no third annulus covers), so a union-find of them
    gives the boundary cycles.  With the component on the left a cycle's
    signed area is negative only for an outer boundary, and all of those
    bound the one unbounded component.  A component's two points are those
    of its longest free arc, pushed off it to the free side by half their
    clearance, at most half the radius.  Returns P, one (2, 2) array or None
    per vertex, the region points, one (2, 2) array per component, ordered
    by first arc, and the overlap arcs, {(u, v): (lo, hi)} by vertex index
    for every pair that has one, with lo in [0, 2*pi) and lo < hi.
    """
    n = len(R)
    cc, owner = np.repeat(c, 3, axis=0), np.repeat(np.arange(n), 3)
    rr = (R[:, None] + w[:, None] * [-1.0, 0.0, 1.0]).ravel()
    side = np.tile([-1.0, 0.0, 1.0], n)  # the free side of a boundary circle, 0 on C_v
    rel = cc[None, :] - cc[:, None]
    d = np.hypot(rel[..., 0], rel[..., 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        cos_a = (d * d + rr[:, None] ** 2 - rr[None, :] ** 2) / (2.0 * d * rr[:, None])
    meets = (owner[:, None] != owner) & (side != 0.0) & (np.abs(cos_a) < 1.0)
    phi, alpha = np.arctan2(rel[..., 1], rel[..., 0]), np.arccos(np.clip(cos_a, -1.0, 1.0))
    circ, lo, hi, ends = [], [], [], []
    for k in range(3 * n):
        ls = np.flatnonzero(meets[k])
        # the crossing at phi + s*alpha on k lies at phi' - s*alpha' on l
        keys = [(k, l, s) if k < l else (l, k, -s) for s in (1, -1) for l in ls.tolist()]
        ang = np.concatenate([phi[k, ls] + alpha[k, ls], phi[k, ls] - alpha[k, ls]]) % TWO_PI
        srt = np.argsort(ang, kind="stable")
        a = ang[srt].tolist() or [0.0]
        keys = [keys[i] for i in srt] or [None]
        circ += [k] * len(a)
        lo += a
        hi += a[1:] + [a[0] + TWO_PI]
        ends += list(zip(keys, keys[1:] + keys[:1]))
    circ, lo, hi = np.array(circ), np.array(lo), np.array(hi)
    t = lo[:, None] + (hi - lo)[:, None] * [1.0 / 3.0, 2.0 / 3.0]
    pts = cc[circ, None] + rr[circ, None, None] * np.stack([np.cos(t), np.sin(t)], -1)
    clear = _clearances(pts.reshape(-1, 2), c, R - w, R + w).reshape(len(circ), 2, n)
    clear[np.arange(len(circ)), :, owner[circ]] = np.inf
    inside = (clear < 0.0).all(1)  # (arcs, n): the arc lies in that annulus
    clear = clear.min(-1)
    free = clear.min(-1) > 0.0
    length = rr[circ] * (hi - lo)

    def longest(arcs):  # the first of the longest, in angular order
        return arcs[np.argmax(length[arcs])]

    P, overlaps = [], {}
    for u in range(n):
        arcs = np.flatnonzero(circ == 3 * u + 1)
        P.append(pts[longest(arcs[free[arcs]])] if free[arcs].any() else None)
        for v in np.flatnonzero(inside[arcs].any(0)).tolist():
            a = longest(arcs[inside[arcs, v]])
            overlaps[u, v] = (float(lo[a]), float(hi[a]))

    parent = {a: a for a in np.flatnonzero(free & (side[circ] != 0.0)).tolist()}

    def root(a):
        while parent[a] != a:
            a = parent[a]
        return a

    at = {}
    for a in parent:
        for key in ends[a]:
            if key is not None:
                at.setdefault(key, []).append(a)
    for arcs in at.values():
        for b in arcs[1:]:
            parent[root(b)] = root(arcs[0])
    cycles = {}
    for a in parent:
        cycles.setdefault(root(a), []).append(a)
    # twice the signed area swept by each arc, traversed with the free side on its left
    x, y = cc[circ].T
    swept = -side[circ] * rr[circ] * (
        rr[circ] * (hi - lo) + x * (np.sin(hi) - np.sin(lo)) - y * (np.cos(hi) - np.cos(lo))
    )
    outer = [a for arcs in cycles.values() if swept[arcs].sum() < 0.0 for a in arcs]
    faces = [arcs for arcs in cycles.values() if swept[arcs].sum() >= 0.0] + [outer]
    regions = []
    for arcs in sorted(faces, key=min):
        a = max(arcs, key=lambda b: length[b])
        unit = (pts[a] - cc[circ[a]]) / rr[circ[a]]
        push = np.minimum(0.5 * clear[a], 0.5 * rr[circ[a]])
        regions.append(pts[a] + (side[circ[a]] * push)[:, None] * unit)
    return P, regions, overlaps


def build_configuration(embedding: PlanarEmbedding) -> Configuration:
    """Realize the graph as the nerve of round annuli in the plane.

    Pipeline: tangency circle packing of each component (Collins-Stephenson
    angle sums, tangent to 1e-10), inflation by the largest 1+delta,
    delta <= 0.2, keeping adjacent circles crossing in exactly two points and
    everything else separated with no triple disk intersections (closed
    form, ``_inflate``), then thickening each circle to an annulus of width
    a quarter of the local clearance.  Punctures come from the exact circle
    arrangement (``_arrangement_punctures``): two per circle in an arc free
    of other annuli, two per complementary component, and one far point q
    outside every disk.  The same arrangement gives, for each edge in both
    orders (u, v), the overlap arc of C_u inside A(v) that
    ``Configuration.overlap_points`` probes.  ``provenance["packing"]``
    holds the ``_pack_component`` record of each component: size, sweeps,
    angle error.
    ``provenance["components"]`` holds ``n_faces`` = 2|E| + 1 + #components,
    the faces of the arrangement of the circles C_v by Euler's formula (2|E|
    crossings, 4|E| arcs), which bounds the components of the annulus
    complement since an annulus can cover a thin face; ``n_free``, the
    components found; and ``least_clearance``, the least distance of a
    puncture from the annuli it must avoid.  A circle without a free arc,
    an edge without an overlap arc, more components than faces or a
    puncture without clearance raise PackingError.
    """
    graph = embedding.graph
    if not graph.vertices:
        raise ValueError("empty graph has no configuration")
    order = list(graph.vertices)
    c, r, packing = _plane_packing(graph, embedding.positions)
    delta, R, w = _inflate(graph, c, r)
    centers = dict(zip(order, c))
    radii = dict(zip(order, R.tolist()))
    widths = dict(zip(order, w.tolist()))

    annuli = {
        v: RoundAnnulus(tuple(centers[v]), radii[v] - widths[v], radii[v] + widths[v])
        for v in order
    }

    flags = np.zeros((len(order), len(order)), bool)
    for i, u in enumerate(order):
        for j, v in enumerate(order):
            if i < j:
                flags[i, j] = flags[j, i] = annuli_intersect(annuli[u], annuli[v])
    nerve = incidence_nerve(order, flags)
    if nerve.edges != graph.edges:
        raise PackingError("annulus nerve does not match the graph")

    P, region_points, arcs = _arrangement_punctures(c, R, w)
    for v, p in zip(order, P):
        if p is None:
            raise PackingError(f"no free arc on the circle of {v!r}")
    overlap_arcs = {(order[i], order[j]): arc for (i, j), arc in arcs.items()}
    for x, y in graph.sorted_edges():
        for u, v in ((x, y), (y, x)):
            if (u, v) not in overlap_arcs:
                raise PackingError(f"no arc of the circle of {u!r} inside the annulus of {v!r}")
    n_faces = 2 * len(graph.edges) + 1 + len(packing)
    if len(region_points) > n_faces:
        raise PackingError(f"{len(region_points)} complementary components, Euler allows {n_faces}")
    r_out = R + w
    margin = 0.6 * r_out.max()
    far = (c + r_out[:, None]).max(0) + 2.0 * margin
    base = np.array([far[0], (c[:, 1] - r_out).min() - 2.0 * margin])
    clear = _clearances(np.concatenate(P + region_points + [far[None]]), c, R - w, r_out)
    clear[np.arange(2 * len(order)), np.arange(2 * len(order)) // 2] = np.inf  # P_v lies in A(v)
    least = float(clear.min())
    if not least > 0.0:
        raise PackingError(f"a puncture lies {least:.2e} inside an annulus it must avoid")

    return Configuration(
        graph=graph,
        centers=centers,
        radii=radii,
        widths=widths,
        annuli=annuli,
        punctures_on_circles=dict(zip(order, P)),
        overlap_arcs=overlap_arcs,
        region_points=region_points,
        far_point=far,
        basepoint=base,
        provenance={
            "delta": delta,
            "components": {"n_faces": n_faces, "n_free": len(region_points), "least_clearance": least},
            "packing": packing,
        },
    )


# ----------------------------- representation ------------------------------


@dataclass
class Representation:
    """Vertex generators realized as iterated double Dehn twists.

    Words over word_graph are evaluated by the flows module; when the graph
    needed a planar emulator the stored pullback homomorphism rewrites words
    over the cover before any geometry is touched.
    """

    word_graph: SimplicialGraph
    config: Configuration
    N: int
    profiles: Mapping
    pullback: Optional[Homomorphism] = None

    def generator_map(self, v, tau) -> PlaneMap:
        return double_dehn_twist(self.config.annuli[v], self.profiles[v], tau)

    def apply_letters(self, letters, pts):
        """Apply cover letters (v, e) right to left to an (n, 2) array or one
        (2,) point; any other shape is a ValueError.

        Letter (v, e) is the twist of A(v) with tau = N*e, applied in place
        to the batch's rows as complex numbers, one stint at a time.  Each
        letter claims every row of its closed annulus.  When a letter of
        A(v) claims a row whose last claim was by another annulus (or by
        none), it computes the row's factor rho = exp(-i N h'(t)) by
        ``_twist_rows``; later letters of A(v) reuse it, (v, +1) turning the
        row as z -> c + (z - c) * rho and (v, -1) by conj(rho), until
        another annulus claims the row.  The twist keeps t, so the factor
        of the row's true height holds for the whole stint, and a row with
        rho == 1 does not move.  conj(exp(-iNx)) is exp(+iNx) bit for bit,
        so a one-letter word, and the first letter of every stint, is
        bit-identical to ``generator_map(v, N*e).apply``.

        The letters touch only the rows their annuli hold, found by events.
        Each row waits in the due list of the first step whose annulus holds
        it, filed by the annulus that claimed it last (or by none, in the
        initial pass, which tests each row against every annulus the word
        uses).  A step of A(v) claims its list: a row filed by another
        annulus starts a stint.  Then it files every claimed row again,
        moved or not, testing it only against the annuli of v's neighbours
        in the graph whose next step comes before A(v)'s; the earliest that
        holds the row gets it, and otherwise A(v)'s next step does.  A row
        that no later step can claim leaves the lists.  This misses no
        claim: ``build_configuration`` certifies that the annulus nerve is
        the graph, so no other annulus meets A(v), and a twist moves a row
        only along a circle of its own annulus, keeping |z - c| to an ulp.
        Rows within rounding of an annulus boundary do not move, so no
        membership decision that rounding could flip ever changes an output.
        A letter that is not (v, +1) or (v, -1) for a vertex v of the cover
        is a ValueError that names it.
        """
        annuli, index = list(self.config.annuli.values()), {v: i for i, v in enumerate(self.config.annuli)}
        steps = []
        for letter in reversed(letters):
            v, e = letter
            if v not in index or e not in (1, -1):
                raise ValueError(f"{letter!r} is not a letter (v, +1) or (v, -1) of a cover vertex v")
            steps.append((index[v], v, e))
        end = len(steps)
        uses = [[] for _ in annuli]  # the steps of each annulus in order, then end
        for step, (i, _, _) in enumerate(steps):
            uses[i].append(step)
        for u in uses:
            u.append(end)
        nxt = [0] * len(annuli)  # each annulus's pointer to its next step in uses
        near = [[index[u] for u in self.config.graph.neighbors(v)] for v in self.config.annuli]
        out, single = _point_rows(pts)
        z = out.view(complex).ravel()  # one complex scalar per row, sharing out's memory
        due = [[] for _ in steps]  # per step: (rows, the annulus that filed them, -1 for none)
        unfiled = np.ones(len(out), bool)
        for first, i in sorted((u[0], i) for i, u in enumerate(uses) if u[0] < end):
            rows = np.flatnonzero(annuli[i].contains(out) & unfiled)
            unfiled[rows] = False
            due[first].append((rows, -1))
        rho = np.ones(len(out), complex)  # each row's factor for its stint
        for step, (i, v, e) in enumerate(steps):
            nxt[i] += 1
            filed, due[step] = due[step], None
            if not filed:
                continue
            idx = filed[0][0] if len(filed) == 1 else np.concatenate([rows for rows, _ in filed])
            c = complex(*annuli[i].center)
            fresh = [rows for rows, by in filed if by != i]
            if fresh:
                fresh = fresh[0] if len(fresh) == 1 else np.concatenate(fresh)
                rho[fresh] = 1.0
                rows, turns = _twist_rows(annuli[i], self.profiles[v], self.N, z[fresh] - c)
                rho[fresh[rows]] = turns
            turns = rho[idx]
            turning = turns != 1.0
            turns = turns[turning]
            if e < 0:
                turns = turns.conj()
            # rel * turns on two named arrays: with a large temporary operand
            # NumPy multiplies in place, swapping the operands when the
            # temporary is the second, and a one-element product in place
            # rounds differently; either would make a row's bits depend on
            # its batch
            claimed = z[idx]
            rel = claimed[turning] - c
            claimed[turning] = moved = c + rel * turns
            z[idx[turning]] = moved
            # file the claimed rows again: under A(v)'s next step unless a
            # neighbour's annulus that acts before it holds them
            again = uses[i][nxt[i]]
            before = sorted(((uses[u][nxt[u]], u) for u in near[i] if uses[u][nxt[u]] < again), reverse=True)
            if not before:
                if again < end:
                    due[again].append((idx, i))
                continue
            xy = claimed.view(float).reshape(-1, 2)
            when = np.full(len(idx), again)
            for later, u in before:  # latest first, so the earliest holder wins
                when[annuli[u].contains(xy)] = later
            for later in [later for later, _ in before] + ([again] if again < end else []):
                rows = idx[when == later]
                if len(rows):
                    due[later].append((rows, i))
        return out[0] if single else out


def build_representation(
    graph: SimplicialGraph,
    N: int,
    emulator=None,
    *,
    grid=None,
) -> Representation:
    """Send each generator to the N-th power of its double Dehn twist.

    N = 1 is rejected: injectivity of these twist representations is only
    guaranteed from the second iterate on.  Nonplanar graphs must supply a
    planar emulator (see find_planar_emulator); the representation is then
    the cover representation precomposed with the fiber-product pullback.
    ``grid`` is ignored: the punctures no longer come from a grid, and the
    keyword stays only because the benchmark workloads still pass it.
    """
    if N < 2:
        raise ValueError("iteration count N must be at least 2")
    if emulator is None:
        emb = planarity(graph)
        if isinstance(emb, NonplanarWitness):
            raise ValueError(
                "graph is nonplanar and no emulator was supplied; "
                "find one with find_planar_emulator, the only route for nonplanar graphs"
            )
    else:
        emb = emulator.embedding
    config = build_configuration(emb)
    profiles = {}
    for v, A in config.annuli.items():
        R = config.radii[v]  # the rotation circle of A(v), at area height b = (R^2 - mid)/2
        profiles[v] = make_profile(A.a, 0.5 * (R * R - A.mid))
    pullback = None if emulator is None else hom_pullback(emulator.projection)
    return Representation(word_graph=graph, config=config, N=N, profiles=profiles, pullback=pullback)
