"""Universal-cover machinery on the Poincare disk.

A discrete group of disk automorphisms spreads copies of one annulus toward
the boundary circle.  Each translate gets its own corrected twist
Hamiltonian, rescaled so the time-1 flow still rotates the translated circle
by one full turn even though the Euclidean area of the translate shrinks.
The assembled function is continuous on the closed disk, vanishes outside
the translates, and its boundary behaviour (decay of the scales, growth of
higher derivatives) is what the report functions measure.

The default group is a rank-2 Schottky pair: free reduction makes the
enumeration exact, translates of an annulus inside the fundamental
domain are guaranteed disjoint, and reducing a point into that domain names
the one translate that can hold it.

Group elements are SU(1,1) pairs (alpha, beta) for z -> (alpha z + beta) /
(conj(beta) z + conj(alpha)): products, scales, image circles and charts
stay free of cancellation at every word length.

An assembly's constants (image circles, inverse map, chart, profile and
scale of every translate) are one table built in array passes over the
pairs' columns (``constant_table``).  The table is the record the
arithmetic reads, in the one layout it reads it: a translate or chart built
alone is a one-column call of it, the assembly's translates are views of
its columns, and a point's arithmetic runs on the columns taken for it.
The chart of a translate is its area height t(r) alone, the one coordinate
the corrected Hamiltonian reads.  The translates' disjointness is the
ping-pong certificate's, exact at every depth: no float test of their
circles, which the deepest translates are too small to pass or fail.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field
from collections.abc import Sequence
from typing import Optional

import numpy as np

from .flows import HamiltonianField
from .twist import RoundAnnulus, TwistProfile

TWO_PI = 2.0 * math.pi


class QuadratureError(RuntimeError):
    pass


# ------------------------------ Mobius maps ---------------------------------


class MobiusMap:
    """Disk automorphism z -> (alpha z + beta) / (conj(beta) z + conj(alpha)).

    Kept as the SU(1,1) pair |alpha|^2 - |beta|^2 = 1, the top row of
    [[alpha, beta], [conj(beta), conj(alpha)]] (Mumford, Series & Wright,
    *Indra's Pearls*, 2002), so products keep 1 - |a|^2 = 1/|alpha|^2 of the
    form e^{i theta} (z - a) / (1 - conj(a) z) free of cancellation at every
    word length.  The constructor takes that form and converts once:
    u = e^{i theta/2} / sqrt(1 - |a|^2), alpha = u, beta = -u a.
    """

    __slots__ = ("alpha", "beta")

    def __init__(self, theta: float, a: complex):
        if abs(a) >= 1.0:
            raise ValueError("parameter a must lie inside the unit disk")
        u = cmath.exp(0.5j * theta) / math.sqrt(1.0 - abs(a) ** 2)
        self.alpha, self.beta = u, -u * complex(a)

    @staticmethod
    def _pair(alpha: complex, beta: complex) -> "MobiusMap":
        m = object.__new__(MobiusMap)
        m.alpha, m.beta = alpha, beta
        return m

    @staticmethod
    def identity() -> "MobiusMap":
        return MobiusMap(0.0, 0.0)

    def __call__(self, z):
        z = np.asarray(z, complex)
        return (self.alpha * z + self.beta) / (self.beta.conjugate() * z + self.alpha.conjugate())

    def derivative(self, z):
        z = np.asarray(z, complex)
        return 1.0 / (self.beta.conjugate() * z + self.alpha.conjugate()) ** 2

    def compose(self, other: "MobiusMap") -> "MobiusMap":
        a1, b1, a2, b2 = self.alpha, self.beta, other.alpha, other.beta
        return MobiusMap._pair(a1 * a2 + b1 * b2.conjugate(), a1 * b2 + b1 * a2.conjugate())

    def inverse(self) -> "MobiusMap":
        return MobiusMap._pair(self.alpha.conjugate(), -self.beta)

    def __repr__(self):
        return f"MobiusMap(alpha={self.alpha:.6f}, beta={self.beta:.6f})"


# --------------------------- group enumeration ------------------------------


@dataclass(frozen=True)
class GroupElement:
    word: tuple  # letter ids: 2k for generator k, 2k+1 for its inverse
    map: MobiusMap

    @property
    def length(self) -> int:
        return len(self.word)


def schottky_pair(s: float = 0.98):
    """Two hyperbolic translations with disjoint isometric circles.

    The first translates along the real axis, the second along the imaginary
    axis; for s close to 1 the four isometric disks hug the boundary and the
    common exterior (a neighborhood of the origin) is a fundamental domain.
    """
    if not (0.0 < s < 1.0):
        raise ValueError("translation parameter s must be in (0, 1)")
    alpha = complex(1.0 / math.sqrt(1.0 - s * s))
    return [MobiusMap._pair(alpha, s * alpha), MobiusMap._pair(alpha, 1j * s * alpha)]


def _letters(generators: Sequence[MobiusMap]):
    """Letter maps by id: 2k for generator k, 2k + 1 for its inverse."""
    return [m for g in generators for m in (g, g.inverse())]


def _extensions(frontier, letters):
    """The freely reduced one-letter extensions of each element, in order."""
    for el in frontier:
        last = el.word[-1] if el.word else None
        for lid, lmap in enumerate(letters):
            if last is None or lid != last ^ 1:
                yield GroupElement(word=el.word + (lid,), map=el.map.compose(lmap))


def enumerate_group(generators: Sequence[MobiusMap], L: int):
    """All freely reduced words of length <= L with their Mobius products."""
    if L < 0:
        raise ValueError(f"word length L={L} must be at least 0")
    letters = _letters(generators)
    out = [GroupElement(word=(), map=MobiusMap.identity())]
    frontier = out[:]
    for _ in range(L):
        frontier = list(_extensions(frontier, letters))
        out.extend(frontier)
    return out


def next_words(generators: Sequence[MobiusMap], elements, count: int):
    """The first count words one letter longer than the last of elements (an
    ``enumerate_group`` list), in ``enumerate_group``'s order, extending only
    the last length rather than enumerating every shorter word again."""
    L = elements[-1].length
    frontier = [el for el in elements if el.length == L]
    return list(itertools.islice(_extensions(frontier, _letters(generators)), count))


# ------------------------------- lambda scale -------------------------------


def _deriv_sq_polar(sigma: MobiusMap, center: complex, radii, thetas):
    z = center + radii[:, None] * np.exp(1j * thetas[None, :])
    d = sigma.derivative(z)
    return (d * np.conj(d)).real


# lambda_scale: relative agreement of successive quadratures to stop at, and
# the most resolution doublings
LAMBDA_QUAD_TOL = 1e-8
LAMBDA_QUAD_LEVELS = 6


def lambda_scale(sigma: GroupElement, annulus: RoundAnnulus) -> float:
    """Mass of the pulled-back area form: integral of |sigma'|^2 over the annulus.

    Adaptive polar quadrature (Gauss-Legendre radially, trapezoid in angle,
    both spectrally accurate for this smooth integrand); resolution doubles,
    at most LAMBDA_QUAD_LEVELS times, until successive values agree to the
    relative tolerance LAMBDA_QUAD_TOL.  The charts use the closed form
    (``TransportChart.mass``); this is its numerical oracle.
    """
    c = complex(annulus.center[0], annulus.center[1])
    prev = None
    nr, nt = 24, 48
    for _ in range(LAMBDA_QUAD_LEVELS):
        x, wgt = np.polynomial.legendre.leggauss(nr)
        r = 0.5 * (annulus.r_outer - annulus.r_inner) * (x + 1.0) + annulus.r_inner
        wr = 0.5 * (annulus.r_outer - annulus.r_inner) * wgt
        th = np.arange(nt) * TWO_PI / nt
        vals = _deriv_sq_polar(sigma.map, c, r, th)
        integral = float((vals.sum(1) * (TWO_PI / nt) * r * wr).sum())
        if prev is not None and abs(integral - prev) <= LAMBDA_QUAD_TOL * max(
            abs(integral), 1e-300
        ):
            return integral
        prev = integral
        nr *= 2
        nt *= 2
    raise QuadratureError("lambda quadrature did not converge")


# ------------------------------ transport chart -----------------------------


class TransportChart:
    """The area height t(r) of the annulus under the pulled-back form: t is
    the pulled-back mass inside |w - c| = r, normalized to [-1/2, 1/2].

    A corrected Hamiltonian reads only this height, and its flow turns the
    level set at height t once in time 2 pi / h'(t), so the chart needs no
    angle.  It is closed form in the pair (alpha, beta) of sigma's map, with
    g = conj(beta) c + conj(alpha), q = |beta|^2 and D = |g|^2: the mass
    inside |w - c| = r is the area pi R(r)^2 of the image disk,
    R(r) = r / (D - q r^2), so ``mass`` (lambda^2) is the area between the
    images of the boundary circles (``lambda_scale`` is its quadrature
    oracle).  ``b`` is the height of the tracked circle of radius
    ``circle_radius``.  The constants are one column of ``constant_table``.
    """

    def __init__(self, annulus: RoundAnnulus, sigma: GroupElement):
        self._unpack(*(table[:, 0].tolist() for table in constant_table([sigma.map], annulus)))

    def _unpack(self, cplx, real):
        """The chart's constants, named from its rows of a constant table."""
        self.c = cplx[6]
        self.circle_radius, self._q, self._D, self._R2_inner, self.mass, self.b = real[4:10]

    @staticmethod
    def _t_jet(r, q, D, R2_inner, mass):
        """(t(r), dt/dr) from R(r) = r / (D - q r^2), the radius of the image
        of |w - c| = r; the constants may be arrays broadcasting against r."""
        qr2 = q * r * r
        den = D - qr2
        R = r / den
        return math.pi * (R * R - R2_inner) / mass - 0.5, TWO_PI * R * ((D + qr2) / den**2) / mass

    def t_of_r(self, r):
        return self.t_jet(r)[0]

    def t_jet(self, r):
        return self._t_jet(np.asarray(r, float), self._q, self._D, self._R2_inner, self.mass)

    def r_of_t(self, t):
        t = np.clip(np.atleast_1d(np.asarray(t, float)), -0.5, 0.5)
        R = np.sqrt((t + 0.5) * self.mass / math.pi + self._R2_inner)
        # q R r^2 + r - D R = 0, positive root without cancellation
        disc = np.sqrt(1.0 + 4.0 * self._q * self._D * R * R)
        return 2.0 * self._D * R / (1.0 + disc)


# ------------------------------ constant table -------------------------------


def _product(ar, ai, br, bi):
    """CPython's complex product (ar + i ai)(br + i bi), in its order."""
    return ar * br - ai * bi, ar * bi + ai * br


def _compose(a1, b1, a2, b2):
    """``MobiusMap.compose`` on columns of pairs, each step the one a Python
    complex number takes: products in CPython's order, sums by parts."""

    def dot(x1, y1, x2, y2):  # x1 y1 + x2 y2
        (r1, i1), (r2, i2) = (_product(x.real, x.imag, y.real, y.imag) for x, y in ((x1, y1), (x2, y2)))
        return np.stack([r1 + r2, i1 + i2], -1).view(complex)[..., 0]

    return dot(a1, a2, b1, b2.conj()), dot(a1, b2, b1, a2.conj())


def _squares(x):
    """x ** 2 the way Python squares a float, by the C library's pow: NumPy
    squares an array by one multiplication, which rounds differently about
    once in a thousand times."""
    return np.array([v**2 for v in x.ravel().tolist()]).reshape(x.shape)


def constant_table(maps: Sequence[MobiusMap], annulus: RoundAnnulus):
    """The constants of the translates sigma(A), one column per sigma in maps.

    The table is the record the arithmetic reads, in one layout.  Complex
    rows: the centres of the images of the outer and inner circles of A,
    sigma^{-1} = (alpha', beta'), conj(alpha'), conj(beta') and the centre c
    of A.  Real rows: the outer and inner image radii, the same radii with the
    support test's 1e-13 slack (outer widened, inner narrowed), the tracked
    radius, the chart's q, D, R(r_in)^2 and mass, the profile's b, width w
    and 2 pi e w, and the scale lambda^2 / 2 pi.  With
    g = conj(beta) c + conj(alpha) and den = D - q r^2,
    the image of |w - c| = r has radius R(r) = r / den and centre
    ((alpha c + beta) conj(g) - alpha beta r^2) / den.

    Array passes over the SU(1,1) columns (alpha, beta), each step the one a
    Python complex number would take: products in CPython's real order, a
    float factor or divisor promoted to x + 0i as CPython promotes it,
    moduli by hypot and squares by pow.  A column's bits therefore do not
    depend on the other columns: a translate built alone
    (``CorrectedHamiltonian``, ``TransportChart``) has its assembly's column.
    """
    alpha, beta = (np.array([getattr(m, k) for m in maps], complex) for k in ("alpha", "beta"))
    ar, ai, br, bi = alpha.real, alpha.imag, beta.real, beta.imag
    c = complex(annulus.center[0], annulus.center[1])
    gr, gi = _product(br, -bi, c.real, c.imag)
    gr, gi = gr + ar, gi - ai
    q, D = _squares(np.hypot([br, gr], [bi, gi]))
    # the pole lies off the disk, so den > 0 on the annulus
    r = np.array([[annulus.r_outer], [annulus.r_inner]])
    den = D - q * r * r
    R = r / den
    R2_out, R2_in = _squares(R)
    mass = math.pi * (R2_out - R2_in)
    # the tracked circle: area height 0, the middle of the annulus by area
    circle_radius = math.sqrt(annulus.mid)
    Rc = circle_radius / (D - q * circle_radius * circle_radius)
    b = math.pi * (Rc * Rc - R2_in) / mass - 0.5
    outside = ~((-0.5 < b) & (b < 0.5))
    if outside.any():
        raise ValueError(f"rotation height b={float(b[outside][0])} outside (-0.5, 0.5)")
    xr, xi = _product(ar, ai, c.real, c.imag)
    xr, xi = _product(xr + br, xi + bi, gr, -gi)
    pr, pi_ = _product(ar, ai, br, bi)
    for _ in range(2):
        pr, pi_ = _product(pr, pi_, r, 0.0)
    xr, xi = xr - pr, xi - pi_
    # CPython's quotient by den + 0i: ratio = 0 / den, and den + 0 ratio is den
    ratio = 0.0 / den
    centres = np.stack([(xr + xi * ratio) / den, (xi - xr * ratio) / den], -1).view(complex)[..., 0]
    n, ia, ib = len(alpha), alpha.conj(), -beta
    width = np.minimum(0.5 - b, 0.5 + b)
    cplx = np.stack([centres[0], centres[1], ia, ib, ia.conj(), ib.conj(), np.full(n, c)])
    real = np.stack([
        R[0], R[1], R[0] + 1e-13, R[1] - 1e-13, np.full(n, circle_radius),
        q, D, R2_in, mass, b, width, TWO_PI * math.e * width, mass / TWO_PI,
    ])
    return cplx, real


# --------------------------- corrected Hamiltonians --------------------------


def _complex_points(pts):
    pts = np.atleast_2d(np.asarray(pts, float))
    return pts[:, 0] + 1j * pts[:, 1]


def _plane_vectors(g):
    return g.view(float).reshape(g.shape + (2,))


class CorrectedHamiltonian:
    """Twist Hamiltonian on one translate of the annulus.

    On sigma(A) the function is (lambda^2 / 2 pi) * h(t(sigma^{-1}(z)))
    where t is the transported height and h a bump with h'(b) = 2 pi at the
    height b of the translated circle; the scale makes the time-1 flow with
    respect to the Euclidean form rotate that circle exactly once.
    lambda^2 is the chart's closed-form mass, the image-disk area difference
    (``lambda_scale`` is the quadrature oracle).  A piece is one column of
    ``constant_table``, built alone or viewed in its assembly's table
    (``AssembledHamiltonian.pieces``); its assembly evaluates it, by
    ``_jet_on`` and the functions beside it on the piece's ``_record``.
    """

    def __init__(self, element: GroupElement, annulus: RoundAnnulus):
        self._unpack(*(table[:, 0].tolist() for table in constant_table([element.map], annulus)))
        self._name(element, annulus)

    def _unpack(self, cplx, real):
        """The constants, named from the rows of a constant table: one
        column's Python scalars, or stacked columns (one per point, or
        broadcasting against the points).  ``_record`` is those rows as they
        come, every constant the arithmetic reads; an assembly holds its
        identity piece's as 0-d arrays (cheaper NumPy operands than Python
        numbers, same bits) and its located branch takes the table's
        columns for its points."""
        oc, ic, ia, ib, _, _, _ = cplx
        orad, irad, _, _, _, _, _, _, mass, b, width, _, scale = real
        self.outer_center, self.inner_center, self.outer_radius, self.inner_radius = oc, ic, orad, irad
        self.inv, self.chart = MobiusMap._pair(ia, ib), object.__new__(TransportChart)
        self.chart._unpack(cplx, real)
        self.lambda2, self.b, self.scale = mass, b, scale
        self.profile = TwistProfile(0.5, b, width)
        self._record = cplx, real

    def _name(self, element, annulus):
        self.element, self.annulus = element, annulus

    @classmethod
    def _stacked(cls, cplx, real):
        """Many pieces' arithmetic in one object (``_unpack``)."""
        piece = object.__new__(cls)
        piece._unpack(cplx, real)
        return piece

    def sup_abs(self) -> float:
        return self.scale * self.profile.sup_abs()

    def contains(self, z):
        return _contains(self._record, np.asarray(z, complex))

    def _value_near(self, w, d):
        """H at sigma(w) + d for offsets that keep the point on the translate
        (no support test).  With G = conj(beta) w + conj(alpha) it pulls back
        exactly to w + d G^2 / (1 - conj(beta) G d): no rounded sigma(w) + d,
        and no sigma^{-1} cancelling digits near the boundary."""
        sigma = self.inv.inverse()
        G = sigma.beta.conjugate() * w + sigma.alpha.conjugate()
        pre = w + d * G * G / (1.0 - sigma.beta.conjugate() * G * d)
        return _value_at(self._record, np.abs(pre - self.chart.c), True)

    def _tracked_preimages(self, n):
        ang = np.arange(n) * TWO_PI / n + 0.05
        return self.chart.c + self.chart.circle_radius * np.exp(1j * ang)


def _contains(rec, z):
    """The support test: z in the closed translate, 1e-13 slack on both circles."""
    cplx, real = rec
    return (np.abs(z - cplx[0]) <= real[2]) & (np.abs(z - cplx[1]) >= real[3])


def _pull_back(rec, z, on):
    """rel = w - c for w = sigma^{-1}(z), r = |rel| (the tracked circle's radius
    where on fails) and g = conj(beta') z + conj(alpha') for sigma^{-1} =
    (alpha', beta'), so (sigma^{-1})' = 1/g^2."""
    (_, _, alpha, beta, alpha_c, beta_c, c), (_, _, _, _, circle_radius, *_) = rec
    g = beta_c * z + alpha_c
    rel = (alpha * z + beta) / g - c
    return rel, np.where(on, np.abs(rel), circle_radius), g


def _value_at(rec, r, on):
    """H at pull-backs at radius r about c: at height t clipped to [-1/2, 1/2], 1 (no bump) where on fails,
    by the kernels of ``TransportChart.t_jet`` and ``TwistProfile.jet`` on the record's own rows."""
    *_, q, D, R2_inner, mass, b, width, hw, scale = rec[1]
    t = TransportChart._t_jet(r, q, D, R2_inner, mass)[0]
    return scale * TwistProfile._jet(np.where(on, np.minimum(np.maximum(t, -0.5), 0.5), 1.0), b, width, hw)[0]


def _jet_on(rec, z, on):
    """(H, complex gradient H_x + i H_y) at every point from one pull-back, zero
    where on fails, by the kernels of ``TransportChart.t_jet`` and
    ``TwistProfile.jet``; the gradient is the chain rule through sigma^{-1}."""
    *_, q, D, R2_inner, mass, b, width, hw, scale = rec[1]
    rel, r, g = _pull_back(rec, z, on)
    t, dt_dr = TransportChart._t_jet(r, q, D, R2_inner, mass)
    h, dh = TwistProfile._jet(np.where(on, np.minimum(np.maximum(t, -0.5), 0.5), 1.0), b, width, hw)
    gw = scale * dh * dt_dr * rel
    return scale * h, np.where(on, gw / (r * np.conj(g * g)), 0.0)


# points per chunk of point location
LOCATE_CHUNK = 4096


def _isometric_disk(alpha, beta):
    """Centre and radius of {|conj(beta) z + conj(alpha)| < 1}, where the map
    (alpha, beta) expands: -conj(alpha / beta) and 1 / |beta|."""
    return -(alpha / beta).conjugate(), 1.0 / abs(beta)


class _Pieces(Sequence):
    """An assembly's pieces, each made on access as the view of its column of
    the assembly's table, its scalars Python numbers as a piece built alone
    has them.  It holds the table, not the assembly, so the two form no
    reference cycle and an assembly is freed as soon as it is dropped."""

    def __init__(self, elements, annulus, cplx, real):
        self._elements, self._annulus, self._complex, self._real = elements, annulus, cplx, real

    def __len__(self):
        return len(self._elements)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        piece = CorrectedHamiltonian._stacked(self._complex[:, k].tolist(), self._real[:, k].tolist())
        piece._name(self._elements[k], self._annulus)
        return piece


class AssembledHamiltonian:
    """Continuous Hamiltonian on the closed disk supported on the translates.

    The pieces are translates sigma(A) of annuli A in the common exterior F
    of the letters' isometric disks, one per freely reduced word and closed
    under prefixes, as ``enumerate_group`` lists them.  Then sigma(A) lies in
    the isometric disk of the inverse of sigma's first letter, so a point of
    it returns to A by applying, at most L times, the inverse letter whose
    disk holds it, and the letters that reduction takes spell sigma (Mumford,
    Series & Wright, *Indra's Pearls*, 2002).  By the same ping-pong
    argument the translates of distinct words are pairwise disjoint, exactly
    and at every depth, when each map is its word's product of letters
    (Ford, *Automorphic Functions*, 1929): ``_index_words`` checks these
    preconditions, the assembly's disjointness certificate.  Each point
    is evaluated on the one piece its reduction names, from the
    ``constant_table`` of every piece built once in array passes: no loop
    over pieces.

    ``all_pieces`` carries that table's rows as the constants of every piece
    at once and ``lengths`` the word lengths, one entry per piece; each of
    ``pieces`` is a view of its column, made when it is asked for.
    ``tail_estimate`` is the truncation bound ``assemble_Hv`` sets.
    """

    def __init__(self, vertex, elements: Sequence[GroupElement], annulus: RoundAnnulus):
        self.vertex = vertex
        self.elements = list(elements)
        self.annulus = annulus
        self.tail_estimate = None
        if not self.elements:
            raise ValueError("an assembly needs at least one piece")
        # one row per constant and one column per piece: a gather is one take per dtype
        self._complex, self._real = constant_table([el.map for el in self.elements], annulus)
        self.all_pieces = CorrectedHamiltonian._stacked(self._complex, self._real)
        self.lengths = np.array([len(el.word) for el in self.elements])
        self.pieces = _Pieces(self.elements, annulus, self._complex, self._real)
        self._index_words()

    def _index_words(self):
        """The ping-pong certificate, the reducing letters and the index from
        word codes to pieces (a word l_1 ... l_k has the base-(m + 1) code
        with digits l_i + 1, m the number of letter ids): the pieces' codes
        sorted, searched by ``np.searchsorted``, so the index takes memory in
        proportion to the pieces, not to the (m + 1)^L codes.

        It rejects what breaks the certificate or point location: a repeated
        word, one not freely reduced or whose prefix or last letter is no
        piece's word, a map other than the identity on the empty word or
        other than its prefix's map times its letter's (compared exactly,
        rounded as ``MobiusMap.compose`` rounds), letters l and l^1 whose
        maps are not inverse, a letter without an isometric circle, and
        isometric disks that meet each other or the annulus.
        """
        words = [el.word for el in self.elements]
        first = {}
        for i, w in enumerate(words):
            if first.setdefault(w, i) != i:
                raise ValueError(f"pieces {first[w]} and {i} have the same word {w}")
        # (piece, prefix, letter) of each nonempty word; a prefix is checked on its own entry
        links = []
        for i, w in enumerate(words):
            if w:
                if len(w) > 1 and w[-1] == w[-2] ^ 1:
                    raise ValueError(f"piece {i} has the word {w}, which is not freely reduced")
                prefix, letter = first.get(w[:-1]), first.get(w[-1:])
                if prefix is None or letter is None:
                    part = w[:-1] if prefix is None else w[-1:]
                    raise ValueError(f"piece {i} has the word {w} but no piece has {part}")
                links += (i, prefix, letter)
        self._origin = first[()]
        one = self.elements[self._origin].map
        if one.alpha != 1 or one.beta != 0:
            raise ValueError(f"piece {self._origin} has the empty word but a map other than the identity")
        # the table's rows 4 and 3 are conj(alpha') = alpha and beta' = -beta
        alpha, beta = self._complex[4], -self._complex[3]
        piece, prefix, letter = np.array(links, np.intp).reshape(-1, 3).T
        a, b = _compose(alpha[prefix], beta[prefix], alpha[letter], beta[letter])
        wrong = np.flatnonzero((a != alpha[piece]) | (b != beta[piece]))
        if wrong.size:
            i = piece[wrong[0]]
            raise ValueError(f"piece {i}'s map is not the product of the letters of its word {words[i]}")
        letters = sorted(w[0] for w in words if len(w) == 1)
        maps = [self.elements[first[(lid,)]].map for lid in letters]
        by_letter = dict(zip(letters, maps))
        disks = {}
        for lid, g in zip(letters, maps):
            if g.beta == 0:
                raise ValueError(f"letter {lid} has no isometric circle")
            h = by_letter.get(lid ^ 1, g.inverse())
            if (h.alpha, h.beta) != (g.alpha.conjugate(), -g.beta):
                raise ValueError(f"the maps of letters {lid} and {lid ^ 1} are not inverse")
            # g maps the outside of its own disk onto the disk of its inverse
            disks.setdefault(lid, _isometric_disk(g.alpha, g.beta))
            disks.setdefault(lid ^ 1, _isometric_disk(g.alpha.conjugate(), -g.beta))
        A = self.annulus
        for ka, (ca, ra) in sorted(disks.items()):
            for kb, (cb, rb) in sorted(disks.items()):
                if ka < kb and abs(ca - cb) <= ra + rb:
                    raise ValueError(f"the isometric disks of letters {ka} and {kb} meet")
            if abs(complex(*A.center) - ca) <= A.r_outer + ra:
                raise ValueError(f"the isometric disk of letter {ka} meets the annulus {A}")
        # the disk about 0 inside the unit disk that meets no isometric disk:
        # its points need no reduction
        self._clear = min([abs(c) - r for c, r in disks.values()] + [1.0])
        tables = self._complex, self._real
        self._identity = tuple(tuple(map(np.asarray, t[:, self._origin].tolist())) for t in tables)
        # reducing by letter l applies l^-1
        self._reduce = np.array([[g.alpha.conjugate() for g in maps], [-g.beta for g in maps]], complex)
        self._digits = np.array(letters, np.intp) + 1
        self._base = max(letters, default=-1) + 2
        self._depth = max(map(len, words))
        codes = []
        for w in words:
            code = 0
            for lid in w:
                code = code * self._base + lid + 1
            codes.append(code)
        codes = np.array(codes, np.intp)
        self._code_pieces = np.argsort(codes)
        self._codes = codes[self._code_pieces]

    def _locate(self, z, rho):
        """The piece each point's Schottky reduction names, -1 for none and off
        the open disk (rho = |z|): at most L inverse letters, each the one
        whose isometric disk holds the point, then the word's code looked up."""
        code = np.zeros(z.shape, np.intp)
        live = np.flatnonzero((rho >= self._clear) & (rho < 1.0))
        z = z[live]
        ia, ib = self._reduce[:, :, None]
        for _ in range(self._depth):
            if not live.size:
                break
            g = ib.conjugate() * z + ia.conjugate()
            held = np.abs(g) < 1.0
            moved = np.flatnonzero(held.any(0))
            k = held[:, moved].argmax(0)
            live, z = live[moved], z[moved]
            z = (ia[k, 0] * z + ib[k, 0]) / g[k, moved]
            code[live] = code[live] * self._base + self._digits[k]
        k = np.minimum(np.searchsorted(self._codes, code), len(self._codes) - 1)
        return np.where((rho < 1.0) & (self._codes[k] == code), self._code_pieces[k], -1)

    def _evaluate(self, z, rho, jet):
        """H, or (H, H_x + i H_y), at each point of the open disk (rho = |z|) on the
        piece located for it when that piece contains it; zero elsewhere.  Every
        point of a chunk runs its piece's arithmetic, a point no piece holds that
        of A itself, and the support test selects the results: no gather or
        scatter.  A chunk is 1-D, of at most LOCATE_CHUNK points."""
        if z.ndim != 1 or z.size > LOCATE_CHUNK:
            flat, rho, n = z.ravel(), np.ravel(rho), LOCATE_CHUNK
            parts = [self._evaluate(flat[k : k + n], rho[k : k + n], jet) for k in range(0, max(z.size, 1), n)]
            return tuple(np.concatenate(out).reshape(z.shape) for out in zip(*parts))
        if rho.max(initial=0.0) < self._clear:
            # nothing to reduce, as on a flow's stencil: only A can hold these points
            rec = self._identity
            on = _contains(rec, z)
        else:
            idx = self._locate(z, rho)
            cols = np.where(idx >= 0, idx, self._origin)
            rec = self._complex.take(cols, 1), self._real.take(cols, 1)
            on = (idx >= 0) & _contains(rec, z)
        return _jet_on(rec, z, on) if jet else (_value_at(rec, _pull_back(rec, z, on)[1], on),)

    def value_complex(self, z):
        return self._evaluate(np.asarray(z, complex), np.abs(z), jet=False)[0]

    def jet_complex(self, z):
        """(H, H_x + i H_y) from one location and one pull-back."""
        return self._evaluate(np.asarray(z, complex), np.abs(z), jet=True)

    def value(self, pts):
        return self.value_complex(_complex_points(pts))

    def gradient(self, pts):
        return _plane_vectors(self.jet_complex(_complex_points(pts))[1])

    def jet(self, pts):
        val, grad = self.jet_complex(_complex_points(pts))
        return val, _plane_vectors(grad)

    def boundary_ring_sup(self) -> float:
        """sup |H| on 8 circles x 4096 angles of the ring 0.999 <= |z| <= 1."""
        n = 4096
        ang = np.arange(n) * TWO_PI / n
        rad = np.linspace(0.999, 1.0, 8)
        z = rad[:, None] * np.exp(1j * ang[None, :])
        return float(np.abs(self.value_complex(z.ravel())).max())


def assemble_Hv(
    vertex,
    elements: Sequence[GroupElement],
    annulus: RoundAnnulus,
    tail_elements: Optional[Sequence[GroupElement]] = None,
) -> AssembledHamiltonian:
    """Corrected Hamiltonians over every enumerated translate, glued by zero.

    tail_elements, when given (one word length beyond the enumeration), feed
    the reported truncation bound: the dropped tail is below
    max lambda^2(L+1) * sup|h| / 2 pi.
    """
    assembled = AssembledHamiltonian(vertex, elements, annulus)
    if tail_elements:
        lam_max = constant_table([el.map for el in tail_elements], annulus)[1][8].max()
        sup_h = assembled.pieces[0].profile.sup_abs()
        assembled.tail_estimate = float(lam_max * sup_h / TWO_PI)
    return assembled


# -------------------------------- mollifier ---------------------------------


class Mollifier:
    """Radial cutoff exp(-eps * tan(pi |z| / 2)^2), zero outside the disk (run there at rho = 0).
    eps must be finite and positive (a ValueError otherwise); -eps is kept as a 0-d array."""

    def __init__(self, eps: float):
        if not 0.0 < float(eps) < math.inf:
            raise ValueError(f"mollifier parameter eps={eps} must be finite and positive")
        self.eps, self._neg_eps = float(eps), np.array(-float(eps))

    def _radial(self, rho):
        """The mask rho < 1, y = tan(pi rho / 2) and eta (0 off the mask)."""
        inside = rho < 1.0
        y = np.tan(0.5 * math.pi * np.where(inside, rho, 0.0))
        return inside, y, np.where(inside, np.exp(self._neg_eps * y * y), 0.0)

    def value_radial(self, rho):
        return self._radial(np.asarray(rho, float))[2]

    def value(self, pts):
        pts = np.atleast_2d(np.asarray(pts, float))
        return self.value_radial(np.hypot(pts[..., 0], pts[..., 1]))

    def jet(self, pts):
        """(eta, grad eta) at points (..., 2) from one tan; zero gradient at 0."""
        pts = np.atleast_2d(np.asarray(pts, float))
        return self._jet(pts, np.hypot(pts[..., 0], pts[..., 1]))

    def _jet(self, pts, rho):
        """``jet`` at points of known radius rho = hypot(x, y)."""
        inside, y, eta = self._radial(rho)
        drad = eta * self._neg_eps * 2.0 * y * (1.0 + y * y) * (0.5 * math.pi)
        off = inside & (rho > 0.0)
        return eta, np.where(off[..., None], drad[..., None] * (pts / np.where(off, rho, 1.0)[..., None]), 0.0)

    def gradient(self, pts):
        return self.jet(pts)[1]


def smooth_Hv(assembled: AssembledHamiltonian, eps: float) -> HamiltonianField:
    """Pointwise product with the mollifier; its jet applies the product rule
    to the jets of both factors, which share one radius rho = hypot(x, y):
    the mollifier's, and the one the assembly's point location tests."""
    eta = Mollifier(eps)

    def value(pts):
        return eta.value(pts) * assembled.value(pts)

    def jet(pts):
        x, y = pts[:, 0], pts[:, 1]
        rho = np.hypot(x, y)
        ev, eg = eta._jet(pts, rho)
        hv, hg = assembled._evaluate(x + 1j * y, rho, jet=True)
        return ev * hv, ev[:, None] * _plane_vectors(hg) + hv[:, None] * eg

    return HamiltonianField(value, jet)


# ----------------------------- boundary estimates ----------------------------


@dataclass
class EstimateReport:
    lambda_table: list  # rows (length, count, max_lambda2)
    lambda_monotone: bool
    slopes: dict  # n -> regression slope of log(sup |D^n H|) vs log(1/r)
    slope_rows: dict  # n -> rows the slope fit kept (nonzero sups) of len(rows)
    slope_verdicts: dict
    d1_by_length: list  # rows (length, max first-derivative sup)
    d1_trend: bool
    d2_max: float
    rows: list = field(default_factory=list)


# the derivative orders analytic_report differences and fits
ORDERS = (1, 2, 3)


def _fd_derivatives(f, base, h):
    """n-th central differences along x and y of each row of base points, with
    that row's step h, from one call f(base, offsets) on the stacked stencil,
    offsets kept apart from the base points rather than rounded into them;
    per order n, "dn" holds each row's larger sup of the two directions."""
    n = len(h)
    e = np.stack([h, 1j * h], 1)[:, :, None]
    offsets = np.concatenate([np.zeros((n, 1, 1)), e, -e, 2 * e, -2 * e], 1)
    vals = f(np.asarray(base, complex).reshape(n, 1, -1), offsets)
    f0, (fp, fm, fp2, fm2) = vals[:, :1], vals[:, 1:].reshape(n, 4, 2, -1).swapaxes(0, 1)
    h = h[:, None, None]
    quotients = {
        1: (fp - fm) / (2 * h),
        2: (fp - 2 * f0 + fm) / (h * h),
        3: (fp2 - 2 * fp + 2 * fm - fm2) / (2 * h * h * h),
    }
    return {f"d{n}": np.abs(quotients[n]).max(axis=(1, 2)) for n in ORDERS}


SAMPLES_PER_PIECE = 8
SLOPE_SLACK = 0.3
# pieces per array pass of analytic_report's stencils
REPORT_BLOCK = 128


def analytic_report(assembled: AssembledHamiltonian) -> EstimateReport:
    """Decay and smoothness evidence near the boundary circle.

    (i) the largest scale lambda^2 per word length, which must not increase
    beyond length 2; (ii) log-log regression of the sup of n-th finite
    difference derivatives against 1/r, r the distance to the boundary,
    with slope verdicts slope_n <= max(0, n-2) + SLOPE_SLACK, fitted to the
    rows whose sup is nonzero (counted in slope_rows); (iii) the first
    derivative sup falling toward the boundary and the second staying
    bounded.
    """
    length, lam = assembled.lengths, assembled.all_pieces.lambda2
    lengths = sorted(set(length.tolist()))
    if len(lengths) < 5:
        raise ValueError("need enumeration depth at least 4 for the regression")
    lam_max = {L: float(lam[length == L].max()) for L in lengths}
    lambda_table = [(L, int((length == L).sum()), lam_max[L]) for L in lengths]
    mono = all(lam_max[b] < lam_max[a] for a, b in zip(lengths, lengths[1:]) if a >= 2)

    r, fd = [], {f"d{n}": [] for n in ORDERS}
    for start in range(0, len(length), REPORT_BLOCK):
        # a block of pieces in one carrier, its constants a (piece, 1, 1) column
        block = slice(start, start + REPORT_BLOCK)
        cplx, real = assembled._complex[:, block, None, None], assembled._real[:, block, None, None]
        p = CorrectedHamiltonian._stacked(cplx, real)
        w0, sigma = p._tracked_preimages(SAMPLES_PER_PIECE), p.inv.inverse()
        # r = min 1 - |sigma(w0)| without cancellation near the circle:
        # 1 - |z|^2 = (1 - |w0|^2) / |G|^2, G = conj(beta) w0 + conj(alpha)
        G = sigma.beta.conjugate() * w0 + sigma.alpha.conjugate()
        r.append(((1.0 - np.abs(w0) ** 2) / (np.abs(G) ** 2 * (1.0 + np.abs(sigma(w0))))).min((1, 2)))
        for key, v in _fd_derivatives(p._value_near, w0, 1e-3 * r[-1]).items():
            fd[key].append(v)
    r, fd = np.concatenate(r), {key: np.concatenate(v) for key, v in fd.items()}
    rows = [
        dict(zip(("length", "r", "lambda2", *fd), entry))
        for entry in zip(length.tolist(), r.tolist(), lam.tolist(), *(v.tolist() for v in fd.values()))
    ]

    xs = np.array([math.log(1.0 / x) for x in r.tolist()])
    slopes, verdicts, kept = {}, {}, {}
    for n in ORDERS:
        ys = fd[f"d{n}"]
        keep = ys > 0
        kept[n] = int(keep.sum())
        if kept[n] < 4:
            raise ValueError("insufficient data points for the slope regression")
        slope = float(np.polyfit(xs[keep], np.log(ys[keep]), 1)[0])
        slopes[n] = slope
        verdicts[n] = slope <= max(0, n - 2) + SLOPE_SLACK

    d1_by_length = [(L, float(fd["d1"][length == L].max())) for L in lengths]
    d1_trend = all(
        b_ < a_ for (La, a_), (Lb, b_) in zip(d1_by_length, d1_by_length[1:]) if La >= 2
    )
    d2_max = float(fd["d2"].max())

    return EstimateReport(
        lambda_table=lambda_table,
        lambda_monotone=mono,
        slopes=slopes,
        slope_rows=kept,
        slope_verdicts=verdicts,
        d1_by_length=d1_by_length,
        d1_trend=d1_trend,
        d2_max=d2_max,
        rows=rows,
    )


def default_study_annulus() -> RoundAnnulus:
    return RoundAnnulus((0.0, 0.0), 0.35, 0.55)
