"""Reference compositions for the one-pass jets of the lift and flows layers.

Before the jets, the smoothed field's gradient was the product rule over
separate value and gradient passes of the mollifier and the assembled
Hamiltonian, and the polydisk gradient called k.value, k.gradient and the
mollifier's value and gradient block by block.  Both compositions are kept
here as oracles: the fused evaluations must match them bit for bit.

``piece_loop`` is how an assembly evaluated before Schottky point location:
a loop over its pieces, each point taken by the first piece containing it.
Located values and jets must match it bit for bit.

``dense_locate`` is point location as it was before the sorted index of
word codes: the same reduction, then a dense table of every base^L code,
which grows as 5^L against the 2 * 3^L - 1 pieces.  ``_locate`` must name
the same piece for every point.

``polydisk_vector_field`` and ``plane_vector_field`` are the per-block
and the two-dimensional symplectic rules that the one rule of
``HamiltonianField.vector_field`` replaced; it must match both bit for bit.

``free_group_count`` is the number of reduced words of length <= L in a
free group of rank m, the size ``enumerate_group`` must reach.

``piece_constants`` is the scalar arithmetic each translate once ran in its
own constructors (``TransportChart``, ``CorrectedHamiltonian`` and the
Mobius map's ``image_circle``), one Python complex number at a time.  The
array passes of ``lift.constant_table`` must match it bit for bit.

``check_disjoint`` is the float sweep over the translates' circles that
the assembly once ran as its disjointness check, before the ping-pong
certificate of ``AssembledHamiltonian._index_words`` replaced it.  Its
absolute 1e-13 slack exceeds the outer radii of the deepest translates
(3.4e-14 at depth 7), so it is an oracle only to depth 6: there it must
accept every assembly the certificate accepts and reject a piece moved
onto another's translate.
"""

import math

import numpy as np

from raagham import lift
from raagham.flows import HamiltonianField
from raagham.lift import TWO_PI, Mollifier, _jet_on, _pull_back, _value_at
from raagham.twist import make_profile


class RegionOverlapError(RuntimeError):
    pass


def smoothed_gradient(assembled, eta, pts):
    """eta.value * grad H + H * grad eta, each factor evaluated on its own."""
    ev = eta.value(pts)[:, None]
    hv = assembled.value(pts)[:, None]
    return ev * assembled.gradient(pts) + hv * eta.gradient(pts)


def smoothed_field(assembled, eps):
    """The smoothed Hamiltonian with the oracle gradient."""
    eta = Mollifier(eps)

    def value(pts):
        return eta.value(pts) * assembled.value(pts)

    return HamiltonianField(value, lambda pts: (value(pts), smoothed_gradient(assembled, eta, pts)))


def polydisk_gradient(pd, pts):
    """Gradient of k(z_1) * eta(z_2) * ... * eta(z_n) with every factor's
    value and gradient from separate calls."""
    pts = np.atleast_2d(np.asarray(pts, float))
    blocks = [pts[:, 2 * i : 2 * i + 2] for i in range(pd.n)]
    kvals = pd.k.value(blocks[0])
    evals = [pd.eta.value(b) for b in blocks[1:]]
    m = len(blocks[0])
    grads = np.zeros((m, 2 * pd.n))
    prod_eta = np.ones(m)
    for e in evals:
        prod_eta *= e
    grads[:, 0:2] = pd.k.gradient(blocks[0]) * prod_eta[:, None]
    for i in range(1, pd.n):
        others = kvals.copy()
        for j, e in enumerate(evals, start=1):
            if j != i:
                others = others * e
        grads[:, 2 * i : 2 * i + 2] = pd.eta.gradient(blocks[i]) * others[:, None]
    return grads


def polydisk_vector_field(pd, pts):
    """X_h block by block, (dh/dy_i, -dh/dx_i) on each factor's coordinates:
    the polydisk's own rule before every field shared one."""
    g = pd.gradient(pts)
    out = np.empty_like(g)
    for i in range(pd.n):
        out[:, 2 * i] = g[:, 2 * i + 1]
        out[:, 2 * i + 1] = -g[:, 2 * i]
    return out


def plane_vector_field(field, pts):
    """X_H = (dH/dy, -dH/dx) of a Hamiltonian on the plane."""
    g = field.gradient(pts)
    return np.stack([g[:, 1], -g[:, 0]], -1)


def free_group_count(m: int, L: int) -> int:
    total = 1
    for k in range(1, L + 1):
        total += 2 * m * (2 * m - 1) ** (k - 1)
    return total


def piece_loop(assembled, z, jet=False):
    """H, or (H, H_x + i H_y), at each point of the open disk from the first
    piece whose ``contains`` holds it; zero elsewhere."""
    z = np.atleast_1d(np.asarray(z, complex))
    outs = (np.zeros(z.shape, float),) + ((np.zeros(z.shape, complex),) if jet else ())
    todo = np.abs(z) < 1.0
    for piece in assembled.pieces:
        if not todo.any():
            break
        mask = todo & piece.contains(z)
        if mask.any():
            zm, rec = z[mask], piece._record
            vals = _jet_on(rec, zm, True) if jet else (_value_at(rec, _pull_back(rec, zm, True)[1], True),)
            for out, v in zip(outs, vals):
                out[mask] = v
            todo &= ~mask
    return outs if jet else outs[0]


def dense_locate(assembled, z, rho):
    """``AssembledHamiltonian._locate`` as it was with a dense table of all
    base^L word codes, -1 where no piece has the code: the piece each
    point's Schottky reduction names, -1 for none and off the open disk."""
    H = assembled
    table = np.full(H._base**H._depth, -1, np.intp)
    for i, el in enumerate(H.elements):
        code = 0
        for lid in el.word:
            code = code * H._base + lid + 1
        table[code] = i
    code = np.zeros(z.shape, np.intp)
    live = np.flatnonzero((rho >= H._clear) & (rho < 1.0))
    z = z[live]
    ia, ib = H._reduce[:, :, None]
    for _ in range(H._depth):
        if not live.size:
            break
        g = ib.conjugate() * z + ia.conjugate()
        held = np.abs(g) < 1.0
        moved = np.flatnonzero(held.any(0))
        k = held[:, moved].argmax(0)
        live, z = live[moved], z[moved]
        z = (ia[k, 0] * z + ib[k, 0]) / g[k, moved]
        code[live] = code[live] * H._base + H._digits[k]
    return np.where(rho < 1.0, table[code], -1)


def image_circle(sigma, c, r):
    """Centre and radius of the image of |z - c| = r inside the disk:
    with g = conj(beta) c + conj(alpha) and den = |g|^2 - |beta|^2 r^2,
    ((alpha c + beta) conj(g) - alpha beta r^2) / den and r / den."""
    g = sigma.beta.conjugate() * c + sigma.alpha.conjugate()
    den = abs(g) ** 2 - abs(sigma.beta) ** 2 * r * r
    center = (sigma.alpha * c + sigma.beta) * g.conjugate() - sigma.alpha * sigma.beta * r * r
    return complex(center / den), float(r / den)


def _image_radius(q, D, r):
    qr2 = q * r * r
    return r / (D - qr2)


def piece_constants(sigma, annulus):
    """The table column (complex constants, real constants) of the translate
    sigma(A), one scalar operation at a time."""
    c = complex(annulus.center[0], annulus.center[1])
    circle_radius = math.sqrt(annulus.mid)
    beta = sigma.beta
    g = beta.conjugate() * c + sigma.alpha.conjugate()
    q, D = abs(beta) ** 2, abs(g) ** 2
    R_in, R_out = _image_radius(q, D, np.array([annulus.r_inner, annulus.r_outer]))
    R2_inner = R_in**2
    mass = float(math.pi * (R_out**2 - R2_inner))
    R = _image_radius(q, D, np.asarray(circle_radius, float))
    profile = make_profile(0.5, float(math.pi * (R * R - R2_inner) / mass - 0.5))
    inv = sigma.inverse()
    outer_center, outer_radius = image_circle(sigma, c, annulus.r_outer)
    inner_center, inner_radius = image_circle(sigma, c, annulus.r_inner)
    return (
        (outer_center, inner_center, inv.alpha, inv.beta, inv.alpha.conjugate(), inv.beta.conjugate(), c),
        (outer_radius, inner_radius, outer_radius + 1e-13, inner_radius - 1e-13, circle_radius,
         q, D, R2_inner, mass, profile.b, profile.width, TWO_PI * math.e * profile.width, mass / TWO_PI),
    )


def constant_table(maps, annulus):
    """``piece_constants`` of each map, stacked one column per map."""
    columns = [piece_constants(m, annulus) for m in maps]
    return (
        np.array([cplx for cplx, _ in columns], complex).reshape(-1, 7).T.copy(),
        np.array([real for _, real in columns], float).reshape(-1, 13).T.copy(),
    )


def check_disjoint(oc, orad, ic, irad):
    """Translates pairwise apart or nested, from the columns of their outer and
    inner circles.

    A sweep over the outer disks sorted by x - r takes as candidates only the
    pairs whose x-extents [x - r, x + r] meet within the 1e-13 slack, widened
    by the extents' rounding (8 ulps of the largest |x| + r): every pair it
    leaves out is farther apart in x, and so in the plane, than the apart
    test asks.  The candidates run the apart and the nested test, and the
    lexicographically first failing pair (i < j) is the one reported, as a
    test of every pair in order would report it.  A circle with a non-finite
    extent is a candidate with every other and fails both tests.  Returns
    the number of candidate pairs.
    """
    n = len(oc)
    lo, hi = oc.real - orad, oc.real + orad
    finite = np.isfinite(lo) & np.isfinite(hi)
    largest = np.maximum(np.abs(lo), np.abs(hi))[finite].max(initial=0.0)
    rounding = 8.0 * np.finfo(float).eps * largest
    lo, reach = np.where(finite, lo, -np.inf), np.where(finite, hi + (1e-13 + rounding), np.inf)
    order = np.argsort(lo, kind="stable")
    # the disks after each one in the sweep whose extents start before its reach
    ends = np.searchsorted(lo[order], reach[order], side="right")
    counts = np.maximum(ends - np.arange(1, n + 1), 0)
    first = np.repeat(np.arange(n), counts)
    second = first + 1 + np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    i, j = order[first], order[second]
    near = np.flatnonzero(~(np.abs(oc[i] - oc[j]) > orad[i] + orad[j] - 1e-13))
    i, j = np.minimum(i[near], j[near]), np.maximum(i[near], j[near])
    # nested: one translate sits entirely inside the other's hole
    j_in_i = np.abs(ic[i] - oc[j]) + orad[j] <= irad[i] + 1e-13
    i_in_j = np.abs(ic[j] - oc[i]) + orad[i] <= irad[j] + 1e-13
    bad = np.flatnonzero(~(j_in_i | i_in_j))
    if bad.size:
        k = bad[np.lexsort((j[bad], i[bad]))[0]]
        raise RegionOverlapError(f"translate regions {i[k]} and {j[k]} overlap")
    return len(first)


def check_assembly_disjoint(maps, annulus):
    """``check_disjoint`` on the circles of the translates of annulus by maps."""
    cplx, real = lift.constant_table(maps, annulus)
    return check_disjoint(cplx[0], real[0], cplx[1], real[1])
