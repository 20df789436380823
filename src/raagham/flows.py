"""Hamiltonian flow integration and the numerical verification suite.

The integrator is implicit midpoint (symplectic, preserves quadratic first
integrals), its stage solved row by row by Newton; every closed-form twist
map doubles as its oracle.  Verification never proves anything: relation
checks report residuals, and the faithfulness probe only ever says
NONTRIVIAL or INCONCLUSIVE.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .words import (
    ResourceCapExceeded,
    Word,
    commutator,
    enumerate_normal_forms,
    generator,
    hom_apply,
    normal_form,
)


class IntegrationError(RuntimeError):
    pass


# The residual below which an implicit-midpoint row is accepted, the Newton
# iterations allowed per step, and the step of the forward-difference
# Jacobian; the Jacobian only sets the convergence rate, acceptance is on the
# exact residual
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50
FD_STEP = 1e-7


class HamiltonianField:
    """Scalar Hamiltonian H on R^(2m), given by ``value`` and a one-pass
    ``jet`` returning (H, grad H); the flow field is J grad H.

    With the area form dx^dy on each coordinate pair the sign convention is
    X_H = (dH/dy, -dH/dx) pair by pair, so H = pi*(x^2+y^2) rotates
    clockwise at angular speed 2*pi.
    """

    def __init__(self, value, jet):
        self._value = value
        self._jet = jet

    def value(self, pts):
        return self._value(np.atleast_2d(np.asarray(pts, float)))

    def jet(self, pts):
        return self._jet(np.atleast_2d(np.asarray(pts, float)))

    def gradient(self, pts):
        return self.jet(pts)[1]

    def vector_field(self, pts):
        g = self.jet(pts)[1]
        out = np.empty_like(g)
        out[:, 0::2], out[:, 1::2] = g[:, 1::2], -g[:, 0::2]
        return out


@dataclass
class FlowResult:
    final: np.ndarray
    energy_drift: float
    steps: int
    iterations: int  # Newton vector-field calls, all steps
    max_iterations: int  # the most in any one step
    points: int  # rows the field evaluated, all calls: (d + 1) per active row


def _midpoint_step(field, z, h, start, eye, shifts):
    """Solve y = z + h X((z + y)/2) row by row from y = z + start; return
    (image, field calls, points evaluated).

    Newton on F(y) = y - z - h X(m), m = (z + y)/2.  One field call per
    iteration on m + shifts = [m; m + FD_STEP e_1; ...], one broadcast sum
    (shifts is (d + 1, 1, d) with first row 0; it and eye = I are made once
    per flow), gives X(m) and a forward-difference DX, and the active rows
    solve (I - h DX / 2) dy = F.  A row is accepted once max|F| < NEWTON_TOL
    and returns z + h X(m); it then leaves the active set, so its result
    depends on its own coordinates alone.
    """
    n, d = z.shape
    scale = 0.5 * h / FD_STEP
    rows = out = None  # active row indices and the results, once a row converges
    zr, y = z, z + start
    points = 0
    for it in range(1, NEWTON_MAX_ITER + 1):
        stack = 0.5 * (zr + y) + shifts
        points += stack.shape[0] * stack.shape[1]
        X = field.vector_field(stack.reshape(-1, d)).reshape(stack.shape)
        image = zr + h * X[0]
        F = y - image
        res = np.abs(F).max(1)
        done = res < NEWTON_TOL
        if done.all():
            if rows is None:
                return image, it, points
            out[rows] = image
            return out, it, points
        if not np.isfinite(res).all():
            raise IntegrationError("implicit midpoint stage: non-finite residual")
        if done.any():
            if rows is None:
                rows, out = np.arange(n), np.empty_like(z)
            out[rows[done]] = image[done]
            keep = ~done
            rows, zr, y, X, F = rows[keep], zr[keep], y[keep], X[:, keep], F[keep]
        # I - h DX / 2, with DX[i, :, j] = (X(m + FD_STEP e_j) - X(m))[i] / FD_STEP
        A = eye - scale * (X[1:] - X[0]).transpose(1, 2, 0)
        y = y - np.linalg.solve(A, F[..., None])[..., 0]
    raise IntegrationError(f"implicit midpoint stage did not converge in {NEWTON_MAX_ITER} Newton "
                           f"iterations (worst residual {res.max():.2e})")


def _turned(inc, prev):
    """The increment inc turned once more by the turn from prev to inc, per
    row and coordinate pair: inc * rho with rho = inc / prev on the complex
    views x + iy of both, and rho = 1 where prev is 0 or |rho - 1| >= 1/2.

    Implicit midpoint maps a circle orbit of a rotation-invariant field by
    an exact rotation, so there rho is the same every step and inc * rho is
    the next increment.  Every operation is elementwise, so a row's start
    depends on its own history alone.
    """
    c, p = inc.view(complex), prev.view(complex)
    # |rho - 1| < 1/2 needs |inc| < 3/2 |prev|; dividing only there cannot
    # overflow, and a row at rest (prev = inc = 0) never divides
    rho = np.ones_like(c)
    np.divide(c, p, out=rho, where=np.abs(c) < 1.5 * np.abs(p))
    rho[np.abs(rho - 1) >= 0.5] = 1
    return (c * rho).view(float)


def flow_map(field, z0, T: float, steps: int = 1000) -> FlowResult:
    """Implicit-midpoint integration of z' = X_H(z) for time T.

    Works on batches: z0 may be a single point or an (n, d) array.  Each
    row's implicit stage is solved by Newton with a forward-difference
    Jacobian until its residual is below NEWTON_TOL, at most NEWTON_MAX_ITER
    iterations (see ``_midpoint_step``); a row's result does not depend on
    its batch mates.  Newton starts the first step at y = z, the second at
    the first step's increment, and every later one at the last increment
    turned by the last turn (``_turned``): the twists' flows move points on
    circles, along which implicit midpoint turns the increment by a nearly
    constant angle in each coordinate pair.  Acceptance is still on the
    exact residual.  Failure to converge, or a non-finite residual, raises
    IntegrationError rather than returning a bad point; fewer than one step
    is a ValueError.
    """
    if steps < 1:
        raise ValueError(f"steps={steps} must be at least 1")
    z = np.atleast_2d(np.asarray(z0, float)).copy()
    single = np.asarray(z0).ndim == 1
    h = T / steps
    H0 = field.value(z)
    start = np.zeros_like(z)
    eye = np.eye(z.shape[1])
    shifts = FD_STEP * np.eye(z.shape[1] + 1, z.shape[1], -1)[:, None, :]
    inc = None
    iterations = max_iterations = points = 0
    for _ in range(steps):
        image, calls, evaluated = _midpoint_step(field, z, h, start, eye, shifts)
        prev, inc = inc, image - z
        start = inc if prev is None else _turned(inc, prev)
        z = image
        iterations += calls
        max_iterations = max(max_iterations, calls)
        points += evaluated
    drift = float(np.abs(field.value(z) - H0).max())
    return FlowResult(z[0] if single else z, drift, steps, iterations, max_iterations, points)


# ------------------------- applying representations -------------------------


def rep_apply(rep, w: Word, pts):
    """Evaluate the image of a word on a batch of points.

    Letters act right to left through ``Representation.apply_letters``:
    each letter turns the points of its annulus about the centre by the
    angle -tau*h'(t) of their area height (an inverse letter is the same
    twist run backwards).  A letter touches only the points its annulus
    holds: each point waits for the next letter whose annulus holds it, and
    after a letter it is tested only against the annuli of that letter's
    graph neighbours that act before the letter's annulus acts again.
    A row's factor exp(-i N h'(t)) is computed
    once per stint, the letters of one annulus that turn it with no other
    annulus claiming it in between, and reused by the stint's later
    letters, conjugated for an inverse letter.  A one-letter word, and the
    first letter of every stint, is bit-identical to ``generator_map``;
    later letters of a stint turn by the factor of the row's true height
    rather than one recomputed from its rotated, rounded image.  pts is an
    (n, 2) array or one (2,) point; any other shape is a ValueError.
    """
    if w.graph != rep.word_graph:
        raise ValueError("word is not over the representation's graph")
    if rep.pullback is not None:
        w = hom_apply(rep.pullback, w)
    return rep.apply_letters(w.letters, pts)


# ------------------------------ verification --------------------------------


@dataclass
class RelationCheck:
    pair: tuple
    kind: str  # 'commuting' or 'twisting'
    displacement: float
    threshold: float
    passed: bool


@dataclass
class VerificationReport:
    seed: int
    samples: int
    relation_checks: list
    puncture_residual: float
    puncture_threshold: float
    jacobian_max_deviation: float

    def all_passed(self) -> bool:
        return (
            all(c.passed for c in self.relation_checks)
            and self.puncture_residual <= self.puncture_threshold
        )

    def rows(self):
        out = []
        for c in sorted(self.relation_checks, key=lambda c: (c.kind, str(c.pair))):
            out.append(
                {
                    "check": c.kind,
                    "pair": "|".join(str(x) for x in c.pair),
                    "displacement": c.displacement,
                    "threshold": c.threshold,
                    "passed": c.passed,
                }
            )
        out.append(
            {
                "check": "punctures-fixed",
                "pair": "*",
                "displacement": self.puncture_residual,
                "threshold": self.puncture_threshold,
                "passed": self.puncture_residual <= self.puncture_threshold,
            }
        )
        return out


def _sample_points(rep, samples, rng):
    cfg = rep.config
    annuli = list(cfg.annuli.values())
    per = max(4, samples // (2 * len(annuli)))
    pts = [a.sample_points(per, rng) for a in annuli]
    centers = np.array([a.center for a in annuli])
    outer = np.array([a.r_outer for a in annuli])
    lo = (centers - outer[:, None]).min(0)
    hi = (centers + outer[:, None]).max(0)
    free = rng.uniform(lo, hi, size=(max(samples - per * len(annuli), 8), 2))
    return np.concatenate(pts + [free], 0)


# verify_relations: a commuting pair may move a sample by at most
# COMMUTE_TOL, an adjacent pair must move some overlap probe by more than
# TWIST_FLOOR, and no generator image may move a puncture by more than
# PUNCTURE_TOL
COMMUTE_TOL = 1e-9
TWIST_FLOOR = 1e-3
PUNCTURE_TOL = 1e-9


def verify_relations(rep, samples: int = 200, seed: int = 0) -> VerificationReport:
    """Check the defining relations of the representation numerically.

    Non-adjacent generators must commute (disjoint supports make this exact
    up to roundoff); adjacent ones must visibly fail to commute at some
    overlap probe; every puncture must be fixed by the image of every
    generator of the configuration's graph (the cover's, on the emulator
    route).  Fewer than one sample is a ValueError.

    The commutators run through ``rep_apply``, so a row's factor lasts for
    its stint in one annulus: in [u, v] = u v u^-1 v^-1 a row of A(v)
    alone turns by conj(rho) and then by rho, which cancel to rounding
    even across annuli so thin that a recomputed h'(t) would not.  The
    puncture and Jacobian checks apply ``generator_map`` directly.

    samples is a request: the draw takes max(4, samples // 2k) points in each
    of the k annuli and the rest, at least 8, as free points, so the report's
    ``samples`` can exceed it (24 for samples = 1 on the path P4).
    """
    if samples < 1:
        raise ValueError(f"samples={samples} must be at least 1")
    g = rep.word_graph
    rng = np.random.default_rng(seed)
    pts = _sample_points(rep, samples, rng)
    checks = []
    for u, v in itertools.combinations(g.vertices, 2):
        word = commutator(generator(g, u), generator(g, v))
        if not g.has_edge(u, v):
            moved = rep_apply(rep, word, pts)
            disp = float(np.abs(moved - pts).max())
            checks.append(
                RelationCheck((u, v), "commuting", disp, COMMUTE_TOL, disp <= COMMUTE_TOL)
            )
        else:
            probes = _edge_probes(rep, u, v)
            moved = rep_apply(rep, word, probes)
            disp = float(np.hypot(*(moved - probes).T).max())
            checks.append(RelationCheck((u, v), "twisting", disp, TWIST_FLOOR, disp > TWIST_FLOOR))
    punct = rep.config.all_punctures()
    worst = 0.0
    for v in rep.config.graph.vertices:
        fv = rep.generator_map(v, rep.N)
        worst = max(worst, float(np.abs(fv.apply(punct) - punct).max()))
    jac = jacobian_probe(
        rep.generator_map(rep.config.graph.vertices[0], rep.N).apply,
        _sample_points(rep, 64, rng),
        1e-6,
    )
    return VerificationReport(
        seed=seed,
        samples=len(pts),
        relation_checks=checks,
        puncture_residual=worst,
        puncture_threshold=PUNCTURE_TOL,
        jacobian_max_deviation=jac["max_deviation"],
    )


def _edge_probes(rep, u, v):
    """Overlap probes, both orders, of every configuration edge between the
    fibers of u and v; on the direct route a vertex is its own fiber."""
    cfg = rep.config

    def fiber(x):
        return [x] if rep.pullback is None else [y for y, _ in rep.pullback.images[x].letters]

    probes = []
    for x in fiber(u):
        for y in fiber(v):
            if cfg.graph.has_edge(x, y):
                probes.append(cfg.overlap_points(x, y))
                probes.append(cfg.overlap_points(y, x))
    return np.concatenate(probes, 0)


def jacobian_probe(apply, pts, step: float = 1e-6) -> dict:
    """Central-difference Jacobian determinants of a plane map ``apply`` at points.

    The stencils at step and step/2 are Richardson-extrapolated, clearing
    the h^2 truncation term; twist bumps have enormous high derivatives near
    the support edge and a single step cannot certify 1e-6 there.  All 8
    offset batches (2 steps x +-x, +-y) go through one ``apply`` call, which
    gives the same stats as one call per batch for any pointwise map.

    On a time-T ``flow_map`` it reads Newton's stopping error: stages stop
    below NEWTON_TOL, so stencil points err independently by up to that, and
    the probe by ~NEWTON_TOL / step (1e-7 at step 1e-5, inside a 1e-4 bound).
    """
    pts = np.atleast_2d(np.asarray(pts, float))
    ex, ey = np.eye(2)
    widths = (step, step, step / 2, step / 2)
    offsets = [w * e for w, e in zip(widths, (ex, ey, ex, ey))]
    stack = np.stack([pts + sign * o for o in offsets for sign in (1.0, -1.0)])
    img = apply(stack.reshape(-1, 2)).reshape(stack.shape)
    ax, ay, ax2, ay2 = ((img[2 * k] - img[2 * k + 1]) / (2 * w) for k, w in enumerate(widths))
    ax = (4 * ax2 - ax) / 3
    ay = (4 * ay2 - ay) / 3
    det = ax[:, 0] * ay[:, 1] - ax[:, 1] * ay[:, 0]
    dev = np.abs(det - 1.0)
    return {
        "mean_deviation": float(dev.mean()),
        "max_deviation": float(dev.max()),
        "count": int(len(pts)),
    }


# faithfulness_probe: random longer words drawn after the short normal
# forms, the most normal forms it enumerates, and the displacement above
# which a word is NONTRIVIAL
PROBE_EXTRA_WORDS = 20
PROBE_WORD_CAP = 5000
PROBE_THRESHOLD = 1e-6


def faithfulness_probe(rep, max_len: int, seed: int = 0):
    """Displacement table over short normal forms; a probe, not a proof.

    Every nontrivial normal form up to max_len (plus PROBE_EXTRA_WORDS
    random longer words) is applied to the configuration's marked points; a
    word that moves something is NONTRIVIAL, one that does not is merely
    INCONCLUSIVE.
    """
    g = rep.word_graph
    # drawing at most one form past the cap stops the enumeration there
    forms = list(itertools.islice(enumerate_normal_forms(g, max_len), PROBE_WORD_CAP + 1))
    if len(forms) > PROBE_WORD_CAP:
        raise ResourceCapExceeded(f"more than {PROBE_WORD_CAP} normal forms (the probe cap)")
    rng = np.random.default_rng(seed)
    extra = []
    for _ in range(PROBE_EXTRA_WORDS):
        n = int(rng.integers(max_len + 1, max_len + 4))
        ids = tuple(int(i) for i in rng.integers(0, 2 * len(g.vertices), n))
        w = normal_form(Word._trusted(g, ids)).word
        if len(w) and w not in forms:
            extra.append(w)
    marked = rep.config.marked_points()
    table = []
    for w in forms + extra:
        if not len(w):
            continue
        moved = rep_apply(rep, w, marked)
        disp = float(np.hypot(*(moved - marked).T).max())
        table.append(
            {
                "word": " ".join(w.tokens()),
                "length": len(w),
                "displacement": disp,
                "verdict": "NONTRIVIAL" if disp > PROBE_THRESHOLD else "INCONCLUSIVE",
            }
        )
    return table


# ------------------------------- polydisk -----------------------------------


# the mollifier parameter of the off-slice factors eta
POLYDISK_EPS = 1.0


class PolydiskField(HamiltonianField):
    """Product Hamiltonian on D^n: h(z) = k(z_1) * eta(z_2) * ... * eta(z_n),
    with the standard area form on every factor.

    At slice points (z_1, 0, ..., 0) the mollifier factors are exactly 1
    with zero gradient, and the slice is invariant under the flow.
    """

    def __init__(self, k_field: HamiltonianField, n: int):
        from .lift import Mollifier

        if n < 2:
            raise ValueError("polydisk dimension n must be at least 2")
        self.k = k_field
        self.n = n
        self.eta = Mollifier(POLYDISK_EPS)

    def _split(self, pts):
        """The points and their blocks z_2, ..., z_n as one (m, n - 1, 2) array."""
        pts = np.atleast_2d(np.asarray(pts, float))
        if pts.shape[1] != 2 * self.n:
            raise ValueError(f"points must have {2 * self.n} coordinates")
        return pts, pts[:, 2:].reshape(len(pts), self.n - 1, 2)

    def value(self, pts):
        pts, off = self._split(pts)
        return math.prod(self.eta.value(off).T, start=self.k.value(pts[:, :2]))

    def jet(self, pts):
        """(h, grad h) by the product rule over the factors, each product left
        to right, from one jet of k and one mollifier jet of the n - 1 blocks."""
        pts, off = self._split(pts)
        kvals, gk = self.k.jet(pts[:, :2])
        evals, egrads = self.eta.jet(off)
        evals = list(evals.T)
        grads = np.empty_like(pts)
        grads[:, 0:2] = gk * math.prod(evals[1:], start=evals[0])[:, None]
        for i in range(1, self.n):
            others = math.prod(evals[: i - 1] + evals[i:], start=kvals)
            grads[:, 2 * i : 2 * i + 2] = egrads[:, i - 1] * others[:, None]
        return math.prod(evals, start=kvals), grads

    def embed_slice(self, pts2d):
        return np.pad(np.atleast_2d(np.asarray(pts2d, float)), ((0, 0), (0, 2 * self.n - 2)))

    def slice_gradient_residual(self, pts2d):
        """Max difference between dh at slice points and dk, all components."""
        pts = self.embed_slice(pts2d)
        gh = self.gradient(pts)
        gk = self.k.gradient(np.atleast_2d(pts2d))
        first = np.abs(gh[:, 0:2] - gk).max()
        return float(max(first, np.abs(gh[:, 2:]).max()))


def polydisk_extend(k_field: HamiltonianField, n: int) -> PolydiskField:
    """Extend a disk Hamiltonian to the polydisk by mollifier factors."""
    return PolydiskField(k_field, n)
