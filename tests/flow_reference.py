"""Reference integrator and Jacobian probe for the flows layer.

``fixed_point_flow`` solves each implicit-midpoint stage by plain
fixed-point sweeps from an explicit-Euler predictor, until the largest
change over the whole batch is below tol.  ``reference_jacobian_probe``
makes one ``apply`` call per offset batch (8 in all).  The package's Newton
stage and batched probe are checked against these.

``stacked_turned`` is the turned Newton start as ``flows._turned`` built
it before it read the increments through complex views: each pair
assembled as x + 1j * y and the turned pairs stacked back.

``integrated_rep_apply`` is the integrated route of a word: it flows each
cover letter's generating Hamiltonian ``twist_hamiltonian`` for time N*e,
so it is only as accurate as the integrator; the closed route
``rep_apply`` must track it.
"""

import numpy as np

from raagham.flows import HamiltonianField, IntegrationError, flow_map
from raagham.twist import twist_hamiltonian
from raagham.words import hom_apply


def fixed_point_flow(field, z0, T, steps, tol=1e-12, max_iter=50):
    """Final points of the implicit-midpoint flow, solved by fixed-point sweeps."""
    z = np.atleast_2d(np.asarray(z0, float)).copy()
    h = T / steps
    for _ in range(steps):
        y = z + h * field.vector_field(z)
        for _ in range(max_iter):
            y_new = z + h * field.vector_field(0.5 * (z + y))
            delta = np.abs(y_new - y).max()
            y = y_new
            if delta < tol:
                break
        else:
            raise IntegrationError(
                f"implicit midpoint stage failed to contract (last delta {delta:.2e})"
            )
        z = y
    return z[0] if np.asarray(z0).ndim == 1 else z


def stacked_turned(inc, prev):
    """inc * rho per row and coordinate pair, rho = inc / prev as complex
    numbers, and rho = 1 where prev is 0 or |rho - 1| >= 1/2."""
    c = inc[:, 0::2] + 1j * inc[:, 1::2]
    p = prev[:, 0::2] + 1j * prev[:, 1::2]
    rho = np.ones_like(c)
    np.divide(c, p, out=rho, where=np.abs(c) < 1.5 * np.abs(p))
    rho[np.abs(rho - 1) >= 0.5] = 1
    c = c * rho
    return np.stack([c.real, c.imag], -1).reshape(inc.shape)


def _central_jacobian(apply, pts, step):
    ex = np.array([step, 0.0])
    ey = np.array([0.0, step])
    ax = (apply(pts + ex) - apply(pts - ex)) / (2 * step)
    ay = (apply(pts + ey) - apply(pts - ey)) / (2 * step)
    return ax, ay


def reference_jacobian_probe(apply, pts, step=1e-6):
    """Richardson central-difference determinant stats, one call per offset."""
    pts = np.atleast_2d(np.asarray(pts, float))
    ax, ay = _central_jacobian(apply, pts, step)
    ax2, ay2 = _central_jacobian(apply, pts, step / 2)
    ax = (4 * ax2 - ax) / 3
    ay = (4 * ay2 - ay) / 3
    det = ax[:, 0] * ay[:, 1] - ax[:, 1] * ay[:, 0]
    dev = np.abs(det - 1.0)
    return {
        "mean_deviation": float(dev.mean()),
        "max_deviation": float(dev.max()),
        "count": int(len(pts)),
    }


def integrated_rep_apply(rep, w, pts, steps):
    """The image of a word, each cover letter's Hamiltonian flowed for time
    N*e, right to left."""
    if rep.pullback is not None:
        w = hom_apply(rep.pullback, w)
    pts = np.asarray(pts, float)
    out = np.atleast_2d(pts).copy()
    for v, e in reversed(w.letters):
        field = HamiltonianField(*twist_hamiltonian(rep.config.annuli[v], rep.profiles[v]))
        out = flow_map(field, out, T=rep.N * e, steps=steps).final
    return out[0] if pts.ndim == 1 else out
