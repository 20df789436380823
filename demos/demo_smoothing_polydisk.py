"""
Mollified Hamiltonians and the polydisk extension
=================================================

The assembled Hamiltonian is only C^{1,1} at the boundary circle.
Multiplying by the radial cutoff exp(-eps tan^2(pi |z| / 2)) makes it
smooth on the whole sphere while changing it as little as you like on any
compact part of the open disk.  The same cutoff extends a disk Hamiltonian
to a polydisk factor by factor, acting on the first-coordinate slice exactly
as before.
"""

import numpy as np

from raagham import (
    Mollifier,
    assemble_Hv,
    enumerate_group,
    flow_map,
    polydisk_extend,
    schottky_pair,
    smooth_Hv,
)
from raagham.lift import default_study_annulus

eta0, eta_half, eta1 = Mollifier(0.1).value_radial([0.0, 0.5, 1.0])
print("mollifier values: eta(0) =", eta0, " eta(1/2) =", round(eta_half, 6), " eta(1) =", eta1)

gens = schottky_pair(0.98)
annulus = default_study_annulus()
H = assemble_Hv("v", enumerate_group(gens, 3), annulus)

grid = np.linspace(-0.9, 0.9, 181)
X, Y = np.meshgrid(grid, grid)
mask = X**2 + Y**2 <= 0.81
pts = np.stack([X[mask], Y[mask]], -1)
base = H.value(pts)
print("\nuniform distance to the smoothed function on |z| <= 0.9:")
for eps in (1e-1, 1e-2, 1e-3):
    sup = np.abs(smooth_Hv(H, eps).value(pts) - base).max()
    print(f"  eps = {eps:g}: sup difference {sup:.3e}")

# polydisk: h(z1, z2, z3) = k(z1) eta(z2) eta(z3)
k = smooth_Hv(H, 0.01)
pd = polydisk_extend(k, n=3)
rng = np.random.default_rng(0)
slice_pts = annulus.sample_points(50, rng)
print("\npolydisk slice checks (n = 3):")
print("  gradient residual on the slice:", pd.slice_gradient_residual(slice_pts))
start = pd.embed_slice(slice_pts[:6])
res = flow_map(pd, start, T=2.0, steps=500)
flat = flow_map(k, slice_pts[:6], T=2.0, steps=500)
print("  off-slice drift after time 2:", np.abs(res.final[:, 2:]).max())
print("  agreement with the disk flow:", np.abs(res.final[:, :2] - flat.final).max())
