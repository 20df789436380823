"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``.  Everything is seeded;
the whole suite stays within a laptop-scale time budget.
"""

import itertools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from raagham.flows import (
    HamiltonianField,
    faithfulness_probe,
    flow_map,
    jacobian_probe,
    polydisk_extend,
    rep_apply,
    verify_relations,
)
from raagham.graphs import (
    EmulatorResult,
    NoEmulatorCertificate,
    NotApplicable,
    NotFound,
    OrbicoverCertificate,
    SimplicialGraph,
    certificate_no_emulator,
    check_orbicover,
    complete_graph,
    cycle_graph,
    find_planar_emulator,
    path_graph,
    planarity,
    validate_embedding,
)
from raagham.lift import (
    Mollifier,
    analytic_report,
    assemble_Hv,
    enumerate_group,
    lambda_scale,
    schottky_pair,
    smooth_Hv,
)
from raagham.twist import (
    RoundAnnulus,
    build_configuration,
    build_representation,
    double_dehn_twist,
    make_profile,
    twist_hamiltonian,
)
from raagham.words import (
    Word,
    check_no_cancellation,
    geodesic_length,
    hom_apply,
    hom_diagonal,
    hom_pullback,
    hom_retraction,
    normal_form,
    oracle_equal,
)
from twist_reference import band_points
from words_reference import normal_form_closure

FOUR_VERTEX_GRAPHS = {
    "empty": [],
    "one-edge": [("a", "b")],
    "two-disjoint": [("a", "b"), ("c", "d")],
    "path3": [("a", "b"), ("b", "c")],
    "triangle": [("a", "b"), ("b", "c"), ("a", "c")],
    "path4": [("a", "b"), ("b", "c"), ("c", "d")],
    "star": [("a", "b"), ("a", "c"), ("a", "d")],
    "cycle4": [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")],
    "paw": [("a", "b"), ("b", "c"), ("a", "c"), ("a", "d")],
    "diamond": [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")],
    "k4": [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")],
}


def random_word(graph, rng, length):
    alphabet = [(v, e) for v in graph.vertices for e in (1, -1)]
    return Word(graph, [alphabet[i] for i in rng.integers(0, len(alphabet), length)])


def seeded_graph(n, seed, p=0.4):
    rng = np.random.default_rng(seed)
    names = [f"v{i}" for i in range(n)]
    edges = [
        (names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return SimplicialGraph(names, edges)


def test_criterion_01_word_problem_oracle_equivalence():
    """Normal-form equality must agree with the shuffle-closure oracle."""
    alphabet = [(v, e) for v in "abc" for e in (1, -1)]
    checked = 0
    for graph_index, (name, edges) in enumerate(FOUR_VERTEX_GRAPHS.items()):
        g = SimplicialGraph(list("abcd"), edges)
        rng = np.random.default_rng(1000 + graph_index)
        buckets = {}
        words_by_len = {}
        for L in range(7):
            rows = []
            for lets in itertools.product(alphabet, repeat=L):
                w = Word(g, lets)
                nf = normal_form(w).word
                buckets.setdefault(nf.letters, []).append(w)
                rows.append((w, nf))
            words_by_len[L] = rows
        # piling agrees with the literal closure algorithm
        for L in range(4):
            for w, nf in words_by_len[L]:
                assert normal_form_closure(w).word == nf
        # the oracle confirms every normal form (exhaustive to length 5)
        for L in range(6):
            for w, nf in words_by_len[L]:
                assert oracle_equal(w, nf)
                checked += 1
        idx = rng.choice(len(words_by_len[6]), 500, replace=False)
        for i in idx:
            w, nf = words_by_len[6][i]
            assert oracle_equal(w, nf)
            checked += 1
        # distinct normal forms are oracle-distinct (short representatives)
        reps = [Word(g, lets) for lets in buckets if len(lets) <= 2]
        for w1, w2 in itertools.combinations(reps, 2):
            assert not oracle_equal(w1, w2)
            checked += 1
    print(f"\nACCEPTANCE 1 PASS: oracle/normal-form agreement on 11 graphs "
          f"({checked} oracle checks, 100% agreement)")


def test_criterion_02_retraction_splits_diagonal():
    total = 0
    for seed in range(5):
        g = seeded_graph(5, seed=100 + seed)
        d, r = hom_diagonal(g), hom_retraction(g)
        rng = np.random.default_rng(seed)
        for _ in range(200):
            w = random_word(g, rng, int(rng.integers(0, 11)))
            assert normal_form(hom_apply(r, hom_apply(d, w))).word == normal_form(w).word
            total += 1
    print(f"\nACCEPTANCE 2 PASS: retraction after diagonal is the identity on "
          f"{total} seeded words across 5 graphs (exact)")


def test_criterion_03_length_additivity(k5_emulator):
    g = seeded_graph(5, seed=7)
    d = hom_diagonal(g)
    rng = np.random.default_rng(3)
    for _ in range(500):
        w = normal_form(random_word(g, rng, int(rng.integers(0, 9)))).word
        assert check_no_cancellation(d, w)
        assert geodesic_length(hom_apply(d, w)) == 2 * len(w)
    k5 = complete_graph(list("abcde"))
    pstar = hom_pullback(k5_emulator.projection)
    for _ in range(500):
        w = normal_form(random_word(k5, rng, int(rng.integers(0, 7)))).word
        assert check_no_cancellation(pstar, w)
        assert geodesic_length(hom_apply(pstar, w)) == 2 * len(w)
    print("\nACCEPTANCE 3 PASS: image geodesic length equals the fiber-size sum "
          "for 500 + 500 normal forms (diagonal and 2-fold pullback; exact)")


def test_criterion_04_certificate_and_search_agree():
    k7 = complete_graph(list("abcdefg"))
    cert = certificate_no_emulator(k7)
    assert isinstance(cert, NoEmulatorCertificate) and cert.min_valence >= 6
    out = find_planar_emulator(k7, 3)
    assert isinstance(out, NotFound)
    conflicts = 0
    tested = []
    for name, edges in FOUR_VERTEX_GRAPHS.items():
        tested.append((name, SimplicialGraph(list("abcd"), edges)))
    tested.append(("k5", complete_graph(list("abcde"))))
    tested.append(("k7", k7))
    for name, g in tested:
        cert = certificate_no_emulator(g)
        found = find_planar_emulator(g, 2)
        if isinstance(cert, NoEmulatorCertificate) and isinstance(found, EmulatorResult):
            conflicts += 1
    assert conflicts == 0
    print(f"\nACCEPTANCE 4 PASS: valence-6 obstruction on K7 with empty search; "
          f"no certificate/search conflict on {len(tested)} graphs")


def test_criterion_05_planar_covers_of_k5_k6(k5_emulator):
    res5 = k5_emulator
    assert isinstance(res5, EmulatorResult)
    assert len(res5.cover.vertices) == 10 and len(res5.cover.edges) == 20
    assert isinstance(check_orbicover(res5.projection), OrbicoverCertificate)
    assert validate_embedding(res5.embedding)
    res6 = find_planar_emulator(complete_graph(list("abcdef")), 2, allow_trivial=False)
    assert isinstance(res6, EmulatorResult)
    nv, ne = len(res6.cover.vertices), len(res6.cover.edges)
    assert (nv, ne) == (12, 30) and ne == 3 * nv - 6
    assert isinstance(check_orbicover(res6.projection), OrbicoverCertificate)
    assert validate_embedding(res6.embedding)
    print("\nACCEPTANCE 5 PASS: planar 2-fold covers of K5 (10v/20e) and K6 "
          "(12v/30e = 3v-6, forced triangulation), both revalidated")


def test_criterion_06_twist_exactness():
    A = RoundAnnulus((0.2, -0.1), 1.0, math.sqrt(3))
    prof = make_profile(A.a, 0.0)
    f1 = double_dehn_twist(A, prof, 1.0)
    ang = np.linspace(0, 2 * math.pi, 40, endpoint=False)
    boundary = np.concatenate([
        np.asarray(A.center) + A.r_inner * np.stack([np.cos(ang), np.sin(ang)], -1),
        np.asarray(A.center) + A.r_outer * np.stack([np.cos(ang), np.sin(ang)], -1),
    ])
    bd_err = np.abs(f1.apply(boundary) - boundary).max()
    assert bd_err <= 1e-12
    r_mid = math.sqrt(0.5 * (A.r_inner**2 + A.r_outer**2))
    central = np.asarray(A.center) + r_mid * np.stack([np.cos(ang), np.sin(ang)], -1)
    cc_err = np.abs(f1.apply(central) - central).max()
    assert cc_err <= 1e-9
    rng = np.random.default_rng(6)
    pts = A.sample_points(100, rng)
    res = flow_map(HamiltonianField(*twist_hamiltonian(A, prof)), pts, T=1.0, steps=32000)
    flow_err = np.hypot(*(res.final - f1.apply(pts)).T).max()
    assert flow_err <= 1e-5

    def rot_value(p):
        return math.pi * (p[:, 0] ** 2 + p[:, 1] ** 2)

    rot = HamiltonianField(rot_value, lambda p: (rot_value(p), 2 * math.pi * p))
    rot_res = flow_map(rot, np.array([1.0, 0.0]), T=0.25, steps=1000)
    rot_err = np.abs(rot_res.final - [0.0, -1.0]).max()
    assert rot_err <= 1e-6
    print(f"\nACCEPTANCE 6 PASS: boundary {bd_err:.1e} (<=1e-12), central-circle "
          f"return {cc_err:.1e} (<=1e-9), integrated-vs-closed {flow_err:.2e} "
          f"(<=1e-5), rotation oracle {rot_err:.1e} (<=1e-6)")


def test_criterion_07_representation_relations(p3_rep, k5_emulator):
    with pytest.raises(ValueError):
        build_representation(path_graph(["u", "v", "w"]), N=1)
    reps = {"P3": p3_rep}
    reps["C4"] = build_representation(cycle_graph(list("wxyz")), N=2)
    reps["K5-cover"] = build_representation(k5_emulator.cover, N=2)
    floors = {}
    for name, rep in reps.items():
        report = verify_relations(rep, samples=1000, seed=11)
        assert report.all_passed(), f"{name}: {report.rows()}"
        twisting = [c.displacement for c in report.relation_checks if c.kind == "twisting"]
        commuting = [c.displacement for c in report.relation_checks if c.kind == "commuting"]
        assert all(d > 1e-3 for d in twisting)
        assert all(d <= 1e-9 for d in commuting)
        assert report.puncture_residual <= 1e-9
        floors[name] = min(twisting)
    emu_rep = build_representation(
        complete_graph(list("abcde")), N=2, emulator=k5_emulator
    )
    emu_report = verify_relations(emu_rep, samples=400, seed=11)
    assert emu_report.all_passed()
    print("\nACCEPTANCE 7 PASS: relations verified on P3, C4, K5-cover "
          f"(plus the pullback route); edge-commutator floors "
          f"{ {k: f'{v:.3f}' for k, v in floors.items()} }, punctures <= 1e-9, N=1 rejected")


def _band_sample(config, v, n, rng, frac=0.75):
    """Random support points within |u| <= frac of the twist band.

    Outside this band the shear entries of the (exactly unimodular) Jacobian
    grow like the bump's second derivative (1e5 and beyond on thin annuli),
    and det = 1 then emerges from cancellation that double precision cannot
    resolve; those points get the high-precision check instead.
    """
    ann = config.annuli[v]
    mid = ann.mid
    prof_b = 0.5 * (config.radii[v] ** 2 - mid)
    width = min(ann.a - prof_b, ann.a + prof_b)
    t_lo = prof_b - frac * width
    t_hi = prof_b + frac * width
    return band_points(ann, n, rng, mid + 2 * t_lo, mid + 2 * t_hi)


def _mpmath_jacobian_dev(rep, v, pts, dps=50, step="1e-12"):
    """Finite-difference Jacobian of the closed-form twist in 50-digit
    arithmetic; certifies the tail points the double probe cannot."""
    import mpmath as mp

    cfg = rep.config
    ann, prof = cfg.annuli[v], rep.profiles[v]
    with mp.workdps(dps):
        cx, cy = (mp.mpf(repr(float(c))) for c in ann.center)
        mid = (
            mp.mpf(repr(float(ann.r_inner))) ** 2
            + mp.mpf(repr(float(ann.r_outer))) ** 2
        ) / 2
        b, w = mp.mpf(repr(float(prof.b))), mp.mpf(repr(float(prof.width)))
        tau = mp.mpf(rep.N)

        def apply_one(x, y):
            rx, ry = x - cx, y - cy
            r2 = rx * rx + ry * ry
            if not (ann.r_inner**2 <= float(r2) <= ann.r_outer**2):
                return x, y
            t = (r2 - mid) / 2
            u = (t - b) / w
            if abs(u) >= 1:
                return x, y
            phi = mp.e ** (-1 / (1 - u * u))
            dh = 2 * mp.pi * mp.e * phi * (1 - 2 * u * u / (1 - u * u) ** 2)
            theta = mp.atan2(ry, rx)
            s_new = -theta + tau * dh
            r = mp.sqrt(r2)
            return cx + r * mp.cos(-s_new), cy + r * mp.sin(-s_new)

        h = mp.mpf(step)
        worst = mp.mpf(0)
        for x0, y0 in pts:
            x0, y0 = mp.mpf(repr(float(x0))), mp.mpf(repr(float(y0)))
            fx1 = apply_one(x0 + h, y0)
            fx0 = apply_one(x0 - h, y0)
            fy1 = apply_one(x0, y0 + h)
            fy0 = apply_one(x0, y0 - h)
            axx, axy = (fx1[0] - fx0[0]) / (2 * h), (fx1[1] - fx0[1]) / (2 * h)
            ayx, ayy = (fy1[0] - fy0[0]) / (2 * h), (fy1[1] - fy0[1]) / (2 * h)
            worst = max(worst, abs(axx * ayy - axy * ayx - 1))
        return float(worst)


def test_criterion_08_area_preservation(p3_rep):
    rng = np.random.default_rng(8)
    worst_closed = 0.0
    for v in "uvw":
        pts = _band_sample(p3_rep.config, v, 100, rng)
        stats = jacobian_probe(p3_rep.generator_map(v, p3_rep.N).apply, pts, step=3e-6)
        worst_closed = max(worst_closed, stats["max_deviation"])
    assert worst_closed <= 1e-6
    # the extreme tail of the bump, checked in 50-digit arithmetic
    worst_tail = 0.0
    for v in "uvw":
        ann = p3_rep.config.annuli[v]
        mid = ann.mid
        prof_b = 0.5 * (p3_rep.config.radii[v] ** 2 - mid)
        width = min(ann.a - prof_b, ann.a + prof_b)
        tail = band_points(
            ann, 8, rng, mid + 2 * (prof_b + 0.8 * width), mid + 2 * (prof_b + 0.99 * width)
        )
        worst_tail = max(worst_tail, _mpmath_jacobian_dev(p3_rep, v, tail))
    assert worst_tail <= 1e-6
    # smoothed route: one mollified Hamiltonian per generator on disjoint
    # annuli inside the unit disk, flowed for time N and probed by FD
    from raagham.lift import GroupElement, MobiusMap

    ident = GroupElement((), MobiusMap.identity())
    rings = {"u": (0.30, 0.42), "v": (0.48, 0.60), "w": (0.66, 0.78)}
    worst_integrated = 0.0
    for v, (ri, ro) in rings.items():
        ann = RoundAnnulus((0.0, 0.0), ri, ro)
        assembled = assemble_Hv(v, [ident], ann)
        field = smooth_Hv(assembled, 0.01)
        piece = assembled.pieces[0]
        ts = rng.uniform(piece.b - 0.3, piece.b + 0.3, 100)
        rr = piece.chart.r_of_t(ts)
        ang = rng.uniform(0, 2 * math.pi, 100)
        pts = np.stack([rr * np.cos(ang), rr * np.sin(ang)], -1)

        def time_n_map(p, _field=field, _n=p3_rep.N):
            return flow_map(_field, p, T=float(_n), steps=1500).final

        stats = jacobian_probe(time_n_map, pts, step=1e-5)
        worst_integrated = max(worst_integrated, stats["max_deviation"])
    assert worst_integrated <= 1e-4
    print(f"\nACCEPTANCE 8 PASS: Jacobian deviation {worst_closed:.2e} (<=1e-6 "
          f"closed form; bump tail {worst_tail:.2e} in 50-digit FD) and "
          f"{worst_integrated:.2e} (<=1e-4 integrated smoothed), "
          f"100 points per generator")


def test_criterion_09_lambda_decay(assembled_depth6):
    lam = {}
    for p in assembled_depth6.pieces:
        lam.setdefault(p.element.length, []).append(p.lambda2)
    maxes = {L: max(v) for L, v in lam.items()}
    lengths = sorted(maxes)
    assert lengths == list(range(7))
    assert all(maxes[b] < maxes[a] for a, b in zip(lengths[2:], lengths[3:]))
    assert maxes[2] < maxes[1]
    ratio = maxes[6] / maxes[1]
    assert ratio < 1e-2
    assert all(v > 0 for vals in lam.values() for v in vals)
    print(f"\nACCEPTANCE 9 PASS: max lambda^2 strictly decreasing for lengths >= 2; "
          f"length-6/length-1 ratio {ratio:.2e} (< 1e-2)")


def test_criterion_10_derivative_growth_slopes(assembled_depth6):
    report = analytic_report(assembled_depth6)
    assert report.slopes[2] <= 0.3, report.slopes
    assert report.slopes[3] <= 1.3, report.slopes
    print(f"\nACCEPTANCE 10 PASS: log-log derivative growth slopes "
          f"n=2: {report.slopes[2]:.3f} (<=0.3), n=3: {report.slopes[3]:.3f} (<=1.3) "
          f"(n=1: {report.slopes[1]:.3f}, falling toward the boundary)")


def test_criterion_11_mollifier_study(assembled_depth6):
    assert Mollifier(0.05).value_radial(0.0) == 1.0
    for z in (1.0, 1.2, 2.0 + 1.0j, -1.0001):
        assert Mollifier(0.05).value_radial(abs(z)) == 0.0
    grid = np.linspace(-0.9, 0.9, 241)
    X, Y = np.meshgrid(grid, grid)
    mask = X**2 + Y**2 <= 0.81
    pts = np.stack([X[mask], Y[mask]], -1)
    base = assembled_depth6.value(pts)
    sups = []
    for eps in (1e-1, 1e-2, 1e-3):
        sups.append(float(np.abs(smooth_Hv(assembled_depth6, eps).value(pts) - base).max()))
    assert sups[0] > sups[1] > sups[2] > 0
    print(f"\nACCEPTANCE 11 PASS: eta(0)=1 exactly, eta=0 off the disk, "
          f"sup|H_eps - H| strictly decreasing: "
          f"{', '.join(f'{s:.2e}' for s in sups)}")


def test_criterion_12_polydisk_extension(schottky_gens):
    els = enumerate_group(schottky_gens, 2)
    from raagham.lift import default_study_annulus

    annulus = default_study_annulus()
    k = smooth_Hv(assemble_Hv("v", els, annulus), 0.01)
    rng = np.random.default_rng(12)
    slice_pts = annulus.sample_points(100, rng)
    results = {}
    for n in (2, 3):
        pd = polydisk_extend(k, n)
        resid = pd.slice_gradient_residual(slice_pts)
        assert resid <= 1e-9
        sub = slice_pts[:8]
        res_n = flow_map(pd, pd.embed_slice(sub), T=2.0, steps=600)
        flat = flow_map(k, sub, T=2.0, steps=600)
        off = float(np.abs(res_n.final[:, 2:]).max())
        agree = float(np.abs(res_n.final[:, :2] - flat.final).max())
        assert off <= 1e-5 and agree <= 1e-5
        results[n] = (resid, off, agree)
    print(f"\nACCEPTANCE 12 PASS: slice gradient residual <=1e-9 at 100 points; "
          f"after time N=2 the slice is invariant and matches the disk flow "
          f"(n=2: {results[2][1]:.1e}, n=3: {results[3][1]:.1e}; <=1e-5)")


def test_criterion_13_artifact_determinism(tmp_path):
    g = tmp_path / "p3.txt"
    g.write_text("vertices 3\nu v w\nedge u v\nedge v w\n")
    word = tmp_path / "word.txt"
    word.write_text("u v u^-1 v^-1 w\n")
    pairs = []
    for tag, hash_seed in (("A", "1"), ("B", "271828")):
        out_v = tmp_path / f"verify_{tag}"
        out_s = tmp_path / f"smooth_{tag}"
        out_o = tmp_path / f"simulate_{tag}"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        for cmd in (
            ["verify", "--graph", str(g), "--N", "2", "--seed", "7",
             "--samples", "60", "--out", str(out_v)],
            ["smooth-study", "--depth", "2", "--eps", "0.1", "0.01",
             "--out", str(out_s)],
            ["simulate", "--graph", str(g), "--word", str(word), "--N", "2",
             "--out", str(out_o)],
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "raagham.cli", *cmd],
                env=env, capture_output=True, text=True, timeout=600,
            )
            assert proc.returncode == 0, proc.stderr
        pairs.append(
            {
                "verification.json": (out_v / "verification.json").read_bytes(),
                "smooth_study.csv": (out_s / "smooth_study.csv").read_bytes(),
                "orbits.csv": (out_o / "orbits.csv").read_bytes(),
            }
        )
    mismatches = [k for k in pairs[0] if pairs[0][k] != pairs[1][k]]
    assert not mismatches, mismatches
    print("\nACCEPTANCE 13 PASS: verification.json, smooth_study.csv and orbits.csv "
          "are byte-identical across seeded reruns (different hash seeds)")
