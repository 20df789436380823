"""The two benchmark workloads.

Each workload builds its inputs from the run seed, then runs identical-size
passes whose inputs are drawn from (seed, pass index).  A pass drives
raagham only through its public API and the in-process CLI (``cli.main``),
and checks every output against the thresholds the test suite uses; each
check adds to ``attempted`` and, when it fails, to ``failed``.  Modules are
used through attribute access at call time so that tracing can wrap them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
import time

import numpy as np

from raagham import cli, flows, graphs, lift, twist, words

WARM_UP = 2**32  # pass index of the warm-up's inputs, never a timed pass

FOUR_VERTEX_GRAPHS = [
    [],
    [("a", "b")],
    [("a", "b"), ("c", "d")],
    [("a", "b"), ("b", "c")],
    [("a", "b"), ("b", "c"), ("a", "c")],
    [("a", "b"), ("b", "c"), ("c", "d")],
    [("a", "b"), ("a", "c"), ("a", "d")],
    [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")],
    [("a", "b"), ("b", "c"), ("a", "c"), ("a", "d")],
    [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")],
    [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")],
]


def random_word(graph, rng, length):
    alphabet = [(v, e) for v in graph.vertices for e in (1, -1)]
    return words.Word(graph, [alphabet[i] for i in rng.integers(0, len(alphabet), length)])


def seeded_graph(n, rng, p=0.4):
    names = [f"v{i}" for i in range(n)]
    edges = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return graphs.SimplicialGraph(names, edges)


class Workload:
    setups = 3  # set-ups per run; setup_s reports their median

    def __init__(self, seed, workdir):
        self.seed = seed % 2**32
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.query_ms = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)

    def rng(self, index):
        return np.random.default_rng([self.seed, index])

    def cli(self, *argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main([str(a) for a in argv])

    def read_json(self, path, what):
        self.check(path.is_file(), f"{what}: {path.name} written")
        return json.loads(path.read_text()) if path.is_file() else None

    def warm_up(self):
        """One small untimed pass over the same code paths."""

    def set_up(self):
        """Build the inputs every pass shares."""

    def run_pass(self, index):
        """Run one pass; return (work units, seconds they are rated over or None)."""
        raise NotImplementedError


def _read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


class LiftFlow(Workload):
    """The lift built and reported, then flowed.

    A pass runs ``lambda-decay --depth 6`` and ``smooth-study --depth 4``
    (many pieces, few evaluations each), then polydisk flows, a 50-point
    smoothed flow and an integrated Jacobian probe (few pieces, many
    evaluations).  Its work units are flow point-steps, rated over the
    seconds of the flows alone.
    """

    DEPTH = 6
    SMOOTH_DEPTH = 4
    POLYDISK_STEPS = 60
    BATCH_POINTS, BATCH_STEPS, BATCH_T = 50, 50, 1.0
    PROBE_POINTS, PROBE_STEPS, PROBE_T = 3, 15, 0.5
    DRIFT_TOL = 1e-6

    def warm_up(self):
        self.cli("lambda-decay", "--depth", 4, "--out", self.workdir / "warm")
        self.cli("smooth-study", "--depth", 2, "--out", self.workdir / "warm")
        self.set_up()
        pts = self.annulus.sample_points(4, self.rng(WARM_UP))
        flows.flow_map(flows.polydisk_extend(self.field, 3), np.pad(pts, ((0, 0), (0, 4))),
                       T=0.02, steps=2)
        flows.jacobian_probe(lambda p: flows.flow_map(self.ring_field, p, T=0.02, steps=2).final, pts)

    def set_up(self):
        self.annulus = lift.default_study_annulus()
        elements = lift.enumerate_group(lift.schottky_pair(0.98), 2)
        self.field = lift.smooth_Hv(lift.assemble_Hv("v", elements, self.annulus), 0.01)
        # one piece on a ring inside the disk, as in the integrated half of criterion 08
        ring = twist.RoundAnnulus((0.0, 0.0), 0.48, 0.60)
        identity = lift.GroupElement((), lift.MobiusMap.identity())
        one = lift.assemble_Hv("v", [identity], ring)
        self.ring_piece = one.pieces[0]
        self.ring_field = lift.smooth_Hv(one, 0.01)

    def run_pass(self, index):
        rng = self.rng(index)
        self._report(index, rng)
        t = time.perf_counter()
        work = self._flows(index, rng)
        return work, time.perf_counter() - t

    def _report(self, index, rng):
        out = self.workdir / f"decay-{index}"
        code = self.cli("lambda-decay", "--depth", self.DEPTH, "--out", out)
        self.check(code == cli.EXIT_OK, f"lambda-decay: exit code {code}")
        path = out / "lambda_decay.csv"
        self.check(path.is_file(), "lambda-decay: CSV written")
        if path.is_file():
            rows = {int(r["word_length"]): r for r in _read_csv(path)}
            lam = {L: float(r["max_lambda2"]) for L, r in rows.items()}
            self.check(sorted(lam) == list(range(self.DEPTH + 1)), "lambda-decay: every length")
            self.check(lam[6] / lam[1] < 1e-2, f"lambda-decay: ratio {lam[6] / lam[1]:.2e}")
            self.check(
                all(lam[b] < lam[a] for a, b in zip(range(1, 6), range(2, 7))),
                "lambda-decay: max lambda^2 strictly decreasing",
            )
            first = rows[0]
            self.check(float(first["slope_d2"]) <= 0.3, f"slope d2 {first['slope_d2']}")
            self.check(float(first["slope_d3"]) <= 1.3, f"slope d3 {first['slope_d3']}")

        # the seed scales the mollifier parameters; the work does not depend on them
        eps = 10.0 ** (np.array([-1.0, -2.0, -3.0]) + rng.uniform(-0.5, 0.5))
        out = self.workdir / f"smooth-{index}"
        code = self.cli("smooth-study", "--depth", self.SMOOTH_DEPTH,
                        "--eps", *eps, "--out", out)
        self.check(code == cli.EXIT_OK, f"smooth-study: exit code {code}")
        path = out / "smooth_study.csv"
        self.check(path.is_file(), "smooth-study: CSV written")
        if path.is_file():
            sups = [float(r["sup_difference"]) for r in _read_csv(path)]
            self.check(
                len(sups) == 3 and sups[0] > sups[1] > sups[2] > 0,
                f"smooth-study: sup differences {sups}",
            )

    @staticmethod
    def _strata(n):
        return (np.arange(n) + 0.5) / n

    def _ring_points(self, annulus, n, rng):
        """Area-stratified radii with seeded angles.

        The smoothed fields are rotation invariant on their central rings,
        so the fixed-point work per step depends on the radii alone; fixing
        them keeps the work of a pass the same for every seed.
        """
        r2 = annulus.r_inner**2 + (annulus.r_outer**2 - annulus.r_inner**2) * self._strata(n)
        ang = rng.uniform(0.0, 2.0 * np.pi, n)
        unit = np.stack([np.cos(ang), np.sin(ang)], -1)
        return np.asarray(annulus.center) + np.sqrt(r2)[:, None] * unit

    def _flows(self, index, rng):
        out = self.workdir / f"polydisk-{index}"
        # the CLI seed draws the 8 slice points, and their fixed-point work
        # varies by a fifth between seeds; the CLI default keeps it fixed
        code = self.cli("polydisk", "--n", 3, "--N", 2, "--steps", self.POLYDISK_STEPS,
                        "--seed", 0, "--out", out)
        self.check(code == cli.EXIT_OK, f"polydisk: exit code {code}")
        payload = self.read_json(out / "polydisk.json", "polydisk")
        if payload is not None:
            self.check(payload["slice_gradient_residual"] <= 1e-9, "polydisk: slice gradient")
            self.check(payload["off_slice_after_flow"] <= 1e-5, "polydisk: off-slice drift")
            self.check(payload["slice_flow_agreement"] <= 1e-5, "polydisk: slice agreement")

        pts = self._ring_points(self.annulus, self.BATCH_POINTS, rng)
        res = flows.flow_map(self.field, pts, T=self.BATCH_T, steps=self.BATCH_STEPS)
        self.check(np.isfinite(res.final).all(), "batch flow: finite")
        self.check(res.energy_drift <= self.DRIFT_TOL, f"batch flow: drift {res.energy_drift:.2e}")

        piece = self.ring_piece
        ts = piece.b + 0.6 * (self._strata(self.PROBE_POINTS) - 0.5)
        rr = piece.chart.r_of_t(ts)
        ang = rng.uniform(0.0, 2.0 * np.pi, self.PROBE_POINTS)
        probe_pts = np.stack([rr * np.cos(ang), rr * np.sin(ang)], -1)

        def time_t_map(p):
            return flows.flow_map(self.ring_field, p, T=self.PROBE_T, steps=self.PROBE_STEPS).final

        stats = flows.jacobian_probe(time_t_map, probe_pts, step=1e-5)
        self.check(stats["max_deviation"] <= 1e-4,
                   f"integrated Jacobian deviation {stats['max_deviation']:.2e}")
        return (2 * 8 * self.POLYDISK_STEPS + self.BATCH_POINTS * self.BATCH_STEPS
                + 8 * self.PROBE_POINTS * self.PROBE_STEPS)


class WordOrbits(Workload):
    """Word queries, then long words applied through the K6 emulator route.

    The set-up builds and verifies the K6 representation the way ``verify``
    does (planarity, emulator search, orbi-cover certificate, configuration,
    representation, relation checks), so it is the graphs and twist
    construction workload as well.
    """

    setups = 2
    NF_QUERIES, NF_MIN, NF_MAX = 20, 1000, 10000
    ORACLE_QUERIES = 40
    APPLY_WORDS, APPLY_LETTERS, APPLY_POINTS = 2, 200, 100_000

    def warm_up(self):
        rep = twist.build_representation(graphs.cycle_graph(list("wxyz")), 2, grid=128)
        flows.verify_relations(rep, samples=20)
        g = graphs.SimplicialGraph(list("abcd"), FOUR_VERTEX_GRAPHS[5])
        w = random_word(g, self.rng(WARM_UP), 6)
        words.oracle_equal(w, words.normal_form(w).word)

    def set_up(self):
        k6 = graphs.complete_graph(list("abcdef"))
        self.check(isinstance(graphs.planarity(k6), graphs.NonplanarWitness),
                   "K6: planarity returns a nonplanar witness")
        emulator = graphs.find_planar_emulator(k6, 2)
        self.check(not isinstance(emulator, graphs.NotFound), "K6: 2-sheet emulator found")
        cert = graphs.check_orbicover(emulator.projection)
        self.check(isinstance(cert, graphs.OrbicoverCertificate), "K6: orbi-cover certificate")
        self.rep = twist.build_representation(k6, 2, emulator=emulator, grid=512)
        report = flows.verify_relations(self.rep, seed=self.seed)
        # the verify command's thresholds: commuting <= 1e-9, twisting > 1e-3,
        # punctures <= 1e-9
        self.check(report.all_passed(), "K6: verify_relations all passed")
        for row in report.relation_checks:
            self.check(row.passed, f"K6: {row.kind} {row.pair}")
        self.k6 = k6
        self.big = seeded_graph(20, np.random.default_rng([self.seed, 20]))
        self.small = [graphs.SimplicialGraph(list("abcd"), e) for e in FOUR_VERTEX_GRAPHS]
        self.punctures = self.rep.config.all_punctures()

    def _timed(self, fn, *args):
        t = time.perf_counter()
        result = fn(*args)
        self.query_ms.append(1e3 * (time.perf_counter() - t))
        return result

    def _normal_form_queries(self, rng):
        # lengths spread evenly over the range, so each pass does the same work
        for n in map(int, np.linspace(self.NF_MIN, self.NF_MAX, self.NF_QUERIES)):
            nf = self._timed(words.normal_form, random_word(self.big, rng, n)).word
            self.check(
                len(nf) <= n and len(nf) % 2 == n % 2 and words.normal_form(nf).word == nf,
                f"normal form of a {n}-letter word",
            )

    def _oracle_queries(self, rng):
        for q in range(self.ORACLE_QUERIES):
            g = self.small[q % len(self.small)]
            if q % 2 == 0:  # equal pair: a word and its normal form
                w1 = random_word(g, rng, (q // 2) % 7)
                w2 = words.normal_form(w1).word
            else:  # short pair, usually distinct
                w1 = random_word(g, rng, int(rng.integers(1, 3)))
                w2 = random_word(g, rng, int(rng.integers(1, 3)))
            expected = words.normal_form(w1).word == words.normal_form(w2).word
            try:
                got = self._timed(words.oracle_equal, w1, w2)
            except words.ResourceCapExceeded:
                self.check(False, f"oracle cap hit on {w1} vs {w2}")
                continue
            self.check(got == expected, f"oracle {got} vs normal forms {expected}")

    def _apply_points(self, rng):
        annuli = list(self.rep.config.annuli.values())
        per = int(0.9 * self.APPLY_POINTS) // len(annuli)
        inside = [a.sample_points(per, rng) for a in annuli]
        centers = np.array([a.center for a in annuli])
        outer = np.array([a.r_outer for a in annuli])[:, None]
        lo, hi = (centers - outer).min(0), (centers + outer).max(0)
        free = rng.uniform(lo, hi, size=(self.APPLY_POINTS - per * len(annuli), 2))
        return np.concatenate(inside + [free, self.punctures])

    def run_pass(self, index):
        rng = self.rng(index)
        self._normal_form_queries(rng)
        self._oracle_queries(rng)
        batch = self._apply_points(rng)
        npunct = len(self.punctures)
        fiber = {v: len(img) for v, img in self.rep.pullback.images.items()}
        units, seconds = 0, 0.0
        for _ in range(self.APPLY_WORDS):
            w = random_word(self.k6, rng, self.APPLY_LETTERS)
            t = time.perf_counter()
            moved = flows.rep_apply(self.rep, w, batch)
            seconds += time.perf_counter() - t
            units += len(batch) * sum(fiber[v] for v, _ in w.letters)
            self.check(np.isfinite(moved).all(), "rep_apply: finite")
            resid = float(np.abs(moved[-npunct:] - self.punctures).max())
            self.check(resid <= 1e-9, f"rep_apply: puncture residual {resid:.2e}")
        return units, seconds


WORKLOADS = {
    "lift-flow": LiftFlow,
    "word-orbits": WordOrbits,
}
