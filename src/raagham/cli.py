"""Batch command line: one verb per pipeline stage.

Exit codes: 0 success / all checks passed, 1 a verification failed,
2 invalid input, 3 a resource cap was hit.  Given the same configuration and
seed every CSV/JSON artifact is byte-identical between runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import flows, graphs, lift, textio, twist, words

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INVALID = 2
EXIT_RESOURCE = 3


@dataclass
class RunConfig:
    seed: int = 0
    N: int = 2
    depth: int = 6
    eps: tuple = (1e-1, 1e-2, 1e-3)
    tol: float = 1e-9
    out: str = "."
    max_sheets: int = 2
    steps: int = 2000
    max_len: int = 2
    samples: int = 200
    schottky_s: float = 0.98
    polydisk_n: int = 2

    def validate(self):
        if self.N < 2:
            raise ValueError("N must be at least 2")
        if self.tol <= 0 or any(e <= 0 for e in self.eps):
            raise ValueError("tolerances must be positive")


def _load_config(args) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        with open(args.config) as f:
            data = json.load(f)
        for k, v in data.items():
            if not hasattr(cfg, k):
                raise ValueError(f"unknown config key {k!r}")
            setattr(cfg, k, tuple(v) if k == "eps" else v)
    for k in vars(cfg):
        v = getattr(args, k, None)
        if v is not None:
            setattr(cfg, k, v)
    cfg.validate()
    return cfg


def _read_graph(path) -> graphs.SimplicialGraph:
    with open(path) as f:
        return textio.parse_graph(f.read())


def _read_word(path, graph) -> words.Word:
    with open(path) as f:
        return textio.parse_word(f.read(), graph)


def _emit(cfg, name, data):
    path = os.path.join(cfg.out, name)
    textio.atomic_write(path, data)
    return path


# ------------------------------- subcommands --------------------------------


def cmd_normal_form(args):
    cfg = _load_config(args)
    g = _read_graph(args.graph)
    w = _read_word(args.word, g)
    nf = words.normal_form(w)
    line = textio.format_word(nf.word)
    print(line)
    if args.out != ".":
        _emit(cfg, "normal_form.txt", line + "\n")
    return EXIT_OK


def cmd_word_eq(args):
    _load_config(args)
    g = _read_graph(args.graph)
    w1 = _read_word(args.word, g)
    w2 = _read_word(args.word2, g)
    print("equal" if words.oracle_equal(w1, w2) else "different")
    return EXIT_OK


def cmd_double(args):
    cfg = _load_config(args)
    g = _read_graph(args.graph)
    text = textio.format_graph(graphs.double(g))
    sys.stdout.write(text)
    if args.out != ".":
        _emit(cfg, "double.txt", text)
    return EXIT_OK


def cmd_check_cover(args):
    _load_config(args)
    base = _read_graph(args.graph)
    with open(args.cover) as f:
        cover, morphism = textio.parse_cover_file(f.read(), base)
    result = graphs.check_orbicover(morphism)
    if isinstance(result, graphs.Violation):
        print(f"violation: {result.kind}", end="")
        if result.vertex is not None:
            print(f" at vertex {textio.vertex_name(result.vertex)}", end="")
        if result.edge is not None:
            print(f" edge {{{', '.join(textio.vertex_name(x) for x in result.edge)}}}", end="")
        print()
        return EXIT_VERIFICATION
    sizes = " ".join(
        f"{textio.vertex_name(v)}:{n}" for v, n in sorted(
            result.fiber_sizes.items(), key=lambda kv: base.index(kv[0])
        )
    )
    print(f"orbi-cover certified; fiber sizes {sizes}")
    return EXIT_OK


def cmd_emulator(args):
    cfg = _load_config(args)
    g = _read_graph(args.graph)
    res = graphs.find_planar_emulator(g, cfg.max_sheets)
    if isinstance(res, graphs.NotFound):
        print(f"not found: {res.reason} after {res.tried} assignments")
        return EXIT_RESOURCE if not res.exhausted else EXIT_VERIFICATION
    cover_text = textio.format_cover_file(res.cover, res.projection)
    _emit(cfg, "cover.txt", cover_text)
    emb = {
        textio.vertex_name(v): list(map(float, res.embedding.positions[v]))
        for v in res.cover.vertices
    }
    _emit(cfg, "embedding.json", textio.dump_json(emb))
    cert = graphs.check_orbicover(res.projection)
    print(
        f"planar {res.voltage.group_order}-sheet cover: "
        f"{len(res.cover.vertices)} vertices, {len(res.cover.edges)} edges; "
        f"embedding validated: {graphs.validate_embedding(res.embedding)}; "
        f"orbi-cover: {isinstance(cert, graphs.OrbicoverCertificate)}"
    )
    return EXIT_OK


def cmd_certificate(args):
    _load_config(args)
    g = _read_graph(args.graph)
    cert = graphs.certificate_no_emulator(g)
    if isinstance(cert, graphs.NotApplicable):
        print(f"not applicable: {cert.reason}")
    else:
        print(
            "no planar emulator exists: every valence >= "
            f"{cert.min_valence}, so a planar drawing would force "
            f"2 = v - e + f <= v - e/3 = {cert.euler_gap():.3f} <= 0"
        )
    return EXIT_OK


def _build_rep(cfg, g):
    emb = graphs.planarity(g)
    emulator = None
    if isinstance(emb, graphs.NonplanarWitness):
        res = graphs.find_planar_emulator(g, cfg.max_sheets)
        if isinstance(res, graphs.NotFound):
            raise ValueError(
                f"graph is nonplanar ({emb.detail}) and no emulator found "
                f"within {cfg.max_sheets} sheets"
            )
        emulator = res
    return twist.build_representation(g, cfg.N, emulator=emulator)


def cmd_build_config(args):
    cfg = _load_config(args)
    g = _read_graph(args.graph)
    emb = graphs.planarity(g)
    if isinstance(emb, graphs.NonplanarWitness):
        print(f"graph not planar: {emb.detail}")
        return EXIT_INVALID
    config = twist.build_configuration(emb)
    _emit(cfg, "config.json", textio.dump_json(textio.config_to_json(config)))
    _emit(cfg, "config.svg", textio.svg_configuration(config))
    print(f"configuration built: delta={config.provenance['delta']:.6f}, "
          f"{len(config.region_points)} complementary components")
    return EXIT_OK


def cmd_build_rep(args):
    cfg = _load_config(args)
    g = _read_graph(args.graph)
    rep = _build_rep(cfg, g)
    info = {
        "N": rep.N,
        "route": "emulator" if rep.pullback is not None else "direct",
        "config": textio.config_to_json(rep.config),
    }
    if rep.pullback is not None:
        info["pullback"] = {
            textio.vertex_name(v): textio.format_word(rep.pullback.images[v])
            for v in g.vertices
        }
    _emit(cfg, "representation.json", textio.dump_json(info))
    _emit(cfg, "config.svg", textio.svg_configuration(rep.config))
    print(f"representation built ({info['route']} route, N={rep.N})")
    return EXIT_OK


def cmd_simulate(args):
    cfg = _load_config(args)
    g = _read_graph(args.graph)
    rep = _build_rep(cfg, g)
    w = _read_word(args.word, g)
    marked = rep.config.marked_points()
    moved = flows.rep_apply(rep, w, marked)
    rows = [
        {
            "x0": a[0], "y0": a[1], "x1": b[0], "y1": b[1],
            "displacement": float(np.hypot(*(b - a))),
        }
        for a, b in zip(marked, moved)
    ]
    _emit(cfg, "orbits.csv", textio.dump_csv(rows, ["x0", "y0", "x1", "y1", "displacement"]))
    _emit(cfg, "orbits.svg", textio.svg_orbits(rep.config, marked, moved))
    print(f"applied word of length {len(w)} to {len(marked)} marked points; "
          f"max displacement {max(r['displacement'] for r in rows):.6g}")
    return EXIT_OK


def cmd_verify(args):
    cfg = _load_config(args)
    g = _read_graph(args.graph)
    rep = _build_rep(cfg, g)
    report = flows.verify_relations(
        rep, samples=cfg.samples, seed=cfg.seed, puncture_tol=cfg.tol
    )
    payload = {
        "seed": report.seed,
        "samples": report.samples,
        "checks": report.rows(),
        "jacobian_max_deviation": report.jacobian_max_deviation,
        "all_passed": report.all_passed(),
    }
    _emit(cfg, "verification.json", textio.dump_json(payload))
    for row in report.rows():
        status = "pass" if row["passed"] else "FAIL"
        print(f"[{status}] {row['check']:>16} {row['pair']:<12} "
              f"displacement {row['displacement']:.3e} (threshold {row['threshold']:.0e})")
    return EXIT_OK if report.all_passed() else EXIT_VERIFICATION


def cmd_probe_faithful(args):
    cfg = _load_config(args)
    g = _read_graph(args.graph)
    rep = _build_rep(cfg, g)
    table = flows.faithfulness_probe(rep, cfg.max_len, seed=cfg.seed)
    _emit(cfg, "faithfulness.json", textio.dump_json(table))
    worst = [t for t in table if t["verdict"] == "INCONCLUSIVE"]
    print(f"{len(table)} words probed, {len(table) - len(worst)} NONTRIVIAL, "
          f"{len(worst)} INCONCLUSIVE")
    return EXIT_OK


def cmd_lambda_decay(args):
    cfg = _load_config(args)
    gens = lift.schottky_pair(cfg.schottky_s)
    elements = lift.enumerate_group(gens, cfg.depth)
    tail = [e for e in lift.enumerate_group(gens, cfg.depth + 1) if e.length == cfg.depth + 1]
    annulus = lift.default_study_annulus()
    assembled = lift.assemble_Hv("v", elements, annulus, tail_elements=tail[:64])
    report = lift.analytic_report(assembled)
    rows = []
    sup_by_len = {}
    for p in assembled.pieces:
        sup_by_len[p.element.length] = max(
            sup_by_len.get(p.element.length, 0.0), p.sup_abs()
        )
    for L, count, lmax in report.lambda_table:
        rows.append(
            {
                "word_length": L,
                "count": count,
                "max_lambda2": lmax,
                "sup_H": sup_by_len[L],
                "slope_d1": report.slopes.get(1),
                "slope_d2": report.slopes.get(2),
                "slope_d3": report.slopes.get(3),
            }
        )
    _emit(cfg, "lambda_decay.csv", textio.dump_csv(
        rows, ["word_length", "count", "max_lambda2", "sup_H",
               "slope_d1", "slope_d2", "slope_d3"]))
    _emit(cfg, "translates.svg", textio.svg_disk_translates(assembled.pieces))
    print(f"depth {cfg.depth}: lambda^2 monotone beyond length 2: {report.lambda_monotone}; "
          f"slopes {['%.3f' % report.slopes[n] for n in sorted(report.slopes)]}; "
          f"verdicts {report.slope_verdicts}; truncation tail <= {assembled.tail_estimate:.3e}")
    print(f"slope fits kept {report.slope_rows} of {len(report.rows)} rows "
          "(rows with a zero derivative sup are dropped)")
    ok = report.lambda_monotone and all(report.slope_verdicts.values())
    return EXIT_OK if ok else EXIT_VERIFICATION


def cmd_smooth_study(args):
    cfg = _load_config(args)
    gens = lift.schottky_pair(cfg.schottky_s)
    elements = lift.enumerate_group(gens, min(cfg.depth, 4))
    annulus = lift.default_study_annulus()
    assembled = lift.assemble_Hv("v", elements, annulus)
    grid = np.linspace(-0.9, 0.9, 241)
    X, Y = np.meshgrid(grid, grid)
    mask = X**2 + Y**2 <= 0.81
    pts = np.stack([X[mask], Y[mask]], -1)
    base = assembled.value(pts)
    rows = []
    for eps in cfg.eps:
        # the smoothed value eta * H, with H evaluated once for every eps
        sup = float(np.abs(lift.Mollifier(eps).value(pts) * base - base).max())
        rows.append({"eps": eps, "sup_difference": sup})
    _emit(cfg, "smooth_study.csv", textio.dump_csv(rows, ["eps", "sup_difference"]))
    sups = [r["sup_difference"] for r in rows]
    decreasing = all(a > b for a, b in zip(sups, sups[1:]))
    print("sup|H_eps - H| over |z| <= 0.9:",
          ", ".join(f"{r['eps']:g}: {r['sup_difference']:.3e}" for r in rows),
          f"; strictly decreasing: {decreasing}")
    return EXIT_OK if decreasing else EXIT_VERIFICATION


def cmd_polydisk(args):
    cfg = _load_config(args)
    gens = lift.schottky_pair(cfg.schottky_s)
    elements = lift.enumerate_group(gens, min(cfg.depth, 2))
    annulus = lift.default_study_annulus()
    assembled = lift.assemble_Hv("v", elements, annulus)
    k = lift.smooth_Hv(assembled, cfg.eps[0])
    pd = flows.polydisk_extend(k, cfg.polydisk_n)
    rng = np.random.default_rng(cfg.seed)
    slice_pts = annulus.sample_points(100, rng)
    resid = pd.slice_gradient_residual(slice_pts)
    sub = slice_pts[:8]
    res_n = flows.flow_map(pd, pd.embed_slice(sub), T=float(cfg.N), steps=cfg.steps)
    res_2 = flows.flow_map(k, sub, T=float(cfg.N), steps=cfg.steps)
    off_slice = float(np.abs(res_n.final[:, 2:]).max())
    agree = float(np.abs(res_n.final[:, :2] - res_2.final).max())
    payload = {
        "n": pd.n,
        "N": cfg.N,
        "slice_gradient_residual": resid,
        "off_slice_after_flow": off_slice,
        "slice_flow_agreement": agree,
    }
    _emit(cfg, "polydisk.json", textio.dump_json(payload))
    print(f"n={pd.n}: slice gradient residual {resid:.2e}, "
          f"off-slice drift {off_slice:.2e}, agreement {agree:.2e}")
    ok = resid <= 1e-9 and off_slice <= 1e-5 and agree <= 1e-5
    return EXIT_OK if ok else EXIT_VERIFICATION


# --------------------------------- parser -----------------------------------


def make_parser():
    p = argparse.ArgumentParser(
        prog="raagham",
        description="Artin-graph word algebra and Hamiltonian annulus twists",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **needs):
        sp = sub.add_parser(name)
        sp.set_defaults(fn=fn)
        sp.add_argument("--config", help="JSON file of RunConfig fields")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--out", default=".")
        sp.add_argument("--tol", type=float)
        if needs.get("graph"):
            sp.add_argument("--graph", required=True)
        if needs.get("word"):
            sp.add_argument("--word", required=True)
        if needs.get("word2"):
            sp.add_argument("--word2", required=True)
        if needs.get("cover"):
            sp.add_argument("--cover", required=True)
        if needs.get("N"):
            sp.add_argument("--N", type=int, dest="N")
        if needs.get("depth"):
            sp.add_argument("--depth", type=int)
        if needs.get("eps"):
            sp.add_argument("--eps", type=float, nargs="+")
        if needs.get("sheets"):
            sp.add_argument("--max-sheets", type=int, dest="max_sheets")
        if needs.get("steps"):
            sp.add_argument("--steps", type=int)
        if needs.get("max_len"):
            sp.add_argument("--max-len", type=int, dest="max_len")
        if needs.get("samples"):
            sp.add_argument("--samples", type=int)
        if needs.get("polydisk_n"):
            sp.add_argument("--n", type=int, dest="polydisk_n")
        return sp

    add("normal-form", cmd_normal_form, graph=True, word=True)
    add("word-eq", cmd_word_eq, graph=True, word=True, word2=True)
    add("double", cmd_double, graph=True)
    add("check-cover", cmd_check_cover, graph=True, cover=True)
    add("emulator", cmd_emulator, graph=True, sheets=True)
    add("certificate", cmd_certificate, graph=True)
    add("build-config", cmd_build_config, graph=True)
    add("build-rep", cmd_build_rep, graph=True, N=True, sheets=True)
    add("simulate", cmd_simulate, graph=True, word=True, N=True, sheets=True)
    add("verify", cmd_verify, graph=True, N=True, sheets=True, samples=True)
    add("probe-faithful", cmd_probe_faithful, graph=True, N=True, sheets=True, max_len=True)
    add("lambda-decay", cmd_lambda_decay, depth=True)
    add("smooth-study", cmd_smooth_study, depth=True, eps=True)
    add("polydisk", cmd_polydisk, depth=True, eps=True, N=True, steps=True, polydisk_n=True)
    return p


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except words.ResourceCapExceeded as e:
        print(f"resource cap exceeded: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError, json.JSONDecodeError) as e:
        print(f"invalid input: {e}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
