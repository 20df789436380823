"""Batch command line: one verb per pipeline stage.

Each verb takes only the flags it reads (``VERBS``); every flag's default
sits in ``FLAGS``.  Verbs write their artifacts into ``--out`` (default the
working directory), except ``normal-form`` and ``double``, which print their
result and write it to a file only when ``--out`` is given.

Exit codes: 0 success / all checks passed, 1 a verification failed,
2 invalid input, 3 a resource cap was hit, 4 a numerical solver did not
converge.  Given the same flags every CSV/JSON artifact is byte-identical
between runs.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import flows, graphs, lift, textio, twist, words

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INVALID = 2
EXIT_RESOURCE = 3
EXIT_SOLVER = 4


def _read_graph(path) -> graphs.SimplicialGraph:
    with open(path) as f:
        return textio.parse_graph(f.read())


def _read_word(path, graph) -> words.Word:
    with open(path) as f:
        return textio.parse_word(f.read(), graph)


def _emit(args, name, data):
    path = os.path.join(args.out, name)
    textio.atomic_write(path, data)
    return path


# ------------------------------- subcommands --------------------------------


def cmd_normal_form(args):
    g = _read_graph(args.graph)
    w = _read_word(args.word, g)
    nf = words.normal_form(w)
    line = textio.format_word(nf.word)
    print(line)
    if args.out is not None:
        _emit(args, "normal_form.txt", line + "\n")
    return EXIT_OK


def cmd_word_eq(args):
    g = _read_graph(args.graph)
    w1 = _read_word(args.word, g)
    w2 = _read_word(args.word2, g)
    print("equal" if words.normal_form(w1) == words.normal_form(w2) else "different")
    return EXIT_OK


def cmd_double(args):
    g = _read_graph(args.graph)
    text = textio.format_graph(graphs.double(g))
    sys.stdout.write(text)
    if args.out is not None:
        _emit(args, "double.txt", text)
    return EXIT_OK


def cmd_check_cover(args):
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
    g = _read_graph(args.graph)
    res = graphs.find_planar_emulator(g, args.max_sheets)
    if isinstance(res, graphs.NotFound):
        print(f"not found: {res.reason} after {res.tried} assignments")
        return EXIT_RESOURCE if not res.exhausted else EXIT_VERIFICATION
    cover_text = textio.format_cover_file(res.cover, res.projection)
    _emit(args, "cover.txt", cover_text)
    emb = {
        textio.vertex_name(v): list(map(float, res.embedding.positions[v]))
        for v in res.cover.vertices
    }
    _emit(args, "embedding.json", textio.dump_json(emb))
    cert = graphs.check_orbicover(res.projection)
    print(
        f"planar {res.voltage.group_order}-sheet cover: "
        f"{len(res.cover.vertices)} vertices, {len(res.cover.edges)} edges; "
        f"embedding validated: {graphs.validate_embedding(res.embedding)}; "
        f"orbi-cover: {isinstance(cert, graphs.OrbicoverCertificate)}"
    )
    return EXIT_OK


def cmd_certificate(args):
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


def _build_rep(args, g):
    emb = graphs.planarity(g)
    emulator = None
    if isinstance(emb, graphs.NonplanarWitness):
        res = graphs.find_planar_emulator(g, args.max_sheets)
        if isinstance(res, graphs.NotFound):
            if not res.exhausted:
                raise words.ResourceCapExceeded(
                    f"graph is nonplanar ({emb.detail}); emulator search stopped "
                    f"after {res.tried} assignments: {res.reason}"
                )
            raise ValueError(
                f"graph is nonplanar ({emb.detail}) and no emulator found "
                f"within {args.max_sheets} sheets"
            )
        emulator = res
    return twist.build_representation(g, args.N, emulator=emulator)


def cmd_build_config(args):
    g = _read_graph(args.graph)
    emb = graphs.planarity(g)
    if isinstance(emb, graphs.NonplanarWitness):
        print(f"graph not planar: {emb.detail}")
        return EXIT_INVALID
    config = twist.build_configuration(emb)
    _emit(args, "config.json", textio.dump_json(textio.config_to_json(config)))
    _emit(args, "config.svg", textio.svg_configuration(config))
    print(f"configuration built: delta={config.provenance['delta']:.6f}, "
          f"{len(config.region_points)} complementary components")
    return EXIT_OK


def cmd_build_rep(args):
    g = _read_graph(args.graph)
    rep = _build_rep(args, g)
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
    _emit(args, "representation.json", textio.dump_json(info))
    _emit(args, "config.svg", textio.svg_configuration(rep.config))
    print(f"representation built ({info['route']} route, N={rep.N})")
    return EXIT_OK


def cmd_simulate(args):
    g = _read_graph(args.graph)
    rep = _build_rep(args, g)
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
    _emit(args, "orbits.csv", textio.dump_csv(rows, ["x0", "y0", "x1", "y1", "displacement"]))
    _emit(args, "orbits.svg", textio.svg_orbits(rep.config, marked, moved))
    print(f"applied word of length {len(w)} to {len(marked)} marked points; "
          f"max displacement {max(r['displacement'] for r in rows):.6g}")
    return EXIT_OK


def cmd_verify(args):
    g = _read_graph(args.graph)
    rep = _build_rep(args, g)
    report = flows.verify_relations(rep, samples=args.samples, seed=args.seed)
    payload = {
        "seed": report.seed,
        "samples": report.samples,
        "checks": report.rows(),
        "jacobian_max_deviation": report.jacobian_max_deviation,
        "all_passed": report.all_passed(),
    }
    _emit(args, "verification.json", textio.dump_json(payload))
    for row in report.rows():
        status = "pass" if row["passed"] else "FAIL"
        print(f"[{status}] {row['check']:>16} {row['pair']:<12} "
              f"displacement {row['displacement']:.3e} (threshold {row['threshold']:.0e})")
    return EXIT_OK if report.all_passed() else EXIT_VERIFICATION


def cmd_probe_faithful(args):
    g = _read_graph(args.graph)
    rep = _build_rep(args, g)
    table = flows.faithfulness_probe(rep, args.max_len, seed=args.seed)
    _emit(args, "faithfulness.json", textio.dump_json(table))
    worst = [t for t in table if t["verdict"] == "INCONCLUSIVE"]
    print(f"{len(table)} words probed, {len(table) - len(worst)} NONTRIVIAL, "
          f"{len(worst)} INCONCLUSIVE")
    return EXIT_OK


# the Schottky depth of the assembly whose smoothed field polydisk extends
POLYDISK_DEPTH = 2


def _study_Hv(depth, tail):
    """The study annulus and H_v assembled over its Schottky translates up to
    depth; the truncation bound reads the first ``tail`` elements of length
    depth + 1, and there is none when tail is 0."""
    gens = lift.schottky_pair()
    elements = lift.enumerate_group(gens, depth)
    tail_elements = lift.next_words(gens, elements, tail)
    annulus = lift.default_study_annulus()
    return annulus, lift.assemble_Hv("v", elements, annulus, tail_elements=tail_elements)


def cmd_lambda_decay(args):
    _, assembled = _study_Hv(args.depth, 64)
    report = lift.analytic_report(assembled)
    rows = []
    sups, lengths = assembled.all_pieces.sup_abs(), assembled.lengths
    for L, count, lmax in report.lambda_table:
        rows.append(
            {
                "word_length": L,
                "count": count,
                "max_lambda2": lmax,
                "sup_H": float(sups[lengths == L].max()),
                "slope_d1": report.slopes.get(1),
                "slope_d2": report.slopes.get(2),
                "slope_d3": report.slopes.get(3),
            }
        )
    _emit(args, "lambda_decay.csv", textio.dump_csv(
        rows, ["word_length", "count", "max_lambda2", "sup_H",
               "slope_d1", "slope_d2", "slope_d3"]))
    _emit(args, "translates.svg", textio.svg_disk_translates(assembled))
    print(f"depth {args.depth}: lambda^2 monotone beyond length 2: {report.lambda_monotone}; "
          f"slopes {['%.3f' % report.slopes[n] for n in sorted(report.slopes)]}; "
          f"verdicts {report.slope_verdicts}; truncation tail <= {assembled.tail_estimate:.3e}")
    print(f"slope fits kept {report.slope_rows} of {len(report.rows)} rows "
          "(rows with a zero derivative sup are dropped)")
    ok = report.lambda_monotone and all(report.slope_verdicts.values())
    return EXIT_OK if ok else EXIT_VERIFICATION


def cmd_smooth_study(args):
    _, assembled = _study_Hv(args.depth, 0)
    grid = np.linspace(-0.9, 0.9, 241)
    X, Y = np.meshgrid(grid, grid)
    mask = X**2 + Y**2 <= 0.81
    pts = np.stack([X[mask], Y[mask]], -1)
    base = assembled.value(pts)
    rows = []
    for eps in args.eps:
        # the smoothed value eta * H, with H evaluated once for every eps
        sup = float(np.abs(lift.Mollifier(eps).value(pts) * base - base).max())
        rows.append({"eps": eps, "sup_difference": sup})
    _emit(args, "smooth_study.csv", textio.dump_csv(rows, ["eps", "sup_difference"]))
    sups = [r["sup_difference"] for r in rows]
    decreasing = all(a > b for a, b in zip(sups, sups[1:]))
    print("sup|H_eps - H| over |z| <= 0.9:",
          ", ".join(f"{r['eps']:g}: {r['sup_difference']:.3e}" for r in rows),
          f"; strictly decreasing: {decreasing}")
    return EXIT_OK if decreasing else EXIT_VERIFICATION


def cmd_polydisk(args):
    if args.N < 2:
        raise ValueError("N must be at least 2")
    annulus, assembled = _study_Hv(POLYDISK_DEPTH, 0)
    k = lift.smooth_Hv(assembled, args.eps)
    pd = flows.polydisk_extend(k, args.n)
    rng = np.random.default_rng(args.seed)
    slice_pts = annulus.sample_points(100, rng)
    resid = pd.slice_gradient_residual(slice_pts)
    sub = slice_pts[:8]
    res_n = flows.flow_map(pd, pd.embed_slice(sub), T=float(args.N), steps=args.steps)
    res_2 = flows.flow_map(k, sub, T=float(args.N), steps=args.steps)
    off_slice = float(np.abs(res_n.final[:, 2:]).max())
    agree = float(np.abs(res_n.final[:, :2] - res_2.final).max())
    payload = {
        "n": pd.n,
        "N": args.N,
        "slice_gradient_residual": resid,
        "off_slice_after_flow": off_slice,
        "slice_flow_agreement": agree,
        "polydisk_flow_calls": res_n.iterations,
        "slice_flow_calls": res_2.iterations,
    }
    _emit(args, "polydisk.json", textio.dump_json(payload))
    print(f"n={pd.n}: slice gradient residual {resid:.2e}, "
          f"off-slice drift {off_slice:.2e}, agreement {agree:.2e}")
    ok = resid <= 1e-9 and off_slice <= 1e-5 and agree <= 1e-5
    return EXIT_OK if ok else EXIT_VERIFICATION


# --------------------------------- parser -----------------------------------


# Every flag a verb may take: its option string and argparse spec, default
# included.  "copy-to" is the --out of the verbs that print their result and
# write it to a file only when asked; "mollifier-eps" is the one --eps of the
# verb that smooths a single field.
FLAGS = {
    "graph": ("--graph", dict(required=True)),
    "word": ("--word", dict(required=True)),
    "word2": ("--word2", dict(required=True)),
    "cover": ("--cover", dict(required=True)),
    "out": ("--out", dict(default=".")),
    "copy-to": ("--out", dict(default=None)),
    "seed": ("--seed", dict(type=int, default=0)),
    "N": ("--N", dict(type=int, default=2)),
    "max-sheets": ("--max-sheets", dict(type=int, default=2)),
    "samples": ("--samples", dict(type=int, default=200)),
    "max-len": ("--max-len", dict(type=int, default=2)),
    "depth": ("--depth", dict(type=int, default=6)),
    "eps": ("--eps", dict(type=float, nargs="+", default=(1e-1, 1e-2, 1e-3))),
    "mollifier-eps": ("--eps", dict(type=float, default=1e-1)),
    "steps": ("--steps", dict(type=int, default=2000)),
    "n": ("--n", dict(type=int, default=2)),
}

# Each verb and the flags it reads.
VERBS = {
    "normal-form": (cmd_normal_form, "graph word copy-to"),
    "word-eq": (cmd_word_eq, "graph word word2"),
    "double": (cmd_double, "graph copy-to"),
    "check-cover": (cmd_check_cover, "graph cover"),
    "emulator": (cmd_emulator, "graph max-sheets out"),
    "certificate": (cmd_certificate, "graph"),
    "build-config": (cmd_build_config, "graph out"),
    "build-rep": (cmd_build_rep, "graph N max-sheets out"),
    "simulate": (cmd_simulate, "graph word N max-sheets out"),
    "verify": (cmd_verify, "graph N max-sheets samples seed out"),
    "probe-faithful": (cmd_probe_faithful, "graph N max-sheets max-len seed out"),
    "lambda-decay": (cmd_lambda_decay, "depth out"),
    "smooth-study": (cmd_smooth_study, "depth eps out"),
    "polydisk": (cmd_polydisk, "mollifier-eps N steps n seed out"),
}


def make_parser():
    p = argparse.ArgumentParser(
        prog="raagham",
        description="Artin-graph word algebra and Hamiltonian annulus twists",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, (fn, flags) in VERBS.items():
        sp = sub.add_parser(name)
        sp.set_defaults(fn=fn)
        for flag in flags.split():
            option, spec = FLAGS[flag]
            sp.add_argument(option, **spec)
    return p


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except words.ResourceCapExceeded as e:
        print(f"resource cap exceeded: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError) as e:
        print(f"invalid input: {e}", file=sys.stderr)
        return EXIT_INVALID
    except flows.IntegrationError as e:
        print(f"solver did not converge: {e}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
