"""Text formats, JSON/CSV serialization and SVG figures.

Graph files:      line 1 ``vertices <n>``, line 2 the names, then
                  ``edge <u> <v>`` lines.  Lines starting with # are skipped.
Morphism lines:   ``map <x> <y>`` (appended to a cover's graph file).
Word files:       whitespace-separated tokens ``v`` / ``v^-1``.

All writers are deterministic: fixed key order, repr floats, no timestamps;
files are written atomically (temp file + rename).
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile

import numpy as np

from .graphs import GraphMorphism, SimplicialGraph
from .words import Word, word_from_tokens


def vertex_name(v) -> str:
    """Flat printable name; doubles get +/- suffixes, fibers get .k."""
    if isinstance(v, tuple) and len(v) == 2:
        base, tag = v
        if tag == +1:
            return f"{vertex_name(base)}+"
        if tag == -1:
            return f"{vertex_name(base)}-"
        return f"{vertex_name(base)}.{tag}"
    return str(v)


def _content_lines(text: str):
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            yield line


def parse_graph(text: str) -> SimplicialGraph:
    lines = list(_content_lines(text))
    head = lines[0].split() if lines else []
    if len(head) != 2 or head[0] != "vertices" or not head[1].isdecimal():
        raise ValueError("graph file must start with a 'vertices <n>' line")
    n = int(head[1])
    if n == 0:
        names, rest = [], lines[1:]
    else:
        if len(lines) < 2:
            raise ValueError("missing vertex name line")
        names = lines[1].split()
        if len(names) != n:
            raise ValueError(f"expected {n} vertex names, got {len(names)}")
        rest = lines[2:]
    edges = []
    for line in rest:
        parts = line.split()
        if parts[0] == "edge":
            if len(parts) != 3:
                raise ValueError(f"bad edge line: {line}")
            edges.append((parts[1], parts[2]))
        elif parts[0] == "map":
            continue  # cover files carry their morphism inline
        else:
            raise ValueError(f"unrecognized line: {line}")
    return SimplicialGraph(names, edges)


def format_graph(g: SimplicialGraph) -> str:
    out = [f"vertices {len(g.vertices)}"]
    if g.vertices:
        out.append(" ".join(vertex_name(v) for v in g.vertices))
    for u, v in g.sorted_edges():
        out.append(f"edge {vertex_name(u)} {vertex_name(v)}")
    return "\n".join(out) + "\n"


def parse_morphism_lines(text: str, source: SimplicialGraph, target: SimplicialGraph) -> GraphMorphism:
    vmap = {}
    for line in _content_lines(text):
        parts = line.split()
        if parts[0] != "map":
            continue
        if len(parts) != 3:
            raise ValueError(f"bad map line: {line}")
        if not source.has_vertex(parts[1]):
            raise ValueError(f"map line names no vertex of the cover: {line}")
        if not target.has_vertex(parts[2]):
            raise ValueError(f"map line names no vertex of the base: {line}")
        if parts[1] in vmap:
            raise ValueError(f"map line repeats the source {parts[1]}: {line}")
        vmap[parts[1]] = parts[2]
    missing = [v for v in source.vertices if v not in vmap]
    if missing:
        raise ValueError(f"morphism misses vertices: {missing}")
    return GraphMorphism(source, target, vmap)


def parse_cover_file(text: str, base: SimplicialGraph):
    """A cover file is a graph file plus 'map <x> <y>' lines."""
    cover = parse_graph(text)
    morphism = parse_morphism_lines(text, cover, base)
    return cover, morphism


def format_cover_file(cover: SimplicialGraph, morphism: GraphMorphism) -> str:
    out = format_graph(cover)
    for x in cover.vertices:
        out += f"map {vertex_name(x)} {vertex_name(morphism.vertex_map[x])}\n"
    return out


def parse_word(text: str, graph: SimplicialGraph) -> Word:
    return word_from_tokens(graph, text.split())


def format_word(w: Word) -> str:
    return " ".join(w.tokens())


# ------------------------------ file plumbing -------------------------------


def atomic_write(path, data):
    """Write bytes or text through a temp file and rename into place."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    mode = "wb" if isinstance(data, bytes) else "w"
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, mode) as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def dump_csv(rows, fieldnames) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _fmt(row.get(k)) for k in fieldnames})
    return buf.getvalue()


def _fmt(x):
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (np.integer,)):
        return int(x)
    return x


def config_to_json(cfg) -> dict:
    g = cfg.graph
    return {
        "vertices": [vertex_name(v) for v in g.vertices],
        "edges": [[vertex_name(u), vertex_name(v)] for u, v in g.sorted_edges()],
        "circles": {
            vertex_name(v): {
                "center": [float(cfg.centers[v][0]), float(cfg.centers[v][1])],
                "radius": float(cfg.radii[v]),
                "width": float(cfg.widths[v]),
            }
            for v in g.vertices
        },
        "annuli": {
            vertex_name(v): {
                "r_inner": float(cfg.annuli[v].r_inner),
                "r_outer": float(cfg.annuli[v].r_outer),
            }
            for v in g.vertices
        },
        "punctures": {
            "on_circles": {
                vertex_name(v): cfg.punctures_on_circles[v].tolist() for v in g.vertices
            },
            "regions": [p.tolist() for p in cfg.region_points],
            "far_point": cfg.far_point.tolist(),
            "basepoint": cfg.basepoint.tolist(),
        },
        "nerve": [[vertex_name(u), vertex_name(v)] for u, v in g.sorted_edges()],
        "provenance": {"delta": float(cfg.provenance["delta"])},
    }


# ---------------------------------- SVG -------------------------------------


def _svg_header(xmin, ymin, xmax, ymax):
    size = 720  # width in pixels
    w = xmax - xmin
    h = ymax - ymin
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{int(size * h / w)}" viewBox="{xmin:.6f} {ymin:.6f} {w:.6f} {h:.6f}">\n'
        f'<g transform="scale(1,-1) translate(0,{-(ymin + ymax):.6f})">\n'
    )


_PALETTE = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#17becf", "#e377c2", "#7f7f7f", "#bcbd22",
]


def svg_configuration(cfg) -> str:
    g = cfg.graph
    pads = max(cfg.radii.values()) * 0.8
    cs = np.array([cfg.centers[v] for v in g.vertices])
    rs = np.array([cfg.radii[v] for v in g.vertices])
    xmin, ymin = (cs - rs[:, None]).min(0) - pads
    xmax, ymax = (cs + rs[:, None]).max(0) + pads
    out = [_svg_header(xmin, ymin, xmax, ymax)]
    stroke = (xmax - xmin) / 900
    for i, v in enumerate(g.vertices):
        color = _PALETTE[i % len(_PALETTE)]
        c, r, w = cfg.centers[v], cfg.radii[v], cfg.widths[v]
        for rr, op in ((r - w, 0.9), (r + w, 0.9)):
            out.append(
                f'<circle cx="{c[0]:.6f}" cy="{c[1]:.6f}" r="{rr:.6f}" fill="none" '
                f'stroke="{color}" stroke-width="{stroke:.6f}" opacity="{op}"/>\n'
            )
        out.append(
            f'<circle cx="{c[0]:.6f}" cy="{c[1]:.6f}" r="{r:.6f}" fill="none" '
            f'stroke="{color}" stroke-width="{stroke / 2:.6f}" stroke-dasharray="{4 * stroke:.6f}"/>\n'
        )
    for p in cfg.all_punctures():
        out.append(
            f'<circle cx="{p[0]:.6f}" cy="{p[1]:.6f}" r="{2.2 * stroke:.6f}" fill="#000"/>\n'
        )
    out.append("</g></svg>\n")
    return "".join(out)


def svg_disk_translates(assembled) -> str:
    """The unit disk with the translated annulus regions of an assembly drawn
    inside, coloured by word length."""
    out = [_svg_header(-1.05, -1.05, 1.05, 1.05)]
    out.append(
        '<circle cx="0" cy="0" r="1" fill="none" stroke="#000" stroke-width="0.004"/>\n'
    )
    every = assembled.all_pieces
    circles = (every.outer_center, every.outer_radius, every.inner_center, every.inner_radius)
    for length, oc, orad, ic, irad in zip(assembled.lengths.tolist(), *(col.tolist() for col in circles)):
        color = _PALETTE[length % len(_PALETTE)]
        for c, r in ((oc, orad), (ic, irad)):
            out.append(
                f'<circle cx="{c.real:.6f}" cy="{c.imag:.6f}" r="{r:.6f}" fill="none" '
                f'stroke="{color}" stroke-width="0.0025"/>\n'
            )
    out.append("</g></svg>\n")
    return "".join(out)


def svg_orbits(cfg, starts, ends) -> str:
    base = svg_configuration(cfg)
    head, tail = base.rsplit("</g></svg>", 1)
    seg = []
    stroke = max(cfg.radii.values()) / 250
    for a, b in zip(np.atleast_2d(starts), np.atleast_2d(ends)):
        seg.append(
            f'<line x1="{a[0]:.6f}" y1="{a[1]:.6f}" x2="{b[0]:.6f}" y2="{b[1]:.6f}" '
            f'stroke="#d62728" stroke-width="{stroke:.6f}"/>\n'
        )
        seg.append(
            f'<circle cx="{b[0]:.6f}" cy="{b[1]:.6f}" r="{1.8 * stroke:.6f}" fill="#d62728"/>\n'
        )
    return head + "".join(seg) + "</g></svg>\n"
