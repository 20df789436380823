import json
import os

import pytest

from raagham.cli import EXIT_INVALID, EXIT_OK, EXIT_VERIFICATION, main
from raagham.graphs import SimplicialGraph, complete_graph, double, path_graph
from raagham.textio import (
    dump_csv,
    format_cover_file,
    format_graph,
    format_homomorphism,
    format_word,
    parse_cover_file,
    parse_graph,
    parse_homomorphism,
    parse_word,
)
from raagham.words import hom_diagonal

P3_TEXT = "vertices 3\nu v w\nedge u v\nedge v w\n"


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    (tmp_path / "p3.txt").write_text(P3_TEXT)
    (tmp_path / "w.txt").write_text("w u v u^-1\n")
    (tmp_path / "w2.txt").write_text("u w u^-1 v\n")
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestFormats:
    def test_graph_roundtrip(self):
        g = path_graph(["u", "v", "w"])
        assert parse_graph(format_graph(g)) == g
        assert parse_graph(P3_TEXT) == g

    def test_empty_graph(self):
        g = SimplicialGraph([], [])
        assert parse_graph(format_graph(g)) == g

    def test_bad_graph_rejected(self):
        with pytest.raises(ValueError):
            parse_graph("edges first\n")
        with pytest.raises(ValueError):
            parse_graph("vertices 2\na b\nedge a c\n")

    def test_word_roundtrip(self):
        g = parse_graph(P3_TEXT)
        w = parse_word("u v^-1 w u", g)
        assert parse_word(format_word(w), g) == w

    def test_cover_file_roundtrip(self):
        g = path_graph(["u", "v", "w"])
        dg = double(g)
        from raagham.graphs import double_projection

        proj = double_projection(g)
        text = format_cover_file(dg, proj)
        # names are flattened on write, so reparse against flat names
        cover2, morphism2 = parse_cover_file(text, g)
        assert len(cover2.vertices) == 6
        assert sorted(morphism2.vertex_map.values()) == sorted(
            ["u", "u", "v", "v", "w", "w"]
        )

    def test_homomorphism_roundtrip(self):
        g = SimplicialGraph(["u", "v"], [])
        text = "image u := u v\nimage v := v^-1\n"
        h = parse_homomorphism(text, g, g)
        assert format_homomorphism(h) == text

    def test_csv_deterministic(self):
        rows = [{"a": 0.1, "b": 2}, {"a": float(1/3), "b": -1}]
        assert dump_csv(rows, ["a", "b"]) == dump_csv(rows, ["a", "b"])


class TestCommands:
    def test_normal_form(self, workdir, capsys):
        assert main(["normal-form", "--graph", "p3.txt", "--word", "w.txt"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "u w v u^-1"

    def test_word_eq(self, workdir, capsys):
        code = main(["word-eq", "--graph", "p3.txt", "--word", "w.txt", "--word2", "w2.txt"])
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() == "different"

    def test_double(self, workdir, capsys):
        assert main(["double", "--graph", "p3.txt"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("vertices 6")
        assert "edge u+ v-" in out

    def test_check_cover_pass_and_fail(self, workdir, capsys):
        main(["double", "--graph", "p3.txt", "--out", "d"])
        cover_text = (workdir / "d" / "double.txt").read_text()
        for line in cover_text.splitlines():
            if line.startswith("vertices") or line.startswith("edge"):
                pass
        names = cover_text.splitlines()[1].split()
        maps = "".join(f"map {n} {n[:-1]}\n" for n in names)
        (workdir / "cover.txt").write_text(cover_text + maps)
        assert main(["check-cover", "--graph", "p3.txt", "--cover", "cover.txt"]) == EXIT_OK
        bad = cover_text + "".join(f"map {n} u\n" for n in names)
        (workdir / "bad.txt").write_text(bad)
        assert main(["check-cover", "--graph", "p3.txt", "--cover", "bad.txt"]) == EXIT_VERIFICATION

    def test_certificate(self, workdir, capsys):
        (workdir / "k7.txt").write_text(format_graph(complete_graph(list("abcdefg"))))
        assert main(["certificate", "--graph", "k7.txt"]) == EXIT_OK
        assert "no planar emulator" in capsys.readouterr().out

    def test_invalid_input_exit_code(self, workdir):
        (workdir / "junk.txt").write_text("not a graph\n")
        assert main(["normal-form", "--graph", "junk.txt", "--word", "w.txt"]) == EXIT_INVALID

    def test_build_config_artifacts(self, workdir):
        code = main(["build-config", "--graph", "p3.txt", "--out", "cfg"])
        assert code == EXIT_OK
        data = json.loads((workdir / "cfg" / "config.json").read_text())
        assert set(data["circles"]) == {"u", "v", "w"}
        assert set(data["provenance"]) == {"delta"}
        assert len(data["punctures"]["regions"]) == 6
        assert (workdir / "cfg" / "config.svg").read_text().startswith("<svg")

    def test_config_naming_grid_rejected(self, workdir, capsys):
        (workdir / "grid.json").write_text('{"grid": 512}')
        code = main(["build-config", "--graph", "p3.txt", "--config", "grid.json", "--out", "cfg"])
        assert code == EXIT_INVALID
        assert "unknown config key 'grid'" in capsys.readouterr().err

    def test_verify_exit_zero(self, workdir):
        code = main([
            "verify", "--graph", "p3.txt", "--N", "2", "--seed", "7",
            "--samples", "60", "--out", "vrf",
        ])
        assert code == EXIT_OK
        payload = json.loads((workdir / "vrf" / "verification.json").read_text())
        assert payload["all_passed"] is True

    def test_simulate(self, workdir):
        code = main([
            "simulate", "--graph", "p3.txt", "--word", "w.txt", "--N", "2",
            "--out", "sim",
        ])
        assert code == EXIT_OK
        assert (workdir / "sim" / "orbits.csv").exists()
        assert (workdir / "sim" / "orbits.svg").exists()

    def test_lambda_decay_prints_fit_rows(self, workdir, capsys):
        assert main(["lambda-decay", "--depth", "4", "--out", "ld"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "slope fits kept {1: " in out and "of 161 rows" in out

    def test_smooth_study(self, workdir):
        code = main(["smooth-study", "--depth", "2", "--eps", "0.1", "0.01", "--out", "sm"])
        assert code == EXIT_OK
        text = (workdir / "sm" / "smooth_study.csv").read_text()
        assert text.splitlines()[0] == "eps,sup_difference"
