import argparse
import json
import pathlib

import pytest

from raagham import cli, graphs
from raagham.cli import (
    EXIT_INVALID,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_SOLVER,
    EXIT_VERIFICATION,
    main,
    make_parser,
)
from raagham.graphs import SimplicialGraph, complete_graph, double, path_graph
from raagham.textio import (
    dump_csv,
    format_cover_file,
    format_graph,
    format_word,
    parse_cover_file,
    parse_graph,
    parse_word,
)

P3_TEXT = "vertices 3\nu v w\nedge u v\nedge v w\n"
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

# the options of each verb: exactly the flags it reads
VERB_FLAGS = {
    "normal-form": {"--graph", "--word", "--out"},
    "word-eq": {"--graph", "--word", "--word2"},
    "double": {"--graph", "--out"},
    "check-cover": {"--graph", "--cover"},
    "emulator": {"--graph", "--max-sheets", "--out"},
    "certificate": {"--graph"},
    "build-config": {"--graph", "--out"},
    "build-rep": {"--graph", "--N", "--max-sheets", "--out"},
    "simulate": {"--graph", "--word", "--N", "--max-sheets", "--out"},
    "verify": {"--graph", "--N", "--max-sheets", "--samples", "--seed", "--out"},
    "probe-faithful": {"--graph", "--N", "--max-sheets", "--max-len", "--seed", "--out"},
    "lambda-decay": {"--depth", "--out"},
    "smooth-study": {"--depth", "--eps", "--out"},
    "polydisk": {"--eps", "--N", "--steps", "--n", "--seed", "--out"},
}


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

    def test_csv_deterministic(self):
        rows = [{"a": 0.1, "b": 2}, {"a": float(1/3), "b": -1}]
        assert dump_csv(rows, ["a", "b"]) == dump_csv(rows, ["a", "b"])


class TestParser:
    def test_each_verb_takes_only_the_flags_it_reads(self):
        sub = next(a for a in make_parser()._actions if isinstance(a, argparse._SubParsersAction))
        got = {
            name: {o for a in sp._actions for o in a.option_strings} - {"-h", "--help"}
            for name, sp in sub.choices.items()
        }
        assert got == VERB_FLAGS
        assert sum(map(len, got.values())) == 48

    def test_flag_a_verb_does_not_read_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            make_parser().parse_args(["normal-form", "--graph", "g.txt", "--word", "w.txt", "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    def test_polydisk_takes_one_eps(self, capsys):
        assert make_parser().parse_args(["polydisk", "--eps", "0.05"]).eps == 0.05
        with pytest.raises(SystemExit) as exc:
            make_parser().parse_args(["polydisk", "--eps", "0.1", "0.01"])
        assert exc.value.code == 2
        assert "unrecognized arguments: 0.01" in capsys.readouterr().err

    def test_readme_commands_parse(self):
        block = README.read_text().split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
        commands = [line.split("#")[0].split()[1:] for line in block.splitlines() if line.startswith("raagham ")]
        assert {argv[0] for argv in commands} == set(VERB_FLAGS)
        for argv in commands:
            assert make_parser().parse_args(argv).command == argv[0]


class TestCommands:
    def test_normal_form(self, workdir, capsys):
        assert main(["normal-form", "--graph", "p3.txt", "--word", "w.txt"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "u w v u^-1"

    def test_word_eq(self, workdir, capsys):
        code = main(["word-eq", "--graph", "p3.txt", "--word", "w.txt", "--word2", "w2.txt"])
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() == "different"

    def test_word_eq_by_normal_form(self, workdir, capsys):
        # unequal words whose shuffle closure outgrows the oracle's cap
        (workdir / "g6.txt").write_text("vertices 6\na b c d e f\nedge a b\n")
        (workdir / "w6.txt").write_text("a c d e f c d e\n")
        (workdir / "w6b.txt").write_text("a c d e f c d e f\n")
        code = main(["word-eq", "--graph", "g6.txt", "--word", "w6.txt", "--word2", "w6b.txt"])
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() == "different"
        code = main(["word-eq", "--graph", "g6.txt", "--word", "w6.txt", "--word2", "w6.txt"])
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() == "equal"

    def test_double(self, workdir, capsys):
        assert main(["double", "--graph", "p3.txt"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("vertices 6")
        assert "edge u+ v-" in out

    def test_out_given_as_working_directory(self, workdir):
        # normal-form and double write a file only when --out is given
        assert main(["normal-form", "--graph", "p3.txt", "--word", "w.txt"]) == EXIT_OK
        assert main(["double", "--graph", "p3.txt"]) == EXIT_OK
        assert not (workdir / "normal_form.txt").exists() and not (workdir / "double.txt").exists()
        assert main(["normal-form", "--graph", "p3.txt", "--word", "w.txt", "--out", "."]) == EXIT_OK
        assert (workdir / "normal_form.txt").read_text() == "u w v u^-1\n"
        assert main(["double", "--graph", "p3.txt", "--out", "."]) == EXIT_OK
        assert (workdir / "double.txt").read_text().startswith("vertices 6")

    def test_check_cover_pass_and_fail(self, workdir, capsys):
        main(["double", "--graph", "p3.txt", "--out", "d"])
        cover_text = (workdir / "d" / "double.txt").read_text()
        names = cover_text.splitlines()[1].split()
        maps = "".join(f"map {n} {n[:-1]}\n" for n in names)
        (workdir / "cover.txt").write_text(cover_text + maps)
        assert main(["check-cover", "--graph", "p3.txt", "--cover", "cover.txt"]) == EXIT_OK
        bad = cover_text + "".join(f"map {n} u\n" for n in names)
        (workdir / "bad.txt").write_text(bad)
        assert main(["check-cover", "--graph", "p3.txt", "--cover", "bad.txt"]) == EXIT_VERIFICATION

    @pytest.mark.parametrize(
        "line, why",
        [
            # zz is no vertex of the cover x-y: the line was ignored and the cover certified
            ("map zz b", "names no vertex of the cover"),
            # the last map line of y won, and the check reported a malformed edge (exit 1)
            ("map y a", "repeats the source y"),
        ],
    )
    def test_check_cover_rejects_a_bad_map_line(self, workdir, capsys, line, why):
        (workdir / "ab.txt").write_text("vertices 2\na b\nedge a b\n")
        (workdir / "cover.txt").write_text(f"vertices 2\nx y\nedge x y\nmap x a\nmap y b\n{line}\n")
        assert main(["check-cover", "--graph", "ab.txt", "--cover", "cover.txt"]) == EXIT_INVALID
        assert capsys.readouterr().err == f"invalid input: map line {why}: {line}\n"

    def test_check_cover_rejects_a_map_target_off_the_base(self, workdir, capsys):
        # the morphism test read {x, y} -> {a, zz} as a malformed edge (exit 1)
        (workdir / "ab.txt").write_text("vertices 2\na b\nedge a b\n")
        (workdir / "cover.txt").write_text("vertices 2\nx y\nedge x y\nmap x a\nmap y zz\n")
        assert main(["check-cover", "--graph", "ab.txt", "--cover", "cover.txt"]) == EXIT_INVALID
        assert capsys.readouterr().err == "invalid input: map line names no vertex of the base: map y zz\n"

    def test_certificate(self, workdir, capsys):
        (workdir / "k7.txt").write_text(format_graph(complete_graph(list("abcdefg"))))
        assert main(["certificate", "--graph", "k7.txt"]) == EXIT_OK
        assert "no planar emulator" in capsys.readouterr().out

    def test_invalid_input_exit_code(self, workdir):
        (workdir / "junk.txt").write_text("not a graph\n")
        assert main(["normal-form", "--graph", "junk.txt", "--word", "w.txt"]) == EXIT_INVALID
        # a header with no vertex count
        (workdir / "header.txt").write_text("vertices\n")
        assert main(["double", "--graph", "header.txt"]) == EXIT_INVALID
        # polydisk rejects these before it writes anything
        assert main(["polydisk", "--N", "1", "--out", "pd"]) == EXIT_INVALID
        assert main(["polydisk", "--eps", "-1", "--out", "pd"]) == EXIT_INVALID
        assert not (workdir / "pd").exists()

    @pytest.mark.parametrize("steps", ["0", "-5"])
    def test_polydisk_needs_a_step(self, workdir, capsys, steps):
        assert main(["polydisk", "--steps", steps, "--out", "pd"]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err == f"invalid input: steps={steps} must be at least 1\n"
        assert not (workdir / "pd").exists()

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    @pytest.mark.parametrize("verb", ["smooth-study", "polydisk"])
    def test_non_finite_eps_is_invalid(self, workdir, capsys, verb, eps):
        # a NaN eps is not <= 0: smooth-study wrote a nan row and exited 1, and
        # polydisk --eps inf failed as a solver error (exit 4)
        extra = ["--depth", "2", "--eps", eps, "0.1"] if verb == "smooth-study" else ["--eps", eps]
        assert main([verb, *extra, "--out", "bad"]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err == f"invalid input: mollifier parameter eps={eps} must be finite and positive\n"
        assert not (workdir / "bad").exists()

    @pytest.mark.parametrize("verb", ["smooth-study", "lambda-decay"])
    def test_negative_depth_is_invalid(self, workdir, capsys, verb):
        assert main([verb, "--depth", "-2", "--out", "neg"]) == EXIT_INVALID
        assert capsys.readouterr().err == "invalid input: word length L=-2 must be at least 0\n"
        assert not (workdir / "neg").exists()

    def test_negative_max_len_is_invalid(self, workdir, capsys):
        (workdir / "p2.txt").write_text(format_graph(path_graph(["a", "b"])))
        argv = ["probe-faithful", "--graph", "p2.txt", "--N", "2", "--max-len", "-1", "--out", "neg"]
        assert main(argv) == EXIT_INVALID
        assert capsys.readouterr().err == "invalid input: max_len=-1 must be at least 0\n"
        assert not (workdir / "neg").exists()

    def test_emulator_search_cap_exits_3(self, workdir, monkeypatch):
        (workdir / "k5.txt").write_text(format_graph(complete_graph(list("abcde"))))
        (workdir / "k5w.txt").write_text("a b^-1\n")
        for exhausted, emulator_code, build_code in (
            (False, EXIT_RESOURCE, EXIT_RESOURCE),
            (True, EXIT_VERIFICATION, EXIT_INVALID),
        ):
            found = graphs.NotFound(exhausted=exhausted, tried=7, reason="stub")
            monkeypatch.setattr(graphs, "find_planar_emulator", lambda g, max_sheets: found)
            assert main(["emulator", "--graph", "k5.txt", "--out", "e"]) == emulator_code
            for verb in ("verify", "build-rep", "probe-faithful"):
                assert main([verb, "--graph", "k5.txt", "--out", "o"]) == build_code
            argv = ["simulate", "--graph", "k5.txt", "--word", "k5w.txt", "--out", "o"]
            assert main(argv) == build_code
        assert not (workdir / "o").exists()

    def test_emulator_assignment_cap(self, workdir, monkeypatch):
        # the real search on K5 stops after the capped number of assignments
        monkeypatch.setattr(graphs, "EMULATOR_ASSIGNMENT_CAP", 3)
        k5 = complete_graph(list("abcde"))
        found = graphs.find_planar_emulator(k5, 2)
        assert found == graphs.NotFound(exhausted=False, tried=3, reason="assignment cap")
        (workdir / "k5.txt").write_text(format_graph(k5))
        assert main(["emulator", "--graph", "k5.txt", "--out", "e"]) == EXIT_RESOURCE
        assert not (workdir / "e").exists()

    def test_integration_failure_exits_4(self, workdir, capsys):
        # 5 steps of length 0.4: the implicit midpoint stage does not converge
        assert main(["polydisk", "--steps", "5", "--out", "pd"]) == EXIT_SOLVER
        err = capsys.readouterr().err
        assert err.startswith("solver did not converge: implicit midpoint stage")
        assert err.count("\n") == 1
        assert not (workdir / "pd").exists()

    def test_polydisk_records_flow_calls(self, workdir):
        # the benchmark's polydisk flows: 60 steps of 1/30 on 8 slice points;
        # the slice is invariant, so the D^3 flow makes the disk flow's calls
        assert main(["polydisk", "--n", "3", "--steps", "60", "--out", "pd"]) == EXIT_OK
        data = json.loads((workdir / "pd" / "polydisk.json").read_text())
        assert (data["polydisk_flow_calls"], data["slice_flow_calls"]) == (83, 83)
        assert data["off_slice_after_flow"] == data["slice_flow_agreement"] == 0.0

    def test_build_config_artifacts(self, workdir):
        code = main(["build-config", "--graph", "p3.txt", "--out", "cfg"])
        assert code == EXIT_OK
        data = json.loads((workdir / "cfg" / "config.json").read_text())
        assert set(data["circles"]) == {"u", "v", "w"}
        assert set(data["provenance"]) == {"delta"}
        assert len(data["punctures"]["regions"]) == 6
        assert (workdir / "cfg" / "config.svg").read_text().startswith("<svg")

    def test_verify_exit_zero(self, workdir):
        code = main([
            "verify", "--graph", "p3.txt", "--N", "2", "--seed", "7",
            "--samples", "60", "--out", "vrf",
        ])
        assert code == EXIT_OK
        payload = json.loads((workdir / "vrf" / "verification.json").read_text())
        assert payload["all_passed"] is True

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_verify_needs_a_sample(self, workdir, capsys, samples):
        code = main(["verify", "--graph", "p3.txt", "--N", "2", "--samples", samples, "--out", "vrf"])
        assert code == EXIT_INVALID
        assert capsys.readouterr().err == f"invalid input: samples={samples} must be at least 1\n"
        assert not (workdir / "vrf").exists()

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

    def test_smooth_study_honours_depth(self, workdir, monkeypatch):
        depths, study = [], cli._study_Hv
        monkeypatch.setattr(cli, "_study_Hv", lambda depth, tail: depths.append(depth) or study(depth, tail))
        for depth in (6, 4):
            assert main(["smooth-study", "--depth", str(depth), "--out", f"d{depth}"]) == EXIT_OK
        assert depths == [6, 4]
        # no grid point of |z| <= 0.9 lies on a translate of length 5 or 6
        csv = [(workdir / d / "smooth_study.csv").read_bytes() for d in ("d6", "d4")]
        assert csv[0] == csv[1]

    def test_smooth_study(self, workdir):
        code = main(["smooth-study", "--depth", "2", "--eps", "0.1", "0.01", "--out", "sm"])
        assert code == EXIT_OK
        text = (workdir / "sm" / "smooth_study.csv").read_text()
        assert text.splitlines()[0] == "eps,sup_difference"
