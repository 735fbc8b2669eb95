import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trophom
from trophom import InputError, cycle_graph, formats, plain, tgraph
from trophom.cli import main
from trophom.formats import (parse_digraph, parse_dimacs, parse_gadget,
                             parse_lists, parse_tropical, serialize_digraph,
                             serialize_gadget, serialize_lists,
                             serialize_tropical)
from trophom.gadgets import CnfFormula, NaeFormula, build_h9
from trophom.verify import cross_check_poly, roundtrip_h9_batch


class TestTropicalFormat:
    def test_basic_example(self):
        g = parse_tropical("tg 2 1\nc 0 Black\nc 1 White\ne 0 1\n")
        assert g.n == 2 and g.colours == ("Black", "White")
        assert g.edges == frozenset({(0, 1)})

    def test_comments_ignored(self):
        g = parse_tropical("# hello\ntg 1 0\n# mid\nc 0 X\n")
        assert g.n == 1

    def test_missing_colour(self):
        with pytest.raises(InputError, match="vertex 1 uncoloured"):
            parse_tropical("tg 2 1\nc 0 Black\ne 0 1\n")

    def test_duplicate_lines_rejected(self):
        with pytest.raises(InputError, match="coloured twice"):
            parse_tropical("tg 1 0\nc 0 A\nc 0 B\n")
        with pytest.raises(InputError, match="duplicate edge"):
            parse_tropical("tg 2 2\nc 0 A\nc 1 A\ne 0 1\ne 1 0\n")

    def test_errors_carry_line_numbers(self):
        with pytest.raises(InputError, match="line 3"):
            parse_tropical("tg 2 1\nc 0 A\nc 9 B\ne 0 1\n")

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_random_graphs(self, data):
        n = data.draw(st.integers(0, 9))
        edges = data.draw(st.sets(st.tuples(
            st.integers(0, max(0, n - 1)), st.integers(0, max(0, n - 1)))
            .filter(lambda e: e[0] != e[1]))) if n else set()
        tokens = ["Red", "B1", "x~y", "0"]
        colours = [data.draw(st.sampled_from(tokens)) for _ in range(n)]
        g = tgraph(n, edges, colours)
        assert parse_tropical(serialize_tropical(g)) == g

    def test_tuple_colours_serialize_stably(self):
        g = tgraph(2, [(0, 1)], [("Red", 0), ("Red", 1)])
        text = serialize_tropical(g)
        back = parse_tropical(text)
        assert back.colours == ("Red~0", "Red~1")
        assert parse_tropical(serialize_tropical(back)) == back

    def test_gadget_names_roundtrip(self):
        h9 = build_h9()
        back = parse_gadget(serialize_gadget(h9))
        assert back.graph == h9.graph
        assert dict(back.names) == dict(h9.names)


class TestDigraphFormat:
    def test_roundtrip(self):
        from trophom import dgraph
        d = dgraph(3, [(0, 1), (1, 2), (2, 0)])
        assert parse_digraph(serialize_digraph(d)) == d

    def test_loop_rejected(self):
        with pytest.raises(InputError):
            parse_digraph("dg 2 1\na 1 1\n")


class TestListsFormat:
    def test_example(self):
        lists = parse_lists("l 3 1 3 5\n")
        assert lists == {3: frozenset({1, 3, 5})}

    def test_roundtrip(self):
        lists = {0: frozenset({1, 2}), 2: frozenset({4})}
        assert parse_lists(serialize_lists(lists)) == lists


class TestDimacs:
    def test_single_clause(self):
        f = parse_dimacs("p cnf 1 1\n1 0\n")
        assert f.n_vars == 1 and f.clauses == (((0, True),),)

    def test_negative_literal_under_nae(self):
        with pytest.raises(InputError, match="negative literal"):
            parse_dimacs("p cnf 3 1\n1 -1 2 0\n", nae=True)

    def test_nae_parses_to_variable_triples(self):
        f = parse_dimacs("p cnf 4 2\n1 2 3 0\n2 3 4 0\n", nae=True)
        assert f.clauses == ((0, 1, 2), (1, 2, 3))

    def test_multiline_clause(self):
        f = parse_dimacs("p cnf 3 1\n1 2\n3 0\n")
        assert f.clauses == (((0, True), (1, True), (2, True)),)

    def test_header_mismatch(self):
        with pytest.raises(InputError, match="declares"):
            parse_dimacs("p cnf 2 2\n1 2 0\n")


NAE_DIMACS = functools.partial(parse_dimacs, nae=True)
# (parser, text, the InputError text): every malformed input above, files
# cut short before and inside a record, and one case per message.
MALFORMED = [
    (parse_tropical, 'tg 2 1\nc 0 Black\ne 0 1\n', 'vertex 1 uncoloured'),
    (parse_tropical, 'tg 1 0\nc 0 A\nc 0 B\n',
     'line 3: vertex 0 coloured twice'),
    (parse_tropical, 'tg 2 2\nc 0 A\nc 1 A\ne 0 1\ne 1 0\n',
     'line 5: duplicate edge 1,0'),
    (parse_tropical, 'tg 2 1\nc 0 A\nc 9 B\ne 0 1\n',
     'line 3: vertex 9 out of range'),
    (parse_tropical, '', 'unexpected end of input'),
    (parse_tropical, '# only a comment\n\n', 'unexpected end of input'),
    (parse_tropical, 'tg 2 1\nc 0 A\nc 1 B\ne 0',
     "line 4: expected 'e <u> <v>'"),
    (parse_tropical, 'tg 3 2\nc 0 A\nc 1 B\nc 2 A\ne 0 1\n',
     'header declares 2 edges, found 1'),
    (parse_tropical, 'tg 2\n', "line 1: expected header 'tg <n> <m>'"),
    (parse_tropical, 'dg 2 1\n', "line 1: expected header 'tg <n> <m>'"),
    (parse_tropical, 'tg x 1\n',
     "line 1: vertex count must be an integer, got 'x'"),
    (parse_tropical, 'tg 2 y\n',
     "line 1: edge count must be an integer, got 'y'"),
    (parse_tropical, 'tg 2 0\nc z A\n',
     "line 2: vertex must be an integer, got 'z'"),
    (parse_tropical, 'tg 2 0\nc 0\n',
     "line 2: expected 'c <vertex> <colour>'"),
    (parse_tropical, 'tg 2 1\nc 0 A\nc 1 A\ne 0 q\n',
     "line 4: endpoint must be an integer, got 'q'"),
    (parse_tropical, 'tg 2 1\nc 0 A\nc 1 A\ne 0 5\n',
     'line 4: edge 0,5 out of range'),
    (parse_tropical, 'tg 2 1\nc 0 A\nc 1 A\ne 1 1\n',
     'line 4: self-loop at 1'),
    (parse_tropical, 'tg 2 1\n  # indented comment\nc 0 A\nc 1 A\nx 0 1\n',
     "line 5: unknown record 'x'"),
    (parse_digraph, 'dg 2 1\na 1 1\n', 'line 2: loop at 1'),
    (parse_digraph, '', 'unexpected end of input'),
    (parse_digraph, 'dg 2 1\na 0 1\na 0 1\n', 'line 3: duplicate arc 0,1'),
    (parse_digraph, 'dg 2 1\na 0 3\n', 'line 2: arc 0,3 out of range'),
    (parse_digraph, 'dg 2 1\nb 0 1\n', "line 2: expected 'a <u> <v>'"),
    (parse_digraph, 'dg 2 2\na 0 1\n', 'header declares 2 arcs, found 1'),
    (parse_digraph, 'dg 2 1\na t 1\n',
     "line 2: tail must be an integer, got 't'"),
    (parse_lists, 'l 0 1\nl 0 2\n', 'line 2: vertex 0 listed twice'),
    (parse_lists, 'l\n', "line 1: expected 'l <vertex> <values...>'"),
    (parse_lists, 'm 0 1\n', "line 1: expected 'l <vertex> <values...>'"),
    (parse_lists, 'l 0 x\n', "line 1: list entry must be an integer, got 'x'"),
    (NAE_DIMACS, 'p cnf 3 1\n1 -1 2 0\n',
     'line 2: negative literal -1 in a not-all-equal formula'),
    (parse_dimacs, 'p cnf 2 2\n1 2 0\n', 'header declares 2 clauses, found 1'),
    (parse_tropical, 'tg 100001 0\n',
     'line 1: vertex count 100001 is past the cap MAX_VERTICES = 100000'),
    (parse_tropical, 'tg 2 1000001\n',
     'line 1: edge count 1000001 is past the cap MAX_EDGES = 1000000'),
    (parse_digraph, '# big\ndg 200000 0\n',
     'line 2: vertex count 200000 is past the cap MAX_VERTICES = 100000'),
    (parse_digraph, 'dg 2 1000001\n',
     'line 1: arc count 1000001 is past the cap MAX_EDGES = 1000000'),
    (parse_lists, 'l 0 1\nl 100000 1\n',
     'line 2: vertex 100000 is past the cap MAX_VERTICES = 100000'),
    (parse_dimacs, 'p cnf 100001 1\n1 2 3 0\n',
     'line 1: variable count 100001 is past the cap MAX_VERTICES = 100000'),
    (NAE_DIMACS, 'c big\np cnf 3 1000001\n',
     'line 2: clause count 1000001 is past the cap MAX_EDGES = 1000000'),
]


@pytest.mark.parametrize("parse, text, message", MALFORMED)
def test_malformed_input_messages(parse, text, message):
    with pytest.raises(InputError) as caught:
        parse(text)
    assert str(caught.value) == message


def test_caps_admit_a_graph_of_exactly_their_size(monkeypatch):
    monkeypatch.setattr(formats, "MAX_VERTICES", 3)
    monkeypatch.setattr(formats, "MAX_EDGES", 2)
    g = parse_tropical("tg 3 2\nc 0 A\nc 1 A\nc 2 A\ne 0 1\ne 1 2\n")
    assert (g.n, len(g.edges)) == (3, 2)
    assert parse_digraph("dg 3 2\na 0 1\na 1 0\n").n == 3
    assert set(parse_lists("l 2 0\n")) == {2}
    assert parse_dimacs("p cnf 3 2\n1 0\n-3 0\n").n_vars == 3
    for parse, text in [(parse_tropical, "tg 4 0\n"),
                        (parse_tropical, "tg 3 3\n"),
                        (parse_lists, "l 3 0\n"),
                        (parse_dimacs, "p cnf 2 3\n")]:
        with pytest.raises(InputError, match="past the cap"):
            parse(text)


def test_models_refuse_negative_counts():
    for build in (lambda: trophom.Digraph(-1, frozenset()),
                  lambda: CnfFormula(-1, ()),
                  lambda: NaeFormula(-1, ()),
                  lambda: trophom.TwoSatFormula(-1, ())):
        with pytest.raises(InputError, match="must be nonnegative"):
            build()


@pytest.mark.parametrize("trials", [-5, -1, 0])
def test_verifiers_refuse_trial_counts_below_one(trials):
    # A batch of no trials checks nothing and so may not report PASS.
    h9 = build_h9().graph
    for run in (lambda: roundtrip_h9_batch(trials, 7),
                lambda: cross_check_poly(h9, trials, 7)):
        with pytest.raises(InputError, match="trials must be at least 1"):
            run()


# A file with a negative count or vertex index, and a command that reads
# it: "{input}" is that file, "{graph}" an edge and "{out}" an output path.
NEGATIVE = [
    pytest.param("dg -3 0\n", ["gadget", "tropicalize", "--in", "{input}",
                               "--out", "{out}"], id="dg-vertices"),
    pytest.param("dg 2 -1\n", ["gadget", "tropicalize", "--in", "{input}",
                               "--out", "{out}"], id="dg-arcs"),
    pytest.param("tg -1 0\n", ["core", "--in", "{input}", "--out", "{out}"],
                 id="tg-vertices"),
    pytest.param("p cnf -1 0\n", ["gadget", "nae3sat", "--cnf", "{input}",
                                  "--out", "{out}"], id="cnf-variables"),
    pytest.param("p cnf -1 0\n", ["verify", "roundtrip", "--kind",
                                  "nae3sat", "--cnf", "{input}"],
                 id="cnf-variables-roundtrip"),
    pytest.param("p cnf 3 -1\n", ["gadget", "nae3sat", "--cnf", "{input}",
                                  "--out", "{out}"], id="cnf-clauses"),
    pytest.param("l -1 2 3\n", ["enumerate", "--source", "{graph}",
                                "--target", "{graph}", "--limit", "1",
                                "--lists", "{input}"], id="lists-enumerate"),
    pytest.param("l -1 2 3\n", ["gadget", "h9-instance", "--source",
                                "{graph}", "--lists", "{input}",
                                "--out", "{out}"], id="lists-h9-instance"),
]


class TestCli:
    def tg(self, tmp_path, name, graph):
        path = tmp_path / name
        path.write_text(serialize_tropical(graph))
        return str(path)

    def test_solve_identity(self, tmp_path, capsys):
        path = self.tg(tmp_path, "e.tg", tgraph(2, [(0, 1)], ["B", "W"]))
        code = main(["solve", "--source", path, "--target", path,
                     "--witness"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines() == ["solvable", "map 0 0", "map 1 1"]

    def test_solve_unsolvable_exit_code(self, tmp_path, capsys):
        odd = self.tg(tmp_path, "c5.tg", cycle_graph(["B"] * 5))
        even = self.tg(tmp_path, "e.tg", plain(2, [(0, 1)], colour="B"))
        assert main(["solve", "--source", odd, "--target", even]) == 1

    def test_solve_modes_agree(self, tmp_path, capsys):
        g = self.tg(tmp_path, "g.tg", cycle_graph(["R", "B"] * 3))
        for mode in ("auto", "exact"):
            assert main(["solve", "--source", g, "--target", g,
                         "--mode", mode]) == 0
        # poly only repeated auto, and brute ran the engine, not an oracle
        for mode in ("poly", "brute"):
            assert main(["solve", "--source", g, "--target", g,
                         "--mode", mode]) == 2
            assert "invalid choice" in capsys.readouterr().err

    def test_output_deterministic(self, tmp_path, capsys):
        g = self.tg(tmp_path, "g.tg", cycle_graph(["R", "B", "G"] * 2))
        main(["solve", "--source", g, "--target", g, "--witness",
              "--report"])
        first = capsys.readouterr().out
        main(["solve", "--source", g, "--target", g, "--witness",
              "--report"])
        assert capsys.readouterr().out == first

    def test_core_command(self, tmp_path, capsys):
        path = self.tg(tmp_path, "c6.tg", cycle_graph(["B", "W"] * 3))
        out_path = str(tmp_path / "core.tg")
        assert main(["core", "--in", path, "--out", out_path]) == 0
        core_graph = parse_tropical(open(out_path).read())
        assert core_graph.n == 2

    def test_features_command(self, tmp_path, capsys):
        path = self.tg(tmp_path, "h9.tg", build_h9().graph)
        assert main(["features", "--target", path]) == 0
        out = capsys.readouterr().out
        assert '"type1"' in out

    def test_enumerate_command(self, tmp_path, capsys):
        k3 = plain(3, [(0, 1), (1, 2), (0, 2)])
        c4 = plain(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        src = self.tg(tmp_path, "c4.tg", c4)
        tgt = self.tg(tmp_path, "k3.tg", k3)
        assert main(["enumerate", "--source", src, "--target", tgt,
                     "--limit", "5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("count 5 truncated yes")

    def test_gadget_emission_reparses(self, tmp_path, capsys):
        for args in (["gadget", "h9"], ["gadget", "c48"],
                     ["gadget", "s-block", "--block", "S1T"]):
            out_path = str(tmp_path / "out.tg")
            assert main(args + ["--out", out_path]) == 0
            parse_gadget(open(out_path).read())

    def test_gadget_nae3sat(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 3 1\n1 2 3 0\n")
        out_path = str(tmp_path / "g.tg")
        assert main(["gadget", "nae3sat", "--cnf", str(cnf),
                     "--out", out_path]) == 0
        g = parse_gadget(open(out_path).read())
        assert g.graph.n == 1 + 53 * 3 + 132 + 33

    def test_gadget_h9_instance(self, tmp_path, capsys):
        src = self.tg(tmp_path, "src.tg", plain(2, [(0, 1)]))
        lists = tmp_path / "lists.txt"
        lists.write_text("l 0 1 3\nl 1 2 4\n")
        out_path = str(tmp_path / "inst.tg")
        assert main(["gadget", "h9-instance", "--source", src,
                     "--lists", str(lists), "--out", out_path]) == 0

    def test_gadget_tropicalize_and_zigzag(self, tmp_path, capsys):
        dg = tmp_path / "d.dg"
        dg.write_text("dg 2 1\na 0 1\n")
        assert main(["gadget", "tropicalize", "--in", str(dg),
                     "--out", str(tmp_path / "t.tg")]) == 0
        h = self.tg(tmp_path, "h.tg", plain(3, [(0, 1), (1, 2)]))
        assert main(["gadget", "zigzag", "--graph", h,
                     "--out", str(tmp_path / "z.tg")]) == 0

    def test_oversized_digraph_header_writes_nothing(self, tmp_path,
                                                     capsys):
        # One header line must not make tropicalize build and write a
        # gadget of any size it names.
        dg = tmp_path / "big.dg"
        dg.write_text("dg 200000 0\n")
        out = tmp_path / "t.tg"
        assert main(["gadget", "tropicalize", "--in", str(dg),
                     "--out", str(out)]) == 2
        assert "past the cap MAX_VERTICES" in capsys.readouterr().err
        assert not out.exists()

    def test_nae_instance_past_the_cap_is_refused_before_it_is_built(
            self, tmp_path, capsys):
        # The NAE instance grows with the cube of the variable count: 17
        # variables give 96969 vertices before clauses, 18 give 115822
        # and 33 more per clause.
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 18 1\n1 2 3 0\n")
        out = tmp_path / "g.tg"
        assert main(["gadget", "nae3sat", "--cnf", str(cnf),
                     "--out", str(out)]) == 2
        assert "18 variables would have 115855 vertices, past the cap " \
            "MAX_VERTICES = 100000" in capsys.readouterr().err
        assert not out.exists()

    def test_zigzag_past_the_cap_is_refused_before_it_is_built(
            self, tmp_path, capsys):
        # The zig-zag graph grows with the square of its input's order:
        # 115 disjoint edges give l = 117, k = 118 and 230 + 115 * 459 +
        # 115 * 463 vertices.
        h = plain(230, [(2 * i, 2 * i + 1) for i in range(115)])
        out = tmp_path / "z.tg"
        assert main(["gadget", "zigzag", "--graph",
                     self.tg(tmp_path, "h.tg", h), "--out", str(out)]) == 2
        assert "the zig-zag graph of a 230-vertex input would have 106260 " \
            "vertices, past the cap MAX_VERTICES = 100000" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_half_order_past_the_cap_is_refused(self, tmp_path, capsys):
        # Every --k reaches _arc_extras, which refuses before its loop of
        # one step per unit of half-order.
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 3 1\n1 2 3 0\n")
        out = tmp_path / "g.tg"
        for args in (["gadget", "c48", "--out", str(out)],
                     ["gadget", "nae3sat", "--cnf", str(cnf),
                      "--out", str(out)],
                     ["verify", "roundtrip", "--kind", "nae3sat",
                      "--cnf", str(cnf)]):
            assert main(args + ["--k", "100000000"]) == 2
            assert "the cycle of half-order 100000000 would have " \
                "200000000 vertices, past the cap MAX_VERTICES = 100000" \
                in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, args", NEGATIVE)
    def test_negative_counts_are_refused(self, tmp_path, capsys, text, args):
        (tmp_path / "input").write_text(text)
        fill = {"input": str(tmp_path / "input"),
                "graph": self.tg(tmp_path, "g.tg", plain(2, [(0, 1)])),
                "out": str(tmp_path / "out.tg")}
        before = sorted(tmp_path.iterdir())
        assert main([a.format(**fill) for a in args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "is negative" in err
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("args", [
        ["verify", "roundtrip", "--kind", "h9", "--trials", "-5"],
        ["verify", "roundtrip", "--kind", "h9", "--trials", "0"],
        ["verify", "cross-check", "--target", "{h9}", "--trials", "0"],
        ["verify", "cross-check", "--target", "{h9}", "--trials", "-1"],
    ], ids=["h9-minus-5", "h9-0", "cross-check-0", "cross-check-minus-1"])
    def test_trial_counts_below_one_are_refused(self, tmp_path, capsys,
                                                args):
        h9 = self.tg(tmp_path, "h9.tg", build_h9().graph)
        assert main([a.format(h9=h9) for a in args]) == 2
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert captured.err.startswith("error: trials must be at least 1")

    def test_verify_commands(self, capsys):
        assert main(["verify", "pq-lemma"]) == 0
        assert main(["verify", "c48-claim", "--json"]) == 0
        out = capsys.readouterr().out
        assert '"passed": true' in out
        assert main(["verify", "zigzag", "--l", "3", "--k", "4"]) == 0
        capsys.readouterr()
        assert main(["verify", "zigzag", "--l", "3"]) == 0
        assert "(l=3, k=4)" in capsys.readouterr().out

    def test_verify_roundtrip_and_crosscheck(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 3 1\n1 2 3 0\n")
        assert main(["verify", "roundtrip", "--kind", "nae3sat",
                     "--cnf", str(cnf)]) == 0
        assert main(["verify", "roundtrip", "--kind", "h9",
                     "--trials", "10"]) == 0
        path = self.tg(tmp_path, "h9.tg", build_h9().graph)
        assert main(["verify", "cross-check", "--target", path,
                     "--trials", "30"]) == 0

    def test_usage_errors(self, tmp_path, capsys):
        assert main(["frobnicate"]) == 2
        assert main(["solve", "--source", "/nope.tg",
                     "--target", "/nope.tg"]) == 2
        assert main(["solve", "--unknown-flag"]) == 2
        bad = tmp_path / "bad.tg"
        bad.write_text("tg 1 0\n")  # uncoloured vertex
        assert main(["features", "--target", str(bad)]) == 2

    def test_python_m_entry_point(self, tmp_path):
        src = str(Path(trophom.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src,
                                             os.environ.get("PYTHONPATH")]))
        missing = str(tmp_path / "missing.tg")
        run = subprocess.run(
            [sys.executable, "-m", "trophom", "solve", "--source", missing,
             "--target", missing],
            env={**os.environ, "PYTHONPATH": path}, capture_output=True,
            text=True, timeout=60)
        assert run.returncode == 2
        assert "cannot read" in run.stderr
