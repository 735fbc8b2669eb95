import random

from trophom import (core, cycle_graph, find_proper_retract, is_core,
                     iso_check, path_graph, plain, solve_list_hom,
                     solve_trop_hom, tgraph, validate_hom)
from trophom import cores
from trophom.solver import colour_lists
from trophom.gadgets import build_c48, build_h9
from trophom.testing import random_tropical
from trophom.verify import list_homs, trop_hom_brute


def min_endomorphism_image(g):
    """Oracle: smallest image size over all colour-preserving endomorphisms,
    by direct enumeration over colour-respecting candidates."""
    classes = g.colour_classes()
    lists = {v: classes[g.colours[v]] for v in range(g.n)}
    return min(len(set(h.values())) for h in list_homs(g, g, lists))


def per_subgraph_retract(g):
    """The retract search as one list solve per vertex-deleted induced
    subgraph, mapped back through the subgraph's index map."""
    for v in range(g.n):
        sub, old = g.induced([u for u in range(g.n) if u != v])
        out = solve_list_hom(g, sub, colour_lists(g, sub))
        if out.solvable:
            return {u: old[out.witness[u]] for u in range(g.n)}
    return None


def per_subgraph_core(g):
    """(graph, retained, hom) by restarting that search after every
    retract."""
    current, retained = g, tuple(range(g.n))
    hom = {v: v for v in range(g.n)}
    while True:
        retract = per_subgraph_retract(current)
        if retract is None:
            return current, retained, hom
        current, old = current.induced(sorted(set(retract.values())))
        pos = {o: i for i, o in enumerate(old)}
        retained = tuple(retained[o] for o in old)
        hom = {v: pos[retract[cur]] for v, cur in hom.items()}


def fold_reference(g):
    """The dominated-vertex fold with plain sets: ascending sweeps delete
    u for the smallest other live w of its colour whose neighbourhood
    holds u's live neighbours, until a sweep deletes nothing.  Returns
    (kept vertices, vertex -> kept vertex it folds onto)."""
    live = set(range(g.n))
    onto = {}
    swept = False
    while not swept:
        swept = True
        for u in range(g.n):
            if u not in live:
                continue
            mine = g.adjacency[u] & live
            for w in sorted(live):
                if (w != u and g.colours[w] == g.colours[u]
                        and mine <= g.adjacency[w]):
                    onto[u] = w
                    live.remove(u)
                    swept = False
                    break

    def image(v):
        while v in onto:
            v = onto[v]
        return v

    return sorted(live), {v: image(v) for v in range(g.n)}


def folded_per_subgraph_core(g):
    """per_subgraph_core run on the folded graph, read back on g."""
    kept, image = fold_reference(g)
    sub, old = g.induced(kept)
    graph, retained, hom = per_subgraph_core(sub)
    pos = {o: i for i, o in enumerate(old)}
    return (graph, tuple(old[r] for r in retained),
            {v: hom[pos[image[v]]] for v in range(g.n)})


def assert_core_matches(g):
    """core(g) equals the folded reference exactly (graph, retained, hom
    order) and the unfolded one up to isomorphism."""
    graph, retained, hom = folded_per_subgraph_core(g)
    result = core(g)
    assert result.graph == graph
    assert result.retained == retained
    assert list(result.hom.items()) == list(hom.items())
    unfolded = per_subgraph_core(g)[0]
    assert result.graph.n == unfolded.n
    assert iso_check(result.graph, unfolded)


def seeded_graphs(seed, count):
    """Orders 1-9 over one to three colours, sparse to dense."""
    rng = random.Random(seed)
    palettes = (["a"], ["a", "b"], ["a", "b", "c"])
    for _ in range(count):
        yield random_tropical(rng, 9, rng.choice(palettes),
                              edge_prob=rng.choice((0.2, 0.35, 0.5)))


class TestFindProperRetract:
    def test_c6_with_monochromatic_sides(self):
        g = cycle_graph(["Black", "White"] * 3)
        assert min_endomorphism_image(g) == 2  # oracle: folds to one edge
        h = find_proper_retract(g)
        assert h is not None
        assert validate_hom(g, g, h)
        assert len(set(h.values())) < g.n

    def test_single_vertex_has_none(self):
        assert find_proper_retract(plain(1, [])) is None

    def test_alternating_path_folds_onto_edge(self):
        g = path_graph(["a", "b", "a", "b"])
        assert min_endomorphism_image(g) == 2
        h = find_proper_retract(g)
        assert h is not None and validate_hom(g, g, h)

    def test_matches_per_subgraph_search(self):
        for g in seeded_graphs(203, 200):
            want = per_subgraph_retract(g)
            got = find_proper_retract(g)
            assert got == want
            assert got is None or list(got.items()) == list(want.items())
            assert_core_matches(g)


class TestCore:
    def test_distinct_edge_is_its_own_core(self):
        g = tgraph(2, [(0, 1)], ["Black", "White"])
        result = core(g)
        assert result.graph == g
        assert result.hom == {0: 0, 1: 1}

    def test_c6_monochromatic_sides_core_size(self):
        g = cycle_graph(["Black", "White"] * 3)
        result = core(g)
        assert result.graph.n == min_endomorphism_image(g) == 2
        assert validate_hom(g, result.graph,
                            result.hom)

    def test_h9_is_a_core(self):
        h9 = build_h9().graph
        # oracle: no endomorphism has a proper image (colour lists make
        # this a 6^6 enumeration)
        assert min_endomorphism_image(h9) == h9.n
        assert is_core(h9)
        result = core(h9)
        assert result.graph == h9

    def test_core_is_induced_and_mapped_onto(self):
        rng = random.Random(99)
        for _ in range(30):
            g = random_tropical(rng, 7, ["a", "b"])
            result = core(g)
            sub, _old = g.induced(result.retained)
            assert sub == result.graph
            assert validate_hom(g, result.graph, result.hom)
            assert set(result.hom.values()) == set(range(result.graph.n))

    def test_idempotent_up_to_iso(self):
        rng = random.Random(100)
        for _ in range(30):
            g = random_tropical(rng, 7, ["a", "b"])
            once = core(g).graph
            twice = core(once).graph
            assert iso_check(once, twice)

    def test_unique_up_to_iso_under_reordered_elimination(self):
        rng = random.Random(101)
        for _ in range(20):
            g = random_tropical(rng, 7, ["a", "b"])
            order = list(range(g.n))
            rng.shuffle(order)
            # relabel v -> order[v]: retract search meets the vertices of
            # the copy in another order
            colours = [None] * g.n
            for v in range(g.n):
                colours[order[v]] = g.colours[v]
            relabelled = tgraph(g.n, [(order[u], order[v])
                                      for u, v in g.edges], colours)
            assert iso_check(core(g).graph, core(relabelled).graph)

    def test_retract_attempts_at_most_order(self, monkeypatch):
        attempts = []
        solve = cores._first_solution

        def counted(csp, doms):
            attempts.append(1)
            return solve(csp, doms)

        monkeypatch.setattr(cores, "_first_solution", counted)
        graphs = [cycle_graph(["Black", "White"] * 3)]
        graphs += seeded_graphs(204, 150)
        most = 0
        for g in graphs:
            attempts.clear()
            core(g)
            assert len(attempts) <= g.n
            most = max(most, len(attempts))
        assert most > 1  # the counter sees core's solves

    def test_solvability_transfer(self):
        rng = random.Random(102)
        for _ in range(40):
            g = random_tropical(rng, 7, ["a", "b"])
            h = random_tropical(rng, 7, ["a", "b"])
            direct = solve_trop_hom(g, h).solvable
            reduced = solve_trop_hom(core(g).graph, core(h).graph).solvable
            assert direct == reduced


class TestSingletonClasses:
    """A vertex alone in its colour class is never tried: every
    colour-preserving endomorphism fixes it."""

    def test_all_singleton_classes_build_no_network(self, monkeypatch):
        built = []
        real = cores._undirected_csp

        def counted(g, rel):
            built.append(g)
            return real(g, rel)

        monkeypatch.setattr(cores, "_undirected_csp", counted)
        g = tgraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)], list("abcde"))
        assert core(g).graph == g
        assert find_proper_retract(g) is None
        assert built == []
        # a b a folds onto its last edge: two singleton classes remain
        assert core(path_graph(["a", "b", "a"])).graph.n == 2
        assert built == []
        # no vertex of C6 with one-colour sides is dominated
        assert core(cycle_graph(["a", "b"] * 3)).graph.n == 2
        assert built

    def test_matches_per_subgraph_core(self):
        rng = random.Random(205)
        palettes = (["a", "b"], ["a", "b", "c"], list("abcde"))
        for _ in range(500):
            g = random_tropical(rng, 9, rng.choice(palettes),
                                edge_prob=rng.choice((0.2, 0.35, 0.5)))
            assert_core_matches(g)


class TestFold:
    def test_alternating_p5_folds_to_an_edge_with_no_network(self,
                                                             monkeypatch):
        built = []
        real = cores._undirected_csp

        def counted(g, rel):
            built.append(g)
            return real(g, rel)

        monkeypatch.setattr(cores, "_undirected_csp", counted)
        g = path_graph(["a", "b", "a", "b", "a"])
        result = core(g)
        assert result.graph == tgraph(2, [(0, 1)], ["b", "a"])
        assert result.retained == (3, 4)
        assert result.hom == {0: 1, 1: 0, 2: 1, 3: 0, 4: 1}
        assert built == []

    def test_fold_is_a_retraction(self):
        for g in seeded_graphs(207, 500):
            onto = cores._fold(g)
            kept = [v for v in range(g.n) if onto[v] == v]
            assert all(onto[onto[v]] == onto[v] for v in range(g.n))
            assert validate_hom(g, g, dict(enumerate(onto)))
            assert kept == fold_reference(g)[0]
            # the fold stops only when no kept vertex is dominated
            for u in kept:
                mine = g.adjacency[u].intersection(kept)
                assert not any(w != u and g.colours[w] == g.colours[u]
                               and mine <= g.adjacency[w] for w in kept)


class TestC48Core:
    def test_c48_is_a_core(self):
        assert is_core(build_c48("four", 24).graph)


class TestIsCore:
    def test_k1(self):
        assert is_core(plain(1, []))

    def test_two_identical_edges_fold(self):
        g = tgraph(4, [(0, 1), (2, 3)], ["B", "B", "B", "B"])
        assert not is_core(g)


class TestIsoCheck:
    def test_self(self):
        g = cycle_graph(["a", "b", "c", "a", "b", "c"])
        assert iso_check(g, g)

    def test_relabelled_edge(self):
        assert iso_check(tgraph(2, [(0, 1)], ["Black", "White"]),
                         tgraph(2, [(0, 1)], ["White", "Black"]))

    def test_long_path_needs_no_recursion(self):
        p = path_graph(["a"] * 1200)
        assert iso_check(p, p)
        assert trop_hom_brute(p, plain(2, [(0, 1)], colour="a"))

    def test_same_colours_different_shape(self):
        p3 = path_graph(["a", "a", "a"])
        k1_p2 = tgraph(3, [(1, 2)], ["a", "a", "a"])
        assert not iso_check(p3, k1_p2)

    def test_agrees_with_brute_force_on_random_pairs(self):
        rng = random.Random(103)

        def brute_iso(g1, g2):
            if g1.n != g2.n:
                return False
            from itertools import permutations
            for perm in permutations(range(g2.n)):
                if all(g1.colours[v] == g2.colours[perm[v]]
                       for v in range(g1.n)) and \
                   all(g2.has_edge(perm[u], perm[v]) == g1.has_edge(u, v)
                       for u in range(g1.n) for v in range(u + 1, g1.n)):
                    return True
            return False

        # Same order, size and (colour, degree) counts, not isomorphic,
        # so only the search can tell; then the empty pair.
        prism = plain(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                          (0, 3), (1, 4), (2, 5)], colour="a")
        k33 = plain(6, [(u, v) for u in range(3) for v in range(3, 6)],
                    colour="a")
        two_k3 = plain(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
                       colour="a")
        fixed = [(cycle_graph(["a"] * 6), two_k3, False),
                 (k33, prism, False),
                 (path_graph(["a", "a", "b", "b"]),
                  path_graph(["a", "b", "a", "b"]), False),
                 (plain(0, []), plain(0, []), True)]
        for g1, g2, expected in fixed:
            assert iso_check(g1, g2) == brute_iso(g1, g2) == expected

        for _ in range(80):
            g1 = random_tropical(rng, 5, ["a", "b"])
            if rng.random() < 0.5:
                perm = list(range(g1.n))
                rng.shuffle(perm)
                edges = [(perm[u], perm[v]) for u, v in g1.edges]
                colours = [None] * g1.n
                for v in range(g1.n):
                    colours[perm[v]] = g1.colours[v]
                g2 = tgraph(g1.n, edges, colours)
            else:
                g2 = random_tropical(rng, 5, ["a", "b"])
            assert iso_check(g1, g2) == brute_iso(g1, g2)

    def test_differs_supports_match_the_scanned_supports(self):
        # The closed form of the "differs" relation against the row scan
        # of the generic relation, on random masks, every single value
        # and the empty mask.
        from trophom.solver import _Supports

        rng = random.Random(11)
        for n in (1, 2, 3, 7, 64, 130):
            rows = [(1 << n) - 1 ^ 1 << a for a in range(n)]
            closed, scanned = cores._Differs(rows), _Supports(rows)
            masks = [0, (1 << n) - 1] + [1 << a for a in range(n)]
            masks += [rng.getrandbits(n) for _ in range(50)]
            for dv in masks:
                assert closed[dv] == scanned[dv], (n, dv)
            assert closed.full == scanned.full
