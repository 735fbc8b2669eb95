"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime (run with -s to watch).  Tolerances are pinned in the asserts."""

import random
import time
from itertools import combinations, product

from trophom import (core, cycle_graph, dispatch_solve, dgraph,
                     iso_check, solve_digraph_hom, solve_list_hom,
                     solve_trop_hom, solve_2sat, two_sat,
                     validate_hom)
from trophom.gadgets import nae_formula, tropicalize_digraph
from trophom.poly import (ROUTE_FALLBACK, ROUTE_FORCING, ROUTE_TWOSAT,
                          ROUTE_FEATURE)
from trophom.testing import random_forcing_tree, random_tropical
from trophom.verify import (list_hom_brute, roundtrip_h9, roundtrip_nae,
                            trop_hom_brute, verify_c48_claim,
                            verify_pq_lemma, verify_zigzag_properties)


def _stamp(name, t0, budget):
    elapsed = time.time() - t0
    print(f"PASS {name} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"{name} exceeded its {budget}s budget"


def test_criterion_01_pair_gadget_exactness():
    t0 = time.time()
    report = verify_c48_claim("four")
    gating = [c for c in report.checks if not c.informational]
    assert report.passed, report.to_json()
    assert any("found 2 homomorphisms" in c.detail for c in gating)
    _stamp("criterion 1: pinned pair-gadget exactness", t0, 10)


def test_criterion_02_pq_mapping_facts():
    t0 = time.time()
    report = verify_pq_lemma("four")
    assert len(report.checks) == 8
    assert report.passed, report.to_json()
    _stamp("criterion 2: eight P/Q mapping checks", t0, 1)


def test_criterion_03_digraph_equivalence_exhaustive():
    t0 = time.time()
    digraphs = []
    for n in range(4):
        slots = [(u, v) for u in range(n) for v in range(n) if u != v]
        for mask in range(1 << len(slots)):
            digraphs.append(dgraph(n, [slots[i] for i in range(len(slots))
                                       if mask >> i & 1]))
    assert len(digraphs) == 1 + 1 + 4 + 64
    images = [tropicalize_digraph(d) for d in digraphs]
    mismatches = 0
    for i, d1 in enumerate(digraphs):
        for j, d2 in enumerate(digraphs):
            direct = solve_digraph_hom(d1, d2).solvable
            lifted = solve_trop_hom(images[i], images[j]).solvable
            if direct != lifted:
                mismatches += 1
    assert mismatches == 0
    _stamp("criterion 3: digraph equivalence on all 4900 pairs", t0, 60)


def test_criterion_04_nae_roundtrip_suite():
    t0 = time.time()
    orderings = [perm for perm in product(range(3), repeat=3)
                 if len(set(perm)) == 3]
    formulas = [nae_formula(3, [])]
    formulas += [nae_formula(3, [perm]) for perm in orderings]
    formulas += [nae_formula(3, [a, b])
                 for a, b in combinations(orderings, 2)]
    assert len(formulas) == 1 + 6 + 15
    for f in formulas:
        report = roundtrip_nae(f, "four", 24)
        assert report.passed, report.to_json()
    _stamp("criterion 4: not-all-equal round-trips (22 formulas)", t0, 600)


def test_criterion_05_pendant_target_roundtrips():
    t0 = time.time()
    from trophom.testing import random_h9_instance
    rng = random.Random(20170427)
    for _ in range(200):
        source, lists = random_h9_instance(rng, max_n=8)
        report = roundtrip_h9(source, lists)
        assert report.passed, report.to_json()
    _stamp("criterion 5: 200 pendant-target round-trips", t0, 120)


def test_criterion_06_zigzag_properties():
    t0 = time.time()
    for l, k in ((3, 4), (5, 4), (5, 6)):
        report = verify_zigzag_properties(l, k)
        assert report.passed, report.to_json()
    _stamp("criterion 6: zig-zag properties at (3,4), (5,4), (5,6)", t0, 300)


def _small_colour_target(rng):
    from trophom.testing import random_bipartite
    while True:
        tgt = random_bipartite(rng, 8, ["a1", "a2", "a3", "a4"],
                               ["b1", "b2", "b3", "b4"])
        if all(len(vs) <= 2 for vs in tgt.colour_classes().values()):
            return tgt


def _feature_target(rng):
    from trophom.poly import _disjoint_features, detect_features
    while True:
        tgt = random_tropical(rng, 7, ["a", "b", "c"], edge_prob=0.35)
        if _disjoint_features(detect_features(tgt), tgt):
            return tgt


def test_criterion_07_dispatch_matches_oracle_across_suites():
    t0 = time.time()
    rng = random.Random(1500)
    total = 0
    for make_target, src_palette in (
            (lambda rng: random_forcing_tree(rng, 6), None),
            (_small_colour_target, ["a1", "a2", "b1", "b2"]),
            (_feature_target, ["a", "b", "c"])):
        for _ in range(500):
            target = make_target(rng)
            palette = src_palette or \
                sorted(set(target.colours), key=repr)
            source = random_tropical(rng, 10, palette, edge_prob=0.3)
            got, report = dispatch_solve(source, target)
            want = trop_hom_brute(source, target)
            assert got.solvable == want, (source, target, report)
            if got.solvable:
                assert validate_hom(source, target, got.witness)
            total += 1
    assert total == 1500
    _stamp("criterion 7: dispatcher equals oracle on 1500 instances",
           t0, 600)


def _set_partitions(slots):
    """Restricted-growth strings: partitions up to colour renaming."""
    def grow(prefix, used):
        if len(prefix) == slots:
            yield tuple(prefix)
            return
        for c in range(used + 1):
            yield from grow(prefix + [c], max(used, c + 1))
    yield from grow([], 0)


def test_criterion_08_small_even_cycles_classified():
    t0 = time.time()
    allowed_final = {ROUTE_FORCING, ROUTE_TWOSAT, ROUTE_FEATURE}
    lines = []
    for half in (3, 4):
        side_patterns = list(_set_partitions(half))
        for pa in side_patterns:
            for pb in side_patterns:
                colours = []
                for i in range(half):
                    colours.append(f"A{pa[i]}")
                    colours.append(f"B{pb[i]}")
                target = cycle_graph(colours)
                source = cycle_graph(colours)
                out, report = dispatch_solve(source, target)
                assert out.solvable
                assert ROUTE_FALLBACK not in report.route, \
                    (colours, report.route)
                assert report.route[-1] in allowed_final, \
                    (colours, report.route)
                lines.append(f"C{2*half} {'-'.join(colours)}: "
                             f"{' -> '.join(report.route)}")
    assert len(lines) == 5 * 5 + 15 * 15
    for line in lines:
        print(line)
    _stamp("criterion 8: C6/C8 colourings resolve without fallback",
           t0, 600)


def test_criterion_09_twosat_exhaustive_and_sampled():
    t0 = time.time()

    def brute(f):
        for mask in range(1 << f.n_vars):
            if all(((mask >> a & 1 == 1) == pa) or ((mask >> b & 1 == 1) == pb)
                   for (a, pa), (b, pb) in f.clauses):
                return True
        return False

    def clause_pool(n):
        lits = [(v, p) for v in range(n) for p in (True, False)]
        pool = []
        seen = set()
        for i, la in enumerate(lits):
            for lb in lits[i:]:
                key = frozenset((la, lb))
                if key not in seen:
                    seen.add(key)
                    pool.append((la, lb))
        return pool

    checked = 0
    for n in (1, 2):
        pool = clause_pool(n)
        for r in range(min(len(pool), 8) + 1):
            for chosen in combinations(pool, r):
                f = two_sat(n, chosen)
                got = solve_2sat(f)
                assert (got is not None) == brute(f)
                if got is not None:
                    assert all(((got[a] == pa) or (got[b] == pb))
                               for (a, pa), (b, pb) in f.clauses)
                checked += 1
    rng = random.Random(9)
    for _ in range(5000):
        n = rng.randint(3, 4)
        pool = clause_pool(n)
        f = two_sat(n, [rng.choice(pool) for _ in range(rng.randint(0, 8))])
        got = solve_2sat(f)
        assert (got is not None) == brute(f)
        if got is not None:
            assert all(((got[a] == pa) or (got[b] == pb))
                       for (a, pa), (b, pb) in f.clauses)
        checked += 1
    assert checked > 5500
    _stamp("criterion 9: 2-SAT versus truth tables", t0, 120)


def test_criterion_10_core_laws():
    t0 = time.time()
    rng = random.Random(229)
    for _ in range(120):
        g = random_tropical(rng, 7, ["a", "b"], edge_prob=0.4)
        result = core(g)
        assert validate_hom(g, result.graph, result.hom)
        sub, _ = g.induced(result.retained)
        assert sub == result.graph
        assert iso_check(core(result.graph).graph, result.graph)
    for _ in range(60):
        g = random_tropical(rng, 7, ["a", "b"], edge_prob=0.4)
        h = random_tropical(rng, 7, ["a", "b"], edge_prob=0.4)
        assert solve_trop_hom(g, h).solvable == \
            solve_trop_hom(core(g).graph, core(h).graph).solvable
    _stamp("criterion 10: core laws on the small-instance suite", t0, 300)


def test_criterion_11_solver_completeness():
    t0 = time.time()
    rng = random.Random(65)
    for _ in range(400):
        src = random_tropical(rng, 6, ["a", "b"])
        tgt = random_tropical(rng, 5, ["a", "b"])
        lists = {v: frozenset(t for t in range(tgt.n)
                              if rng.random() < 0.75)
                 for v in range(src.n)}
        got = solve_list_hom(src, tgt, lists).solvable
        assert got == list_hom_brute(src, tgt, lists)
        trop = solve_trop_hom(src, tgt).solvable
        assert trop == trop_hom_brute(src, tgt)
    _stamp("criterion 11: solver equals naive enumeration on 400 pairs",
           t0, 300)
