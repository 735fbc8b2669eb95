import random
from itertools import combinations

import pytest

from trophom import InputError, cycle_graph, path_graph, plain
from trophom.gadgets import (build_h9, cnf_formula, nae_formula)
from trophom.verify import (cross_check_poly, nae_brute,
                            roundtrip, roundtrip_h9, roundtrip_h9_batch,
                            roundtrip_nae, sat_brute, verify_c48_claim,
                            verify_pq_lemma, verify_zigzag_properties)


class TestNaeBrute:
    def test_single_clause_splits(self):
        assert nae_brute(nae_formula(3, [(0, 1, 2)]))

    def test_empty_formula(self):
        assert nae_brute(nae_formula(3, []))

    def test_all_triples_over_five_variables_is_unsatisfiable(self):
        # every bipartition of 5 variables leaves a part of size >= 3,
        # whose triple is then monochromatic
        clauses = list(combinations(range(5), 3))
        assert not nae_brute(nae_formula(5, clauses))

    def test_all_triples_over_four_variables_is_satisfiable(self):
        clauses = list(combinations(range(4), 3))
        assert nae_brute(nae_formula(4, clauses))

    def test_size_bound(self):
        with pytest.raises(InputError):
            nae_brute(nae_formula(25, []))


class TestSatBrute:
    def test_unit(self):
        assert sat_brute(cnf_formula(1, [[(0, True)]]))

    def test_contradiction(self):
        assert not sat_brute(cnf_formula(1, [[(0, True)], [(0, False)]]))

    def test_random_3cnf_against_clause_by_clause_evaluation(self):
        rng = random.Random(404)
        for _ in range(60):
            n = 4
            clauses = []
            for _ in range(rng.randint(0, 8)):
                vs = rng.sample(range(n), 3)
                clauses.append([(v, rng.random() < 0.5) for v in vs])
            f = cnf_formula(n, clauses)

            def evaluate(mask):
                return all(
                    any((mask >> var & 1 == 1) == pol for var, pol in cl)
                    for cl in f.clauses)

            want = any(evaluate(m) for m in range(1 << n))
            assert sat_brute(f) == want


class TestClaimVerifiers:
    def test_c48_claim_four(self):
        report = verify_c48_claim("four")
        assert report.passed
        names = [c.name for c in report.checks]
        assert "pinned-count" in names and "named-images" in names

    def test_c48_claim_three(self):
        assert verify_c48_claim("three").passed

    def test_pq_lemma_four_and_three(self):
        for palette in ("four", "three"):
            report = verify_pq_lemma(palette)
            assert report.passed
            assert len([c for c in report.checks]) == 8

    def test_zigzag_configs(self):
        for l, k in ((3, 4), (5, 4), (5, 6)):
            assert verify_zigzag_properties(l, k).passed

    def test_zigzag_budget(self):
        with pytest.raises(InputError):
            verify_zigzag_properties(9, 4)

    def test_report_json_shape(self):
        data = verify_pq_lemma().to_json()
        assert list(data) == ["title", "passed", "seed", "checks"]
        assert all(list(c) == ["name", "passed", "detail", "informational"]
                   for c in data["checks"])


class TestRoundtrips:
    def test_every_three_variable_single_clause_ordering(self):
        for perm in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0),
                     (2, 0, 1), (2, 1, 0)):
            f = nae_formula(3, [perm])
            assert nae_brute(f)
            assert roundtrip_nae(f).passed

    def test_unsatisfiable_formula_gives_unsolvable_gadget(self):
        # smallest all-positive unsatisfiable family: every triple over
        # five variables (any bipartition leaves a monochromatic triple)
        f = nae_formula(5, list(combinations(range(5), 3)))
        assert not nae_brute(f)
        report = roundtrip_nae(f)
        assert report.passed
        assert "solver=False" in report.checks[0].detail

    def test_kind_dispatcher(self):
        f = nae_formula(3, [(0, 1, 2)])
        assert roundtrip("nae3sat", f=f).passed
        with pytest.raises(InputError):
            roundtrip("3sat")
        with pytest.raises(InputError):
            roundtrip("bogus")

    def test_h9_seeded_batch(self):
        report = roundtrip_h9_batch(40, 99)
        assert report.passed and report.seed == 99

    def test_h9_on_an_unsolvable_instance(self):
        # adjacent vertices with same-parity lists cannot both be honoured
        src = plain(2, [(0, 1)])
        report = roundtrip_h9(src, {0: {1}, 1: {3}})
        assert report.passed
        assert "oracle=False" in report.checks[0].detail


class TestExperimentalTwoColourPalette:
    # Advisory coverage for the experimental palette: the global claims
    # hold, while the standalone piece facts cannot (both piece ends wear
    # the same mark, so the two orientations coincide as graphs).

    def test_pinned_claim_still_exact(self):
        assert verify_c48_claim("two").passed

    def test_roundtrip_on_a_clause(self):
        assert roundtrip_nae(nae_formula(3, [(0, 1, 2)]), "two", 27).passed

    def test_standalone_orientation_is_lost(self):
        report = verify_pq_lemma("two")
        failing = {c.name for c in report.checks if not c.passed}
        assert failing == {"P(G,B)->P(B,G)", "P(B,G)->P(G,B)"}


class TestCrossCheck:
    def test_h9_target(self):
        report = cross_check_poly(build_h9().graph, trials=120, seed=3)
        assert report.passed

    def test_two_per_colour_c8_uses_twosat(self):
        # blockwise colouring: vertex 1 sees a twice, so not all-forcing
        target = cycle_graph(["a", "x", "a", "x", "b", "y", "b", "y"])
        report = cross_check_poly(target, trials=120, seed=4)
        assert report.passed
        assert "TwoSat" in report.checks[0].detail

    def test_all_forcing_path_uses_forcing(self):
        target = path_graph(["R", "B", "G", "Y"])
        report = cross_check_poly(target, trials=120, seed=5)
        assert report.passed
        assert "AllForcing" in report.checks[0].detail

    def test_failure_reporting_shape(self):
        # sanity: the report stays deterministic for a fixed seed
        target = build_h9().graph
        a = cross_check_poly(target, trials=25, seed=11).to_json()
        b = cross_check_poly(target, trials=25, seed=11).to_json()
        assert a == b
