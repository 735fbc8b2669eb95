"""Brute-force oracles and one-shot verifiers for the gadget claims.

The oracles here never call the solving machinery they are used to judge:
truth tables and direct enumerations only.  Every verifier is
deterministic given its inputs and seed and produces a machine-readable
report listing one PASS/FAIL entry per check, with counterexample details
on failure.
"""

from __future__ import annotations

import functools
import random
from itertools import product
from typing import Iterator, Mapping, Optional

from . import gadgets
from .gadgets import CnfFormula, GadgetGraph, NaeFormula
from .graphs import InputError, TropicalGraph, _Record, plain
from .solver import (colour_lists, enumerate_homs, solve_list_hom,
                     solve_trop_hom)


BRUTE_VAR_LIMIT = 24
# Largest run counts (l, k) the zig-zag verifier enumerates.
ZIGZAG_LIMITS = (7, 6)
# Largest random source cross_check_poly draws.
CROSS_CHECK_MAX_N = 10


class CheckResult(_Record):
    _fields = ("name", "passed", "detail", "informational")

    def __init__(self, name: str, passed: bool, detail: str = "",
                 informational: bool = False):
        d = self.__dict__
        d["name"] = name
        d["passed"] = passed
        d["detail"] = detail
        d["informational"] = informational


class Report(_Record):
    _fields = ("title", "checks", "seed")

    def __init__(self, title: str, checks: tuple,
                 seed: Optional[int] = None):
        d = self.__dict__
        d["title"] = title
        d["checks"] = checks
        d["seed"] = seed

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if not c.informational)

    def to_json(self) -> dict:
        return {
            "title": self.title,
            "passed": self.passed,
            "seed": self.seed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail,
                 "informational": c.informational}
                for c in self.checks
            ],
        }


def __getattr__(name):
    # random_source, the generator cross_check_poly draws from, is named
    # here too; testing loads only with the randomized suites that use it.
    if name == "random_source":
        from .testing import random_source
        return random_source
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# formula oracles


def nae_brute(f: NaeFormula) -> bool:
    """Direct 2^v check: some bipartition splits every clause."""
    if f.n_vars > BRUTE_VAR_LIMIT:
        raise InputError(f"at most {BRUTE_VAR_LIMIT} variables")
    for mask in range(1 << f.n_vars):
        ok = True
        for a, b, c in f.clauses:
            bits = (mask >> a & 1, mask >> b & 1, mask >> c & 1)
            if bits[0] == bits[1] == bits[2]:
                ok = False
                break
        if ok:
            return True
    return False


def sat_brute(f: CnfFormula) -> bool:
    """Truth-table satisfiability."""
    if f.n_vars > BRUTE_VAR_LIMIT:
        raise InputError(f"at most {BRUTE_VAR_LIMIT} variables")
    for mask in range(1 << f.n_vars):
        ok = True
        for clause in f.clauses:
            if not any((mask >> var & 1 == 1) == pol for var, pol in clause):
                ok = False
                break
        if ok:
            return True
    return False


def list_homs(source: TropicalGraph, target: TropicalGraph,
              lists: Mapping) -> Iterator[dict]:
    """Every list homomorphism, in lexicographic order of (h(0), h(1), ...).

    Direct iterative enumeration: vertices are placed in index order, each
    candidate checked only against earlier-placed neighbours.  No
    propagation and no shared code with the solver; the explicit stack of
    list iterators keeps long sources off the recursion limit.
    """
    n = source.n
    choice = [sorted(lists[v]) for v in range(n)]
    if any(c and not (0 <= c[0] and c[-1] < target.n) for c in choice):
        raise InputError("a list mentions a vertex outside the target")
    if n == 0:
        yield {}
        return
    adj = target.adjacency
    earlier = [[w for w in source.adjacency[v] if w < v] for v in range(n)]
    image = [0] * n
    stack = [iter(choice[0])]
    while stack:
        v = len(stack) - 1
        for t in stack[-1]:
            nbrs = adj[t]
            for w in earlier[v]:
                if image[w] not in nbrs:
                    break
            else:
                break  # t fits every placed neighbour
        else:
            stack.pop()  # list of v exhausted: backtrack
            continue
        image[v] = t
        if v + 1 == n:
            yield dict(enumerate(image))
        else:
            stack.append(iter(choice[v + 1]))


def list_hom_brute(source: TropicalGraph, target: TropicalGraph,
                   lists: Mapping) -> bool:
    return next(list_homs(source, target, lists), None) is not None


def trop_hom_brute(source: TropicalGraph, target: TropicalGraph) -> bool:
    classes = target.colour_classes()
    lists = {v: classes.get(source.colours[v], ())
             for v in range(source.n)}
    return list_hom_brute(source, target, lists)


def naive_digraph_status(d1, d2) -> bool:
    if d1.n == 0:
        return True
    arcs = sorted(d1.arcs)
    for image in product(range(d2.n), repeat=d1.n):
        if all((image[u], image[v]) in d2.arcs for u, v in arcs):
            return True
    return False


# ---------------------------------------------------------------------------
# claim verifiers


_PAIR_NAMED = ("b0", "g1", "b1", "g2", "b2")


def _pair_named_images(pair: GadgetGraph, mapping: Mapping) -> tuple:
    lab = "x0x1"
    return tuple(mapping[pair[f"{nm}_{lab}"]] for nm in _PAIR_NAMED)


def verify_c48_claim(palette: str = "four") -> Report:
    """Pinned enumeration on the pair gadget: exactly two homomorphisms,
    matching the around-the-cycle and the folded named-vertex patterns."""
    target = gadgets.build_c48(palette)
    pair = gadgets.build_pair_gadget(0, 1, palette)
    lists = dict(colour_lists(pair.graph, target.graph))
    lists[pair["U_G"]] = frozenset([target["g0"]])
    found = enumerate_homs(pair.graph, target.graph, lists, limit=8)

    sigma = tuple(target[nm] for nm in ("b0", "g1", "b1", "g2", "b2"))
    rho = tuple(target[nm] for nm in ("b0", "g1", "b0", "g1", "b0"))
    got = sorted(_pair_named_images(pair, m) for m in found.maps)
    want = sorted([sigma, rho])

    checks = [
        CheckResult("pinned-count",
                    len(found.maps) == 2 and not found.truncated,
                    f"found {len(found.maps)} homomorphisms"),
        CheckResult("named-images", got == want,
                    f"named images {got}, expected {want}"),
    ]

    free = enumerate_homs(pair.graph, target.graph,
                          colour_lists(pair.graph, target.graph), limit=64)
    checks.append(CheckResult(
        "unpinned-count", len(free.maps) % 2 == 0 and not free.truncated,
        f"{len(free.maps)} homomorphisms without pinning",
        informational=True))
    return Report(f"pair gadget exactness ({palette})", tuple(checks))


def verify_pq_lemma(palette: str = "four") -> Report:
    """The eight end-colour mapping facts for P- and Q-pieces."""
    checks = []
    ends = (("G", "B"), ("B", "G"))
    for s1, e1 in ends:
        for s2, e2 in ends:
            src = gadgets.build_pq_path("P", s1, e1, palette).graph
            tgt = gadgets.build_pq_path("P", s2, e2, palette).graph
            got = solve_trop_hom(src, tgt).solvable
            want = (s1, e1) == (s2, e2)
            checks.append(CheckResult(
                f"P({s1},{e1})->P({s2},{e2})", got == want,
                f"solvable={got}, expected {want}"))
    for s1, e1 in ends:
        for s2, e2 in ends:
            src = gadgets.build_pq_path("Q", s1, e1, palette).graph
            tgt = gadgets.build_pq_path("P", s2, e2, palette).graph
            got = solve_trop_hom(src, tgt).solvable
            checks.append(CheckResult(
                f"Q({s1},{e1})->P({s2},{e2})", got,
                f"solvable={got}, expected True"))
    # the spec'd suite is the 4 oriented P facts + 4 Q facts; the matrix
    # above covers them all (Q cases collapse pairwise by symmetry)
    return Report(f"P/Q mapping facts ({palette})", tuple(checks))


def _maps_onto(source: TropicalGraph, target: TropicalGraph) -> bool:
    """Some colour-preserving homomorphism hits every target vertex."""
    found = enumerate_homs(source, target,
                           colour_lists(source, target), limit=None)
    full = set(range(target.n))
    return any(set(m.values()) == full for m in found.maps)


def verify_zigzag_properties(l: int, k: int) -> Report:
    """Machine checks of the zig-zag path family facts.

    Properties 1-6 are decided exactly; the two extension properties are
    spot-checked on a small catalogue of witnesses and labelled so.
    """
    max_l, max_k = ZIGZAG_LIMITS
    if l > max_l or k > max_k:
        raise InputError(f"enumeration budget is l<={max_l}, k<={max_k}")
    p = gadgets.zigzag_p(l)
    p_i = {i: gadgets.zigzag_p(l, i) for i in range(1, l - 1)}
    q = gadgets.zigzag_q(k)
    q_j = {j: gadgets.zigzag_q(k, j) for j in range(1, k - 1)}
    fp_p = gadgets.forcing_path(l, "W")
    fp_q = gadgets.forcing_path(k, "B")
    checks = []

    ok = _maps_onto(p, fp_p) and all(_maps_onto(g, fp_p)
                                     for g in p_i.values())
    checks.append(CheckResult(
        "1: P family onto the odd forcing path", ok,
        f"l={l}"))
    ok = _maps_onto(q, fp_q) and all(_maps_onto(g, fp_q)
                                     for g in q_j.values())
    checks.append(CheckResult(
        "2: Q family onto the even forcing path", ok, f"k={k}"))

    def pin(graph, vertex, image, target):
        lists = dict(colour_lists(graph, target))
        lists[vertex] = frozenset([image]) & lists[vertex]
        return solve_list_hom(graph, target, lists).solvable

    # The family facts are about the glued paths, so the attachment ends
    # (rightmost of the P family, leftmost of the Q family) stay pinned to
    # each other; without the pin, reversing an all-White-ended P_i gives a
    # spurious P_i -> P_{l-1-i} homomorphism.
    bad = [(i, i2) for i in p_i for i2 in p_i
           if pin(p_i[i], p_i[i].n - 1, p_i[i2].n - 1, p_i[i2]) != (i == i2)]
    checks.append(CheckResult(
        "3: P_i -> P_i' exactly when i = i'", not bad, f"violations: {bad}"))
    bad = [(j, j2) for j in q_j for j2 in q_j
           if pin(q_j[j], 0, 0, q_j[j2]) != (j == j2)]
    checks.append(CheckResult(
        "4: Q_j -> Q_j' exactly when j = j'", not bad, f"violations: {bad}"))

    bad = [i for i in p_i if not pin(p, p.n - 1, p_i[i].n - 1, p_i[i])]
    checks.append(CheckResult(
        "5: P -> P_i for every i", not bad, f"failures: {bad}"))
    bad = [j for j in q_j if not pin(q, 0, 0, q_j[j])]
    checks.append(CheckResult(
        "6: Q -> Q_j for every j", not bad, f"failures: {bad}"))

    # Property 7 catalogue: X with a vertex mapping to two distinct P_i
    # attachment points must also reach P's own endpoint.

    catalogue = [("K1-white", plain(1, [], colour="W"), 0),
                 ("P-itself", p, p.n - 1)]
    spot = []
    for label, x, xv in catalogue:
        hits = [i for i in p_i if pin(x, xv, p_i[i].n - 1, p_i[i])]
        if len(hits) >= 2:
            spot.append((label, pin(x, xv, p.n - 1, p)))
    ok = all(res for _, res in spot)
    checks.append(CheckResult(
        "7: double P_i landings extend to P (spot-checked)", ok,
        f"catalogue outcomes: {spot}"))
    spot = []
    catalogue_q = [("K1-white", plain(1, [], colour="W"), 0),
                   ("Q-itself", q, 0)]
    for label, x, xv in catalogue_q:
        hits = [j for j in q_j if pin(x, xv, 0, q_j[j])]
        if len(hits) >= 2:
            spot.append((label, pin(x, xv, 0, q)))
    ok = all(res for _, res in spot)
    checks.append(CheckResult(
        "8: double Q_j landings extend to Q (spot-checked)", ok,
        f"catalogue outcomes: {spot}"))
    return Report(f"zig-zag properties (l={l}, k={k})", tuple(checks))


# ---------------------------------------------------------------------------
# round-trips


def roundtrip_nae(f: NaeFormula, palette: str = "four",
                  k: Optional[int] = None) -> Report:
    """Formula oracle versus gadget solvability for one instance.

    The landing vertex of U_G may be pinned to g0: the target has a
    colour-preserving rotation carrying any Green corner to g0.
    """
    want = nae_brute(f)
    target = gadgets.build_c48(palette, k)
    inst = gadgets.nae3sat_to_c48(f, palette, k)
    lists = dict(colour_lists(inst.graph, target.graph))
    lists[inst["U_G"]] = lists[inst["U_G"]] & frozenset([target["g0"]])
    got = solve_list_hom(inst.graph, target.graph, lists).solvable
    return Report(
        "not-all-equal round-trip",
        (CheckResult(f"formula vs gadget ({f.n_vars} vars, "
                     f"{len(f.clauses)} clauses)", got == want,
                     f"oracle={want}, solver={got}"),))


@functools.cache
def _h9_and_c6() -> tuple:
    """The pendant target H9 and the six-cycle, built once: every round-trip
    solves against one H9 object and so shares its support memo."""
    return (gadgets.build_h9().graph,
            plain(6, [(i, (i + 1) % 6) for i in range(6)]))


def roundtrip_h9(source: TropicalGraph, lists: Mapping) -> Report:
    """List instance over the six-cycle versus its pendant-target gadget."""
    h9, c6 = _h9_and_c6()
    zero_based = {v: frozenset(x - 1 for x in lists[v])
                  for v in range(source.n)}
    want = list_hom_brute(source, c6, zero_based)
    inst = gadgets.c6_listhom_to_h9(source, lists)
    got = solve_trop_hom(inst.graph, h9).solvable
    return Report(
        "pendant-target round-trip",
        (CheckResult("list oracle vs gadget", got == want,
                     f"oracle={want}, solver={got}"),))


def roundtrip(kind: str, **payload) -> Report:
    if kind == "nae3sat":
        return roundtrip_nae(**payload)
    if kind == "h9":
        return roundtrip_h9(**payload)
    raise InputError(f"unknown round-trip kind {kind!r}")


# ---------------------------------------------------------------------------
# randomized suites


def _require_trials(trials: int):
    # A batch of no trials checks nothing, so it may not pass.
    if trials < 1:
        raise InputError(f"trials must be at least 1, got {trials}")


def roundtrip_h9_batch(trials: int, seed: int) -> Report:
    """Pendant-target round-trips on seeded random list instances."""
    from .testing import random_h9_instance

    _require_trials(trials)
    rng = random.Random(seed)
    failures = [t for t in range(trials)
                if not roundtrip_h9(*random_h9_instance(rng)).passed]
    return Report(
        "pendant-target round-trip batch",
        (CheckResult(f"{trials} seeded instances", not failures,
                     f"failing trials: {failures}" if failures else ""),),
        seed=seed)


def cross_check_poly(target: TropicalGraph, trials: int = 200,
                     seed: int = 7) -> Report:
    """Random sources: dispatcher status must equal the brute-force status."""
    from .poly import dispatch_solve
    from .testing import random_source

    _require_trials(trials)
    rng = random.Random(seed)
    routes = set()
    mismatches = []
    for t in range(trials):
        src = random_source(rng, target, CROSS_CHECK_MAX_N)
        got, report = dispatch_solve(src, target)
        routes.update(report.route)
        want = trop_hom_brute(src, target)
        if got.solvable != want:
            mismatches.append((t, src, got.solvable, want))
            if len(mismatches) >= 3:
                break
    detail = f"routes seen: {sorted(routes)}"
    if mismatches:
        t, src, got_s, want_s = mismatches[0]
        detail += (f"; first mismatch at trial {t}: dispatch={got_s} "
                   f"oracle={want_s} on n={src.n}, edges={sorted(src.edges)},"
                   f" colours={src.colours}")
    checks = (CheckResult(f"{trials} randomized instances", not mismatches,
                          detail),)
    return Report("dispatch versus brute force", checks, seed=seed)
