"""Cores of coloured graphs: retract search, core computation, isomorphism.

The core is the unique (up to colour-preserving isomorphism) smallest
induced subgraph the graph maps onto.  Everything here is exact and
oracle-grade: retract search is exponential in the worst case and meant
for targets up to a few dozen vertices, not for production-sized graphs.

A retract search builds the colour-list endomorphism CSP g -> g once and
tries to delete vertex v by clearing bit v in every root domain, so one
network serves every vertex of a pass.  core never tries a vertex twice:
if no endomorphism of G avoids v and e: G -> R is a retract, no
endomorphism f of R avoids v either, or f∘e would be one of G.  So a core
computation makes at most g.n attempts (Hell & Nešetřil, Graphs and
Homomorphisms, ch. 2).

Before any CSP, core folds dominated vertices: when u and w share a
colour and N(u) ⊆ N(w), mapping u to w and fixing every other vertex is a
retraction, so deleting u leaves the core unchanged up to isomorphism
(same reference).  The fold is a bitmask sweep with no network, and on
small targets it often reaches the core by itself; the retract search
then runs only on what is left.  find_proper_retract and is_core do not
fold: they answer for g itself.

iso_check, which tells cores apart only up to isomorphism, runs on the
same engine: it asks for an injective homomorphism between graphs of
equal order and size, which is then an isomorphism.  Its network keeps
each vertex to the target vertices of its (colour, degree) class and adds
one "differs" relation inside each class, so it takes memory of order the
sum of the squared class sizes.  This module has no search of its own.
"""

from __future__ import annotations

from .graphs import TropicalGraph, _Record
from .solver import (_Csp, _first_solution, _mask, _Supports,
                     _undirected_csp)


def _attempts(g: TropicalGraph, skip=frozenset()):
    """Yield (v, endomorphism of g avoiding v, or None) for each vertex v
    outside skip, ascending, all solved on one colour-list CSP g -> g.

    A vertex alone in its colour class is left out: every colour-preserving
    endomorphism fixes it, so its attempt could only fail.  The witness is
    the one the list solve into the induced subgraph g - v finds: induced
    keeps ascending order, so the MRV ties and the value order are the same.
    """
    classes = g.colour_classes()
    todo = [v for v in range(g.n)
            if v not in skip and len(classes[g.colours[v]]) > 1]
    if not todo:
        return
    # A relation of its own, not the one kept on g: a pass's graph serves
    # this one network, so keeping its memo would only cost.
    csp = _undirected_csp(g, _Supports.of(g.adjacency))
    masks = {c: _mask(vs) for c, vs in classes.items()}
    doms = [masks[c] for c in g.colours]
    for v in todo:
        keep = ~(1 << v)
        yield v, _first_solution(csp, [d & keep for d in doms]).witness


def find_proper_retract(g: TropicalGraph):
    """A colour-preserving endomorphism of g with a strictly smaller image,
    or None when g is a core.

    Tries to avoid each vertex in turn, smallest index first, on one CSP
    for the whole graph; the first endomorphism found is returned.
    """
    for _, retract in _attempts(g):
        if retract is not None:
            return retract
    return None


def is_core(g: TropicalGraph) -> bool:
    return find_proper_retract(g) is None


class CoreResult(_Record):
    """The core as an induced subgraph plus the witnessing homomorphism."""

    _fields = ("graph", "retained", "hom")

    def __init__(self, graph: TropicalGraph, retained: tuple, hom: dict):
        d = self.__dict__
        d["graph"] = graph
        d["retained"] = retained  # core index -> original vertex index
        d["hom"] = hom            # original vertex index -> core index


def _fold(g: TropicalGraph) -> list:
    """Fold away dominated vertices: the vertex each vertex of g maps to,
    itself when it is kept.

    Sweeps ascend over the live vertices and delete u when another live
    vertex w of its colour has every live neighbour of u as a neighbour,
    mapping u to the smallest such w; they repeat until one deletes
    nothing.  Each deletion is a retraction of the live subgraph, so the
    kept vertices induce a retract of g and the map is a homomorphism onto
    it.  Neighbourhoods are bitmasks from one scan of the edges.
    """
    n = g.n
    nbrs = [0] * n
    for u, v in g.edges:
        nbrs[u] |= 1 << v
        nbrs[v] |= 1 << u
    classes = g.colour_classes()
    to = list(range(n))
    live = (1 << n) - 1
    deleted = True
    while deleted:
        deleted = False
        for u in range(n):
            if not live >> u & 1:
                continue
            mine = nbrs[u] & live
            for w in classes[g.colours[u]]:
                if w != u and live >> w & 1 and not mine & ~nbrs[w]:
                    to[u] = w
                    live ^= 1 << u
                    deleted = True
                    break
    for u in range(n):  # a vertex maps to a live one, so chains end
        w = to[u]
        while to[w] != w:
            w = to[w]
        to[u] = w
    return to


def core(g: TropicalGraph) -> CoreResult:
    """Fold dominated vertices, then retract until no proper retract remains.

    The fold (_fold) is cheap and often reaches the core outright; it
    keeps a retract of g, whose core is g's core up to isomorphism.  Each
    pass then runs one CSP on the current graph, in the order of
    find_proper_retract, but skips the vertices that failed in an earlier
    pass: no retract can make them avoidable, so every vertex of the
    folded graph is tried at most once and the result is
    find_proper_retract's fixpoint on it.
    """
    to = _fold(g)
    retained = tuple(v for v in range(g.n) if to[v] == v)
    current = g if len(retained) == g.n else g.induced(retained)[0]
    pos = {o: i for i, o in enumerate(retained)}
    hom = {v: pos[to[v]] for v in range(g.n)}
    failed = set()             # original indices no endomorphism avoids
    while True:
        skip = {v for v, o in enumerate(retained) if o in failed}
        for v, retract in _attempts(current, skip):
            if retract is not None:
                break
            failed.add(retained[v])
        else:
            return CoreResult(current, retained, hom)
        image = sorted(set(retract.values()))
        assert len(image) < current.n, "retract must shrink the image"
        current, old = current.induced(image)
        pos = {o: i for i, o in enumerate(old)}
        retained = tuple(retained[o] for o in old)
        hom = {v: pos[retract[cur]] for v, cur in hom.items()}


class _Differs(_Supports):
    """The relation u != v, whose supports need no scan of the rows: a
    mask of two or more values supports every value, a single value every
    other value, and the empty mask none."""

    __slots__ = ()

    def __missing__(self, dv):
        if dv & (dv - 1):
            s = self.full
        else:
            s = self.full ^ dv if dv else 0
        self[dv] = s
        return s


def iso_check(g1: TropicalGraph, g2: TropicalGraph) -> bool:
    """Colour-preserving graph isomorphism decision (exact, small inputs).

    Unequal orders, sizes or counts per (colour, degree) class answer
    False at once.  Otherwise one network on the solver's engine asks for
    an injective homomorphism g1 -> g2.  Each g1 vertex takes the g2
    vertices of its class as its domain, watches its g1 neighbours under
    g2's adjacency, and watches the other members of its class under one
    shared "differs" relation.  Classes have disjoint domains, so
    "differs" inside each class makes the map injective.  An injective homomorphism between
    graphs of equal order and size is also a bijection on the edges, so
    its inverse preserves edges: it is an isomorphism.  The watch lists
    take memory of order the sum of the squared class sizes.
    """
    if g1.n != g2.n or len(g1.edges) != len(g2.edges):
        return False
    domain: dict = {}        # (colour, degree) -> mask of its g2 vertices
    for w in range(g2.n):
        key = (g2.colours[w], g2.degree(w))
        domain[key] = domain.get(key, 0) | 1 << w
    members: dict = {}       # (colour, degree) -> its g1 vertices
    keys = [(g1.colours[v], g1.degree(v)) for v in range(g1.n)]
    for v, key in enumerate(keys):
        members.setdefault(key, []).append(v)
    if any(len(vs) != domain.get(key, 0).bit_count()
           for key, vs in members.items()):
        return False
    adjacent = _Supports.of(g2.adjacency)
    differs = _Differs((1 << g2.n) - 1 ^ 1 << a for a in range(g2.n))
    watch = []
    for v, key in enumerate(keys):
        # Adjacent vertices already differ, so each pair is stated once.
        nbrs = g1.adjacency[v]
        groups = [(adjacent, tuple(sorted(nbrs))),
                  (differs, tuple(u for u in members[key]
                                  if u != v and u not in nbrs))]
        watch.append(sorted((g for g in groups if g[1]),
                            key=lambda g: g[1][0]))
    return _first_solution(_Csp(watch), [domain[k] for k in keys]).solvable
