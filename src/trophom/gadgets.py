"""Mechanical builders for the reduction gadgets.

Everything here is a deterministic constructor returning a GadgetGraph:
a coloured graph plus a label -> vertex dictionary for the handful of
vertices that later wiring or verification needs to point at.

The oriented-path conventions: a P-piece is a coloured path whose single
marked (Red) interior vertex sits strictly closer to one end, which gives
the piece an orientation; a Q-piece has the mark equidistant from both
ends and is symmetric.  Arrows in the construction comments mean P-pieces,
plain dashes mean Q-pieces.

The palettes are one table, _TOKENS: the tokens a Green corner, a Blue
corner, the mark and a plain vertex wear in each palette.  Every builder
reads its tokens there, and the base arc length and the smallest cycle
half-order follow from the palette's mark count.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Mapping, Optional, Sequence

from . import formats
from .graphs import (Colour, Digraph, InputError, TropicalGraph, _Record,
                     bipartition, check_embedding, connected_components,
                     path_graph, tgraph)


class CnfFormula(_Record):
    """Clauses are tuples of literals; a literal is (variable, polarity)."""

    _fields = ("n_vars", "clauses")

    def __init__(self, n_vars: int, clauses: tuple):
        if n_vars < 0:
            raise InputError("variable count must be nonnegative")
        for cl in clauses:
            if not cl:
                raise InputError("empty clause")
            for var, _pol in cl:
                if not 0 <= var < n_vars:
                    raise InputError(f"variable {var} out of range")
        d = self.__dict__
        d["n_vars"] = n_vars
        d["clauses"] = clauses


class NaeFormula(_Record):
    """Not-all-equal clauses: 3-tuples of pairwise distinct variables,
    no negation."""

    _fields = ("n_vars", "clauses")

    def __init__(self, n_vars: int, clauses: tuple):
        if n_vars < 0:
            raise InputError("variable count must be nonnegative")
        for cl in clauses:
            if len(cl) != 3 or len(set(cl)) != 3:
                raise InputError(
                    "clauses need three pairwise distinct variables")
            for var in cl:
                if not 0 <= var < n_vars:
                    raise InputError(f"variable {var} out of range")
        d = self.__dict__
        d["n_vars"] = n_vars
        d["clauses"] = clauses


def nae_formula(n_vars: int, clauses) -> NaeFormula:
    return NaeFormula(n_vars, tuple(tuple(cl) for cl in clauses))


def cnf_formula(n_vars: int, clauses) -> CnfFormula:
    return CnfFormula(n_vars,
                      tuple(tuple(tuple(lit) for lit in cl) for cl in clauses))


class GadgetGraph(_Record):
    _fields = ("graph", "names")

    def __init__(self, graph: TropicalGraph, names: Mapping):
        d = self.__dict__
        d["graph"] = graph
        d["names"] = names

    def __getitem__(self, label: str) -> int:
        return self.names[label]


class _Builder:
    """Incremental graph assembly with named vertices."""

    def __init__(self):
        self.colours: list = []
        self.edges: set = set()
        self.names: dict = {}

    def add(self, colour: Colour, name: Optional[str] = None) -> int:
        idx = len(self.colours)
        self.colours.append(colour)
        if name is not None:
            if name in self.names:
                raise InputError(f"duplicate vertex name {name!r}")
            self.names[name] = idx
        return idx

    def edge(self, u: int, v: int):
        if u == v:
            raise InputError("builder refuses self-loops")
        self.edges.add((u, v) if u < v else (v, u))

    def weave(self, colours: Sequence[Colour], start: Optional[int] = None,
              end: Optional[int] = None) -> list:
        """Add a path; start/end, when given, reuse existing vertices whose
        colour must match the sequence ends.  Returns all path indices."""
        idxs = []
        for pos, c in enumerate(colours):
            if pos == 0 and start is not None:
                if self.colours[start] != c:
                    raise InputError("path start colour mismatch")
                idxs.append(start)
                continue
            if pos == len(colours) - 1 and end is not None:
                if self.colours[end] != c:
                    raise InputError("path end colour mismatch")
                idxs.append(end)
            else:
                idxs.append(self.add(c))
        for a, b in zip(idxs, idxs[1:]):
            self.edge(a, b)
        return idxs

    def build(self) -> GadgetGraph:
        g = tgraph(len(self.colours), self.edges, tuple(self.colours))
        return GadgetGraph(g, dict(self.names))


# ---------------------------------------------------------------------------
# digraphs -> 3-coloured graphs


def tropicalize_digraph(d: Digraph) -> TropicalGraph:
    """Replace every arc (u, v) by a path u - x_u - x_v - v with x_u Red and
    x_v Green; original vertices turn Blue.  Homomorphism existence between
    digraphs and between their images coincide."""
    b = _Builder()
    for v in range(d.n):
        b.add("Blue", name=f"v{v}")
    for u, v in sorted(d.arcs):
        xu = b.add("Red")
        xv = b.add("Green")
        b.edge(u, xu)
        b.edge(xu, xv)
        b.edge(xv, v)
    return b.build().graph


# ---------------------------------------------------------------------------
# P- and Q-pieces and the long-cycle target


# palette -> (corner tokens for "G"/"B", mark tuple, plain token).  The
# three-colour palette paints marks Blue; the experimental two-colour
# palette tells marked from plain only: corners wear the mark token, and
# the mark is doubled (one copy per side).
_TOKENS = {
    "four": ({"G": "G", "B": "B"}, ("R",), "Y"),
    "three": ({"G": "G", "B": "B"}, ("B",), "Y"),
    "two": ({"G": "m", "B": "m"}, ("m", "m"), "y"),
}
PALETTES = tuple(_TOKENS)


def _tokens(palette: str) -> tuple:
    try:
        return _TOKENS[palette]
    except KeyError:
        raise InputError(f"unknown palette {palette!r}") from None


def _pq_colours(kind: str, start: Colour, end: Colour, palette: str,
                extra: int = 0) -> list:
    """Colour sequence of a P- or Q-piece between corners start and end
    ("G"/"B", painted in the palette's corner tokens).

    P keeps its mark at distance 5 + extra from the start and 3 from the
    end, so lengthening preserves the asymmetry; Q splits the extra evenly
    and stays symmetric (extra must be even for Q).
    """
    corner, marks, plain = _tokens(palette)
    if kind not in ("P", "Q"):
        raise InputError(f"unknown path kind {kind!r}")
    if {start, end} != {"G", "B"}:
        raise InputError("piece ends must be one Green and one Blue")
    if extra < 0 or extra % 2:
        raise InputError("length extension must be even and nonnegative")
    if kind == "P":
        before, after = 4 + extra, 2
    else:
        before = after = 4 + extra // 2
    return ([corner[start]] + [plain] * before + list(marks)
            + [plain] * after + [corner[end]])


def build_pq_path(kind: str, start_colour: Colour, end_colour: Colour,
                  palette: str = "four", extra: int = 0) -> GadgetGraph:
    """A standalone oriented (P) or symmetric (Q) piece; names the two ends."""
    seq = _pq_colours(kind, start_colour, end_colour, palette, extra)
    b = _Builder()
    idxs = b.weave(seq)
    b.names["start"] = idxs[0]
    b.names["end"] = idxs[-1]
    return b.build()


def _base_arc_length(palette: str) -> int:
    # an unlengthened P-piece: corner, four plain, the marks, two plain, corner
    return 7 + len(_tokens(palette)[1])


def _min_half_order(palette: str) -> int:
    # Smallest k with C_{2k} expressible as six equal arcs of the base
    # length: 24 for the one-mark palettes, 27 for the two-colour variant.
    return 3 * _base_arc_length(palette)


# Order in which pairs of extra vertices land on the six cycle arcs.  The
# folding mappings reuse arcs 0 and 1, so those lengthen last and the arc
# at position 3 never ends up shorter than position 1.
_EXTRA_ORDER = (2, 4, 5, 0, 3, 1)


def _check_order(order: int, what: str):
    """Refuse a gadget of more than formats.MAX_VERTICES vertices before
    any of it is built."""
    if order > formats.MAX_VERTICES:
        raise InputError(f"{what} would have {order} vertices, past the cap "
                         f"MAX_VERTICES = {formats.MAX_VERTICES}")


def _arc_extras(palette: str, k: Optional[int]) -> list:
    """Extra vertices per cycle arc for half-order k; None means the
    smallest half-order the palette allows."""
    k0 = _min_half_order(palette)
    if k is None:
        k = k0
    if k < k0:
        raise InputError(f"cycle half-order must be at least {k0}")
    _check_order(2 * k, f"the cycle of half-order {k}")
    units = k - k0
    extras = [0] * 6
    for i in range(units):
        extras[_EXTRA_ORDER[i % 6]] += 2
    return extras


_CYCLE_NAMES = ("g0", "b0", "g1", "b1", "g2", "b2")


def build_c48(palette: str = "four", k: Optional[int] = None) -> GadgetGraph:
    """The 2k-cycle target: six corner vertices g0 b0 g1 b1 g2 b2 joined by
    oriented P-pieces, every corner arc pointing forward around the cycle.
    k defaults to the smallest half-order the palette allows."""
    extras = _arc_extras(palette, k)
    corner = _tokens(palette)[0]
    b = _Builder()
    corners = [b.add(corner[name[0].upper()], name=name)
               for name in _CYCLE_NAMES]
    for i in range(6):
        ends = ("G", "B") if i % 2 == 0 else ("B", "G")
        b.weave(_pq_colours("P", *ends, palette, extras[i]),
                start=corners[i], end=corners[(i + 1) % 6])
    out = b.build()
    # extras add 2 vertices per unit of half-order above the minimum
    assert out.graph.n == 2 * _min_half_order(palette) + sum(extras)
    return out


def _pair_label(i: int, j: int) -> str:
    a, b = min(i, j), max(i, j)
    return f"x{a}x{b}"


def build_pair_gadget(i: int, j: int, palette: str = "four",
                      k: Optional[int] = None) -> GadgetGraph:
    """The per-pair six-cycle: U_G -P> b0 -P> g1 -Q- b1 -P> g2 -Q- b2 -Q- U_G.

    Maps onto the target either around the whole cycle (sigma) or folded
    onto its first two arcs (rho); those are the only options once U_G is
    pinned, which is what encodes 'same part or different parts'.
    """
    return _c48_instance([(i, j)], (), (), palette, k)


def _weave_pair(b: _Builder, ug: int, i: int, j: int, palette: str,
                extras: list):
    """Add the pair gadget of {i, j} to b around the existing vertex ug."""
    corner = _tokens(palette)[0]
    lab = _pair_label(i, j)
    b0 = b.add(corner["B"], name=f"b0_{lab}")
    g1 = b.add(corner["G"], name=f"g1_{lab}")
    b1 = b.add(corner["B"], name=f"b1_{lab}")
    g2 = b.add(corner["G"], name=f"g2_{lab}")
    b2 = b.add(corner["B"], name=f"b2_{lab}")
    # A Q-piece reaches its mark after half its length, so to fold into a
    # lengthened arc that half must dominate the arc extras of both its
    # around-the-cycle and its folded image and keep their (even) parity:
    # extra 2*max covers the two arcs each Q may land on.
    q_extras = _pair_q_extras(extras)
    b.weave(_pq_colours("P", "G", "B", palette, extras[0]), start=ug, end=b0)
    b.weave(_pq_colours("P", "B", "G", palette, extras[1]), start=b0, end=g1)
    b.weave(_pq_colours("Q", "G", "B", palette, q_extras[0]),
            start=g1, end=b1)
    b.weave(_pq_colours("P", "B", "G", palette, extras[3]), start=b1, end=g2)
    b.weave(_pq_colours("Q", "G", "B", palette, q_extras[1]),
            start=g2, end=b2)
    b.weave(_pq_colours("Q", "B", "G", palette, q_extras[2]),
            start=b2, end=ug)


def _pair_q_extras(extras) -> tuple:
    return (2 * max(extras[2], extras[1]),
            2 * max(extras[4], extras[1]),
            2 * max(extras[5], extras[0]))


def _connector_tree(b: _Builder, beta1: int, beta2: int, beta3: int,
                    palette: str, emax: int, tag: str):
    """Tree gluing one b1-corner to two b2-corners of sibling pairs:
    beta1 -Q- gamma0 -Q- beta2, with gamma1 -P> beta0 -P> gamma0 hanging
    off the centre and beta3 -Q- gamma1."""
    corner = _tokens(palette)[0]
    gamma0 = b.add(corner["G"], name=f"t{tag}_g0")
    beta0 = b.add(corner["B"], name=f"t{tag}_b0")
    gamma1 = b.add(corner["G"], name=f"t{tag}_g1")
    b.weave(_pq_colours("Q", "B", "G", palette, 2 * emax),
            start=beta1, end=gamma0)
    b.weave(_pq_colours("Q", "G", "B", palette, 2 * emax),
            start=gamma0, end=beta2)
    b.weave(_pq_colours("P", "B", "G", palette, emax), start=beta0, end=gamma0)
    b.weave(_pq_colours("P", "G", "B", palette, emax), start=gamma1, end=beta0)
    b.weave(_pq_colours("Q", "G", "B", palette, 2 * emax),
            start=gamma1, end=beta3)


def build_triple_gadget(p: int, q: int, r: int, palette: str = "four",
                        k: Optional[int] = None) -> GadgetGraph:
    """Three pair gadgets on {p,q,r} plus the three connector trees that
    force an odd number of them to fold."""
    return _c48_instance([(p, q), (p, r), (q, r)], [(p, q, r)], (),
                         palette, k)


def _wire_triple(b: _Builder, p: int, q: int, r: int, palette: str,
                 emax: int):
    pq, pr, qr = _pair_label(p, q), _pair_label(p, r), _pair_label(q, r)
    trees = (
        (f"b1_{pq}", f"b2_{pr}", f"b2_{qr}"),
        (f"b1_{pr}", f"b2_{qr}", f"b2_{pq}"),
        (f"b1_{qr}", f"b2_{pq}", f"b2_{pr}"),
    )
    for t, (n1, n2, n3) in enumerate(trees):
        _connector_tree(b, b.names[n1], b.names[n2], b.names[n3],
                        palette, emax, tag=f"{pq}.{pr}.{qr}.{t}")


def nae3sat_to_c48(f: NaeFormula, palette: str = "four",
                   k: Optional[int] = None) -> GadgetGraph:
    """Instance graph for the not-all-equal reduction against build_c48.

    One shared U_G; a pair gadget per unordered variable pair; three
    connector trees per unordered triple; and per clause (l1, l2, l3) a
    blocking path b1 of {l1,l2} -P> G -P> B -P> G -Q- b2 of {l2,l3} that
    rules out folding all three clause pairs at once.

    The instance grows with the cube of the variable count, so one past
    formats.MAX_VERTICES vertices raises InputError before it is built.
    """
    _check_order(_c48_order(comb(f.n_vars, 2), comb(f.n_vars, 3),
                            len(f.clauses), palette, k),
                 f"the instance of {f.n_vars} variables")
    return _c48_instance(list(combinations(range(f.n_vars), 2)),
                         list(combinations(range(f.n_vars), 3)),
                         f.clauses, palette, k)


def _c48_instance(pairs: Sequence, triples: Sequence, clauses: Sequence,
                  palette: str, k: Optional[int]) -> GadgetGraph:
    """One shared U_G, the pair gadgets, three connector trees per triple
    and a blocking path per clause, added in that order."""
    extras = _arc_extras(palette, k)
    emax = max(extras)
    corner = _tokens(palette)[0]
    b = _Builder()
    ug = b.add(corner["G"], name="U_G")
    for i, j in pairs:
        _weave_pair(b, ug, i, j, palette, extras)
    for p, q, r in triples:
        _wire_triple(b, p, q, r, palette, emax)
    for ci, (l1, l2, l3) in enumerate(clauses):
        left = b.names[f"b1_{_pair_label(l1, l2)}"]
        right = b.names[f"b2_{_pair_label(l2, l3)}"]
        ga = b.add(corner["G"], name=f"c{ci}_g0")
        bb = b.add(corner["B"], name=f"c{ci}_b0")
        gc = b.add(corner["G"], name=f"c{ci}_g1")
        b.weave(_pq_colours("P", "B", "G", palette, emax), start=left, end=ga)
        b.weave(_pq_colours("P", "G", "B", palette, emax), start=ga, end=bb)
        b.weave(_pq_colours("P", "B", "G", palette, emax), start=bb, end=gc)
        b.weave(_pq_colours("Q", "G", "B", palette, 2 * emax),
                start=gc, end=right)
    out = b.build()
    assert out.graph.n == _c48_order(len(pairs), len(triples), len(clauses),
                                     palette, k)
    return out


def _c48_order(n_pairs: int, n_triples: int, n_clauses: int, palette: str,
               k: Optional[int]) -> int:
    """Vertex count of a _c48_instance with these numbers of pieces."""
    extras = _arc_extras(palette, k)
    emax = max(extras)
    base = _base_arc_length(palette)
    # internals per piece: P holds base-1+extra vertices, Q holds base+1+extra
    per_pair = (5 + 3 * (base - 1) + extras[0] + extras[1] + extras[3]
                + 3 * (base + 1) + sum(_pair_q_extras(extras)))
    per_tree = 3 + 2 * (base - 1 + emax) + 3 * (base + 1 + 2 * emax)
    per_clause = 3 + 3 * (base - 1 + emax) + (base + 1 + 2 * emax)
    return (1 + n_pairs * per_pair + n_triples * 3 * per_tree
            + n_clauses * per_clause)


# ---------------------------------------------------------------------------
# the 9-vertex pendant target and its list-homomorphism reduction


H9_CYCLE = ("1", "2", "3", "4", "5", "6")


def build_h9() -> GadgetGraph:
    """Six-cycle labelled 1..6, all Black, with a Red pendant at 1, Green
    at 3 and Yellow at 5; it is a core and its problem absorbs list
    homomorphism on the six-cycle."""
    b = _Builder()
    ring = [b.add("Black", name=lbl) for lbl in H9_CYCLE]
    for i in range(6):
        b.edge(ring[i], ring[(i + 1) % 6])
    for lbl, colour, name in (("1", "Red", "red"), ("3", "Green", "green"),
                              ("5", "Yellow", "yellow")):
        leaf = b.add(colour, name=name)
        b.edge(b.names[lbl], leaf)
    return b.build()


# Gadget catalogue keyed by the list contents over cycle labels 1..6.
# Each entry lists pendant paths as (colour strings, attach position): the
# path's vertex at that position is joined to the source copy.
_H9_GADGETS = {
    frozenset({1}): ((("Red",), 0),),
    frozenset({3}): ((("Green",), 0),),
    frozenset({5}): ((("Yellow",), 0),),
    frozenset({2}): ((("Black", "Red"), 0), (("Black", "Green"), 0)),
    frozenset({4}): ((("Black", "Green"), 0), (("Black", "Yellow"), 0)),
    frozenset({6}): ((("Black", "Yellow"), 0), (("Black", "Red"), 0)),
    frozenset({2, 4}): ((("Black", "Green"), 0),),
    frozenset({4, 6}): ((("Black", "Yellow"), 0),),
    frozenset({2, 6}): ((("Black", "Red"), 0),),
    frozenset({1, 3}): ((("Red", "Black", "Black", "Black", "Green"), 2),),
    frozenset({3, 5}): ((("Green", "Black", "Black", "Black", "Yellow"), 2),),
    frozenset({1, 5}): ((("Yellow", "Black", "Black", "Black", "Red"), 2),),
    frozenset({1, 3, 5}): ((("Black", "Black", "Red"), 0),),
    frozenset({2, 4, 6}): ((("Black", "Black", "Black", "Red"), 0),),
}


def c6_listhom_to_h9(source: TropicalGraph, lists: Mapping) -> GadgetGraph:
    """Attach a per-vertex gadget encoding its list over the cycle labels.

    Lists must be parity-pure subsets of {1,3,5} or {2,4,6} drawn from the
    fixed catalogue of shapes; the source must be bipartite.  The result
    maps to the pendant 9-vertex target exactly when the original list
    instance maps to the six-cycle.
    """
    if bipartition(source) is None:
        raise InputError("source must be bipartite")
    b = _Builder()
    copies = [b.add("Black", name=f"v{v}") for v in range(source.n)]
    for u, v in sorted(source.edges):
        b.edge(copies[u], copies[v])
    for v in range(source.n):
        if v not in lists:
            raise InputError(f"vertex {v} has no list")
        lst = frozenset(lists[v])
        if not lst or not (lst <= {1, 3, 5} or lst <= {2, 4, 6}):
            raise InputError(
                f"list {sorted(lst)} of vertex {v} is not parity-pure")
        spec = _H9_GADGETS.get(lst)
        if spec is None:
            raise InputError(
                f"list {sorted(lst)} of vertex {v} has no gadget shape")
        for colours, pos in spec:
            b.edge(b.weave(colours)[pos], copies[v])
    return b.build()


# ---------------------------------------------------------------------------
# zig-zag pieces for the retraction-to-2-colours step


def _runs_colours(n_runs: int, last: Colour, short_at: Optional[int],
                  run: int = 4) -> list:
    """White endpoint run, alternating interior runs of length run (the
    short_at-th interior run, if any, has length two), then the last run."""
    seq = ["W"]
    colour = "B"
    for t in range(1, n_runs - 1):
        seq.extend([colour] * (2 if t == short_at else run))
        colour = "W" if colour == "B" else "B"
    seq.append(last)
    return seq


def zigzag_p(l: int, i: Optional[int] = None) -> TropicalGraph:
    """The path P (i None) or P_i over l runs, l odd >= 3; its rightmost
    vertex is the attachment point."""
    if l < 3 or l % 2 == 0:
        raise InputError("l must be odd and at least 3")
    if i is not None and not 1 <= i <= l - 2:
        raise InputError(f"i must lie in 1..{l - 2}")
    return path_graph(_runs_colours(l, "W", i))


def zigzag_q(k: int, j: Optional[int] = None) -> TropicalGraph:
    """The path Q (j None) or Q_j over k runs, k even >= 4; its leftmost
    vertex is the attachment point."""
    if k < 4 or k % 2 == 1:
        raise InputError("k must be even and at least 4")
    if j is not None and not 1 <= j <= k - 2:
        raise InputError(f"j must lie in 1..{k - 2}")
    return path_graph(_runs_colours(k, "B", j))


def forcing_path(m: int, last: Colour) -> TropicalGraph:
    """Two-colour forcing path: single-W run, m - 2 interior runs of length
    two, and a final run of length one coloured `last`."""
    return path_graph(_runs_colours(m, last, None, run=2))


def zigzag_parameters(n_a: int, n_b: int) -> tuple:
    """Smallest usable run counts: odd l with l - 2 >= n_a and even k with
    k - 2 >= n_b, so an indexed piece exists for every attachment."""
    l = n_a + 2 if n_a % 2 else n_a + 3
    k = n_b + 2 if n_b % 2 == 0 else n_b + 3
    return max(l, 3), max(k, 4)


def _zigzag_sides(h: TropicalGraph) -> tuple:
    """(side A, side B, l, k) of the bipartite graph h, sides sorted."""
    bip = bipartition(h)
    if bip is None:
        raise InputError("h must be bipartite")
    side_a, side_b = sorted(bip.part_a), sorted(bip.part_b)
    return (side_a, side_b) + zigzag_parameters(len(side_a), len(side_b))


def _white_with_tails(g: TropicalGraph, prefix: str, tails_a: Sequence,
                      tails_b: Sequence, l: int, k: int,
                      full_tails: Sequence = ()) -> _Builder:
    """An all-White copy of g (vertex v named prefix + v) with a P_i tail
    glued at its rightmost vertex to tails_a[i - 1], a Q_j tail glued at
    its leftmost vertex to tails_b[j - 1], and a full P tail glued at its
    rightmost vertex to each vertex of full_tails.

    The tails grow with the square of the side sizes, so a result past
    formats.MAX_VERTICES vertices raises InputError before it is built.
    """
    # A tail of n runs has 4n - 6 vertices, two fewer with a short run,
    # and shares its glued end with g.
    order = (g.n + len(tails_a) * (4 * l - 9) + len(tails_b) * (4 * k - 9)
             + len(full_tails) * (4 * l - 7))
    _check_order(order, f"the zig-zag graph of a {g.n}-vertex input")
    b = _Builder()
    for v in range(g.n):
        b.add("W", name=f"{prefix}{v}")
    for u, v in sorted(g.edges):
        b.edge(u, v)
    for i, a in enumerate(tails_a, start=1):
        b.weave(_runs_colours(l, "W", i), end=a)
    for j, bb in enumerate(tails_b, start=1):
        b.weave(_runs_colours(k, "B", j), start=bb)
    for v in full_tails:
        b.weave(_runs_colours(l, "W", None), end=v)
    assert len(b.colours) == order
    return b


def build_zigzag_gadget(h: TropicalGraph) -> GadgetGraph:
    """Two-colour the bipartite graph h so that retraction onto it and
    tropical homomorphism to the result are interchangeable: every original
    vertex turns White, side-A vertex number i gets a P_i tail glued at its
    rightmost vertex, side-B vertex number j a Q_j tail glued at its
    leftmost vertex."""
    side_a, side_b, l, k = _zigzag_sides(h)
    b = _white_with_tails(h, "h", side_a, side_b, l, k)
    for i, a in enumerate(side_a, start=1):
        b.names[f"a{i}"] = a
    for j, bb in enumerate(side_b, start=1):
        b.names[f"b{j}"] = bb
    return b.build()


def transform_retraction_instance(g: TropicalGraph, h: TropicalGraph,
                                  embedding: Mapping) -> GadgetGraph:
    """Rewrite a retraction instance (g contains a designated copy of h)
    into a two-colour homomorphism instance against build_zigzag_gadget(h).

    Every g vertex turns White; the embedded copy receives the same P_i and
    Q_j tails as the target; every other vertex on the A side receives a
    full P tail at the P's rightmost vertex.
    """
    gbip = bipartition(g)
    if gbip is None or len(connected_components(g)) != 1:
        raise InputError("g must be connected and bipartite")
    check_embedding(h, g, embedding)
    side_a, side_b, l, k = _zigzag_sides(h)

    # A' is the g-side holding the embedded copy of side A.
    if side_a:
        probe = embedding[side_a[0]]
        part_a = gbip.part_a if probe in gbip.part_a else gbip.part_b
    else:
        part_a = gbip.part_a
    for a in side_a:
        if embedding[a] not in part_a:
            raise InputError("embedding does not respect the bipartition")
    for bb in side_b:
        if embedding[bb] in part_a:
            raise InputError("embedding does not respect the bipartition")

    embedded_a = [embedding[a] for a in side_a]
    b = _white_with_tails(g, "g", embedded_a,
                          [embedding[bb] for bb in side_b], l, k,
                          sorted(part_a - set(embedded_a)))
    return b.build()


# ---------------------------------------------------------------------------
# the tree building blocks


_S_BLOCK_KINDS = {
    "S12": {"x4_leaf": "GreenDot", "x26_leaf": "RedDot"},
    "S1T": {"x4_leaf": "RedCross", "x26_leaf": "RedDot"},
    "S2T": {"x4_leaf": "GreenCross", "x26_leaf": "GreenDot"},
}


def build_s_block(kind: str) -> GadgetGraph:
    """Twelve-vertex tree block: a seven-vertex Black path x1..x7 with
    BlackCross leaves at x1 and x7, matching Dot leaves at x2 and x6, and
    the kind's distinguishing leaf at x4."""
    spec = _S_BLOCK_KINDS.get(kind.upper().replace("_", "").replace(",", ""))
    if spec is None:
        raise InputError(f"unknown block kind {kind!r}; "
                         f"expected one of {sorted(_S_BLOCK_KINDS)}")
    b = _Builder()
    spine = [b.add("Black", name=f"x{i}") for i in range(1, 8)]
    for u, v in zip(spine, spine[1:]):
        b.edge(u, v)
    for pos, name in ((0, "cross1"), (6, "cross7")):
        leaf = b.add("BlackCross", name=name)
        b.edge(spine[pos], leaf)
    for pos, name in ((1, "dot2"), (5, "dot6")):
        leaf = b.add(spec["x26_leaf"], name=name)
        b.edge(spine[pos], leaf)
    leaf = b.add(spec["x4_leaf"], name="mid4")
    b.edge(spine[3], leaf)
    return b.build()
