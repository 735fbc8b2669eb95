"""Line-based text formats for graphs, lists and formulas.

Tropical graph (.tg):   comments start '#'; header ``tg <n> <m>``; then n
lines ``c <vertex> <colourToken>`` and m lines ``e <u> <v>``, 0-based.
Digraph:                header ``dg <n> <m>``; arc lines ``a <u> <v>``.
Lists:                  lines ``l <vertex> <t1> <t2> ...``.
Formulas:               DIMACS CNF, ``p cnf <vars> <clauses>`` with
                        0-terminated clauses; ``--nae`` inputs must be all
                        positive with three distinct variables per clause.

Serialized gadget graphs carry their named vertices in ``# name`` comment
lines, which re-parse losslessly.

Every parser refuses a graph past MAX_VERTICES vertices or MAX_EDGES edges
(arcs) before building anything for it: a header line, a DIMACS variable
count or a list vertex index past a cap, or below 0, raises InputError.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Optional

from .graphs import Colour, Digraph, InputError, TropicalGraph, dgraph

if TYPE_CHECKING:  # gadgets is imported by the parsers that need it
    from .gadgets import GadgetGraph

# Size caps of the parsers.  A header alone fixes how much is built (a
# digraph's vertices each grow a gadget), so a short input could otherwise
# ask for any size; the largest graph the tests and benchmarks write is a
# 6592-vertex gadget.
MAX_VERTICES = 100_000
MAX_EDGES = 1_000_000


def _token(colour: Colour) -> str:
    """Printable whitespace-free form of a colour token."""
    if isinstance(colour, tuple):
        return "~".join(_token(c) for c in colour)
    text = str(colour)
    if not text or any(ch.isspace() for ch in text) or text.startswith("#"):
        raise InputError(f"colour token {colour!r} is not serializable")
    return text


def _records(text: str):
    """(line number, fields) of each line that is neither blank nor a '#'
    comment, split as the parser reaches it."""
    for ln, raw in enumerate(text.splitlines(), start=1):
        row = raw.split()
        if row and row[0][0] != "#":
            yield ln, row


def _header(records, kind: str, counted: str) -> tuple:
    """(n, m) from the first record, which must read ``<kind> <n> <m>``."""
    first = next(records, None)
    if first is None:
        raise InputError("unexpected end of input")
    ln, head = first
    if len(head) != 3 or head[0] != kind:
        raise InputError(f"line {ln}: expected header '{kind} <n> <m>'")
    return (_capped(ln, _int(ln, head[1], "vertex count"), "vertex count"),
            _capped(ln, _int(ln, head[2], f"{counted} count"),
                    f"{counted} count", edges=True))


def _capped(ln: int, value: int, what: str, edges: bool = False) -> int:
    """value, unless it is negative or past the vertex cap (the edge cap
    with edges)."""
    cap, name = (MAX_EDGES, "MAX_EDGES") if edges else \
        (MAX_VERTICES, "MAX_VERTICES")
    if value < 0:
        raise InputError(f"line {ln}: {what} {value} is negative")
    if value > cap:
        raise InputError(f"line {ln}: {what} {value} is past the cap "
                         f"{name} = {cap}")
    return value


def _parse_names(text: str) -> dict:
    names = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        parts = raw.strip().split()
        if len(parts) == 4 and parts[0] == "#" and parts[1] == "name":
            try:
                names[parts[2]] = int(parts[3])
            except ValueError:
                raise InputError(f"line {ln}: bad name index") from None
    return names


def serialize_tropical(g: TropicalGraph,
                       names: Optional[Mapping] = None) -> str:
    out = [f"tg {g.n} {len(g.edges)}"]
    if names:
        for label in sorted(names):
            out.append(f"# name {label} {names[label]}")
    for v in range(g.n):
        out.append(f"c {v} {_token(g.colours[v])}")
    for u, v in sorted(g.edges):
        out.append(f"e {u} {v}")
    return "\n".join(out) + "\n"


def serialize_gadget(gg: GadgetGraph) -> str:
    return serialize_tropical(gg.graph, gg.names)


def _int(ln: int, text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InputError(f"line {ln}: {what} must be an integer, "
                         f"got {text!r}") from None


def parse_tropical(text: str) -> TropicalGraph:
    records = _records(text)
    n, m = _header(records, "tg", "edge")
    colours: dict = {}
    edges = set()
    for ln, row in records:
        kind = row[0]
        if kind == "c":
            if len(row) != 3:
                raise InputError(f"line {ln}: expected 'c <vertex> <colour>'")
            v = _int(ln, row[1], "vertex")
            if not 0 <= v < n:
                raise InputError(f"line {ln}: vertex {v} out of range")
            if v in colours:
                raise InputError(f"line {ln}: vertex {v} coloured twice")
            colours[v] = row[2]
        elif kind == "e":
            if len(row) != 3:
                raise InputError(f"line {ln}: expected 'e <u> <v>'")
            u = _int(ln, row[1], "endpoint")
            v = _int(ln, row[2], "endpoint")
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"line {ln}: edge {u},{v} out of range")
            if u == v:
                raise InputError(f"line {ln}: self-loop at {u}")
            key = (u, v) if u < v else (v, u)
            if key in edges:
                raise InputError(f"line {ln}: duplicate edge {u},{v}")
            edges.add(key)
        else:
            raise InputError(f"line {ln}: unknown record {kind!r}")
    try:
        seq = tuple(colours[v] for v in range(n))
    except KeyError as e:
        raise InputError(f"vertex {e.args[0]} uncoloured") from None
    if len(edges) != m:
        raise InputError(f"header declares {m} edges, found {len(edges)}")
    # The edges are range-checked and normalised above.
    return TropicalGraph(n, frozenset(edges), seq)


def parse_gadget(text: str) -> GadgetGraph:
    from .gadgets import GadgetGraph

    g = parse_tropical(text)
    names = _parse_names(text)
    for label, idx in names.items():
        if not 0 <= idx < g.n:
            raise InputError(f"named vertex {label!r} index out of range")
    return GadgetGraph(g, names)


def serialize_digraph(d: Digraph) -> str:
    out = [f"dg {d.n} {len(d.arcs)}"]
    for u, v in sorted(d.arcs):
        out.append(f"a {u} {v}")
    return "\n".join(out) + "\n"


def parse_digraph(text: str) -> Digraph:
    records = _records(text)
    n, m = _header(records, "dg", "arc")
    arcs = set()
    for ln, row in records:
        if row[0] != "a" or len(row) != 3:
            raise InputError(f"line {ln}: expected 'a <u> <v>'")
        u = _int(ln, row[1], "tail")
        v = _int(ln, row[2], "head")
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"line {ln}: arc {u},{v} out of range")
        if u == v:
            raise InputError(f"line {ln}: loop at {u}")
        if (u, v) in arcs:
            raise InputError(f"line {ln}: duplicate arc {u},{v}")
        arcs.add((u, v))
    if len(arcs) != m:
        raise InputError(f"header declares {m} arcs, found {len(arcs)}")
    return dgraph(n, arcs)


def parse_lists(text: str) -> dict:
    """Lines ``l <vertex> <t...>``; values are kept verbatim (consumers
    decide whether they are vertex indices or cycle labels)."""
    out: dict = {}
    for ln, row in _records(text):
        if row[0] != "l" or len(row) < 2:
            raise InputError(f"line {ln}: expected 'l <vertex> <values...>'")
        v = _int(ln, row[1], "vertex")
        if v < 0:
            raise InputError(f"line {ln}: vertex {v} is negative")
        if v >= MAX_VERTICES:
            raise InputError(f"line {ln}: vertex {v} is past the cap "
                             f"MAX_VERTICES = {MAX_VERTICES}")
        if v in out:
            raise InputError(f"line {ln}: vertex {v} listed twice")
        out[v] = frozenset(_int(ln, x, "list entry") for x in row[2:])
    return out


def serialize_lists(lists: Mapping) -> str:
    out = []
    for v in sorted(lists):
        vals = " ".join(str(x) for x in sorted(lists[v]))
        out.append(f"l {v} {vals}".rstrip())
    return "\n".join(out) + "\n"


def parse_dimacs(text: str, nae: bool = False):
    """DIMACS CNF body; returns CnfFormula, or NaeFormula when nae is set
    (which then requires all-positive literals, three distinct per clause)."""
    from .gadgets import CnfFormula, NaeFormula

    n_vars = None
    n_clauses = None
    literals: list = []
    clauses: list = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("c") or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if parts[0] == "p":
            if len(parts) != 4 or parts[1] != "cnf":
                raise InputError(f"line {ln}: expected 'p cnf <vars> "
                                 f"<clauses>'")
            n_vars = _capped(ln, _int(ln, parts[2], "variable count"),
                             "variable count")
            n_clauses = _capped(ln, _int(ln, parts[3], "clause count"),
                                "clause count", edges=True)
            continue
        if n_vars is None:
            raise InputError(f"line {ln}: clause before the 'p cnf' header")
        for tok in parts:
            lit = _int(ln, tok, "literal")
            if lit == 0:
                if not literals:
                    raise InputError(f"line {ln}: empty clause")
                clauses.append(tuple(literals))
                literals = []
                continue
            var = abs(lit) - 1
            if not 0 <= var < n_vars:
                raise InputError(f"line {ln}: variable {abs(lit)} out of "
                                 f"range")
            if nae and lit < 0:
                raise InputError(f"line {ln}: negative literal {lit} in a "
                                 f"not-all-equal formula")
            literals.append((var, lit > 0))
    if literals:
        raise InputError("last clause is not 0-terminated")
    if n_vars is None:
        raise InputError("missing 'p cnf' header")
    if n_clauses is not None and len(clauses) != n_clauses:
        raise InputError(f"header declares {n_clauses} clauses, "
                         f"found {len(clauses)}")
    if nae:
        plain_clauses = []
        for ln_cl in clauses:
            vars_only = tuple(var for var, _ in ln_cl)
            if len(vars_only) != 3 or len(set(vars_only)) != 3:
                raise InputError("not-all-equal clauses need three "
                                 "pairwise distinct variables")
            plain_clauses.append(vars_only)
        return NaeFormula(n_vars, tuple(plain_clauses))
    return CnfFormula(n_vars, tuple(clauses))
