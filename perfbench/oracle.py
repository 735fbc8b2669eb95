"""Answer checks that share no code with trophom.

Graphs here are plain tuples: ``(n, edges, colours)`` with ``edges`` a
collection of vertex pairs and ``colours`` a sequence of hashable tokens.
Everything is the benchmark's own: a pruned brute-force homomorphism
search, an edge-and-colour witness check, a not-all-equal truth table and
a reader for the ``.tg`` text format.
"""

from __future__ import annotations


def _adjacency(n, edges) -> list:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def find_hom(source, target):
    """A colour- and edge-preserving map source -> target, or None.

    Depth-first search over bitmask domains: each placed vertex narrows the
    domains of its unplaced neighbours to the image's target neighbours, so
    every candidate left is adjacent to the images of placed neighbours; the
    next vertex is the one with the fewest candidates left.
    """
    sn, s_edges, s_col = source
    tn, t_edges, t_col = target
    s_adj = _adjacency(sn, s_edges)
    t_nbr = [0] * tn
    for a, b in t_edges:
        t_nbr[a] |= 1 << b
        t_nbr[b] |= 1 << a
    by_colour: dict = {}
    for t, c in enumerate(t_col):
        by_colour[c] = by_colour.get(c, 0) | (1 << t)
    doms = [by_colour.get(s_col[v], 0) for v in range(sn)]
    if any(d == 0 for d in doms):
        return None
    image = [-1] * sn

    def place(doms, left) -> bool:
        if not left:
            return True
        v = min(left, key=lambda u: doms[u].bit_count())
        rest = left - {v}
        d = doms[v]
        while d:
            low = d & -d
            d ^= low
            t = low.bit_length() - 1
            child = list(doms)
            ok = True
            for w in s_adj[v]:
                if w in rest:
                    child[w] &= t_nbr[t]
                    if not child[w]:
                        ok = False
                        break
            if ok:
                image[v] = t
                if place(child, rest):
                    return True
                image[v] = -1
        return False

    if place(doms, frozenset(range(sn))):
        return {v: image[v] for v in range(sn)}
    return None


def is_hom(source, target, witness) -> bool:
    """True iff witness is total on source, lands in target, keeps every
    colour and maps every edge onto an edge."""
    sn, s_edges, s_col = source
    tn, t_edges, t_col = target
    if not isinstance(witness, dict) or set(witness) != set(range(sn)):
        return False
    if any(not (isinstance(t, int) and 0 <= t < tn)
           for t in witness.values()):
        return False
    if any(s_col[v] != t_col[witness[v]] for v in range(sn)):
        return False
    t_set = {(a, b) for a, b in t_edges} | {(b, a) for a, b in t_edges}
    return all((witness[u], witness[v]) in t_set for u, v in s_edges)


def nae_satisfiable(n_vars: int, clauses) -> bool:
    """Truth table: some assignment leaves no clause all-equal."""
    for mask in range(1 << n_vars):
        if all(len({mask >> a & 1, mask >> b & 1, mask >> c & 1}) == 2
               for a, b, c in clauses):
            return True
    return False


def read_tg(text: str):
    """Parse ``.tg`` text into ``(n, edges, colours)``; ValueError on any
    malformed line or count mismatch."""
    rows = [ln.split() for ln in text.splitlines()
            if ln.strip() and not ln.lstrip().startswith("#")]
    if not rows or rows[0][0] != "tg" or len(rows[0]) != 3:
        raise ValueError("missing 'tg <n> <m>' header")
    n, m = int(rows[0][1]), int(rows[0][2])
    colours = [None] * n
    edges = []
    for row in rows[1:]:
        if row[0] == "c" and len(row) == 3:
            colours[int(row[1])] = row[2]
        elif row[0] == "e" and len(row) == 3:
            edges.append((int(row[1]), int(row[2])))
        else:
            raise ValueError(f"unexpected line {' '.join(row)!r}")
    if None in colours or len(edges) != m:
        raise ValueError("vertex or edge count does not match the header")
    return n, edges, colours


def read_witness(lines) -> dict:
    """``map <src> <tgt>`` lines into a dict."""
    out = {}
    for ln in lines:
        parts = ln.split()
        if len(parts) == 3 and parts[0] == "map":
            out[int(parts[1])] = int(parts[2])
    return out
