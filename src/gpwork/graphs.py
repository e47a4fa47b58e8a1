"""Finite simplicial graphs and the graph operations used throughout the package.

Graphs are immutable.  The stored vertex order is part of the value: it fixes
tie-breaking for witnesses, canonical forms and text output, but isomorphism
tests ignore it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, permutations, product


@dataclass(frozen=True)
class SimpleGraph:
    """A finite simple graph: ordered vertex labels and a set of unordered edges."""

    vertices: tuple
    edges: frozenset

    def __init__(self, vertices, edges=()):
        vertices = tuple(vertices)
        if len(set(vertices)) != len(vertices):
            raise ValueError("duplicate vertex labels")
        vset = set(vertices)
        norm = set()
        for e in edges:
            u, v = tuple(e)
            if u == v:
                raise ValueError("self-loop at %r" % (u,))
            if u not in vset or v not in vset:
                raise ValueError("edge %r has an unknown endpoint" % ((u, v),))
            norm.add(frozenset((u, v)))
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", frozenset(norm))

    @cached_property
    def index(self):
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def adj(self):
        nbrs = {v: set() for v in self.vertices}
        for e in self.edges:
            u, v = tuple(e)
            nbrs[u].add(v)
            nbrs[v].add(u)
        return {v: frozenset(s) for v, s in nbrs.items()}

    def __len__(self):
        return len(self.vertices)

    def adjacent(self, u, v):
        return frozenset((u, v)) in self.edges

    def sorted_edges(self):
        """Edges as pairs ordered by the stored vertex order."""
        ix = self.index
        out = []
        for e in self.edges:
            u, v = sorted(e, key=ix.__getitem__)
            out.append((u, v))
        out.sort(key=lambda p: (ix[p[0]], ix[p[1]]))
        return out

    def degree_sequence(self):
        return tuple(sorted(len(self.adj[v]) for v in self.vertices))

    def is_complete(self):
        n = len(self.vertices)
        return len(self.edges) == n * (n - 1) // 2

    def is_connected(self):
        if not self.vertices:
            return True
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            for w in self.adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)

    def components(self):
        """Vertex sets of connected components, ordered by least vertex."""
        seen = set()
        comps = []
        for v in self.vertices:
            if v in seen:
                continue
            comp = {v}
            stack = [v]
            while stack:
                for w in self.adj[stack.pop()]:
                    if w not in comp:
                        comp.add(w)
                        stack.append(w)
            seen |= comp
            comps.append(frozenset(comp))
        return comps


def opposite(g):
    """Complement graph on the same ordered vertex list."""
    edges = {frozenset(p) for p in combinations(g.vertices, 2)} - g.edges
    return SimpleGraph(g.vertices, edges)


def induced_subgraph(g, keep):
    """Induced subgraph on the vertex subset `keep`, in g's vertex order."""
    keep = set(keep)
    unknown = keep - set(g.vertices)
    if unknown:
        raise ValueError("unknown vertices %r" % (sorted(map(str, unknown)),))
    verts = tuple(v for v in g.vertices if v in keep)
    edges = {e for e in g.edges if e <= keep}
    return SimpleGraph(verts, edges)


def link(g, v):
    if v not in g.adj:
        raise ValueError("unknown vertex %r" % (v,))
    return set(g.adj[v])


def star(g, v):
    return {v} | link(g, v)


def contract_edge(g, e):
    """Simple contraction of edge e; the merged vertex is labeled 'u*v'."""
    e = frozenset(e)
    if e not in g.edges:
        raise ValueError("%r is not an edge" % (sorted(map(str, e)),))
    u, v = sorted(e, key=g.index.__getitem__)
    merged = "%s*%s" % (u, v)
    verts = [merged if w == u else w for w in g.vertices if w != v]
    edges = set()
    for a, b in (tuple(edge) for edge in g.edges):
        a2 = merged if a in (u, v) else a
        b2 = merged if b in (u, v) else b
        if a2 != b2:
            edges.add(frozenset((a2, b2)))
    return SimpleGraph(verts, edges)


def co_contract(g, e):
    """Contract e in the opposite graph, read back through complementation."""
    return opposite(contract_edge(opposite(g), e))


def double_along_link(g, t):
    """Double of g minus the open star of t along the link of t.

    Returns (double, rho) where rho maps every vertex of the double to the
    original vertex of g it copies.  Second-copy vertices outside lk(t) get
    primed labels.
    """
    if t not in g.adj:
        raise ValueError("unknown vertex %r" % (t,))
    lk = g.adj[t]
    base = [v for v in g.vertices if v != t]
    prime = {v: v if v in lk else "%s'" % (v,) for v in base}
    verts = list(base) + [prime[v] for v in base if v not in lk]
    rho = {v: v for v in base}
    rho.update({prime[v]: v for v in base if v not in lk})
    edges = set()
    for e in g.edges:
        if t in e:
            continue
        a, b = tuple(e)
        edges.add(frozenset((a, b)))
        edges.add(frozenset((prime[a], prime[b])))
    return SimpleGraph(verts, edges), rho


def _cycle_order(g, subset):
    """Vertex sequence of the induced cycle on `subset`, or None.

    The sequence starts at the least vertex and proceeds toward its
    lesser-index neighbor, so the result is deterministic.
    """
    sub = set(subset)
    if len(sub) < 3:
        return None
    deg = {}
    for v in sub:
        nb = g.adj[v] & sub
        if len(nb) != 2:
            return None
        deg[v] = sorted(nb, key=g.index.__getitem__)
    start = min(sub, key=g.index.__getitem__)
    cyc = [start]
    prev, cur = None, start
    while True:
        a, b = deg[cur]
        nxt = a if a != prev else b
        if nxt == start:
            break
        cyc.append(nxt)
        prev, cur = cur, nxt
    if len(cyc) != len(sub):
        return None  # two-regular but disconnected: a union of cycles
    return tuple(cyc)


def find_hole(g, min_len=5):
    """Shortest induced cycle of length >= min_len, lexicographically least.

    Returns the cycle as an ordered vertex tuple, or None.  Exhaustive over
    vertex subsets; fine for the at-most-a-dozen-vertex graphs handled here.
    """
    if min_len < 4:
        raise ValueError("min_len must be at least 4")
    n = len(g.vertices)
    for length in range(min_len, n + 1):
        for subset in combinations(g.vertices, length):
            cyc = _cycle_order(g, subset)
            if cyc is not None:
                return cyc
    return None


def is_chordal(g):
    """No induced cycle of length >= 4."""
    return find_hole(g, 4) is None


def is_weakly_chordal(g):
    """(verdict, witness): no hole of length >= 5 in g nor in its opposite.

    The witness is ('hole', cycle) or ('antihole', cycle) on failure, where an
    antihole cycle is listed in the cyclic order it has inside opposite(g).
    """
    hole = find_hole(g, 5)
    if hole is not None:
        return False, ("hole", hole)
    anti = find_hole(opposite(g), 5)
    if anti is not None:
        return False, ("antihole", anti)
    return True, None


def complete_separator(g):
    """Split g as (g1, g2, g0) with g0 = g1 ∩ g2 a complete separator.

    Returns None when g is complete.  A disconnected graph splits trivially
    with empty g0.  The separator returned is the smallest clique separator,
    ties broken lexicographically in vertex order.
    """
    if g.is_complete():
        return None
    comps = g.components()
    if len(comps) > 1:
        left = comps[0]
        right = set(g.vertices) - left
        return (induced_subgraph(g, left), induced_subgraph(g, right),
                SimpleGraph((), ()))
    for size in range(1, len(g.vertices) - 1):
        for cand in combinations(g.vertices, size):
            if any(not g.adjacent(u, v) for u, v in combinations(cand, 2)):
                continue
            rest = induced_subgraph(g, set(g.vertices) - set(cand))
            comps = rest.components()
            if len(comps) > 1:
                left = set(cand) | comps[0]
                right = set(g.vertices) - comps[0]
                return (induced_subgraph(g, left), induced_subgraph(g, right),
                        induced_subgraph(g, cand))
    return None


# -- isomorphism and canonical forms --------------------------------------

def _wl_colors(g):
    """Iterated neighbor-degree refinement; returns a color id per vertex."""
    colors = {v: len(g.adj[v]) for v in g.vertices}
    for _ in range(len(g.vertices)):
        sig = {v: (colors[v], tuple(sorted(colors[w] for w in g.adj[v])))
               for v in g.vertices}
        palette = {s: i for i, s in enumerate(sorted(set(sig.values())))}
        new = {v: palette[sig[v]] for v in g.vertices}
        if new == colors:
            break
        colors = new
    return colors


def are_isomorphic(g1, g2):
    """A vertex bijection g1 -> g2 preserving adjacency, or None.

    Deterministic: first mapping found trying candidates in vertex order.
    """
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return None
    c1, c2 = _wl_colors(g1), _wl_colors(g2)
    if sorted(c1.values()) != sorted(c2.values()):
        return None
    by_color = {}
    for v in g2.vertices:
        by_color.setdefault(c2[v], []).append(v)

    order = sorted(g1.vertices, key=lambda v: (c1[v], g1.index[v]))
    mapping = {}
    used = set()

    def extend(i):
        if i == len(order):
            return True
        v = order[i]
        for w in by_color.get(c1[v], ()):
            if w in used:
                continue
            ok = all((w2 := mapping.get(u)) is None or
                     g2.adjacent(w, w2) == g1.adjacent(v, u)
                     for u in mapping)
            if ok:
                mapping[v] = w
                used.add(w)
                if extend(i + 1):
                    return True
                del mapping[v]
                used.discard(w)
        return False

    return dict(mapping) if extend(0) else None


def has_induced(g, pattern):
    """A vertex subset of g inducing a copy of `pattern`, or None.

    The first matching subset in lexicographic vertex order is returned.
    """
    k = len(pattern.vertices)
    if k > len(g.vertices):
        raise ValueError("pattern has more vertices than the host graph")
    pat_deg = pattern.degree_sequence()
    for subset in combinations(g.vertices, k):
        sub = induced_subgraph(g, subset)
        if len(sub.edges) != len(pattern.edges):
            continue
        if sub.degree_sequence() != pat_deg:
            continue
        if are_isomorphic(sub, pattern) is not None:
            return frozenset(subset)
    return None


def _adjacency_bits(n, adjmatrix, perm):
    """Upper-triangle bit tuple of the graph relabeled by perm."""
    return tuple(adjmatrix[perm[i]][perm[j]]
                 for j in range(1, n) for i in range(j))


def canonical_bits(g):
    """Minimum upper-triangle adjacency bit-string over color-respecting
    relabelings.  Equal for isomorphic graphs; usable as a canonical key."""
    n = len(g.vertices)
    verts = g.vertices
    ix = g.index
    mat = [[0] * n for _ in range(n)]
    for e in g.edges:
        u, v = tuple(e)
        mat[ix[u]][ix[v]] = mat[ix[v]][ix[u]] = 1
    colors = _wl_colors(g)
    cells = {}
    for v in verts:
        cells.setdefault(colors[v], []).append(ix[v])
    cell_list = [cells[c] for c in sorted(cells)]
    best = None
    for cell_perms in product(*(permutations(c) for c in cell_list)):
        perm = [i for cell in cell_perms for i in cell]
        bits = _adjacency_bits(n, mat, perm)
        if best is None or bits < best:
            best = bits
    return (n, best)


def canonical_graph(g, labels=None):
    """Relabel g into its canonical form, with labels v1..vn by default."""
    n, bits = canonical_bits(g)
    if labels is None:
        labels = ["v%d" % (i + 1) for i in range(n)]
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((labels[i], labels[j]))
            k += 1
    return SimpleGraph(labels, edges)


_ENUM_CACHE = {}


def enumerate_graphs(n):
    """All isomorphism classes of graphs on n vertices, canonical labels,
    in graph6 order.  Built incrementally by one-vertex extensions."""
    if not 1 <= n <= 7:
        raise ValueError("n must be between 1 and 7")
    if n in _ENUM_CACHE:
        return list(_ENUM_CACHE[n])
    if n == 1:
        reps = [SimpleGraph(("v1",), ())]
    else:
        smaller = enumerate_graphs(n - 1)
        seen = {}
        new = "v%d" % (n,)
        for g in smaller:
            for nb in product((0, 1), repeat=n - 1):
                verts = g.vertices + (new,)
                edges = set(g.edges)
                for keep, v in zip(nb, g.vertices):
                    if keep:
                        edges.add(frozenset((v, new)))
                cand = SimpleGraph(verts, edges)
                key = canonical_bits(cand)
                if key not in seen:
                    seen[key] = canonical_graph(cand)
        reps = list(seen.values())
    reps.sort(key=write_graph6)
    _ENUM_CACHE[n] = reps
    return list(reps)


# -- text formats ----------------------------------------------------------

def write_graph6(g):
    """Standard graph6 encoding using the stored vertex order."""
    n = len(g.vertices)
    if n >= 63:
        raise ValueError("graph6 short form supports at most 62 vertices")
    ix = g.index
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if g.adjacent(g.vertices[i], g.vertices[j]) else 0)
    while len(bits) % 6:
        bits.append(0)
    out = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k:k + 6]:
            val = (val << 1) | b
        out.append(chr(val + 63))
    return "".join(out)


def read_graph6(text):
    """Decode a graph6 string into a SimpleGraph with labels v1..vn."""
    text = text.strip()
    if text.startswith(">>graph6<<"):
        text = text[10:]
    if not text:
        raise ValueError("empty graph6 string")
    codes = [ord(c) - 63 for c in text]
    if any(c < 0 or c > 63 for c in codes):
        raise ValueError("invalid graph6 character")
    n = codes[0]
    if n == 63:
        raise ValueError("graph6 long form is not supported")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(codes) - 1 != need:
        raise ValueError("graph6 string has wrong length for n=%d" % n)
    bits = []
    for c in codes[1:]:
        bits.extend((c >> s) & 1 for s in range(5, -1, -1))
    labels = ["v%d" % (i + 1) for i in range(n)]
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((labels[i], labels[j]))
            k += 1
    if any(bits[n * (n - 1) // 2:]):
        raise ValueError("nonzero padding bits in graph6 string")
    return SimpleGraph(labels, edges)


def write_edgelist(g):
    """Line-oriented text form: header `n <count> <labels>`, then `e u v`."""
    lines = ["n %d %s" % (len(g.vertices), " ".join(map(str, g.vertices)))]
    for u, v in g.sorted_edges():
        lines.append("e %s %s" % (u, v))
    return "\n".join(lines) + "\n"


def read_edgelist(text):
    verts = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "n":
            if verts is not None:
                raise ValueError("line %d: repeated header" % lineno)
            try:
                count = int(parts[1])
            except (IndexError, ValueError):
                raise ValueError("line %d: `n` needs an integer vertex count"
                                 % lineno) from None
            verts = parts[2:]
            if len(verts) != count:
                raise ValueError("line %d: label count mismatch" % lineno)
        elif parts[0] == "e":
            if len(parts) != 3:
                raise ValueError("line %d: malformed edge line" % lineno)
            edges.append((parts[1], parts[2]))
        elif parts[0] == "o":
            continue  # group-order lines belong to the spec format
        else:
            raise ValueError("line %d: unknown directive %r" % (lineno, parts[0]))
    if verts is None:
        raise ValueError("missing `n` header line")
    return SimpleGraph(verts, edges)
