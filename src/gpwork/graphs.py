"""Finite simplicial graphs and the graph operations used throughout the package.

Graphs are immutable.  The stored vertex order is part of the value: it fixes
tie-breaking for witnesses, canonical forms and text output, but isomorphism
tests ignore it.

A graph's value is its vertex order and `masks`, one adjacency bitmask per
vertex.  Only outside input (`catalog`, `graph_from_lines`) goes through the
checked constructor; `_graph` builds every derived graph from masks, induced
subgraphs and link skeletons included: `_merge` refuses a taken label,
`double_along_link` primes one until free.  The search routines (holes,
cliques, induced patterns, isomorphism, canonical forms, enumeration) run on
the masks.  Vertices are colored by iterated neighbor-degree refinement
(`_refine`).  The canonical form (`canonical_bits`) is the least graph6-order
bit string (`_bits`) over the relabelings that list the color classes in color
order.  Isomorphism maps and automorphism groups come from one backtracking
search (`_bijections`).  An opposite graph's masks are one complement
(`_complement`), so an antihole is a hole (`find_hole`) of the opposite.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations


@dataclass(frozen=True)
class SimpleGraph:
    """A finite simple graph: ordered vertex labels and one adjacency bitmask
    per vertex, bit j of masks[i] set when vertices i and j are adjacent."""

    vertices: tuple
    masks: tuple

    def __init__(self, vertices, edges=()):
        vertices = tuple(vertices)
        if len(set(vertices)) != len(vertices):
            raise ValueError("duplicate vertex labels")
        index = {v: i for i, v in enumerate(vertices)}
        masks = _masks(len(vertices), [_edge(index, tuple(e)) for e in edges])
        self.__dict__.update(vertices=vertices, masks=masks, index=index)

    @cached_property
    def index(self):
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def edges(self):
        """The edges as frozensets of their two endpoints."""
        return frozenset(map(frozenset, self.sorted_edges()))

    @cached_property
    def adj(self):
        vs = self.vertices
        return {v: frozenset(vs[j] for j in _members(m))
                for v, m in zip(vs, self.masks)}

    def __len__(self):
        return len(self.vertices)

    def sorted_edges(self):
        """Edges as pairs ordered by the stored vertex order."""
        vs = self.vertices
        return [(vs[i], vs[j]) for i, m in enumerate(self.masks)
                for j in _members(m & -(2 << i))]  # -(2 << i): bits > i


def _graph(vertices, masks):
    """The graph on a vertex tuple with a tuple of adjacency masks, without
    the constructor's checks: for the graphs the kernel builds."""
    g = object.__new__(SimpleGraph)
    g.__dict__.update(vertices=vertices, masks=masks)
    return g


def _masks(n, pairs):
    """The adjacency masks of n vertices joined by the index pairs."""
    masks = [0] * n
    for i, j in pairs:
        masks[i] |= 1 << j
        masks[j] |= 1 << i
    return tuple(masks)


def _edge(index, pair):
    """The vertex indices of the pair (u, v), checked against `index`."""
    u, v = pair
    if u == v:
        raise ValueError("self-loop at %r" % (u,))
    if u not in index or v not in index:
        raise ValueError("edge %r has an unknown endpoint" % ((u, v),))
    return index[u], index[v]


def opposite(g):
    """Complement graph on the same ordered vertex list."""
    return _graph(g.vertices, _complement(g.masks))


def induced_subgraph(g, keep):
    """Induced subgraph on the vertex subset `keep`, in g's vertex order."""
    keep = set(keep)
    unknown = keep - g.index.keys()
    if unknown:
        raise ValueError("unknown vertices %r" % (sorted(map(str, unknown)),))
    subset = [i for i, v in enumerate(g.vertices) if v in keep]
    return _graph(tuple(g.vertices[i] for i in subset), _induced(g.masks, subset))


def _induced(masks, subset):
    """The masks of the subgraph induced on the vertex indices `subset`."""
    return tuple(sum(1 << b for b, w in enumerate(subset) if masks[v] >> w & 1)
                 for v in subset)


def contract_edge(g, e):
    """Simple contraction of edge e; the merged vertex is labeled 'u*v'."""
    return _merge(g, e, False)[0]


def co_contract(g, e):
    """Contract e in the opposite graph, read back through complementation:
    the merged vertex 'u*v' is joined to the common neighbors of u and v."""
    return _merge(g, e, True)[0]


def _merge(g, e, co):
    """(g with the pair e merged, rho).  e is an edge of g, or of its opposite
    when co is true; its earlier vertex u becomes 'u*v', joined to the union
    of the two neighborhoods (their intersection when co is true), the later
    is dropped, and rho maps each vertex to the one of g it copies."""
    ends = frozenset(e)
    index, masks = g.index, g.masks
    pair = (sorted(map(index.get, ends))
            if len(ends) == 2 and ends <= index.keys() else None)
    if pair is None or (masks[pair[0]] >> pair[1] & 1) == co:
        # a co-contraction names the pair as given, repeats included
        raise ValueError("%r is not an edge%s" % (
            sorted(map(str, e if co else ends)),
            " of the opposite graph" if co else ""))
    i, j = pair
    verts = g.vertices
    merged = "%s*%s" % (verts[i], verts[j])
    if merged in index:
        raise ValueError("the new vertex label %r is taken" % (merged,))
    nbrs = (masks[i] & masks[j] if co else masks[i] | masks[j]) & ~(1 << i | 1 << j)
    out = [nbrs if k == i else m & ~(1 << i) | (nbrs >> k & 1) << i
           for k, m in enumerate(masks)]
    del out[j]
    rho = dict(zip(verts[:i] + (merged,) + verts[i + 1:j] + verts[j + 1:],
                   verts[:j] + verts[j + 1:]))
    return _graph(tuple(rho), tuple(_drop(m, j) for m in out)), rho


def _drop(mask, i):
    """mask with bit i taken out and the bits above it moved down one."""
    return mask & (1 << i) - 1 | mask >> i + 1 << i


def double_along_link(g, t):
    """Double of g minus the open star of t along the link of t.

    Returns (double, rho) where rho maps every vertex of the double to the
    original vertex of g it copies.  The first copy is g minus t, in g's
    order; the second copies of the vertices outside lk(t) follow it, and
    each edge of g that misses t gives one edge in each copy.  The copy of v
    is v with primes added until the label is neither in g minus t nor an
    earlier copy's: `n 3 a b a'` doubled at b gives a'' and a''' for a and
    a', so rho, not the label, is the record of what each copy copies.
    """
    if t not in g.index:
        raise ValueError("unknown vertex %r" % (t,))
    k = g.index[t]
    # g minus t: its vertices, masks and the link of t
    verts = g.vertices[:k] + g.vertices[k + 1:]
    masks = [_drop(m, k) for m in g.masks[:k] + g.masks[k + 1:]]
    lk = _drop(g.masks[k], k)
    outside = [i for i in range(len(verts)) if not lk >> i & 1]
    # the double's labels, and the index of each vertex's second copy
    labels, copy = list(verts), list(range(len(verts)))
    for i in outside:
        label = "%s'" % (verts[i],)
        while label in labels:
            label += "'"
        copy[i] = len(labels)
        labels.append(label)

    def second(m):
        return sum(1 << copy[i] for i in _members(m))

    masks = ([m | second(m) if lk >> i & 1 else m for i, m in enumerate(masks)]
             + [second(masks[i]) for i in outside])
    rho = dict(zip(labels, verts + tuple(verts[i] for i in outside)))
    return _graph(tuple(labels), tuple(masks)), rho


@lru_cache(maxsize=1 << 12)
def _members(mask):
    """Indices of the set bits of mask, ascending."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _subsets(indices, k):
    """(subset, mask) for each k-subset of the ascending vertex indices, in
    lexicographic order."""
    for subset in combinations(indices, k):
        mask = 0
        for v in subset:
            mask |= 1 << v
        yield subset, mask


def cliques(g):
    """Every clique of g as a vertex frozenset: the empty one first, then by
    size, each size in lexicographic vertex order."""
    verts, masks = g.vertices, g.masks
    out = [frozenset()]
    # (clique, mask of the common neighbors after its last vertex)
    layer = [((), (1 << len(verts)) - 1)]
    while layer:
        layer = [(c + (v,), cand & masks[v] & -(2 << v))  # -(2 << v): bits > v
                 for c, cand in layer for v in _members(cand)]
        out.extend(frozenset(verts[i] for i in c) for c, _ in layer)
    return out


def _cycle(masks, s):
    """The vertices of mask s in walk order, from the least vertex toward its
    lesser neighbor, when they induce one cycle; else None.  The walk stops at
    a vertex without two neighbors in s, so it can only come back to the
    start, and s is one cycle when the walk visited all of it."""
    if not s:
        return None
    start = cur = (s & -s).bit_length() - 1
    # pretend the walk came from the greater neighbor: it leaves by the lesser
    prev = (masks[start] & s).bit_length() - 1
    cyc = []
    while True:
        nbrs = masks[cur] & s
        if nbrs.bit_count() != 2:
            return None
        cyc.append(cur)
        prev, cur = cur, (nbrs ^ 1 << prev).bit_length() - 1
        if cur == start:
            return cyc if len(cyc) == s.bit_count() else None


def find_hole(g, min_len=5):
    """Shortest induced cycle of length >= min_len, lexicographically least.

    Returns the cycle as an ordered vertex tuple, or None: the first subset in
    lexicographic vertex order that is one cycle, walked by `_cycle`.
    Exhaustive over vertex subsets; fine for the at-most-a-dozen-vertex
    graphs handled here.
    """
    if min_len < 4:
        raise ValueError("min_len must be at least 4")
    masks = g.masks
    cands = [v for v, m in enumerate(masks) if m.bit_count() >= 2]
    for length in range(min_len, len(cands) + 1):
        for _, s in _subsets(cands, length):
            cyc = _cycle(masks, s)
            if cyc is not None:
                return tuple(g.vertices[v] for v in cyc)
    return None


def _complement(masks):
    """The adjacency masks of the opposite graph, in the same vertex order."""
    full = (1 << len(masks)) - 1
    return tuple(full ^ m ^ 1 << i for i, m in enumerate(masks))


def is_weakly_chordal(g):
    """(verdict, witness): no hole of length >= 5 in g nor in its opposite.

    The witness is ('hole', cycle) or ('antihole', cycle) on failure, where an
    antihole cycle is a hole of opposite(g), listed in its cyclic order there.
    """
    hole = find_hole(g, 5)
    if hole is not None:
        return False, ("hole", hole)
    anti = find_hole(opposite(g), 5)
    return (True, None) if anti is None else (False, ("antihole", anti))


# -- isomorphism and canonical forms --------------------------------------

def _refine(masks):
    """Iterated neighbor-degree refinement; a color id per vertex index.

    Colors start as degrees.  Each round recolors every vertex by the rank of
    (its color, the sorted colors of its neighbors) among all such pairs,
    until a round splits no class or every class is a single vertex.  A
    vertex alone in its class ranks by its color only, so its neighbors are
    not looked at."""
    nbrs = [_members(m) for m in masks]
    colors = [m.bit_count() for m in masks]
    classes = len(set(colors))
    for _ in masks:
        size = {}
        for c in colors:
            size[c] = size.get(c, 0) + 1
        get = colors.__getitem__
        sig = [(c, tuple(sorted(map(get, nb)))) if size[c] > 1 else (c,)
               for c, nb in zip(colors, nbrs)]
        palette = {s: i for i, s in enumerate(sorted(set(sig)))}
        colors = [palette[s] for s in sig]
        if len(palette) in (classes, len(masks)):
            break
        classes = len(palette)
    return colors


def _bijections(m1, c1, m2, c2):
    """Every bijection from the vertices of m1 onto those of m2 that keeps
    colors and adjacency, as a tuple whose entry v is the image of v.

    One depth-first search: the vertices of m1 are placed in color order
    (ties by index), each trying the unused vertices of its color in m2 in
    index order, and a vertex fits when its neighbors among those already
    placed map exactly onto its image's neighbors among the images."""
    n = len(m1)
    by_color = {}
    for w, c in enumerate(c2):
        by_color.setdefault(c, []).append(w)
    order = sorted(range(n), key=c1.__getitem__)
    perm = [0] * n

    def extend(i, placed, used):
        if i == n:
            yield tuple(perm)
            return
        v = order[i]
        want = 0
        for u in _members(m1[v] & placed):
            want |= 1 << perm[u]
        for w in by_color[c1[v]]:
            if not used >> w & 1 and m2[w] & used == want:
                perm[v] = w
                yield from extend(i + 1, placed | 1 << v, used | 1 << w)

    return extend(0, 0, 0)


def _automorphisms(masks):
    """Aut of the graph given by adjacency masks, as image tuples.  Every
    automorphism keeps the `_refine` colors, so the search misses none."""
    colors = _refine(masks)
    return list(_bijections(masks, colors, masks, colors))


def are_isomorphic(g1, g2):
    """A vertex bijection g1 -> g2 preserving adjacency, or None.

    Deterministic: first mapping found trying candidates in vertex order.
    """
    m1, m2 = g1.masks, g2.masks
    if sorted(map(int.bit_count, m1)) != sorted(map(int.bit_count, m2)):
        return None
    c1, c2 = _refine(m1), _refine(m2)
    if sorted(c1) != sorted(c2):
        return None
    perm = next(_bijections(m1, c1, m2, c2), None)
    if perm is None:
        return None
    return {g1.vertices[v]: g2.vertices[w] for v, w in enumerate(perm)}


def has_induced(g, pattern):
    """A vertex subset of g inducing a copy of `pattern`, or None.

    The first matching subset in lexicographic vertex order is returned.
    """
    k = len(pattern.vertices)
    if k > len(g.vertices):
        raise ValueError("pattern has more vertices than the host graph")
    masks = g.masks
    degrees = sorted(m.bit_count() for m in pattern.masks)
    key = None
    for subset, s in _subsets(range(len(masks)), k):
        if sorted((masks[v] & s).bit_count() for v in subset) != degrees:
            continue
        key = key or _key(pattern.masks)
        if _key(_induced(masks, subset)) == key:
            return frozenset(g.vertices[v] for v in subset)
    return None


def _canonical(masks, colors):
    """The orders the `canonical_bits` search keeps, given `_refine` colors."""
    n = len(masks)
    cell_of = {}
    for v, c in enumerate(colors):
        cell_of[c] = cell_of.get(c, 0) | 1 << v
    twins = [0] * n  # twins[v]: the lesser-index twins of v
    for cell in cell_of.values():
        for v in _members(cell):
            for u in _members(cell & ((1 << v) - 1)):
                if masks[u] & ~(1 << v) == masks[v] & ~(1 << u):
                    twins[v] |= 1 << u
    level = [((), 0)]
    for c in sorted(colors):
        best, keep = None, []
        for prefix, used in level:
            free = cell_of[c] & ~used
            for v in _members(free):
                if twins[v] & free:
                    continue
                col, m = 0, masks[v]
                for u in prefix:
                    col = col << 1 | (m >> u & 1)
                if best is None or col < best:
                    best, keep = col, []
                if col == best:
                    keep.append((prefix + (v,), used | 1 << v))
        level = keep
    return [order for order, _ in level]


def _key(masks):
    """`canonical_bits` of a tuple of adjacency masks."""
    return (len(masks), _bits(masks, _canonical(masks, _refine(masks))[0]))


def _bits(masks, order):
    """The graph6 bits of the graph relabeled so that position j holds vertex
    order[j]: the upper triangle of its adjacency matrix, column by column."""
    return tuple(masks[v] >> u & 1 for j, v in enumerate(order)
                 for u in order[:j])


def canonical_bits(g):
    """Canonical key (n, bits) of a graph, or of a tuple of adjacency masks.

    bits is the least graph6-order bit string (upper triangle, column by
    column) over the relabelings that list the `_refine` color classes in
    color order, each class in any order; equal for isomorphic graphs.  The
    search fills positions left to right and keeps only the prefixes whose
    newest column ties the least one, since columns are compared in order.
    At each position it tries one vertex per twin class: twins u, v (with
    N(u) - {v} = N(v) - {u}) that are both unplaced give equal strings,
    because swapping them is an automorphism fixing the prefix.
    """
    return _key(g if isinstance(g, tuple) else g.masks)


def _from_bits(n, bits):
    """The graph on v1..vn with graph6-order adjacency bits."""
    pairs = ((i, j) for j in range(1, n) for i in range(j))
    return _graph(tuple("v%d" % (i + 1) for i in range(n)),
                  _masks(n, [p for p, b in zip(pairs, bits) if b]))


_ENUM_CACHE = {}


def _orbit_representatives(masks, room):
    """The least member, as a mask, of each orbit of the graph's automorphism
    group on vertex subsets of at most `room` vertices."""
    if room <= 0:
        return [0] if room == 0 else []
    images = [[1 << w for w in perm] for perm in _automorphisms(masks)]
    marked = set()
    out = []
    for s in range(1 << len(masks)):
        if s in marked or s.bit_count() > room:
            continue
        out.append(s)
        members = _members(s)
        marked.update(sum(img[v] for v in members) for img in images)
    return out


def enumerate_graphs(n):
    """All isomorphism classes of graphs on n vertices, canonical labels,
    in graph6 order.

    Canonical augmentation (McKay, 1998) of the graphs on n - 1 vertices,
    for the lower half of the edge counts: with half = C(n,2) // 2, a parent
    with e edges gets a new last vertex joined to one subset per orbit of its
    automorphism group on subsets of at most half - e vertices.  Every graph
    with at most half edges arises, since deleting a vertex never adds
    edges.  A candidate is accepted, once per class, when its new vertex is
    in the orbit of the one the canonical order places last, that is, when a
    kept order of the search ends in it (it has the greatest index).  That
    vertex has the greatest degree and color, which rejects most candidates
    before any search.  An accepted class with fewer than C(n,2) / 2 edges
    adds its opposite's key.  Sorted keys give graph6 order."""
    if not 1 <= n <= 8:
        raise ValueError("n must be between 1 and 8")
    if n in _ENUM_CACHE:
        return list(_ENUM_CACHE[n])
    pairs = n * (n - 1) // 2
    keys = [(1, ())] if n == 1 else []
    for g in enumerate_graphs(n - 1) if n > 1 else ():
        size = sum(map(int.bit_count, g.masks)) // 2
        room = pairs // 2 - size
        for nb in _orbit_representatives(g.masks, room):
            cand = tuple(m | (nb >> i & 1) << (n - 1)
                         for i, m in enumerate(g.masks)) + (nb,)
            if nb.bit_count() < max(map(int.bit_count, cand)):
                continue
            colors = _refine(cand)
            if colors[-1] < max(colors):
                continue
            orders = _canonical(cand, colors)
            if all(order[-1] < n - 1 for order in orders):
                continue
            keys.append((n, _bits(cand, orders[0])))
            if 2 * (size + nb.bit_count()) < pairs:
                keys.append(canonical_bits(_complement(cand)))
    reps = [_from_bits(*k) for k in sorted(keys)]
    _ENUM_CACHE[n] = reps
    return list(reps)


# -- text formats ----------------------------------------------------------

def write_graph6(g):
    """Standard graph6 encoding using the stored vertex order."""
    n = len(g.vertices)
    if n >= 63:
        raise ValueError("graph6 short form supports at most 62 vertices")
    bits = "".join(map(str, _bits(g.masks, range(n))))
    bits += "0" * (-len(bits) % 6)
    return chr(n + 63) + "".join(chr(63 + int(bits[k:k + 6], 2))
                                 for k in range(0, len(bits), 6))


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
    bits = [c >> s & 1 for c in codes[1:] for s in range(5, -1, -1)]
    if any(bits[n * (n - 1) // 2:]):
        raise ValueError("nonzero padding bits in graph6 string")
    return _from_bits(n, bits)


def write_edgelist(g):
    """Line-oriented text form: header `n <count> <labels>`, then `e u v`."""
    lines = ["n %d %s" % (len(g.vertices), " ".join(map(str, g.vertices)))]
    for u, v in g.sorted_edges():
        lines.append("e %s %s" % (u, v))
    return "\n".join(lines) + "\n"


def read_lines(text, directives):
    """The directive lines of a text, as {directive: [(line number, fields
    after the directive), ...]} in text order, for each of `directives`.

    Blank lines and `#` comments are skipped; any other directive is an error
    naming its line.  Each text format is read from one such scan, the
    directives of each layer by that layer's reader: `read_edgelist` takes
    `n` and `e`, `words.parse_spec` adds `o`, `complexes.parse_complex`
    adds `box`; `embeddings.parse_homomorphism` reads `im`."""
    found = {d: [] for d in directives}
    for lineno, raw in enumerate(text.splitlines(), 1):
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        if fields[0] not in found:
            raise ValueError("line %d: unknown directive %r" % (lineno, fields[0]))
        found[fields[0]].append((lineno, fields[1:]))
    return found


@contextmanager
def _at_line(lineno):
    """Prefix the message of a ValueError raised inside with its line."""
    try:
        yield
    except ValueError as exc:
        raise ValueError("line %d: %s" % (lineno, exc)) from None


def lines_by_vertex(entries, vertices, parse):
    """{v: parse(v, fields)} over the `(line number, [v, *fields])` entries
    of one directive from `read_lines`.  A line without a vertex, with one
    outside `vertices` or one an earlier line gave, or one that `parse`
    rejects with a ValueError, is an error naming its line."""
    out = {}
    for lineno, fields in entries:
        v = fields[0] if fields else None
        with _at_line(lineno):
            if v not in vertices:
                raise ValueError("unknown vertex %r" % (v,) if fields
                                 else "no vertex")
            if v in out:
                raise ValueError("a second line for vertex %r" % (v,))
            out[v] = parse(v, fields[1:])
    return out


def graph_from_lines(lines):
    """The graph of the `n` header and `e` lines found by `read_lines`."""
    if not lines["n"]:
        raise ValueError("missing `n` header line")
    (lineno, fields), *repeats = lines["n"]
    if repeats:
        raise ValueError("line %d: repeated header" % repeats[0][0])
    with _at_line(lineno):
        try:
            count = int(fields[0])
        except (IndexError, ValueError):
            raise ValueError("`n` needs an integer vertex count") from None
        if len(fields) - 1 != count:
            raise ValueError("label count mismatch")
        g = SimpleGraph(fields[1:])
    edges = []
    for lineno, fields in lines["e"]:
        with _at_line(lineno):
            if len(fields) != 2:
                raise ValueError("malformed edge line")
            edges.append(_edge(g.index, fields))
    return _graph(g.vertices, _masks(len(g), edges))


def read_edgelist(text):
    """Read the text form of `write_edgelist`; a spec file's `o` lines are
    skipped."""
    return graph_from_lines(read_lines(text, ("n", "e", "o")))
