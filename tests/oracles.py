"""Independent reference implementations used to check the library.

Everything here is deliberately naive: breadth-first closures and brute-force
subset scans whose correctness is obvious, at the price of speed.
"""

from functools import lru_cache
from itertools import combinations, permutations, product

from gpwork.complexes import LinkComplex
from gpwork.graphs import (canonical_bits, canonical_graph, induced_subgraph,
                           read_graph6, write_graph6)
from gpwork.words import Word


def shuffle_closure_normal_form(spec, syllables):
    """ShortLex-least reduced word equivalent to the input, by exhaustive
    closure under the elementary moves: delete a zero syllable, merge two
    adjacent syllables on the same vertex, swap two adjacent syllables on
    commuting vertices."""
    adj = spec.graph.adj
    start = tuple((v, spec.reduce_exp(v, e)) for v, e in syllables)
    seen = {start}
    queue = [start]
    while queue:
        w = queue.pop()
        for i in range(len(w)):
            v, e = w[i]
            moves = []
            if e == 0:
                moves.append(w[:i] + w[i + 1:])
            if i + 1 < len(w):
                u, f = w[i + 1]
                if u == v:
                    moves.append(w[:i] + ((v, spec.reduce_exp(v, e + f)),)
                                 + w[i + 2:])
                elif u in adj[v]:
                    moves.append(w[:i] + (w[i + 1], w[i]) + w[i + 2:])
            for nxt in moves:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    best = None
    for w in seen:
        if any(e == 0 for _, e in w):
            continue
        key = (len(w), [(spec.graph.index[v], e < 0, abs(e)) for v, e in w])
        if best is None or key < best[0]:
            best = (key, w)
    return best[1]


def normal_form_error(spec, syllables):
    """None if the syllables are the canonical normal form, else the reason.

    Reduced: no two syllables of one vertex can meet, walking left past
    syllables of commuting vertices.  Lexicographically least: no syllable
    can move left past a commuting syllable with a larger (index, e < 0,
    |e|) key.  Each syllable walks left only until the first syllable it
    does not commute with."""
    index = {v: i for i, v in enumerate(spec.graph.vertices)}
    adj = spec.graph.adj
    keys = [(index[v], e < 0, abs(e)) for v, e in syllables]
    for j, (v, _) in enumerate(syllables):
        for k in range(j - 1, -1, -1):
            u = syllables[k][0]
            if u == v:
                return "syllables %d and %d can merge" % (k, j)
            if u not in adj[v]:
                break
            if keys[k] > keys[j]:
                return "syllable %d can move left past %d" % (j, k)
    return None


def projections(spec, syllables, sign=1):
    """Per-vertex exponent sums, reduced modulo finite orders."""
    order = dict(spec.orders)
    sums = {v: 0 for v in order}
    for v, e in syllables:
        sums[v] += sign * e
    return {v: s if order[v] is None else s % order[v]
            for v, s in sums.items()}


def commuting_shuffle(spec, syllables, rng, swaps):
    """Swap random adjacent pairs of syllables on distinct commuting
    vertices."""
    adj = spec.graph.adj
    s = list(syllables)
    for _ in range(swaps):
        i = rng.randrange(len(s) - 1)
        if s[i + 1][0] in adj[s[i][0]]:
            s[i], s[i + 1] = s[i + 1], s[i]
    return s


def brute_force_hole(g, min_len):
    """Shortest induced cycle of length >= min_len: the first vertex subset,
    in lexicographic vertex order, that induces a single cycle, listed from
    its least vertex toward that vertex's lesser neighbor."""
    for size in range(min_len, len(g.vertices) + 1):
        for sub in combinations(g.vertices, size):
            cyc = _induced_cycle_order(g, sub)
            if cyc is not None:
                return cyc
    return None


def _induced_cycle_order(g, sub):
    """If the induced subgraph on sub is a single cycle, return its canonical
    vertex order (least vertex first, lesser neighbor second)."""
    sub = tuple(sub)
    deg = {v: sum(1 for u in sub if u != v and g.adjacent(u, v)) for v in sub}
    if any(d != 2 for d in deg.values()):
        return None
    order = sorted(sub, key=g.index.__getitem__)
    start = order[0]
    nbrs = sorted((u for u in sub if g.adjacent(start, u)),
                  key=g.index.__getitem__)
    walk = [start, nbrs[0]]
    while len(walk) < len(sub):
        cur, prev = walk[-1], walk[-2]
        nxt = [u for u in sub if u != prev and g.adjacent(cur, u)]
        if len(nxt) != 1 or nxt[0] in walk:
            return None  # a union of shorter cycles
        walk.append(nxt[0])
    if not g.adjacent(walk[-1], walk[0]):
        return None
    return tuple(walk)


def brute_force_isomorphic(g1, g2):
    """Permutation scan; only for tiny graphs."""
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return False
    v2 = g2.vertices
    for perm in permutations(v2):
        m = dict(zip(g1.vertices, perm))
        if all((frozenset((m[u], m[w])) in g2.edges) == (frozenset((u, w)) in g1.edges)
               for u, w in combinations(g1.vertices, 2)):
            return True
    return False


def brute_force_induced(g, pattern):
    """The first vertex subset, in lexicographic vertex order, whose induced
    subgraph is isomorphic to pattern, by permutation scans."""
    for sub in combinations(g.vertices, len(pattern.vertices)):
        if brute_force_isomorphic(induced_subgraph(g, sub), pattern):
            return frozenset(sub)
    return None


def wl_colors(g):
    """Iterated neighbor-degree refinement on adjacency sets: starting from
    the degrees, recolor each vertex by the rank of (its color, the sorted
    colors of its neighbors) until the colors stop changing."""
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


def permutation_canonical_bits(g):
    """(n, least graph6-order adjacency bit string) over every relabeling
    that lists the wl_colors classes in color order, each class in any
    order, by trying every product of permutations of the classes."""
    n = len(g.vertices)
    ix = g.index
    mat = [[0] * n for _ in range(n)]
    for u, v in g.sorted_edges():
        mat[ix[u]][ix[v]] = mat[ix[v]][ix[u]] = 1
    colors = wl_colors(g)
    cells = {}
    for v in g.vertices:
        cells.setdefault(colors[v], []).append(ix[v])
    best = None
    for cell_perms in product(*(permutations(cells[c]) for c in sorted(cells))):
        perm = [i for cell in cell_perms for i in cell]
        bits = tuple(mat[perm[i]][perm[j]] for j in range(1, n) for i in range(j))
        if best is None or bits < best:
            best = bits
    return (n, best)


def brute_force_automorphisms(g):
    """Every vertex permutation of g, as a tuple of image indices, that maps
    the edge set onto itself; found by trying all n! permutations."""
    ix = g.index
    edges = {frozenset(ix[v] for v in e) for e in g.edges}
    return {perm for perm in permutations(range(len(g.vertices)))
            if {frozenset(perm[v] for v in e) for e in edges} == edges}


@lru_cache(maxsize=None)
def unpruned_enumeration(n):
    """Sorted graph6 strings of the graph classes on n vertices: every class
    on n - 1 vertices gets a new last vertex joined to every vertex subset,
    and each candidate is identified by its canonical_bits."""
    if n == 1:
        return ("@",)
    seen = {}
    for text in unpruned_enumeration(n - 1):
        masks = read_graph6(text).masks
        for nb in range(1 << (n - 1)):
            cand = tuple(m | (nb >> i & 1) << (n - 1)
                         for i, m in enumerate(masks)) + (nb,)
            key = canonical_bits(cand)
            if key not in seen:
                seen[key] = canonical_graph(cand)
    return tuple(sorted(map(write_graph6, seen.values())))


def subset_cliques(g):
    """Every vertex subset of g that is pairwise adjacent, by size, then in
    lexicographic vertex order."""
    return [frozenset(c) for k in range(len(g.vertices) + 1)
            for c in combinations(g.vertices, k)
            if all(g.adjacent(u, v) for u, v in combinations(c, 2))]


def direct_cell_count(X):
    """Count cells of a box complex by explicitly listing them: a cell per
    clique of directions and base point from which a unit edge fits along
    each direction of the clique (always, on a cyclic axis)."""
    counts = {}
    box = X.box
    for clique in X.cliques:
        axes = [[c for c in box.points(v)
                 if v not in clique or box.by_vertex[v][0] == "cyclic"
                 or c < box.by_vertex[v][2]]
                for v in X.dirs]
        for base in product(*axes):
            counts[len(clique)] = counts.get(len(clique), 0) + 1
    return counts


def face_closure(maximal):
    """Every nonempty subset of every given simplex."""
    return frozenset(frozenset(sub) for s in maximal
                     for k in range(1, len(s) + 1)
                     for sub in combinations(sorted(s, key=str), k))


def signing_loop_link(X, p):
    """The vertex link of a box complex at p, by trying every signing of
    every nonempty clique: a signing is kept when each of its interval
    directions has a unit step that way inside the box, and the kept
    simplices are closed under faces."""
    p = tuple(p)
    maximal = []
    for clique in X.cliques:
        if not clique:
            continue
        for signs in product((1, -1), repeat=len(clique)):
            simplex = []
            for v, s in zip(sorted(clique, key=str), signs):
                r = X.box.by_vertex[v]
                c = p[X.dirs.index(v)]
                if r[0] == "interval" and not r[1] <= c + s <= r[2]:
                    break
                simplex.append((v, s))
            else:
                maximal.append(frozenset(simplex))
    verts = {next(iter(s)) for s in maximal if len(s) == 1}
    return LinkComplex(frozenset(verts), face_closure(maximal))


def subset_is_flag(lk):
    """Whether every set of pairwise linked vertices of a link spans a
    simplex, by scanning the vertex subsets of each size until a size has
    none that is pairwise linked."""
    verts = sorted(lk.verts, key=str)
    edges = {s for s in lk.simplices if len(s) == 2}
    for size in range(3, len(verts) + 1):
        found = False
        for cand in combinations(verts, size):
            if all(frozenset(p) in edges for p in combinations(cand, 2)):
                found = True
                if frozenset(cand) not in lk.simplices:
                    return False
        if not found:
            break
    return True


def edge_scan_is_cycle(lk):
    """Whether a link's edges form one cycle through all its vertices: every
    degree is 2, and a search that scans the whole edge set for each vertex
    it reaches reaches them all."""
    if not lk.verts:
        return False
    edges = {s for s in lk.simplices if len(s) == 2}
    deg = {v: 0 for v in lk.verts}
    for e in edges:
        for v in e:
            deg[v] += 1
    if any(d != 2 for d in deg.values()):
        return False
    start = min(lk.verts, key=str)
    seen = {start}
    stack = [start]
    while stack:
        cur = stack.pop()
        for e in edges:
            if cur in e:
                (other,) = e - {cur}
                if other not in seen:
                    seen.add(other)
                    stack.append(other)
    return len(seen) == len(lk.verts)


def box_contains(box, box2):
    """Axis-aligned containment of box2 in box, both on the same
    directions."""
    for v, r in box.ranges:
        r2 = box2.by_vertex.get(v)
        if r2 is None:
            return False
        if r[0] != r2[0]:
            return False
        if r[0] == "interval" and not (r[1] <= r2[1] and r2[2] <= r[2]):
            return False
        if r[0] == "cyclic" and r[1] != r2[1]:
            return False
    return True


def random_syllables(spec, rng, n, exp_window=3):
    """n random syllables over the spec, exponents not reduced to zero."""
    from gpwork.words import INF
    verts = spec.graph.vertices
    syls = []
    for _ in range(n):
        v = rng.choice(verts)
        m = spec.order[v]
        if m is INF:
            e = rng.choice([x for x in range(-exp_window, exp_window + 1) if x])
        else:
            e = rng.randrange(1, m)
        syls.append((v, e))
    return syls


def random_word(spec, rng, max_len, exp_window=3):
    """A random raw (unreduced) word over the spec."""
    return Word(spec, random_syllables(spec, rng, rng.randrange(max_len + 1),
                                       exp_window))
