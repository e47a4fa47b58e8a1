"""Independent reference implementations used to check the library.

Everything here is deliberately naive: breadth-first closures and brute-force
subset scans whose correctness is obvious, at the price of speed.
"""

from functools import lru_cache
from itertools import combinations, permutations, product

from gpwork.complexes import LinkComplex
from gpwork.graphs import (SimpleGraph, _from_bits, canonical_bits,
                           induced_subgraph, opposite, read_graph6,
                           write_graph6)
from gpwork.words import (INF, GroupSpec, Word, _pile, _readout, format_word,
                          identity, invert, multiply, normalize)


def shuffle_closure(spec, word):
    """Every word reached from a word of reduced syllables by the elementary
    moves: delete a zero syllable, merge two adjacent syllables on the same
    vertex, swap two adjacent syllables on commuting vertices."""
    adj = spec.graph.adj
    seen = {word}
    queue = [word]
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
    return seen


def least_reduced_word(spec, words):
    """The ShortLex-least of the words with no zero syllable."""
    best = None
    for w in words:
        if any(e == 0 for _, e in w):
            continue
        key = (len(w), [(spec.graph.index[v], e < 0, abs(e)) for v, e in w])
        if best is None or key < best[0]:
            best = (key, w)
    return best[1]


_LEAST = {}  # {spec: {word: its closure's least reduced word}}, one spec


def shuffle_closure_normal_form(spec, syllables):
    """ShortLex-least reduced word equivalent to the input: the least reduced
    word of its `shuffle_closure`.

    Memoized exactly, for the last spec asked about: deleting and merging
    shorten a word and swaps can be undone, so every word of the closure
    with the input's length is reached by swaps alone and has the same
    closure.  The least word is stored for all of them."""
    word = tuple((v, spec.reduce_exp(v, e)) for v, e in syllables)
    if spec not in _LEAST:
        _LEAST.clear()
        _LEAST[spec] = {}
    memo = _LEAST[spec]
    if word not in memo:
        closure = shuffle_closure(spec, word)
        least = least_reduced_word(spec, closure)
        memo.update((w, least) for w in closure if len(w) == len(word))
    return memo[word]


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


def generator_syllables(spec, exp_window=1):
    """All single syllables with bounded exponents; with the default window,
    the letters of the ball.

    Finite-order vertices contribute every nonzero exponent; infinite-order
    vertices contribute exponents in [-exp_window, exp_window] minus zero.
    """
    out = []
    for v, m in spec.orders:
        if m is INF:
            exps = [e for e in range(-exp_window, exp_window + 1) if e != 0]
        else:
            exps = list(range(1, m))
        out.extend((v, e) for e in exps)
    return out


def bfs_ball(spec, max_len, cap=None):
    """The ball of words._ball by breadth-first search: max_len
    rounds of multiplying each new element by every generator syllable,
    duplicates dropped through a dict, then a sort by syllable count and
    ShortLex.  Raises as soon as more than cap elements are found."""
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    gens = generator_syllables(spec)
    seen = {(): identity(spec)}
    frontier = [identity(spec)]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for v, e in gens:
                prod = multiply(w, Word(spec, ((v, e),)))
                if prod.syllables not in seen:
                    seen[prod.syllables] = prod
                    nxt.append(prod)
                    if cap is not None and len(seen) > cap:
                        raise ValueError("ball exceeds the cap of %d elements"
                                         % (cap,))
        frontier = nxt
    index = spec.graph.index
    return sorted(seen.values(), key=lambda w: (
        len(w), [(index[v], e < 0, abs(e)) for v, e in w.syllables]))


def trial_conjugation_reduce(w):
    """cyclically_reduce by trial conjugation: scan the normal form for a
    syllable that commutes with everything before it (or after it), conjugate
    it to the other end, and keep the first conjugate that is shorter.
    Returns (w_reduced, c) with w = c * w_reduced * c^-1."""
    spec = w.spec
    adj = spec.graph.adj
    cur = normalize(w)
    conj = identity(spec)
    while True:
        syls = cur.syllables
        n = len(syls)
        improved = None
        for i, (v, e) in enumerate(syls):
            front_ok = all(v in adj[u] for u, _ in syls[:i])
            back_ok = all(v in adj[u] for u, _ in syls[i + 1:])
            if not (front_ok or back_ok):
                continue
            s = Word(spec, ((v, e),))
            if front_ok:
                cand = multiply(multiply(invert(s), cur), s)
                if len(cand) < n:
                    improved = (cand, s)
                    break
            if back_ok:
                cand = multiply(multiply(s, cur), invert(s))
                if len(cand) < n:
                    improved = (cand, invert(s))
                    break
        if improved is None:
            return cur, conj
        cur, s = improved
        conj = multiply(conj, s)


def cyclic_reduction_error(spec, syllables):
    """None if the syllables are cyclically reduced, else the reason: some
    vertex has one syllable that commutes with everything before it and
    another that commutes with everything after it."""
    adj = spec.graph.adj
    front, back = {}, {}
    for i, (v, _) in enumerate(syllables):
        if all(v in adj[u] for u, _ in syllables[:i]):
            front[v] = i
        if all(v in adj[u] for u, _ in syllables[i + 1:]):
            back[v] = i
    for v, i in front.items():
        if back.get(v, i) != i:
            return "syllables %d and %d of %s can meet around the end" % (
                i, back[v], v)
    return None


def first_collision(h, ball):
    """The first element of the ball whose image under h, by h.apply, is the
    image of an earlier one, with that earlier one; None if there is none."""
    seen = {}
    for w in ball:
        img = h.apply(w).syllables
        if img in seen:
            return seen[img], w
        seen[img] = w
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


def edge_list_views(vertices, edges):
    """(masks, edges, adj, sorted edges) of the graph on a vertex order and an
    edge list, each read off the edge list directly."""
    index = {v: i for i, v in enumerate(vertices)}
    edge_set = frozenset(map(frozenset, edges))
    adj = {v: frozenset(u for e in edge_set if v in e for u in e - {v})
           for v in vertices}
    masks = tuple(sum(1 << index[u] for u in adj[v]) for v in vertices)
    pairs = sorted((tuple(sorted(e, key=index.get)) for e in edge_set),
                   key=lambda p: (index[p[0]], index[p[1]]))
    return masks, edge_set, adj, pairs


def pairwise_opposite(g):
    """The complement graph: every vertex pair that is not an edge of g."""
    pairs = {frozenset(p) for p in combinations(g.vertices, 2)}
    return SimpleGraph(g.vertices, pairs - g.edges)


def edge_set_induced_subgraph(g, keep):
    """Induced subgraph on the vertex subset `keep`, in g's vertex order:
    the edges of g with both ends kept, through the checked constructor."""
    keep = set(keep)
    unknown = keep - set(g.vertices)
    if unknown:
        raise ValueError("unknown vertices %r" % (sorted(map(str, unknown)),))
    verts = tuple(v for v in g.vertices if v in keep)
    return SimpleGraph(verts, {e for e in g.edges if e <= keep})


def edge_set_contract_edge(g, e):
    """Simple contraction of edge e, read off the edge set: the merged
    vertex, labeled 'u*v', takes the later endpoint's edges."""
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


def round_trip_co_contract(g, e):
    """Co-contraction as the contraction of e in the opposite graph, read
    back through complementation."""
    opp = opposite(g)
    if frozenset(e) not in opp.edges:
        raise ValueError("%r is not an edge of the opposite graph"
                         % (sorted(map(str, e)),))
    return opposite(edge_set_contract_edge(opp, e))


def edge_set_double_along_link(g, t):
    """(double, rho) of g minus the open star of t along lk(t), from the
    edge list: each edge that misses t is laid down once in each copy, and
    the second copies of the vertices outside lk(t) get primed labels."""
    if t not in g.adj:
        raise ValueError("unknown vertex %r" % (t,))
    lk = g.adj[t]
    base = [v for v in g.vertices if v != t]
    prime = {v: v if v in lk else "%s'" % (v,) for v in base}
    verts = list(base) + [prime[v] for v in base if v not in lk]
    rho = {v: v for v in base}
    rho.update({prime[v]: v for v in base if v not in lk})
    edges = []
    for a, b in g.sorted_edges():
        if t not in (a, b):
            edges += [(a, b), (prime[a], prime[b])]
    return SimpleGraph(verts, edges), rho


def fresh_piles_relator_check(h):
    """relator_check with every relator's image piled onto fresh piles and
    every relator named before it is checked."""
    src, tgt = h.source, h.target
    relators = [("%s^%d" % (v, m), ((v, 1),) * m)
                for v, m in src.orders if m is not INF]
    relators += [("[%s,%s]" % (u, w), ((u, 1), (w, 1), (u, src.reduce_exp(u, -1)),
                                       (w, src.reduce_exp(w, -1))))
                 for u, w in src.graph.sorted_edges()]
    failures = []
    for text, rel in relators:
        piles, count = _pile(tgt, h._image_syllables(rel))
        if count:
            failures.append((text, format_word(_readout(tgt, piles, count))))
    return (not failures), failures


def adjacency_scan_noncommuting(graph):
    """Per vertex index, the indices of the other vertices not adjacent to
    it, scanned off the adjacency sets."""
    return tuple(tuple(j for j, u in enumerate(graph.vertices)
                       if u != v and u not in graph.adj[v])
                 for v in graph.vertices)


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
    deg = {v: sum(1 for u in sub if u != v and frozenset((u, v)) in g.edges)
           for v in sub}
    if any(d != 2 for d in deg.values()):
        return None
    order = sorted(sub, key=g.index.__getitem__)
    start = order[0]
    nbrs = sorted((u for u in sub if frozenset((start, u)) in g.edges),
                  key=g.index.__getitem__)
    walk = [start, nbrs[0]]
    while len(walk) < len(sub):
        cur, prev = walk[-1], walk[-2]
        nxt = [u for u in sub if u != prev and frozenset((cur, u)) in g.edges]
        if len(nxt) != 1 or nxt[0] in walk:
            return None  # a union of shorter cycles
        walk.append(nxt[0])
    if frozenset((walk[-1], walk[0])) not in g.edges:
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


def canonical_graph(g):
    """Relabel g into its canonical form, with labels v1..vn."""
    return _from_bits(*canonical_bits(g))


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
            if all(frozenset(e) in g.edges for e in combinations(c, 2))]


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


def salvetti_link(graph):
    """Link of the unique vertex of the one-vertex cube complex for the
    right-angled Artin group on `graph`: the flag complex on signed vertices,
    adjacency inherited from the graph, opposite signs of one vertex never
    adjacent.  Every signing of every clique is a simplex."""
    return LinkComplex(
        frozenset((v, s) for v in graph.vertices for s in (1, -1)),
        frozenset(frozenset(zip(c, signs)) for c in map(tuple, subset_cliques(graph))
                  if c for signs in product((1, -1), repeat=len(c))))


def pairwise_link_special(lk, model, at=None):
    """The local-isometry failure records of a link against a materialized
    model link, such as `salvetti_link`: repeated (direction, sign) labels,
    and every pair of link vertices whose being linked differs from their
    labels' being linked in the model."""
    failures = []
    labeled = [(lv, lv[:2]) for lv in sorted(lk.verts, key=str)]
    seen = set()
    for _, lab in labeled:
        if lab in seen:
            failures.append(("not injective", at, lab))
        seen.add(lab)
    for (a, la), (b, lb) in combinations(labeled, 2):
        # la == lb would look up the vertex {la}, not an edge
        linked = frozenset((a, b)) in lk.simplices
        if linked != (la != lb and frozenset((la, lb)) in model.simplices):
            failures.append(("not simplicial" if linked else "not full", at,
                             (la, lb)))
    return failures


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


def edge_tuple_skeleton(lk):
    """The 1-skeleton of a link, through the checked constructor from its
    2-simplices as tuples."""
    return SimpleGraph(lk.verts, [tuple(s) for s in lk.simplices
                                  if len(s) == 2])


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


def random_spec(rng, max_vertices, orders=(2, 3, INF)):
    """A spec on 1 to max_vertices vertices, stored in a random order, with
    each edge present with probability 1/2 and each order drawn from
    `orders`."""
    verts = ["v%d" % i for i in range(rng.randint(1, max_vertices))]
    rng.shuffle(verts)
    edges = [(u, w) for i, u in enumerate(verts) for w in verts[i + 1:]
             if rng.random() < 0.5]
    return GroupSpec(SimpleGraph(verts, edges),
                     {v: rng.choice(orders) for v in verts})
