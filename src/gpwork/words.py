"""Elements of a graph product of cyclic groups as syllable words.

A group is described by a graph together with a per-vertex order (an integer
>= 2, or None for infinite).  Words are sequences of syllables (vertex,
exponent).  `normalize` returns the canonical representative: the
lexicographically least of the shuffle-equivalent reduced words, under the
spec's stored vertex order.

It is computed by piling (Crisp-Godelle-Wiest for right-angled Artin groups,
with Green's reduction for cyclic vertex groups).  Each vertex has a pile; a
syllable goes on its own pile and puts a marker on the pile of every vertex
it does not commute with.  A syllable meeting a syllable on top of its own
pile merges with it, and a merge to zero pops that syllable and its markers:
everything pushed after it commutes with it, so nothing else moves.  The
piles then hold the reduced word as a heap, read out from the bottom by
taking, at each step, the least vertex whose next entry is a syllable.  For
n syllables over the vertex set V this costs O(n |V|).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

from . import graphs

INF = None  # vertex-group order marker for the infinite cyclic group


@dataclass(frozen=True)
class GroupSpec:
    """A graph plus a cyclic-group order for each vertex."""

    graph: graphs.SimpleGraph
    orders: tuple

    def __init__(self, graph, orders):
        if isinstance(orders, int) or orders is INF:
            orders = {v: orders for v in graph.vertices}
        items = []
        for v in graph.vertices:
            if v not in orders:
                raise ValueError("vertex %r has no order" % (v,))
            items.append((v, _checked_order(v, orders[v])))
        for v in orders:
            if v not in graph.index:
                raise ValueError("order given for unknown vertex %r" % (v,))
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "orders", tuple(items))

    @cached_property
    def order(self):
        return dict(self.orders)

    @cached_property
    def noncommuting(self):
        """Per vertex index, the indices of the other vertices it does not
        commute with."""
        g = self.graph
        return tuple(tuple(j for j, u in enumerate(g.vertices)
                           if u != v and u not in g.adj[v])
                     for v in g.vertices)

    @cached_property
    def finite_part(self):
        return tuple(v for v, m in self.orders if m is not INF)

    def reduce_exp(self, v, e):
        m = self.order[v]
        return e % m if m is not INF else e


def _checked_order(v, m):
    if m is not INF and m < 2:
        raise ValueError("order of %r must be >= 2 or infinite" % (v,))
    return m


@dataclass(frozen=True)
class Word:
    """A word over a GroupSpec; `canonical` marks a normalized value."""

    spec: GroupSpec
    syllables: tuple
    canonical: bool = False

    def __init__(self, spec, syllables, canonical=False):
        syls = []
        for v, e in syllables:
            if v not in spec.order:
                raise ValueError("unknown vertex %r" % (v,))
            e = spec.reduce_exp(v, e)
            if e == 0:
                raise ValueError("zero syllable at %r" % (v,))
            syls.append((v, e))
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "syllables", tuple(syls))
        object.__setattr__(self, "canonical", canonical)

    def __len__(self):
        return len(self.syllables)

    def __str__(self):
        return format_word(self)


def identity(spec):
    return Word(spec, (), canonical=True)


def _syl_key(spec, syl):
    v, e = syl
    return (spec.graph.index[v], e < 0, abs(e))


def _normal_form(spec, syllables):
    """The canonical word of a sequence of nonzero syllables whose exponents
    need not be reduced; piling and readout as in the module docstring."""
    verts = spec.graph.vertices
    index = spec.graph.index
    order = spec.order
    noncomm = spec.noncommuting
    piles = [[] for _ in verts]
    count = 0
    for v, e in syllables:
        i = index[v]
        pile = piles[i]
        if pile and pile[-1] is not None:
            m = order[v]
            e = (e + pile[-1]) % m if m else e + pile[-1]
            if e:
                pile[-1] = e
            else:
                pile.pop()
                for j in noncomm[i]:
                    piles[j].pop()
                count -= 1
        else:
            pile.append(e)
            for j in noncomm[i]:
                piles[j].append(None)
            count += 1
    pos = [0] * len(verts)
    out = []
    for _ in range(count):
        for i, pile in enumerate(piles):
            if pos[i] < len(pile) and pile[pos[i]] is not None:
                break
        out.append((verts[i], pile[pos[i]]))
        pos[i] += 1
        for j in noncomm[i]:
            pos[j] += 1
    return Word(spec, out, canonical=True)


def normalize(w):
    """Canonical normal form of w (see the module docstring); idempotent."""
    if w.canonical:
        return w
    return _normal_form(w.spec, w.syllables)


def _require_same_spec(u, v):
    if u.spec is not v.spec and u.spec != v.spec:
        raise ValueError("words live over different group specs")


def multiply(u, v):
    _require_same_spec(u, v)
    return _normal_form(u.spec, u.syllables + v.syllables)


def invert(u):
    return _normal_form(u.spec, [(v, -e) for v, e in reversed(u.syllables)])


def equal(u, v):
    _require_same_spec(u, v)
    return normalize(u).syllables == normalize(v).syllables


def project(w, v):
    """Total v-exponent of w, reduced modulo the order of v."""
    if v not in w.spec.order:
        raise ValueError("unknown vertex %r" % (v,))
    total = sum(e for u, e in w.syllables if u == v)
    return w.spec.reduce_exp(v, total)


def in_kernel_kp0(w):
    """Member of the kernel of the surjection onto the full direct product."""
    return all(project(w, v) == 0 for v in w.spec.graph.vertices)


def in_kernel_kpf(w):
    """Member of the kernel of the projections to the finite-order vertices."""
    return all(project(w, v) == 0 for v in w.spec.finite_part)


def cyclically_reduce(w):
    """Return (w_reduced, c) with w = c * w_reduced * c^-1, w_reduced of
    minimal length among conjugates reachable by stripping end syllables."""
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


def generator_syllables(spec, exp_bound=1):
    """All single syllables with bounded exponents; the enumeration alphabet.

    Finite-order vertices contribute every nonzero exponent; infinite-order
    vertices contribute exponents in [-exp_bound, exp_bound] minus zero.
    """
    out = []
    for v, m in spec.orders:
        if m is INF:
            exps = [e for e in range(-exp_bound, exp_bound + 1) if e != 0]
        else:
            exps = list(range(1, m))
        out.extend((v, e) for e in exps)
    return out


def enumerate_elements(spec, max_len, exp_bound=1, cap=None):
    """Distinct group elements with canonical length <= max_len, each once.

    For infinite-order vertices only syllable exponents within exp_bound are
    reached.  Yields canonical words, sorted by length then ShortLex.  With a
    cap, enumeration aborts as soon as more elements than the cap are found.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    gens = generator_syllables(spec, exp_bound)
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
        frontier = [w for w in nxt if len(w) <= max_len]
    words = [w for w in seen.values() if len(w) <= max_len]
    words.sort(key=lambda w: (len(w), [_syl_key(spec, s) for s in w.syllables]))
    return words


# -- text formats ----------------------------------------------------------

def format_word(w):
    if not w.syllables:
        return "1"
    parts = []
    for v, e in w.syllables:
        parts.append(str(v) if e == 1 else "%s^%d" % (v, e))
    return " ".join(parts)


def parse_word(spec, text):
    """Parse whitespace-separated syllables `v` or `v^e`; empty text or `1`
    is the identity."""
    text = text.strip()
    if not text or text == "1":
        return identity(spec)
    syls = []
    for tok in text.split():
        v, caret, es = tok.partition("^")
        try:
            e = int(es) if caret else 1
        except ValueError:
            raise ValueError("bad exponent in %r" % (tok,)) from None
        if v not in spec.order:
            raise ValueError("unknown vertex %r in word" % (v,))
        syls.append((v, e))
    # Word reduces each exponent; it refuses the ones that reduce to zero
    return Word(spec, [s for s in syls if spec.reduce_exp(*s)])


def format_spec(spec):
    return graphs.write_edgelist(spec.graph) + "".join(
        "o %s %s\n" % (v, "inf" if m is INF else m) for v, m in spec.orders)


def parse_order(token):
    """A vertex-group order token: an integer, or `inf` (or `oo`) for the
    infinite cyclic group."""
    if token in ("inf", "oo"):
        return INF
    try:
        return int(token)
    except ValueError:
        raise ValueError("%r is not an integer or inf" % (token,)) from None


def _order_line(v, fields):
    if len(fields) != 1:
        raise ValueError("expected `o <vertex> <order>`")
    return _checked_order(v, parse_order(fields[0]))


def spec_from_lines(lines):
    """The spec of the `n`, `e` and `o` lines found by `graphs.read_lines`."""
    graph = graphs.graph_from_lines(lines)
    return GroupSpec(graph, graphs.lines_by_vertex(lines["o"], graph.index,
                                                   _order_line))


def parse_spec(text):
    """Parse the edge-list format extended with `o <v> <m|inf>` lines."""
    return spec_from_lines(graphs.read_lines(text, ("n", "e", "o")))
