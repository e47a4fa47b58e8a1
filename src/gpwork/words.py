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
n syllables over the vertex set V this costs O(n |V|).  Exponents are
reduced as they are pushed, so the kernel's words skip Word's checks.
`cyclically_reduce` reads the pile ends: a syllable can reach the front of
a normal form exactly when it is the bottom entry of its vertex's pile, and
the back exactly when it is the top one.

`_ball` writes out the ball that `embeddings.injectivity_sample` walks,
directly as the normal forms whose length in letters fits: length is
additive over their syllables (Green 1990; Hermiller-Meier 1995).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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
        return tuple(map(graphs._members, graphs._complement(self.graph.masks)))

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
    """A word over a GroupSpec.  `canonical` is internal to the kernel: it
    marks the words the kernel made in normal form, and takes no part in
    equality or hashing."""

    spec: GroupSpec
    syllables: tuple
    canonical: bool = field(default=False, compare=False)

    def __init__(self, spec, syllables):
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

    def __len__(self):
        return len(self.syllables)

    def __str__(self):
        return format_word(self)


def identity(spec):
    return _word(spec, ())


def _word(spec, syllables):
    """The canonical Word of kernel-made syllables, whose exponents are
    already reduced and nonzero, without Word's per-syllable checks."""
    w = object.__new__(Word)
    w.__dict__.update(spec=spec, syllables=syllables, canonical=True)
    return w


def _pile(spec, syllables, piles=None):
    """Push syllables whose exponents are nonzero modulo the vertex order,
    but not necessarily reduced, onto the piles (empty ones by default) as
    in the module docstring, reducing each exponent as it goes on.  Returns
    the piles and the change in the number of syllables they hold."""
    index = spec.graph.index
    order = spec.order
    noncomm = spec.noncommuting
    if piles is None:
        piles = [[] for _ in noncomm]
    count = 0
    for v, e in syllables:
        i = index[v]
        pile = piles[i]
        m = order[v]
        if pile and pile[-1] is not None:
            e = (e + pile[-1]) % m if m else e + pile[-1]
            if e:
                pile[-1] = e
            else:
                pile.pop()
                for j in noncomm[i]:
                    piles[j].pop()
                count -= 1
        else:
            pile.append(e % m if m else e)
            for j in noncomm[i]:
                piles[j].append(None)
            count += 1
    return piles, count


def _readout(spec, piles, count):
    """The canonical word of the `count` syllables on the piles."""
    verts = spec.graph.vertices
    noncomm = spec.noncommuting
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
    return _word(spec, tuple(out))


def _normal_form(spec, syllables):
    """The canonical word of syllables as `_pile` takes them."""
    return _readout(spec, *_pile(spec, syllables))


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
    """Return (r, c) with w = c * r * c^-1 and r cyclically reduced: no
    vertex has one syllable of r that can move to the front and another
    that can move to the back, where the two would merge.  Each step moves
    the first syllable in word order whose pile holds a syllable at both
    ends to the back, where it merges, and appends it to the conjugator."""
    spec = w.spec
    index = spec.graph.index
    syls = normalize(w).syllables
    moved = []
    while True:
        piles, _ = _pile(spec, syls)
        for i, (v, e) in enumerate(syls):
            pile = piles[index[v]]
            if len(pile) > 1 and pile[0] is not None and pile[-1] is not None:
                break
        else:
            return _word(spec, syls), _normal_form(spec, moved)
        moved.append((v, e))
        syls = _normal_form(spec, syls[:i] + syls[i + 1:] + ((v, e),)).syllables


def _ball(spec, max_len, cap):
    """The normal forms of length <= max_len as syllable tuples, in
    depth-first preorder with children in key order, so that each syllable
    count comes out in ShortLex order.  Raises once more than cap are found.

    Length counts letters: a syllable v^e costs 1 on a finite-order vertex
    and |e| on an infinite-order one, and length is additive over the
    syllables of a normal form.  A normal form takes a syllable on vertex u
    when walking left through the syllables that commute with u meets
    neither u nor a vertex after u before it meets one that does not
    commute with u.  As a mask: after a syllable on v, the vertices not
    commuting with v, and those after v that commute with v and were
    allowed before it.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    masks = spec.graph.masks
    full = (1 << len(masks)) - 1
    # per vertex: its bit, the two mask terms above, and per remaining
    # budget the syllables that fit, each as (1-tuple, cost), in key order
    steps = []
    for i, (v, m) in enumerate(spec.orders):
        if m is INF:
            by_budget = [[(((v, s * k),), k) for s in (1, -1)
                          for k in range(1, r + 1)]
                         for r in range(max_len + 1)]
        else:
            by_budget = [[(((v, e),), 1) for e in range(1, m)]] * (max_len + 1)
        steps.append((1 << i, full ^ masks[i] ^ 1 << i,
                      masks[i] & -(2 << i), by_budget))
    stack = [((), full, max_len)]
    found = 0
    while stack:
        syls, allowed, budget = stack.pop()
        found += 1
        if cap is not None and found > cap:
            raise ValueError("ball exceeds the cap of %d elements" % (cap,))
        yield syls
        if budget:
            kids = []
            for bit, noncomm, later, by_budget in steps:
                if allowed & bit:
                    nxt = noncomm | later & allowed
                    kids += [(syls + syl, nxt, budget - cost)
                             for syl, cost in by_budget[budget]]
            stack += reversed(kids)


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
