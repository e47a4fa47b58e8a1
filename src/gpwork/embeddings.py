"""Generator-level homomorphisms between graph products, with computational
certification: relator annihilation and collision-free bounded balls.

The two constructions provided (doubling along a link, co-contraction) send
each source generator either to itself or to a conjugate t x t^-1 of a target
generator; the relator check certifies well-definedness and the injectivity
sample gives a finite certificate on a ball.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import (co_contract, double_along_link, lines_by_vertex,
                     opposite, read_lines)
from .words import (GroupSpec, INF, Word, _normal_form, enumerate_elements,
                    invert, multiply, normalize, parse_word, format_word)


@dataclass(frozen=True)
class HomomorphismSpec:
    source: GroupSpec
    target: GroupSpec
    images: tuple  # ((source vertex, target Word), ...)

    def __init__(self, source, target, images):
        items = []
        imap = dict(images)
        for v in source.graph.vertices:
            if v not in imap:
                raise ValueError("no image for source vertex %r" % (v,))
            items.append((v, normalize(imap[v])))
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "images", tuple(items))

    def apply(self, w):
        """Image of a source word, in target normal form: the images of its
        syllables are concatenated and normalized once."""
        imap = dict(self.images)
        syls = []
        for v, e in w.syllables:
            g = imap[v].syllables
            if e < 0:
                g = tuple((u, -f) for u, f in reversed(g))
            syls.extend(g * abs(e))
        return _normal_form(self.target, syls)


def double_homomorphism(g, t, orders, mirror=False):
    """Embedding of the graph product over the double of g minus st(t) along
    lk(t) into the graph product over g.

    First-copy generators map to themselves; a second-copy generator u' maps
    to t u t^-1 (or t^-1 u t with mirror=True).  Orders pull back along the
    copy projection.
    """
    tgt = GroupSpec(g, orders)
    dbl, rho = double_along_link(g, t)
    src = GroupSpec(dbl, {u: tgt.order[rho[u]] for u in dbl.vertices})
    conj = Word(tgt, ((t, 1),)) if not mirror else Word(tgt, ((t, -1),))
    images = []
    for u in dbl.vertices:
        base = Word(tgt, ((rho[u], 1),))
        if u == rho[u]:
            images.append((u, base))
        else:
            images.append((u, multiply(multiply(conj, base), invert(conj))))
    return HomomorphismSpec(src, tgt, images)


def co_contraction_embedding(g, e, orders, mirror=False):
    """Embedding induced by co-contracting the opposite-graph edge e = {x, t}.

    The contracted vertex y inherits the order of x and maps to t x t^-1; all
    other generators map to themselves.
    """
    e = frozenset(e)
    if e not in opposite(g).edges:
        raise ValueError("%r is not an edge of the opposite graph"
                         % (sorted(map(str, e)),))
    tgt = GroupSpec(g, orders)
    x, t = sorted(e, key=g.index.__getitem__)
    src_graph = co_contract(g, e)
    y = "%s*%s" % (x, t)
    src = GroupSpec(src_graph, {v: tgt.order[x if v == y else v]
                                for v in src_graph.vertices})
    conj = Word(tgt, ((t, 1),)) if not mirror else Word(tgt, ((t, -1),))
    images = []
    for v in src_graph.vertices:
        if v == y:
            xw = Word(tgt, ((x, 1),))
            images.append((v, multiply(multiply(conj, xw), invert(conj))))
        else:
            images.append((v, Word(tgt, ((v, 1),))))
    return HomomorphismSpec(src, tgt, images)


def relator_check(h):
    """Verify every source relator maps to the identity.

    Relators: v^m for each finite-order source vertex, and the commutator
    [u, w] for each source edge.  Returns (ok, failures) where each failure
    is (description, image normal form).
    """
    src = h.source
    failures = []
    for v, m in src.orders:
        if m is INF:
            continue
        img = h.apply(Word(src, ((v, 1),) * m))
        if len(img):
            failures.append(("%s^%d" % (v, m), format_word(img)))
    for u, w in src.graph.sorted_edges():
        comm = Word(src, ((u, 1), (w, 1), (u, -1), (w, -1)))
        img = h.apply(comm)
        if len(img):
            failures.append(("[%s,%s]" % (u, w), format_word(img)))
    return (not failures), failures


def injectivity_sample(h, max_len, exp_bound=1, cap=200000):
    """Check that distinct source elements of canonical length <= max_len
    have distinct images.  Returns (ok, collision or None)."""
    ball = enumerate_elements(h.source, max_len, exp_bound, cap=cap)
    seen = {}
    for w in ball:
        img = h.apply(w).syllables
        if img in seen:
            return False, (seen[img], w)
        seen[img] = w
    return True, None


def format_homomorphism(h):
    lines = []
    for v, w in h.images:
        lines.append("im %s %s" % (v, format_word(w)))
    return "\n".join(lines) + "\n"


def parse_homomorphism(source, target, text):
    """Read `im <source vertex> <target word>` lines, one per source vertex."""
    images = lines_by_vertex(
        read_lines(text, ("im",))["im"], source.order,
        lambda v, fields: parse_word(target, " ".join(fields)))
    return HomomorphismSpec(source, target, images)
