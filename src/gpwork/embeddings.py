"""Generator-level homomorphisms between graph products, with computational
certification: relator annihilation and collision-free bounded balls.

The two constructions provided (doubling along a link, co-contraction) send
each source generator to itself or to a conjugate t x t^-1 of a target
generator, written in normal form; the relator check concatenates images
from each map's image table, and the injectivity sample certifies a ball.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import _merge, double_along_link, lines_by_vertex, read_lines
from .words import (GroupSpec, INF, _ball, _normal_form, _pile, _readout,
                    _spec, _word, normalize, parse_word, format_word)
from .words import multiply  # noqa: F401  bound here for perfbench's tracer test


@dataclass(frozen=True)
class HomomorphismSpec:
    """Generator images, with a `_table` of their and their inverses' syllables."""

    source: GroupSpec
    target: GroupSpec
    images: tuple  # ((source vertex, target Word), ...)

    def __init__(self, source, target, images):
        imap = {}
        for v, w in images:
            if v not in source.order:
                raise ValueError("image for unknown source vertex %r" % (v,))
            if v in imap:
                raise ValueError("a second image for source vertex %r" % (v,))
            if w.spec is not target and w.spec != target:
                raise ValueError("the image of %r is over another spec" % (v,))
            imap[v] = normalize(w)
        for v in source.graph.vertices:
            if v not in imap:
                raise ValueError("no image for source vertex %r" % (v,))
        items = tuple((v, imap[v]) for v in source.graph.vertices)
        self.__dict__.update(source=source, target=target, images=items, _table={
            v: (w.syllables, tuple((u, -f) for u, f in reversed(w.syllables)))
            for v, w in items})

    def _image_syllables(self, syllables):
        """The target syllables of the images of source syllables whose
        exponents are reduced, concatenated."""
        table = self._table
        out = []
        for v, e in syllables:
            img, inv = table[v]
            out.extend(img * e if e > 0 else inv * -e)
        return out

    def apply(self, w):
        """Image of a source word, in target normal form: the images of its
        syllables are concatenated and normalized once."""
        return _normal_form(self.target, self._image_syllables(w.syllables))


def double_homomorphism(g, t, orders, mirror=False):
    """Embedding of the graph product over the double of g minus st(t) along
    lk(t) into the graph product over g.

    First-copy generators map to themselves; the second copy of u maps to
    t u t^-1 (or t^-1 u t with mirror=True).  Orders pull back along the
    copy projection.
    """
    return _copy_map(GroupSpec(g, orders), *double_along_link(g, t), t, mirror)


def co_contraction_embedding(g, e, orders, mirror=False):
    """Embedding induced by co-contracting the opposite-graph edge e = {x, t},
    where x is the earlier endpoint in g's vertex order and t the later.

    The contracted vertex x*t inherits the order of x and maps to t x t^-1;
    all other generators map to themselves.
    """
    src_graph, rho = _merge(g, e, True)
    (t,) = g.index.keys() - rho.values()  # the endpoint nothing copies
    return _copy_map(GroupSpec(g, orders), src_graph, rho, t, mirror)


def _copy_map(tgt, src_graph, rho, t, mirror):
    """The map into tgt from the graph product over src_graph, whose vertex u
    copies rho[u]: u goes to itself when rho[u] is u, else to t rho[u] t^-1
    (t^-1 rho[u] t with mirror), in normal form as written, since rho[u] and
    t never commute.  Orders pull back along rho."""
    src = _spec(src_graph, tuple((u, tgt.order[rho[u]]) for u in src_graph.vertices))
    a, b = (tgt.reduce_exp(t, -1), 1) if mirror else (1, tgt.reduce_exp(t, -1))
    table = {u: (((u, 1),), ((u, -1),)) if u == r
             else (((t, a), (r, 1), (t, b)), ((t, -b), (r, -1), (t, -a)))
             for u, r in rho.items()}
    h = object.__new__(HomomorphismSpec)
    h.__dict__.update(source=src, target=tgt, _table=table, images=tuple(
        (u, _word(tgt, table[u][0])) for u in src_graph.vertices))
    return h


def relator_check(h):
    """Verify every source relator maps to the identity.

    Relators: v^m for each finite-order source vertex, and the commutator
    [u, w] for each source edge, with its inverse syllables reduced as a
    Word reduces them: a finite-order v^-1 takes m - 1 copies of v's image,
    not its inverse, as h need not be a homomorphism.  The images pile onto
    one set of piles: a relator passes when its image piles down to no
    syllable, which leaves the piles empty for the next one; a failure is
    read out and named, and the next relator starts on fresh piles.
    Returns (ok, failures) where each failure is (description, image normal
    form).
    """
    src, tgt, table = h.source, h.target, h._table
    neg = {v: table[v][1] if m is INF else table[v][0] * (m - 1)
           for v, m in src.orders}
    relators = [("%s^%d", (v, m), table[v][0] * m)
                for v, m in src.orders if m is not INF]
    relators += [("[%s,%s]", (u, w), table[u][0] + table[w][0] + neg[u] + neg[w])
                 for u, w in src.graph.sorted_edges()]
    failures = []
    piles = None
    for text, args, image in relators:
        piles, count = _pile(tgt, image, piles)
        if count:
            failures.append((text % args,
                             format_word(_readout(tgt, piles, count))))
            piles = None
    return (not failures), failures


def injectivity_sample(h, max_len, cap=200000):
    """Check that distinct source elements of length <= max_len, in letters
    (see `words._ball`), have distinct images.  Returns (ok, collision or
    None); the collision is the first element, in syllable count then
    ShortLex order, whose image is that of an earlier one, with that earlier
    one.  A ball of more than cap elements raises ValueError.

    The ball is walked depth first: each element's image is its parent's
    target piles, copied, with the image of the appended syllable pushed on,
    and an image is keyed by its pile contents, which determine it.
    """
    tgt = h.target
    levels = [[] for _ in range(max_len + 1)]
    path = [[[] for _ in tgt.graph.vertices]]
    for syls in _ball(h.source, max_len, cap):
        d = len(syls)
        if d:
            path[d:] = [[p[:] for p in path[d - 1]]]
            _pile(tgt, h._image_syllables(syls[-1:]), path[d])
        levels[d].append((tuple(map(tuple, path[d])), syls))
    seen = {}
    for level in levels:
        for key, syls in level:
            if key in seen:
                return False, (_word(h.source, seen[key]), _word(h.source, syls))
            seen[key] = syls
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
    return HomomorphismSpec(source, target, images.items())
