"""Finite cube complexes sitting over a graph product spec.

A complex lives in a coordinate box with one axis per graph vertex: an
integer interval for finite-order directions (and truncated infinite ones),
or a cyclic range modeling a circle factor by a finite cover.  Cubes are
implicit: a k-cube for every base lattice point and every k-clique of
directions that fits in the box.  Hand-built complexes with an explicit cube
set are supported as negative fixtures for the curvature and specialness
checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product

from . import graphs
from .words import GroupSpec, INF, format_spec, spec_from_lines


@dataclass(frozen=True)
class Box:
    """Per-direction coordinate ranges: ('interval', lo, hi) or ('cyclic', q)."""

    ranges: tuple

    def __init__(self, ranges):
        items = []
        for v, spec in dict(ranges).items():
            kind = spec[0]
            if kind == "interval":
                _, lo, hi = spec
                if hi < lo:
                    raise ValueError("empty interval for %r" % (v,))
            elif kind == "cyclic":
                if spec[1] < 3:
                    raise ValueError("cyclic range for %r needs size >= 3" % (v,))
            else:
                raise ValueError("unknown range kind %r" % (kind,))
            items.append((v, tuple(spec)))
        object.__setattr__(self, "ranges", tuple(items))

    @cached_property
    def by_vertex(self):
        return dict(self.ranges)

    def points(self, v):
        r = self.by_vertex[v]
        return range(r[1], r[2] + 1) if r[0] == "interval" else range(r[1])

    def n_points(self, v):
        r = self.by_vertex[v]
        return r[2] - r[1] + 1 if r[0] == "interval" else r[1]

    def n_edge_slots(self, v):
        r = self.by_vertex[v]
        return r[2] - r[1] if r[0] == "interval" else r[1]


@dataclass(frozen=True)
class CubeComplex:
    spec: GroupSpec
    box: Box = None
    explicit_cubes: frozenset = None  # {(point-tuple, frozenset-of-directions)}

    @cached_property
    def dirs(self):
        return self.spec.graph.vertices

    @cached_property
    def cliques(self):
        """All cliques of the defining graph, the empty one included."""
        return graphs.cliques(self.spec.graph)

    def vertices(self):
        if self.explicit_cubes is not None:
            seen = set()
            for base, dset in self.explicit_cubes:
                for corner in _corners(self, base, dset):
                    seen.add(corner)
            return sorted(seen)
        return [tuple(pt) for pt in product(*(self.box.points(v) for v in self.dirs))]


def _corners(X, base, dset):
    """The corners of the cube at `base` spanning directions `dset`; with
    the directions of a face left out, the bases of its parallel faces."""
    idx = {v: i for i, v in enumerate(X.dirs)}
    outs = [base]
    for d in dset:
        nxt = []
        for p in outs:
            q = list(p)
            q[idx[d]] += 1
            nxt.append(tuple(q))
        outs = outs + nxt
    return outs


def build_z0(spec, window=None):
    """The truncated universal-cover complex: finite-order directions get the
    interval [0, m-1]; infinite-order directions get [0, window]."""
    if window is None:
        finite = [m for _, m in spec.orders if m is not INF]
        window = max(finite) - 1 if finite else 2
    ranges = {}
    for v, m in spec.orders:
        ranges[v] = ("interval", 0, m - 1) if m is not INF else ("interval", 0, window)
    return CubeComplex(spec, Box(ranges))


def build_zf(spec, q=3):
    """Compact model: interval axes for finite orders, cyclic axes of size q
    (a q-fold cover of the circle factor) for infinite orders."""
    if q < 3:
        raise ValueError("cyclic size q must be >= 3")
    ranges = {}
    for v, m in spec.orders:
        ranges[v] = ("interval", 0, m - 1) if m is not INF else ("cyclic", q)
    return CubeComplex(spec, Box(ranges))


def cell_counts(X):
    """Cell count per dimension."""
    counts = {}
    if X.explicit_cubes is not None:
        verts = set()
        cells = {}
        for base, dset in X.explicit_cubes:
            for k in range(len(dset) + 1):
                for sub in combinations(dset, k):
                    for face_base in _corners(X, base, dset.difference(sub)):
                        cells.setdefault(k, set()).add((face_base, frozenset(sub)))
        for k, cs in cells.items():
            counts[k] = len(cs)
        return counts
    for clique in X.cliques:
        total = 1
        for v in X.dirs:
            total *= X.box.n_edge_slots(v) if v in clique else X.box.n_points(v)
        if total:
            counts[len(clique)] = counts.get(len(clique), 0) + total
    return counts


def euler_characteristic(X):
    return sum((-1) ** k * c for k, c in cell_counts(X).items())


@dataclass(frozen=True)
class LinkComplex:
    """Simplicial complex on signed directions, closed under faces.

    Vertices are tuples (direction, sign) -- or (direction, sign, copy) for
    hand-built fixtures where several link vertices share a label.
    """

    verts: frozenset
    simplices: frozenset  # frozensets of verts; includes all faces


def _link(simplices):
    """The link with these simplices, a family closed under faces; its
    vertices are those of its simplices."""
    simplices = frozenset(simplices)
    return LinkComplex(frozenset().union(*simplices), simplices)


def _signed_cliques(cliques, room):
    """The link whose simplices are the signings of the nonempty cliques,
    each direction v signed by the signed vertices in room[v].  Every face of
    such a signing is one too, so the family is closed under faces as
    listed."""
    return _link(frozenset(s) for c in cliques if c
                 for s in product(*(room[v] for v in c)))


def _close_faces(maximal):
    simps = set()
    for s in maximal:
        s = frozenset(s)
        for k in range(1, len(s) + 1):
            for sub in combinations(s, k):
                simps.add(frozenset(sub))
    return frozenset(simps)


def vertex_link(X, p):
    """Link of the complex at lattice point p: signed-direction simplices of
    the incident cube corners.  In a box complex these are the signings of
    the cliques with room at p: a cyclic axis has room both ways, an interval
    axis upward below its top and downward above its bottom."""
    p = tuple(p)
    if len(p) != len(X.dirs):
        raise ValueError("point %r needs %d coordinates" % (p, len(X.dirs)))
    if X.explicit_cubes is None:
        room = {}
        for v, c in zip(X.dirs, p):
            if c not in X.box.points(v):
                raise ValueError("point %r is outside the box" % (p,))
            r = X.box.by_vertex[v]
            top, bottom = (r[2], r[1]) if r[0] == "interval" else (None, None)
            room[v] = tuple((v, s) for s, end in ((1, top), (-1, bottom))
                            if c != end)
        return _signed_cliques(X.cliques, room)
    # explicit complex: scan cubes containing p as a corner
    idx = {v: i for i, v in enumerate(X.dirs)}
    maximal = []
    for base, dset in X.explicit_cubes:
        for corner in _corners(X, base, dset):
            if corner == p and dset:
                maximal.append([(d, 1 if p[idx[d]] == base[idx[d]] else -1)
                                for d in dset])
    return _link(_close_faces(maximal))


def is_npc(X):
    """Every vertex link must be a flag complex.  Returns (ok, offender)."""
    for p in X.vertices():
        if not _is_flag(vertex_link(X, p)):
            return False, p
    return True, None


def _skeleton(lk):
    """The 1-skeleton of a link as a graph."""
    return graphs.SimpleGraph(lk.verts, [tuple(s) for s in lk.simplices
                                         if len(s) == 2])


def _is_flag(lk):
    """Every clique of the link's 1-skeleton spans a simplex."""
    return all(len(c) < 3 or c in lk.simplices
               for c in graphs.cliques(_skeleton(lk)))


def _is_cycle(lk):
    """The link's 1-skeleton is one cycle: every vertex has degree 2, and the
    walk from vertex 0 comes back to it after visiting them all."""
    masks = _skeleton(lk).masks
    if not masks or any(m.bit_count() != 2 for m in masks):
        return False
    prev, cur, steps = 0, masks[0].bit_length() - 1, 1
    while cur:
        prev, cur = cur, (masks[cur] & ~(1 << prev)).bit_length() - 1
        steps += 1
    return steps == len(masks)


def salvetti_link(graph):
    """Link of the unique vertex of the one-vertex cube complex for the
    right-angled Artin group on `graph`: the flag complex on signed vertices,
    adjacency inherited from the graph, opposite signs of one vertex never
    adjacent.  Every signing of every clique is a simplex."""
    return _signed_cliques(graphs.cliques(graph),
                           {v: ((v, 1), (v, -1)) for v in graph.vertices})


def check_special_map(X):
    """Verify the direction labeling maps every vertex link to the one-vertex
    model complex's link by a local isometry: injective on vertices,
    simplicial, image a full subcomplex.  Returns (ok, failures)."""
    model = salvetti_link(X.spec.graph)
    failures = []
    for p in X.vertices():
        failures.extend(check_link_special(vertex_link(X, p), model, at=p))
    return (not failures), failures


def check_link_special(lk, model, at=None):
    """Local-isometry conditions for a single link against the model link
    (`salvetti_link`): labels (direction, sign) injective, every link edge
    mapped onto a model edge ("not simplicial"), and every model edge between
    two image vertices hit by a link edge ("not full").  Returns failure
    records."""
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


def _pure_2d(counts):
    """Whether the cell counts have squares and no higher cubes."""
    return counts.get(2, 0) > 0 and not any(k >= 3 and c
                                            for k, c in counts.items())


def is_closed_surface(X):
    """True iff X is pure 2-dimensional, every edge bounds exactly two
    squares, and every vertex link is a single cycle."""
    return _pure_2d(cell_counts(X)) and all(_is_cycle(vertex_link(X, p))
                                            for p in X.vertices())


def stats_line(X):
    """Deterministic one-line report used by the command-line front end.
    Each vertex link is built once and feeds the flag, special and cycle
    checks; the cycle check runs only on a pure 2-dimensional complex and
    stops at the first link that fails it."""
    counts = cell_counts(X)
    model = salvetti_link(X.spec.graph)
    npc = special = True
    surface = _pure_2d(counts)
    for p in X.vertices():
        lk = vertex_link(X, p)
        npc = npc and _is_flag(lk)
        special = special and not check_link_special(lk, model, at=p)
        surface = surface and _is_cycle(lk)
    return ("V=%d E=%d F=%d C3=%d chi=%d npc=%s special=%s surface=%s"
            % (counts.get(0, 0), counts.get(1, 0), counts.get(2, 0),
               counts.get(3, 0), euler_characteristic(X),
               "yes" if npc else "no", "yes" if special else "no",
               "yes" if surface else "no"))


def format_complex(X):
    """Serialize spec + box for piping between command-line invocations."""
    if X.box is None:
        raise ValueError("only box-defined complexes can be serialized")
    return format_spec(X.spec) + "".join(
        "box %s %s\n" % (v, " ".join(map(str, r))) for v, r in X.box.ranges)


def _box_range(m, v, fields):
    """The range of a `box <v> ...` line for a vertex of order m."""
    kind = fields[0] if fields else None
    try:
        bounds = tuple(int(b) for b in fields[1:])
    except ValueError:
        bounds = ()
    if len(bounds) != {"interval": 2, "cyclic": 1}.get(kind):
        raise ValueError("expected `box <v> interval <lo> <hi>` "
                         "or `box <v> cyclic <q>`")
    if m is not INF and (kind == "cyclic" or bounds[1] - bounds[0] >= m):
        raise ValueError("vertex %s has order %d, so its box is an interval "
                         "of at most %d points" % (v, m, m))
    Box({v: (kind,) + bounds})  # the range checks of Box
    return (kind,) + bounds


def parse_complex(text):
    """Read the text form of `format_complex`: a spec and one box line per
    vertex."""
    lines = graphs.read_lines(text, ("n", "e", "o", "box"))
    spec = spec_from_lines(lines)
    ranges = graphs.lines_by_vertex(
        lines["box"], spec.order,
        lambda v, fields: _box_range(spec.order[v], v, fields))
    missing = set(spec.graph.vertices) - set(ranges)
    if missing:
        raise ValueError("missing box ranges for %r" % (sorted(map(str, missing)),))
    return CubeComplex(spec, Box(ranges))
