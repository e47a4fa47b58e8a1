"""Finite cube complexes sitting over a graph product spec.

A complex lives in a coordinate box with one axis per graph vertex: an
integer interval for finite-order directions (and truncated infinite ones),
or a cyclic range modeling a circle factor by a finite cover.  Cubes are
implicit: a k-cube for every base lattice point and every k-clique of
directions that fits in the box.  Hand-built complexes with an explicit cube
set, closed under faces once, are supported as negative fixtures for the
curvature and specialness checks.  Specialness is read off the graph: the
link of the one-vertex model complex joins two signed directions exactly
when the directions are adjacent.

A box link depends on its point only through the signs each axis has room
for, and flipping a one-sign axis is an isomorphism of links, so its
verdicts depend only on the number of signs per axis: its room class.
`stats_line` builds one link per room class, at most 2^n for n axes at any
window or cyclic size; `is_npc`, `check_special_map` and
`is_closed_surface` build one at every point.
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

    def __post_init__(self):
        """Exactly one of a box with an axis per vertex and cubes with a
        coordinate per vertex and directions among the vertices."""
        if (self.box is None) == (self.explicit_cubes is None):
            raise ValueError("a complex needs either a box or explicit cubes")
        dirs = set(self.dirs)
        if self.box is not None and set(self.box.by_vertex) != dirs:
            raise ValueError("the box's axes and the vertices differ at %r" % (
                sorted(map(str, dirs.symmetric_difference(self.box.by_vertex))),))
        for base, dset in self.explicit_cubes or ():
            if len(base) != len(dirs) or not dirs.issuperset(dset):
                raise ValueError("cube %r needs %d coordinates and directions "
                                 "in the graph" % ((base, dset), len(dirs)))

    @cached_property
    def dirs(self):
        return self.spec.graph.vertices

    @cached_property
    def cliques(self):
        """All cliques of the defining graph, the empty one included."""
        return graphs.cliques(self.spec.graph)

    @cached_property
    def _cells(self):
        """Explicit complexes: every face of every listed cube, each once, as
        (base, frozenset of directions)."""
        return frozenset((face_base, frozenset(sub))
                         for base, dset in self.explicit_cubes
                         for k in range(len(dset) + 1)
                         for sub in combinations(dset, k)
                         for face_base in _corners(self, base,
                                                   set(dset).difference(sub)))

    @cached_property
    def _corner_signings(self):
        """Explicit complexes: per vertex, the signed directions of each cell
        with a corner there, +1 where the corner is the cell's base."""
        idx = self.spec.graph.index
        out = {}
        for base, dset in self._cells:
            for corner in _corners(self, base, dset):
                out.setdefault(corner, set()).add(frozenset(
                    (d, 1 if corner[idx[d]] == base[idx[d]] else -1)
                    for d in dset))
        return out

    def vertices(self):
        if self.explicit_cubes is not None:
            return sorted(self._corner_signings)
        return [tuple(pt) for pt in product(*(self.box.points(v) for v in self.dirs))]


def _corners(X, base, dset):
    """The corners of the cube at `base` spanning directions `dset`; with
    the directions of a face left out, the bases of its parallel faces."""
    idx = X.spec.graph.index
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
        for _, dset in X._cells:
            counts[len(dset)] = counts.get(len(dset), 0) + 1
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
    hand-built fixtures where several link vertices share a label.  The flag,
    cycle and special checks read one `skeleton`, built once from masks.
    """

    verts: frozenset
    simplices: frozenset  # frozensets of verts; includes all faces

    @cached_property
    def skeleton(self):
        """The 1-skeleton, on the vertices in `str` order."""
        verts = tuple(sorted(self.verts, key=str))
        index = {v: i for i, v in enumerate(verts)}  # _edge checks each end
        return graphs._graph(verts, graphs._masks(len(verts), [
            graphs._edge(index, tuple(s)) for s in self.simplices if len(s) == 2]))


def _link(simplices):
    """The link with these simplices, a family closed under faces; its
    vertices are those of its simplices."""
    simplices = frozenset(simplices)
    return LinkComplex(frozenset().union(*simplices), simplices)


def vertex_link(X, p):
    """Link of the complex at lattice point p: signed-direction simplices of
    the incident cube corners.  In a box complex these are the signings of
    the nonempty cliques with room at p: a cyclic axis has room both ways,
    an interval axis upward below its top and downward above its bottom.
    Every face of such a signing is one too, so the family is closed under
    faces as listed; at any point of an all-cyclic box it is the link of the
    one-vertex model complex.  In an explicit complex they are the signings
    at p of the cells with a corner there, which are already closed under
    faces.  A point that is not a vertex raises ValueError."""
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
        return _link(frozenset(s) for c in X.cliques if c
                     for s in product(*(room[v] for v in c)))
    if p not in X._corner_signings:
        raise ValueError("point %r is not a vertex of the complex" % (p,))
    return _link(s for s in X._corner_signings[p] if s)


def is_npc(X):
    """Every vertex link must be a flag complex.  Returns (ok, offender)."""
    for p in X.vertices():
        if not _is_flag(vertex_link(X, p)):
            return False, p
    return True, None


def _is_flag(lk):
    """Every clique of the link's 1-skeleton spans a simplex."""
    return all(len(c) < 3 or c in lk.simplices
               for c in graphs.cliques(lk.skeleton))


def _is_cycle(lk):
    """The link's 1-skeleton is one cycle through all its vertices."""
    return graphs._cycle(lk.skeleton.masks, (1 << len(lk.verts)) - 1) is not None


def check_special_map(X):
    """Verify the direction labeling maps every vertex link to the one-vertex
    model complex's link by a local isometry: injective on vertices,
    simplicial, image a full subcomplex.  Returns (ok, failures)."""
    failures = []
    for p in X.vertices():
        failures.extend(check_link_special(vertex_link(X, p), X.spec.graph, at=p))
    return (not failures), failures


def check_link_special(lk, graph, at=None):
    """Local-isometry conditions for a single link against the one-vertex
    model complex's link, which joins two signed directions exactly when the
    directions are adjacent in `graph`: labels (direction, sign) injective,
    every link edge mapped onto a model edge ("not simplicial"), and every
    model edge between two image vertices hit by a link edge ("not full").
    Returns failure records."""
    labels = [lv[:2] for lv in lk.skeleton.vertices]
    failures = [("not injective", at, lab) for k, lab in enumerate(labels)
                if lab in labels[:k]]
    masks = lk.skeleton.masks
    for (i, la), (j, lb) in combinations(enumerate(labels), 2):
        linked = masks[i] >> j & 1
        if linked != (la[0] in graph.adj.get(lb[0], ())):
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


def _room_classes(X):
    """One point per room class of a box complex: per axis, 0 on a cyclic
    axis (two signs), the bottom of an interval of one or two points (none
    or one), and the bottom and the next point of a longer one (one, two).
    Every vertex of an explicit complex."""
    if X.explicit_cubes is not None:
        return X.vertices()
    return product(*((0,) if r[0] == "cyclic" else
                     (r[1], r[1] + 1) if r[2] - r[1] > 1 else (r[1],)
                     for r in map(X.box.by_vertex.get, X.dirs)))


def stats_line(X):
    """Deterministic one-line report used by the command-line front end.
    One vertex link per room class is built, without listing the points,
    and feeds the flag, special and cycle checks; the cycle check runs only
    on a pure 2-dimensional complex and stops at the first link that fails
    it.  The cell counts are a closed form, so a box complex costs the same
    at any window or cyclic size.  `is_npc`, `check_special_map` and
    `is_closed_surface` still build a link at every point."""
    counts = cell_counts(X)
    npc = special = True
    surface = _pure_2d(counts)
    for p in _room_classes(X):
        lk = vertex_link(X, p)
        npc = npc and _is_flag(lk)
        special = special and not check_link_special(lk, X.spec.graph, at=p)
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
    return CubeComplex(spec, Box(ranges))
