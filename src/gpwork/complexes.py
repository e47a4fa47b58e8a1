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

    def step(self, v, coord):
        r = self.by_vertex[v]
        return coord + 1 if r[0] == "interval" else (coord + 1) % r[1]

    def contains(self, box2):
        """Axis-aligned containment of another box with the same directions."""
        for v, r in self.ranges:
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
            q[idx[d]] = X.box.step(d, q[idx[d]]) if X.box else q[idx[d]] + 1
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
                for sub in combinations(sorted(dset, key=str), k):
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


def _close_faces(maximal):
    simps = set()
    for s in maximal:
        s = frozenset(s)
        for k in range(1, len(s) + 1):
            for sub in combinations(sorted(s, key=str), k):
                simps.add(frozenset(sub))
    return frozenset(simps)


def vertex_link(X, p):
    """Link of the complex at lattice point p: signed-direction simplices of
    the incident cube corners."""
    p = tuple(p)
    if X.explicit_cubes is None:
        if any(c not in X.box.points(v) for v, c in zip(X.dirs, p)):
            raise ValueError("point %r is outside the box" % (p,))
        maximal = []
        box = X.box
        for clique in X.cliques:
            if not clique:
                continue
            for signs in product((1, -1), repeat=len(clique)):
                ok = True
                simplex = []
                for v, s in zip(sorted(clique, key=str), signs):
                    r = box.by_vertex[v]
                    c = p[X.dirs.index(v)]
                    if r[0] == "interval":
                        if s > 0 and c + 1 > r[2]:
                            ok = False
                            break
                        if s < 0 and c - 1 < r[1]:
                            ok = False
                            break
                    simplex.append((v, s))
                if ok:
                    maximal.append(frozenset(simplex))
        verts = {next(iter(s)) for s in maximal if len(s) == 1}
        return LinkComplex(frozenset(verts), _close_faces(maximal))
    # explicit complex: scan cubes containing p as a corner
    idx = {v: i for i, v in enumerate(X.dirs)}
    maximal = []
    for base, dset in X.explicit_cubes:
        for corner in _corners(X, base, dset):
            if corner != p:
                continue
            simplex = []
            for d in dset:
                s = 1 if corner[idx[d]] == base[idx[d]] else -1
                simplex.append((d, s))
            if simplex:
                maximal.append(frozenset(simplex))
    verts = set()
    for s in maximal:
        verts |= s
    return LinkComplex(frozenset(verts), _close_faces(maximal))


def is_npc(X):
    """Every vertex link must be a flag complex.  Returns (ok, offender)."""
    for p in X.vertices():
        lk = vertex_link(X, p)
        if not _is_flag(lk):
            return False, p
    return True, None


def _is_flag(lk):
    verts = sorted(lk.verts, key=str)
    edges = {s for s in lk.simplices if len(s) == 2}
    # grow cliques of the 1-skeleton and demand each spans a simplex
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


def salvetti_link(graph):
    """Link of the unique vertex of the one-vertex cube complex for the
    right-angled Artin group on `graph`: the flag complex on signed vertices,
    adjacency inherited from the graph, opposite signs of one vertex never
    adjacent.  Every signing of every clique is a simplex, so the list is
    closed under faces as built."""
    simplices = [frozenset(zip(clique, signs))
                 for clique in graphs.cliques(graph)[1:]
                 for signs in product((1, -1), repeat=len(clique))]
    verts = {(v, s) for v in graph.vertices for s in (1, -1)}
    return LinkComplex(frozenset(verts), frozenset(simplices))


def _label(link_vertex):
    return link_vertex[0], link_vertex[1]


def check_special_map(X):
    """Verify the direction labeling maps every vertex link to the one-vertex
    model complex's link by a local isometry: injective on vertices,
    simplicial, image a full subcomplex.  Returns (ok, failures)."""
    model = salvetti_link(X.spec.graph)
    failures = []
    for p in X.vertices():
        lk = vertex_link(X, p)
        failures.extend(check_link_special(lk, model, at=p))
    return (not failures), failures


def check_link_special(lk, model, at=None):
    """Local-isometry conditions for a single link against the model link
    (`salvetti_link`): labels injective, every link edge mapped onto a model
    edge ("not simplicial"), and every model edge between two image vertices
    hit by a link edge ("not full").  Returns failure records."""
    failures = []
    labeled = [(lv, _label(lv)) for lv in sorted(lk.verts, key=str)]
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


def is_closed_surface(X):
    """True iff X is pure 2-dimensional, every edge bounds exactly two
    squares, and every vertex link is a single cycle."""
    counts = cell_counts(X)
    if counts.get(2, 0) == 0 or any(k >= 3 and c for k, c in counts.items()):
        return False
    for p in X.vertices():
        lk = vertex_link(X, p)
        if not lk.verts:
            return False
        edges = {s for s in lk.simplices if len(s) == 2}
        deg = {v: 0 for v in lk.verts}
        for e in edges:
            for v in e:
                deg[v] += 1
        if any(d != 2 for d in deg.values()):
            return False
        # single cycle: connected 2-regular graph
        start = next(iter(sorted(lk.verts, key=str)))
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
        if len(seen) != len(lk.verts):
            return False
    return True


def stats_line(X):
    """Deterministic one-line report used by the command-line front end."""
    counts = cell_counts(X)
    npc, _ = is_npc(X)
    special, _ = check_special_map(X)
    surface = is_closed_surface(X)
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
