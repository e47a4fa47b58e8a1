import random
from itertools import combinations, product

import pytest

from gpwork import catalog, complexes
from gpwork.complexes import (Box, CubeComplex, LinkComplex, _is_cycle,
                              _is_flag, build_z0, build_zf, cell_counts,
                              check_link_special, check_special_map,
                              euler_characteristic, format_complex, is_closed_surface,
                              is_npc, parse_complex, stats_line, vertex_link)
from gpwork.graphs import SimpleGraph, enumerate_graphs
from gpwork.words import INF, GroupSpec

import oracles

try:
    from hypothesis import given, settings, strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False


def example_spec():
    return GroupSpec(catalog.path(3), {"a": 3, "b": INF, "c": 4})


def test_box_validation():
    with pytest.raises(ValueError):
        Box({"a": ("interval", 2, 1)})
    with pytest.raises(ValueError):
        Box({"a": ("cyclic", 2)})
    with pytest.raises(ValueError):
        Box({"a": ("weird", 1)})
    b = Box({"a": ("interval", 0, 2), "b": ("cyclic", 4)})
    assert b.n_points("a") == 3 and b.n_edge_slots("a") == 2
    assert b.n_points("b") == 4 and b.n_edge_slots("b") == 4


def test_box_containment():
    big = Box({"a": ("interval", 0, 3)})
    small = Box({"a": ("interval", 1, 2)})
    assert oracles.box_contains(big, small)
    assert not oracles.box_contains(small, big)


def test_cell_counts_match_direct_enumeration():
    for spec in (GroupSpec(catalog.cycle(4), 2),
                 GroupSpec(SimpleGraph(("a", "b"), []), {"a": 3, "b": 4}),
                 example_spec()):
        X = build_z0(spec)
        assert cell_counts(X) == oracles.direct_cell_count(X)
    Xf = build_zf(example_spec(), 4)
    assert cell_counts(Xf) == oracles.direct_cell_count(Xf)


def test_c5_order2_complex_is_genus_five_surface():
    X = build_z0(GroupSpec(catalog.cycle(5), 2))
    assert cell_counts(X) == {0: 32, 1: 80, 2: 40}
    assert euler_characteristic(X) == -8
    assert is_npc(X) == (True, None)
    ok, failures = check_special_map(X)
    assert ok and not failures
    assert is_closed_surface(X)


def test_c4_order2_complex_is_torus():
    X = build_z0(GroupSpec(catalog.cycle(4), 2))
    assert euler_characteristic(X) == 0
    assert is_closed_surface(X)


def test_cycle_order2_euler_formula():
    # chi = 2^(m-2) * (4 - m)
    for m in (4, 5, 6):
        X = build_z0(GroupSpec(catalog.cycle(m), 2))
        assert euler_characteristic(X) == 2 ** (m - 2) * (4 - m)
        assert is_closed_surface(X)


def test_two_nonadjacent_vertices_orders_3_4():
    spec = GroupSpec(SimpleGraph(("a", "b"), []), {"a": 3, "b": 4})
    X = build_z0(spec)
    counts = cell_counts(X)
    assert counts == {0: 12, 1: 17}
    assert euler_characteristic(X) == -5
    # connected 1-complex: first Betti number = 1 - chi = 6
    assert counts[1] - counts[0] + 1 == 6
    assert is_npc(X)[0] and check_special_map(X)[0]
    assert not is_closed_surface(X)


def test_zf_example_counts():
    X = build_zf(example_spec(), 4)
    assert cell_counts(X) == {0: 48, 1: 116, 2: 68}
    assert is_npc(X)[0] and check_special_map(X)[0]
    with pytest.raises(ValueError):
        build_zf(example_spec(), 2)


def test_single_vertex_complex():
    for m in (2, 3, 5):
        X = build_z0(GroupSpec(SimpleGraph(("a",), []), m))
        assert cell_counts(X) == {0: m, 1: m - 1}
        assert euler_characteristic(X) == 1


def test_vertex_link_interior_and_corner():
    X = build_z0(GroupSpec(catalog.path(2), {"a": 3, "b": 3}))
    corner = vertex_link(X, (0, 0))
    interior = vertex_link(X, (1, 1))
    assert corner.verts == frozenset({("a", 1), ("b", 1)})
    assert len(interior.verts) == 4
    # the square complex is a full 3x3 grid of squares: links are complete
    # bipartite between the signs, giving four squares at the interior vertex
    assert sum(1 for s in interior.simplices if len(s) == 2) == 4
    for p in ((9, 9), (1,), (1, 1, 1)):
        with pytest.raises(ValueError):
            vertex_link(X, p)


def test_explicit_vertex_link_refuses_a_point_that_is_not_a_vertex():
    X = _hollow_corner()
    for p in ((5, 5, 5), (1, 1, 1), (0, 0)):
        with pytest.raises(ValueError):
            vertex_link(X, p)


def _model_links(g):
    """The vertex links at up to five random points of the all-cyclic box
    on g: each is the link of the one-vertex model complex."""
    X = build_zf(GroupSpec(g, INF), 3)
    points = X.vertices()
    return [vertex_link(X, p) for p in
            random.Random(len(points)).sample(points, min(5, len(points)))]


def test_model_link_counts():
    for lk in _model_links(catalog.path(2)):
        assert len(lk.verts) == 4
        assert sum(1 for s in lk.simplices if len(s) == 2) == 4
    for lk in _model_links(catalog.cycle(3)):
        assert len([s for s in lk.simplices if len(s) == 3]) == 8


def test_model_link_is_face_closure_of_all_signings():
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            signings = [frozenset(zip(c, signs))
                        for c in oracles.subset_cliques(g) if c
                        for signs in product((1, -1), repeat=len(c))]
            verts = {(v, s) for v in g.vertices for s in (1, -1)}
            model = LinkComplex(frozenset(verts), oracles.face_closure(signings))
            assert oracles.salvetti_link(g) == model
            for lk in _model_links(g):
                assert lk == model


def _triangle_spec():
    return GroupSpec(catalog.cycle(3), INF)


def _explicit(spec, *cubes):
    """The complex of the listed (base, directions) cubes."""
    return CubeComplex(spec, explicit_cubes=frozenset(
        (base, frozenset(d)) for base, d in cubes))


def _corner(*dsets):
    """Cubes at the origin spanning the given direction sets of C3."""
    return _explicit(_triangle_spec(), *(((0, 0, 0), d) for d in dsets))


def _hollow_corner():
    """Three squares forming the corner of a cube with no 3-cube filling it."""
    return _corner(("v1", "v2"), ("v1", "v3"), ("v2", "v3"))


def _filled_corner():
    return _corner(("v1", "v2", "v3"))


def _noncommuting_square():
    """A square on a and c, which do not commute in P3."""
    return _explicit(GroupSpec(catalog.path(3), INF), ((0, 0, 0), "ac"))


def test_hollow_corner_is_not_npc():
    ok, offender = is_npc(_hollow_corner())
    assert not ok and offender == (0, 0, 0)
    # filling in the 3-cube restores the flag condition
    assert is_npc(_filled_corner()) == (True, None)


def test_explicit_fixture_verdicts():
    assert [stats_line(X) for X in (_hollow_corner(), _filled_corner(),
                                    _noncommuting_square())] == [
        "V=7 E=9 F=3 C3=0 chi=1 npc=no special=no surface=no",
        "V=8 E=12 F=6 C3=1 chi=1 npc=yes special=yes surface=no",
        "V=4 E=4 F=1 C3=0 chi=1 npc=yes special=no surface=no"]


def _as_explicit(X):
    """The box complex X as a hand-built one: every cube of a nonempty
    clique at every base point from which it fits, listed in explicit_cubes."""
    cubes = set()
    for clique in X.cliques[1:]:
        axes = [[c for c in X.box.points(v)
                 if v not in clique or c < X.box.by_vertex[v][2]]
                for v in X.dirs]
        cubes.update((base, clique) for base in product(*axes))
    return CubeComplex(X.spec, explicit_cubes=frozenset(cubes))


def test_box_and_explicit_cubes_agree():
    # three random interval boxes on every graph with at most 5 vertices:
    # each axis two points wide, and one of them three
    rng = random.Random(9)
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            for _ in range(3):
                wide = rng.choice(g.vertices)
                ranges = {}
                for v in g.vertices:
                    lo = rng.randint(-1, 1)
                    ranges[v] = ("interval", lo, lo + 1 + (v == wide))
                X = CubeComplex(GroupSpec(g, INF), Box(ranges))
                Y = _as_explicit(X)
                assert Y.vertices() == X.vertices()
                assert cell_counts(Y) == cell_counts(X)
                for p in X.vertices():
                    assert vertex_link(Y, p) == vertex_link(X, p)


def _same_complex(X, Y):
    assert cell_counts(X) == cell_counts(Y)
    assert X.vertices() == Y.vertices()
    for p in X.vertices():
        assert vertex_link(X, p) == vertex_link(Y, p)


def test_explicit_cubes_listed_redundantly():
    # P2 with infinite orders: a and b commute
    spec = GroupSpec(catalog.path(2), INF)
    square = ((0, 0), "ab")
    # a square listed with one of its own edges
    _same_complex(_explicit(spec, square, ((0, 1), "a")), _explicit(spec, square))
    # two squares sharing an edge, listed with it: the edge counts once, as
    # in the box complex with the same two squares
    pair = _explicit(spec, square, ((1, 0), "ab"))
    _same_complex(_explicit(spec, square, ((1, 0), "ab"), ((1, 0), "b")), pair)
    _same_complex(pair, CubeComplex(spec, Box({"a": ("interval", 0, 2),
                                               "b": ("interval", 0, 1)})))
    assert cell_counts(pair) == {0: 6, 1: 7, 2: 2}
    # a listed 0-cube at a corner adds nothing; away from the square it is a
    # vertex with an empty link
    _same_complex(_explicit(spec, square, ((1, 1), "")), _explicit(spec, square))
    lone = _explicit(spec, square, ((5, 5), ""))
    assert cell_counts(lone) == {0: 5, 1: 4, 2: 1}
    assert lone.vertices()[-1] == (5, 5)
    assert vertex_link(lone, (5, 5)) == LinkComplex(frozenset(), frozenset())


_P2 = GroupSpec(catalog.path(2), INF)
_P2_BOX = Box({"a": ("interval", 0, 1), "b": ("interval", 0, 1)})


@pytest.mark.parametrize("make", [
    lambda: CubeComplex(_P2),
    lambda: CubeComplex(_P2, _P2_BOX, frozenset({((0, 0), frozenset("ab"))})),
    lambda: CubeComplex(_P2, Box({"a": ("interval", 0, 1)})),
    lambda: CubeComplex(_P2, Box(dict(_P2_BOX.ranges, c=("cyclic", 3)))),
    lambda: _explicit(_P2, ((0, 0), "ac")),
    lambda: _explicit(_P2, ((0, 0, 0), "ab")),
], ids=["neither box nor cubes", "both box and cubes", "box missing a vertex",
        "box with an extra axis", "cube direction outside the graph",
        "cube base of the wrong length"])
def test_complex_rejects_inconsistent_input(make):
    with pytest.raises(ValueError):
        make()


def test_link_predicates_match_oracles_on_corners():
    for X in (_hollow_corner(), _filled_corner()):
        for p in X.vertices():
            lk = vertex_link(X, p)
            assert _is_flag(lk) == oracles.subset_is_flag(lk)
            assert _is_cycle(lk) == oracles.edge_scan_is_cycle(lk)
    # the hollow corner's link at the origin is a triangle with no 2-simplex:
    # a cycle, and not flag
    origin = vertex_link(_hollow_corner(), (0, 0, 0))
    assert not _is_flag(origin) and _is_cycle(origin)
    # two disjoint triangles: every vertex has degree 2, but not one cycle
    signed = [(d, s) for d in "abc" for s in (1, -1)]
    two = LinkComplex(frozenset(signed), oracles.face_closure(
        e for tri in (signed[:3], signed[3:]) for e in combinations(tri, 2)))
    assert not _is_cycle(two) and not oracles.edge_scan_is_cycle(two)


def _stats_cases():
    """Every graph on at most 4 vertices with orders in {2, 3}, some compact
    models with cyclic axes, and the explicit-cube fixtures."""
    for n in range(1, 5):
        for g in enumerate_graphs(n):
            for orders in product((2, 3), repeat=n):
                yield build_z0(GroupSpec(g, dict(zip(g.vertices, orders))))
    yield build_zf(example_spec(), 4)
    yield build_zf(GroupSpec(catalog.path(2), INF), 3)
    yield build_zf(GroupSpec(catalog.cycle(4), INF), 3)
    yield build_zf(GroupSpec(SimpleGraph(("a",), []), INF), 5)
    yield _hollow_corner()
    yield _filled_corner()
    yield _noncommuting_square()


def test_stats_line_builds_one_link_per_room_class(monkeypatch):
    # a box complex gets one link for each per-axis sign count that its
    # points take, an explicit complex one at every point
    built = []

    def counting_link(X, p):
        built.append(p)
        return vertex_link(X, p)

    verdicts = set()
    for X in _stats_cases():
        built.clear()
        monkeypatch.setattr(complexes, "vertex_link", counting_link)
        line = stats_line(X)
        monkeypatch.undo()
        if X.box is None:
            assert built == list(X.vertices())
        else:
            classes = [oracles.sign_counts(X, p) for p in built]
            assert sorted(classes) == sorted(oracles.room_classes(X))
        fields = dict(f.split("=") for f in line.split())
        got = tuple(fields[k] == "yes" for k in ("npc", "special", "surface"))
        assert got == (is_npc(X)[0], check_special_map(X)[0],
                       is_closed_surface(X))
        verdicts.add(got)
    # every field is seen both ways
    assert all({v[i] for v in verdicts} == {True, False} for i in range(3))


def test_skeleton_matches_the_edge_tuple_oracle():
    # on every link of the stats cases: the oracle's edges, on the vertices
    # in str order, built once
    for X in _stats_cases():
        for p in X.vertices():
            lk = vertex_link(X, p)
            assert lk.skeleton is lk.skeleton
            assert lk.skeleton.vertices == tuple(sorted(lk.verts, key=str))
            assert lk.skeleton.edges == oracles.edge_tuple_skeleton(lk).edges


def test_stats_line_builds_one_skeleton_per_link(monkeypatch):
    # the flag, special and cycle checks all run on a surface (every link a
    # cycle) and share each link's skeleton; the torus and the genus-5
    # surface are one room class each
    links, skeletons = [], []

    def counting_link(X, p):
        links.append(p)
        return link(X, p)

    def counting_graph(vertices, masks):
        skeletons.append(vertices)
        return made(vertices, masks)

    link, made = complexes.vertex_link, complexes.graphs._graph
    monkeypatch.setattr(complexes, "vertex_link", counting_link)
    monkeypatch.setattr(complexes.graphs, "_graph", counting_graph)
    for X in (build_zf(GroupSpec(catalog.path(2), INF), 3),
              build_z0(GroupSpec(catalog.cycle(5), 2))):
        links.clear()
        skeletons.clear()
        assert stats_line(X).endswith("npc=yes special=yes surface=yes")
        assert len(skeletons) == len(links) == 1


def test_a_link_edge_outside_its_vertices_is_a_value_error():
    # a hand-built link whose edge names a vertex it does not list
    lk = LinkComplex(frozenset({("a", 1)}), frozenset({
        frozenset({("a", 1)}), frozenset({("a", 1), ("b", 1)})}))
    with pytest.raises(ValueError) as want:
        oracles.edge_tuple_skeleton(lk)
    for check in (_is_flag, _is_cycle,
                  lambda lk: check_link_special(lk, catalog.path(2))):
        with pytest.raises(ValueError) as got:
            check(lk)
        assert str(got.value) == str(want.value)


def test_duplicate_label_link_is_not_special():
    # a hand-built link where two vertices carry the same signed direction
    lk = LinkComplex(frozenset({("a", 1, 0), ("a", 1, 1)}),
                     frozenset({frozenset({("a", 1, 0)}), frozenset({("a", 1, 1)})}))
    failures = check_link_special(lk, catalog.path(2))
    assert any(kind == "not injective" for kind, _, _ in failures)


def test_missing_edge_link_is_not_full():
    # both signed directions present but the square between adjacent
    # directions is missing: the image is not a full subcomplex
    lk = LinkComplex(frozenset({("a", 1), ("b", 1)}),
                     frozenset({frozenset({("a", 1)}), frozenset({("b", 1)})}))
    failures = check_link_special(lk, catalog.path(2))
    assert any(kind == "not full" for kind, _, _ in failures)


def test_square_on_non_commuting_directions_is_not_special():
    # a and c do not commute in P3, so the square they span has link edges
    # that the model link lacks: the labeling is not simplicial
    X = _noncommuting_square()
    ok, failures = check_special_map(X)
    assert not ok
    assert {kind for kind, _, _ in failures} == {"not simplicial"}
    assert len({at for _, at, _ in failures}) == 4
    assert "special=no" in stats_line(X)


def test_explicit_torus_cell_counts():
    # one cyclic direction: a q-gon (circle), chi = 0
    spec = GroupSpec(SimpleGraph(("a",), []), INF)
    X = build_zf(spec, 5)
    assert cell_counts(X) == {0: 5, 1: 5}
    assert euler_characteristic(X) == 0


def test_zf_two_commuting_infinite_is_torus():
    spec = GroupSpec(catalog.path(2), INF)
    X = build_zf(spec, 3)
    assert cell_counts(X) == {0: 9, 1: 18, 2: 9}
    assert euler_characteristic(X) == 0
    assert is_closed_surface(X)
    assert is_npc(X)[0] and check_special_map(X)[0]


def test_stats_line_format():
    X = build_z0(GroupSpec(catalog.cycle(5), 2))
    assert stats_line(X) == ("V=32 E=80 F=40 C3=0 chi=-8 "
                             "npc=yes special=yes surface=yes")


def test_format_parse_roundtrip():
    for X in (build_z0(example_spec()), build_zf(example_spec(), 4)):
        text = format_complex(X)
        Y = parse_complex(text)
        assert Y.spec == X.spec and Y.box == X.box
    with pytest.raises(ValueError):
        parse_complex("n 1 a\no a 2\n")  # no box line


def test_box_monotone_links():
    # growing the box never removes link simplices at a shared point
    spec = GroupSpec(catalog.path(2), INF)
    small = CubeComplex(spec, Box({"a": ("interval", 0, 2), "b": ("interval", 0, 2)}))
    big = CubeComplex(spec, Box({"a": ("interval", 0, 4), "b": ("interval", 0, 4)}))
    assert oracles.box_contains(big.box, small.box)
    for p in small.vertices():
        lk_s = vertex_link(small, p)
        lk_b = vertex_link(big, p)
        assert lk_s.simplices <= lk_b.simplices


if HAVE_HYPOTHESIS:
    # labels on directions a-f, two of them also with a copy index; the
    # graphs of the special check below use at most a-e
    SIGNED = (tuple((d, s) for d in "abcdef" for s in (1, -1))
              + tuple((d, s, c) for d in "ab" for s in (1, -1) for c in (0, 1)))

    @st.composite
    def face_closed_links(draw):
        """A face-closed complex on at most 7 link vertices: every vertex,
        sometimes a ring through all of them, and up to six random simplices
        of two to four vertices."""
        verts = draw(st.lists(st.sampled_from(SIGNED), unique=True, max_size=7))
        maximal = [(v,) for v in verts]
        if len(verts) >= 3 and draw(st.booleans()):
            maximal += [(verts[i - 1], verts[i]) for i in range(len(verts))]
        if len(verts) >= 2:
            maximal += draw(st.lists(st.lists(
                st.sampled_from(verts), min_size=2, max_size=4, unique=True),
                max_size=6))
        return LinkComplex(frozenset(verts), oracles.face_closure(maximal))

    @st.composite
    def small_graphs(draw):
        """A graph on one to five of the directions a-e, each edge drawn."""
        verts = draw(st.lists(st.sampled_from("abcde"), unique=True,
                              min_size=1, max_size=5))
        return SimpleGraph(verts, [e for e in combinations(verts, 2)
                                   if draw(st.booleans())])

    @st.composite
    def box_points(draw):
        """A box complex on a random graph with at most 6 vertices, whose
        axes mix intervals (single points included) with cyclic ranges, and
        up to four of its points, each interval coordinate often at an end."""
        verts = tuple("v%d" % i for i in range(draw(st.integers(1, 6))))
        edges = [e for e in combinations(verts, 2) if draw(st.booleans())]
        ranges, coords = {}, []
        for v in verts:
            if draw(st.booleans()):
                lo = draw(st.integers(-2, 2))
                hi = lo + draw(st.integers(0, 3))
                ranges[v] = ("interval", lo, hi)
                coords.append(st.one_of(st.sampled_from((lo, hi)),
                                        st.integers(lo, hi)))
            else:
                q = draw(st.integers(3, 5))
                ranges[v] = ("cyclic", q)
                coords.append(st.integers(0, q - 1))
        X = CubeComplex(GroupSpec(SimpleGraph(verts, edges), INF), Box(ranges))
        return X, draw(st.lists(st.tuples(*coords), min_size=1, max_size=4))

    @given(box_points())
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_vertex_link_matches_signing_loop(case):
        X, points = case
        for p in points:
            assert vertex_link(X, p) == oracles.signing_loop_link(X, p)

    @st.composite
    def stats_boxes(draw):
        """A box complex on a random graph with at most 4 vertices, whose
        axes are intervals of one to four points at offsets -2..2 or cyclic
        ranges of size 3 to 5."""
        verts = tuple("v%d" % i for i in range(draw(st.integers(1, 4))))
        edges = [e for e in combinations(verts, 2) if draw(st.booleans())]
        ranges = {}
        for v in verts:
            if draw(st.booleans()):
                lo = draw(st.integers(-2, 2))
                ranges[v] = ("interval", lo, lo + draw(st.integers(0, 3)))
            else:
                ranges[v] = ("cyclic", draw(st.integers(3, 5)))
        return CubeComplex(GroupSpec(SimpleGraph(verts, edges), INF), Box(ranges))

    @given(stats_boxes())
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    def test_stats_line_matches_the_per_point_oracle(X):
        assert stats_line(X) == oracles.per_point_stats_line(X)
        # the walk meets every room class of the box exactly once
        classes = [oracles.sign_counts(X, p) for p in complexes._room_classes(X)]
        assert sorted(classes) == sorted(oracles.room_classes(X))

    @given(face_closed_links())
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    def test_link_predicates_match_oracles(lk):
        assert _is_flag(lk) == oracles.subset_is_flag(lk)
        assert _is_cycle(lk) == oracles.edge_scan_is_cycle(lk)

    @given(face_closed_links(), small_graphs())
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    def test_link_special_matches_model_link_oracle(lk, g):
        assert check_link_special(lk, g, at="p") == oracles.pairwise_link_special(
            lk, oracles.salvetti_link(g), at="p")
