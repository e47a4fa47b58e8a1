import random
from itertools import combinations, product

import pytest

from gpwork import catalog, complexes
from gpwork.complexes import (Box, CubeComplex, LinkComplex, _close_faces,
                              _is_cycle, _is_flag, build_z0, build_zf,
                              cell_counts, check_link_special, check_special_map,
                              euler_characteristic, format_complex, is_closed_surface,
                              is_npc, parse_complex, salvetti_link, stats_line,
                              vertex_link)
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


def test_salvetti_link_counts():
    lk = salvetti_link(catalog.path(2))
    assert len(lk.verts) == 4
    assert sum(1 for s in lk.simplices if len(s) == 2) == 4
    lk3 = salvetti_link(catalog.cycle(3))
    assert len([s for s in lk3.simplices if len(s) == 3]) == 8


def test_salvetti_link_is_face_closure_of_all_signings():
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            signings = [frozenset(zip(c, signs))
                        for c in oracles.subset_cliques(g) if c
                        for signs in product((1, -1), repeat=len(c))]
            verts = {(v, s) for v in g.vertices for s in (1, -1)}
            assert salvetti_link(g) == LinkComplex(
                frozenset(verts), oracles.face_closure(signings))


def _triangle_spec():
    return GroupSpec(catalog.cycle(3), INF)


def _corner(*dsets):
    """Cubes at the origin spanning the given direction sets of C3."""
    return CubeComplex(_triangle_spec(), explicit_cubes=frozenset(
        ((0, 0, 0), frozenset(d)) for d in dsets))


def _hollow_corner():
    """Three squares forming the corner of a cube with no 3-cube filling it."""
    return _corner(("v1", "v2"), ("v1", "v3"), ("v2", "v3"))


def _filled_corner():
    return _corner(("v1", "v2", "v3"))


def _noncommuting_square():
    """A square on a and c, which do not commute in P3."""
    return CubeComplex(GroupSpec(catalog.path(3), INF),
                       explicit_cubes=frozenset({((0, 0, 0), frozenset({"a", "c"}))}))


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


def test_stats_line_builds_one_link_per_point(monkeypatch):
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
        assert built == list(X.vertices())
        fields = dict(f.split("=") for f in line.split())
        got = tuple(fields[k] == "yes" for k in ("npc", "special", "surface"))
        assert got == (is_npc(X)[0], check_special_map(X)[0],
                       is_closed_surface(X))
        verdicts.add(got)
    # every field is seen both ways
    assert all({v[i] for v in verdicts} == {True, False} for i in range(3))


def test_duplicate_label_link_is_not_special():
    # a hand-built link where two vertices carry the same signed direction
    lk = LinkComplex(frozenset({("a", 1, 0), ("a", 1, 1)}),
                     frozenset({frozenset({("a", 1, 0)}), frozenset({("a", 1, 1)})}))
    failures = check_link_special(lk, salvetti_link(catalog.path(2)))
    assert any(kind == "not injective" for kind, _, _ in failures)


def test_missing_edge_link_is_not_full():
    # both signed directions present but the square between adjacent
    # directions is missing: the image is not a full subcomplex
    lk = LinkComplex(frozenset({("a", 1), ("b", 1)}),
                     frozenset({frozenset({("a", 1)}), frozenset({("b", 1)})}))
    failures = check_link_special(lk, salvetti_link(catalog.path(2)))
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
    SIGNED = tuple((d, s) for d in "abcd" for s in (1, -1))

    @st.composite
    def face_closed_links(draw):
        """A face-closed complex on at most 7 signed directions: every vertex,
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
        return LinkComplex(frozenset(verts), _close_faces(maximal))

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

    @given(face_closed_links())
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    def test_link_predicates_match_oracles(lk):
        assert _is_flag(lk) == oracles.subset_is_flag(lk)
        assert _is_cycle(lk) == oracles.edge_scan_is_cycle(lk)
