import pytest

from gpwork import catalog
from gpwork.complexes import (Box, CubeComplex, LinkComplex, build_z0, build_zf,
                              cell_counts, check_link_special, check_special_map,
                              euler_characteristic, format_complex, is_closed_surface,
                              is_npc, parse_complex, salvetti_link, stats_line,
                              vertex_link)
from gpwork.graphs import SimpleGraph
from gpwork.words import INF, GroupSpec

import oracles


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
    assert b.step("b", 3) == 0 and b.step("a", 1) == 2


def test_box_containment():
    big = Box({"a": ("interval", 0, 3)})
    small = Box({"a": ("interval", 1, 2)})
    assert big.contains(small) and not small.contains(big)


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
    with pytest.raises(ValueError):
        vertex_link(X, (9, 9))


def test_salvetti_link_counts():
    lk = salvetti_link(catalog.path(2))
    assert len(lk.verts) == 4
    assert sum(1 for s in lk.simplices if len(s) == 2) == 4
    lk3 = salvetti_link(catalog.cycle(3))
    assert len([s for s in lk3.simplices if len(s) == 3]) == 8


def _triangle_spec():
    return GroupSpec(catalog.cycle(3), INF)


def test_hollow_corner_is_not_npc():
    # three squares forming the corner of a cube with no 3-cube filling it
    spec = _triangle_spec()
    cubes = frozenset({
        ((0, 0, 0), frozenset({"v1", "v2"})),
        ((0, 0, 0), frozenset({"v1", "v3"})),
        ((0, 0, 0), frozenset({"v2", "v3"})),
    })
    X = CubeComplex(spec, explicit_cubes=cubes)
    ok, offender = is_npc(X)
    assert not ok and offender == (0, 0, 0)
    # filling in the 3-cube restores the flag condition
    filled = CubeComplex(spec, explicit_cubes=frozenset(
        {((0, 0, 0), frozenset({"v1", "v2", "v3"}))}))
    assert is_npc(filled) == (True, None)


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
    X = CubeComplex(GroupSpec(catalog.path(3), INF),
                    explicit_cubes=frozenset({((0, 0, 0), frozenset({"a", "c"}))}))
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
    assert big.box.contains(small.box)
    for p in small.vertices():
        lk_s = vertex_link(small, p)
        lk_b = vertex_link(big, p)
        assert lk_s.simplices <= lk_b.simplices
