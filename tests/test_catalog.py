import pytest

from gpwork import catalog
from gpwork.graphs import (are_isomorphic, contract_edge, double_along_link,
                           find_hole, is_weakly_chordal, opposite)


def test_cycle_and_path_shapes():
    c = catalog.cycle(5)
    assert len(c.vertices) == 5 and len(c.edges) == 5
    assert all(len(c.adj[v]) == 2 for v in c.vertices)
    p = catalog.path(6)
    assert len(p.vertices) == 6 and len(p.edges) == 5
    with pytest.raises(ValueError):
        catalog.cycle(2)


def test_lambda_family_shapes():
    # each Lambda_i (i >= 1) is drawn as P6 plus one extra vertex t
    for i in range(1, 12):
        g = catalog.lambda_opp(i)
        assert len(g.vertices) == 7
        assert len(g.edges) == 5 + len(catalog._LAMBDA_T[i])
    g0 = catalog.lambda_opp(0)
    assert len(g0.vertices) == 6 and len(g0.edges) == 4


def test_phi_family_shapes():
    for i in range(1, 6):
        g = catalog.phi_opp(i)
        assert len(g.vertices) == 8
    assert len(catalog.phi_opp(1).edges) == 7
    for i in (2, 3, 4, 5):
        assert len(catalog.phi_opp(i).edges) in (9, 10)


def test_lambda_and_phi_graphs_weakly_chordal():
    for i in range(12):
        ok, _ = is_weakly_chordal(catalog.lambda_graph(i))
        assert ok, "Lambda_%d" % i
    for i in range(1, 6):
        ok, _ = is_weakly_chordal(catalog.phi_graph(i))
        assert ok, "Phi_%d" % i


def test_pattern_graphs_weakly_chordal():
    for g in (catalog.p1_7(), catalog.p2_7(), opposite(catalog.path(6)),
              opposite(catalog.path(7)), catalog.fig8()):
        ok, _ = is_weakly_chordal(g)
        assert ok


def test_phi4_contraction_reaches_lambda7():
    g = contract_edge(catalog.phi_opp(4), ("c", "c'"))
    assert are_isomorphic(g, catalog.lambda_opp(7)) is not None


def test_phi2_contraction_reaches_lambda11():
    g2 = catalog.phi_opp(2)
    assert any(
        are_isomorphic(contract_edge(g2, e), catalog.lambda_opp(11)) is not None
        for e in g2.sorted_edges())


def test_double_of_p7opp_is_phi3():
    dbl, _ = double_along_link(opposite(catalog.path(7)), "d")
    assert are_isomorphic(dbl, catalog.phi_graph(3)) is not None


def test_seven_vertex_patterns_inside_phi():
    # dropping the right endpoint of the drawn Phi graphs recovers the
    # seven-vertex patterns they were cut from
    from gpwork.graphs import induced_subgraph
    sub = induced_subgraph(catalog.phi_opp(4),
                           [v for v in catalog.phi_opp(4).vertices if v != "a"])
    assert are_isomorphic(sub, catalog.p1_7_opp()) is not None
    sub = induced_subgraph(catalog.phi_opp(3),
                           [v for v in catalog.phi_opp(3).vertices if v != "g"])
    assert are_isomorphic(sub, catalog.p2_7_opp()) is not None


def test_fig8_shape():
    g = catalog.fig8_opp()
    assert len(g.vertices) == 12 and len(g.edges) == 11
    assert sorted(map(len, g.adj.values())) == [1] * 6 + [2, 2, 3, 3, 3, 3]


def test_by_name():
    assert catalog.by_name("C5") == catalog.cycle(5)
    assert catalog.by_name("C6opp") == opposite(catalog.cycle(6))
    assert catalog.by_name("P7") == catalog.path(7)
    assert catalog.by_name("Phi3") == catalog.phi_graph(3)
    assert catalog.by_name("Lambda7") == catalog.lambda_graph(7)
    assert catalog.by_name("P1_7") == catalog.p1_7()
    assert catalog.by_name("Fig8") == catalog.fig8()
    with pytest.raises(KeyError):
        catalog.by_name("nosuch")


def test_lambda0_no_long_hole_in_either_form():
    g = catalog.lambda_graph(0)
    assert find_hole(g, 5) is None
    assert find_hole(opposite(g), 5) is None
