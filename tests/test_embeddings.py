import itertools
import random

import pytest

from gpwork import catalog
from gpwork.embeddings import (HomomorphismSpec, co_contraction_embedding,
                               double_homomorphism, format_homomorphism,
                               injectivity_sample, parse_homomorphism,
                               relator_check)
from gpwork.graphs import (SimpleGraph, _merge, double_along_link,
                           enumerate_graphs, opposite)
from gpwork.words import (GroupSpec, INF, Word, _ball, equal, identity,
                          invert, multiply)

import oracles

try:
    from hypothesis import given, settings, strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False


def test_double_homomorphism_basics():
    g = catalog.path(5)
    h = double_homomorphism(g, "c", 2)
    assert set(h.source.graph.vertices) == {"a", "b", "d", "e", "a'", "e'"}
    images = dict(h.images)
    assert str(images["a"]) == "a"
    assert str(images["a'"]) == "c a c"  # c has order 2: c a c^-1 = c a c
    ok, failures = relator_check(h)
    assert ok and not failures


def test_double_homomorphism_mirror_and_orders():
    g = catalog.path(5)
    h = double_homomorphism(g, "c", {"a": 2, "b": 3, "c": 4, "d": 3, "e": 2},
                            mirror=True)
    assert str(dict(h.images)["e'"]) == "c^3 e c"
    assert h.source.order["e'"] == 2 and h.source.order["b"] == 3
    assert relator_check(h)[0]


def test_co_contraction_embedding_basics():
    g = catalog.cycle(6)
    h = co_contraction_embedding(g, ("v1", "v3"), 2)
    assert "v1*v3" in h.source.graph.vertices
    assert str(dict(h.images)["v1*v3"]) == "v3 v1 v3"
    assert relator_check(h)[0]
    with pytest.raises(ValueError):
        co_contraction_embedding(g, ("v1", "v2"), 2)  # a real edge, not opposite


def test_co_contraction_inherits_order_of_first_vertex():
    g = catalog.cycle(6)
    orders = {"v%d" % (i + 1): i + 2 for i in range(6)}
    h = co_contraction_embedding(g, ("v1", "v3"), orders)
    assert h.source.order["v1*v3"] == orders["v1"]
    assert relator_check(h)[0]


def test_relator_check_all_small_graphs_order_2():
    for n in range(2, 5):
        for g in enumerate_graphs(n):
            for t in g.vertices:
                assert relator_check(double_homomorphism(g, t, 2))[0]
            for e in opposite(g).edges:
                assert relator_check(co_contraction_embedding(g, e, 2))[0]


def test_cycle_opposite_chain_relators():
    # GP(C5opp) -> GP(C6opp) -> GP(C7opp) -> GP(C8opp)
    chain = []
    for m in (6, 7, 8):
        g = opposite(catalog.cycle(m))
        e = ("v1", "v2")  # an edge of C_m, hence of the opposite of C_m^opp
        h = co_contraction_embedding(g, e, 2)
        assert relator_check(h)[0]
        chain.append(h)
    # sources successively match the targets one step down, up to relabeling
    from gpwork.graphs import are_isomorphic
    for h, m in zip(chain, (6, 7, 8)):
        assert are_isomorphic(h.source.graph,
                              opposite(catalog.cycle(m - 1))) is not None


def fold_apply(h, w):
    """The image of w as a left fold of multiply over its syllable images."""
    out = identity(h.target)
    images = dict(h.images)
    for v, e in w.syllables:
        g = images[v]
        step = g if e > 0 else invert(g)
        for _ in range(abs(e)):
            out = multiply(out, step)
    return out


def test_apply_matches_fold_of_multiply():
    rng = random.Random(4)
    c6 = catalog.cycle(6)
    c6_orders = dict(zip(c6.vertices, (2, INF, 3, INF, 4, INF)))
    p7opp = opposite(catalog.path(7))
    # the conjugated generators v1*v3, v2*v4, c' and e' get orders 2, inf,
    # inf and inf, so inverse images of conjugates are exercised
    p7opp_orders = dict(zip(p7opp.vertices, (3, 2, INF, 5, INF, 2, 4)))
    homs = [co_contraction_embedding(c6, ("v1", "v3"), c6_orders),
            co_contraction_embedding(c6, ("v2", "v4"), c6_orders),
            co_contraction_embedding(c6, ("v2", "v6"), c6_orders, mirror=True),
            double_homomorphism(p7opp, "d", p7opp_orders),
            double_homomorphism(p7opp, "d", p7opp_orders, mirror=True)]
    for h in homs:
        for _ in range(150):
            w = oracles.random_word(h.source, rng, 12)
            assert h.apply(w).syllables == fold_apply(h, w).syllables


def test_injectivity_sample_passes_for_embeddings():
    g = catalog.cycle(6)
    h = co_contraction_embedding(g, ("v1", "v3"), 2)
    assert injectivity_sample(h, 3) == (True, None)
    h_inf = co_contraction_embedding(g, ("v1", "v3"), INF)
    assert injectivity_sample(h_inf, 3)[0]


def test_injectivity_sample_catches_collision():
    # sending the co-contracted vertex to its first factor is a genuine
    # homomorphism (it factors through the contraction) but not injective
    g = catalog.cycle(6)
    h = co_contraction_embedding(g, ("v1", "v3"), 2)
    bad = HomomorphismSpec(h.source, h.target,
                           [(v, Word(h.target, ((v.split("*")[0], 1),)))
                            for v in h.source.graph.vertices])
    assert relator_check(bad)[0]
    ok, collision = injectivity_sample(bad, 2)
    assert not ok
    u, v = collision
    assert u.syllables != v.syllables
    assert bad.apply(u).syllables == bad.apply(v).syllables


def test_relator_check_catches_broken_commutator():
    g = catalog.cycle(6)
    h = co_contraction_embedding(g, ("v1", "v3"), 2)
    bad = HomomorphismSpec(h.source, h.target,
                           [(v, Word(h.target, (("v4" if "*" in v else v, 1),)))
                            for v in h.source.graph.vertices])
    ok, failures = relator_check(bad)
    assert not ok
    assert any(d == "[v1*v3,v2]" for d, _ in failures)


def test_relator_check_catches_broken_torsion():
    # an order-3 generator sent to an infinite-order one
    src = GroupSpec(SimpleGraph(("x",), []), 3)
    tgt = GroupSpec(SimpleGraph(("y",), []), INF)
    h = HomomorphismSpec(src, tgt, [("x", Word(tgt, (("y", 1),)))])
    ok, failures = relator_check(h)
    assert not ok and failures[0][0] == "x^3"


def test_relator_check_reduces_source_exponents_before_imaging():
    # v1 has order 3, so the commutator's v1^-1 is v1^2, imaged as y^2 under
    # this map, which is not a homomorphism
    src = GroupSpec(SimpleGraph(("v1", "v2"), [("v1", "v2")]),
                    {"v1": 3, "v2": INF})
    tgt = GroupSpec(SimpleGraph(("y", "z"), []), INF)
    h = HomomorphismSpec(src, tgt, [("v1", Word(tgt, (("y", 1),))),
                                    ("v2", Word(tgt, (("z", 1),)))])
    assert relator_check(h) == (False, [("v1^3", "y^3"),
                                        ("[v1,v2]", "y z y^2 z^-1")])


CATALOG = (["C%d" % m for m in range(3, 13)] + ["P%d" % m for m in range(2, 9)]
           + ["Lambda%d" % i for i in range(1, 8)]
           + ["Phi%d" % i for i in range(1, 6)] + ["P1_7", "P2_7", "Fig8"])


def test_every_catalog_double_and_co_contraction_certifies():
    # the 64 catalog names: a double at every vertex (Phi2-Phi5, P1_7, P2_7
    # and Fig8 have primed labels) and a co-contraction of every opposite edge
    built = 0
    for name in CATALOG + [b + "opp" for b in CATALOG]:
        g = catalog.by_name(name)
        maps = [(double_along_link(g, t), double_homomorphism(g, t, 2))
                for t in g.vertices]
        maps += [(_merge(g, e, True), co_contraction_embedding(g, e, 2))
                 for e in opposite(g).sorted_edges()]
        for (src, rho), h in maps:
            assert h.source.graph == src
            assert relator_check(h) == (True, [])
            # rho, the copy map, sends every source edge to an edge of g
            assert all(frozenset((rho[u], rho[v])) in g.edges
                       for u, v in src.sorted_edges())
        built += len(maps)
    assert built == 1214


def test_direct_conjugates_and_pulled_back_specs_match_the_piled_copy_map():
    # each catalog double and co-contraction under orders 2, 3, inf and a
    # mixed assignment, mirror off and on, against the map built through
    # _normal_form and the checked GroupSpec
    built = 0
    for name in CATALOG + [b + "opp" for b in CATALOG]:
        g = catalog.by_name(name)
        mixed = dict(zip(g.vertices, itertools.cycle((3, INF, 2, 4))))
        for orders, mirror in itertools.product((2, 3, INF, mixed), (False, True)):
            tgt = GroupSpec(g, orders)
            maps = [(double_homomorphism(g, t, orders, mirror),
                     oracles.piled_copy_map(tgt, *double_along_link(g, t), t,
                                            mirror))
                    for t in g.vertices]
            # t, the endpoint the conjugates use, is the later one
            maps += [(co_contraction_embedding(g, e, orders, mirror),
                      oracles.piled_copy_map(tgt, *_merge(g, e, True), e[1],
                                             mirror))
                     for e in opposite(g).sorted_edges()]
            for h, piled in maps:
                assert h == piled
                assert format_homomorphism(h) == format_homomorphism(piled)
                assert relator_check(h) == relator_check(piled)
                src, spec = h.source, piled.source
                assert type(src) is GroupSpec and hash(src) == hash(spec)
                assert src.orders == spec.orders and src.order == spec.order
                assert src.noncommuting == spec.noncommuting
                assert src.finite_part == spec.finite_part
            built += len(maps)
    assert built == 9712


def _c6_images():
    h = co_contraction_embedding(catalog.cycle(6), ("v1", "v3"), 2)
    return h.source, h.target, list(h.images)


def test_homomorphism_refuses_an_image_for_an_unknown_vertex():
    src, tgt, images = _c6_images()
    with pytest.raises(ValueError, match="unknown source vertex 'p'"):
        HomomorphismSpec(src, tgt, images + [("p", Word(tgt, (("v2", 1),)))])


def test_homomorphism_refuses_a_second_image_for_a_vertex():
    src, tgt, images = _c6_images()
    with pytest.raises(ValueError, match="second image for source vertex 'v2'"):
        HomomorphismSpec(src, tgt, images + [("v2", Word(tgt, (("v4", 1),)))])


def test_homomorphism_refuses_an_image_over_another_spec():
    src, tgt, images = _c6_images()
    other = GroupSpec(SimpleGraph(("p",), []), 2)
    images[1] = ("v2", Word(other, (("p", 1),)))
    with pytest.raises(ValueError, match="image of 'v2' is over another spec"):
        HomomorphismSpec(src, tgt, images)


def test_relator_check_matches_fresh_piles():
    # every doubling and co-contraction with orders 2 on the graphs of 2 to 6
    # vertices, each in a shuffled stored order
    rng = random.Random(19)
    maps = []
    for n in range(2, 7):
        for g in enumerate_graphs(n):
            verts = list(g.vertices)
            rng.shuffle(verts)
            g = SimpleGraph(verts, g.edges)
            maps += [double_homomorphism(g, t, 2) for t in verts]
            maps += [co_contraction_embedding(g, e, 2)
                     for e in opposite(g).sorted_edges()]
    assert len(maps) == 2546
    # the C6 fixtures: one passes its relators, one breaks a commutator
    h = co_contraction_embedding(catalog.cycle(6), ("v1", "v3"), 2)
    for rename in (lambda v: v.split("*")[0], lambda v: "v4" if "*" in v else v):
        maps.append(HomomorphismSpec(h.source, h.target, [
            (v, Word(h.target, ((rename(v), 1),))) for v in h.source.graph.vertices]))
    # a failure before a passing relator and two more after it, so that the
    # piles after a failure are reset
    src = GroupSpec(SimpleGraph(("x", "z", "w"), [("x", "z"), ("z", "w")]),
                    {"x": 3, "z": 2, "w": INF})
    tgt = GroupSpec(SimpleGraph(("y", "z", "u"), [("y", "z")]),
                    {"y": INF, "z": 2, "u": INF})
    maps.append(HomomorphismSpec(src, tgt, [(v, Word(tgt, ((u, 1),)))
                                            for v, u in zip("xzw", "yzu")]))
    for h in maps:
        assert relator_check(h) == oracles.fresh_piles_relator_check(h)
    assert relator_check(maps[-1]) == (False, [
        ("x^3", "y^3"), ("[x,z]", "y^3"), ("[z,w]", "z u z u^-1")])


def test_injectivity_on_c6_co_contraction_inf_at_5():
    h = co_contraction_embedding(catalog.cycle(6), ("v1", "v3"), INF)
    assert len(list(_ball(h.source, 5, None))) == 39563
    assert injectivity_sample(h, 5) == (True, None)


def test_injectivity_cap():
    g = opposite(catalog.cycle(6))
    h = co_contraction_embedding(catalog.cycle(6), ("v1", "v3"), INF)
    with pytest.raises(ValueError):
        injectivity_sample(h, 6, cap=10)


def test_format_parse_roundtrip():
    g = catalog.cycle(6)
    h = co_contraction_embedding(g, ("v1", "v3"), 2)
    text = format_homomorphism(h)
    back = parse_homomorphism(h.source, h.target, text)
    assert back.images == h.images
    with pytest.raises(ValueError):
        parse_homomorphism(h.source, h.target, "xx v2 v2\n")
    with pytest.raises(ValueError):
        parse_homomorphism(h.source, h.target, "im v2 v2\n")  # missing images


def test_apply_is_multiplicative_on_random_words():
    import random

    import oracles

    g = catalog.cycle(6)
    h = co_contraction_embedding(g, ("v1", "v3"), 2)
    rng = random.Random(4)
    for _ in range(50):
        u = oracles.random_word(h.source, rng, 4)
        v = oracles.random_word(h.source, rng, 4)
        from gpwork.words import multiply
        lhs = h.apply(multiply(u, v))
        rhs = multiply(h.apply(u), h.apply(v))
        assert equal(lhs, rhs)


if HAVE_HYPOTHESIS:
    @given(st.randoms(use_true_random=False), st.integers(0, 3))
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    def test_injectivity_matches_apply_oracle(rng, max_len):
        # random images of up to 3 syllables: most maps are not injective
        src, tgt = oracles.random_spec(rng, 4), oracles.random_spec(rng, 3)
        h = HomomorphismSpec(src, tgt, [(v, oracles.random_word(tgt, rng, 3))
                                        for v in src.graph.vertices])
        try:
            ball = [Word(src, s)
                    for s in sorted(_ball(src, max_len, 2000), key=len)]
        except ValueError:
            with pytest.raises(ValueError, match="cap"):
                injectivity_sample(h, max_len, cap=2000)
            return
        ok, coll = injectivity_sample(h, max_len, cap=2000)
        expect = oracles.first_collision(h, ball)
        assert ok == (expect is None)
        if expect is not None:
            assert ([w.syllables for w in coll]
                    == [w.syllables for w in expect])
