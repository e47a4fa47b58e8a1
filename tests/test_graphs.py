import itertools
import math
import random

import pytest

from gpwork import catalog, graphs
from gpwork.classify import racg_surface_subgroup
from gpwork.graphs import (SimpleGraph, _automorphisms, _orbit_representatives,
                           _refine, are_isomorphic, canonical_bits, cliques,
                           co_contract, contract_edge,
                           double_along_link, enumerate_graphs, find_hole,
                           has_induced, induced_subgraph,
                           is_weakly_chordal, opposite, read_edgelist,
                           read_graph6, write_edgelist, write_graph6)
from gpwork.words import GroupSpec

import oracles

try:
    from hypothesis import given, settings, strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False


def small_graphs(max_n=5):
    out = []
    for n in range(1, max_n + 1):
        out.extend(enumerate_graphs(n))
    return out


def shuffled(g, rng):
    """g with its edges moved by a random vertex permutation; same labels in
    the same stored order."""
    verts = list(g.vertices)
    rng.shuffle(verts)
    perm = dict(zip(g.vertices, verts))
    return SimpleGraph(g.vertices, [(perm[u], perm[v]) for u, v in g.edges])


def random_graph(n, p, rng):
    return SimpleGraph(range(n), [e for e in itertools.combinations(range(n), 2)
                                  if rng.random() < p])


def twin_heavy_graphs():
    """Graphs whose color classes are mostly twins: empty and complete
    graphs, complements of perfect matchings and K3,3 plus a vertex."""
    out = []
    for n in (7, 8):
        out.append(SimpleGraph(range(n), []))
        out.append(opposite(SimpleGraph(range(n), [])))
    for n in (6, 8):
        out.append(opposite(SimpleGraph(range(n), [(i, i + 1)
                                                   for i in range(0, n, 2)])))
    out.append(SimpleGraph(range(7), [(a, b) for a in range(3)
                                      for b in range(3, 6)]))
    return out


def test_basic_accessors():
    g = catalog.path(4)
    assert g.vertices == ("a", "b", "c", "d")
    assert frozenset(("a", "b")) in g.edges
    assert frozenset(("a", "c")) not in g.edges
    assert len(g) == 4


def test_validation_rejects_bad_edges():
    with pytest.raises(ValueError):
        SimpleGraph(("a", "b"), [("a", "a")])
    with pytest.raises(ValueError):
        SimpleGraph(("a", "b"), [("a", "c")])
    with pytest.raises(ValueError):
        SimpleGraph(("a", "a"), [])


def test_opposite_is_involution():
    for g in small_graphs():
        assert opposite(opposite(g)) == g
        n = len(g.vertices)
        assert len(g.edges) + len(opposite(g).edges) == n * (n - 1) // 2


if HAVE_HYPOTHESIS:
    def reordered_classes(rng):
        """(vertices, edges) of every graph on at most 6 vertices, the stored
        vertex order and the edge list shuffled by rng."""
        for g in small_graphs(6):
            verts = list(g.vertices)
            rng.shuffle(verts)
            edges = [tuple(e) for e in g.edges]
            rng.shuffle(edges)
            yield tuple(verts), edges

    @given(st.randoms(use_true_random=True))
    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    def test_mask_graph_reads_like_the_edge_constructor(rng):
        for verts, edges in reordered_classes(rng):
            masks, edge_set, adj, pairs = oracles.edge_list_views(verts, edges)
            g, h = SimpleGraph(verts, edges), graphs._graph(verts, masks)
            assert g == h and hash(g) == hash(h)
            for x in (g, h):
                assert x.masks == masks and x.edges == edge_set
                assert x.adj == adj and x.sorted_edges() == pairs
                assert x.index == {v: i for i, v in enumerate(verts)}

    @given(st.randoms(use_true_random=True))
    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    def test_opposite_matches_the_pairwise_complement(rng):
        for verts, edges in reordered_classes(rng):
            g = SimpleGraph(verts, edges)
            assert opposite(g) == oracles.pairwise_opposite(g)
            assert opposite(opposite(g)) == g

    @given(st.randoms(use_true_random=True))
    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    def test_noncommuting_matches_the_adjacency_scan(rng):
        for verts, edges in reordered_classes(rng):
            g = SimpleGraph(verts, edges)
            assert (GroupSpec(g, 2).noncommuting
                    == oracles.adjacency_scan_noncommuting(g))


def test_induced_link_star():
    g = catalog.cycle(5)
    sub = induced_subgraph(g, ("v1", "v2", "v3"))
    assert sub.vertices == ("v1", "v2", "v3")
    assert len(sub.edges) == 2


def test_contract_cycle_gives_smaller_cycle():
    g = catalog.cycle(6)
    c = contract_edge(g, ("v1", "v2"))
    assert are_isomorphic(c, catalog.cycle(5)) is not None


def test_co_contract_cycle_opposites():
    # co-contracting an opposite-graph edge of C6opp yields C5opp
    g = opposite(catalog.cycle(6))
    c = co_contract(g, ("v1", "v2"))
    assert are_isomorphic(c, opposite(catalog.cycle(5))) is not None


def test_double_along_link_path5():
    g = catalog.path(5)  # a-b-c-d-e, doubled at c
    dbl, rho = double_along_link(g, "c")
    # lk(c) = {b, d} is shared; only a, e acquire primed copies
    assert set(dbl.vertices) == {"a", "b", "d", "e", "a'", "e'"}
    assert rho["a'"] == "a" and rho["b"] == "b"
    assert {frozenset(e) for e in (("a", "b"), ("a'", "b"), ("d", "e"),
                                   ("d", "e'"))} <= dbl.edges
    assert frozenset(("a", "a'")) not in dbl.edges


def outcome(fn, *args):
    """fn(*args), or the text of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


def test_derived_graphs_match_the_edge_set_oracles():
    # every graph on at most 6 vertices in a shuffled stored order: every
    # vertex pair, a loop, an unknown vertex and a triple contracted both
    # ways, and every vertex doubled
    rng = random.Random(19)
    for g in small_graphs(6):
        verts = list(g.vertices)
        rng.shuffle(verts)
        g = SimpleGraph(verts, g.edges)
        pairs = list(itertools.combinations(verts, 2))
        pairs += [(verts[0], verts[0]), (verts[0], "nosuch"), tuple(verts[:3])]
        for fn, oracle in ((contract_edge, oracles.edge_set_contract_edge),
                           (co_contract, oracles.round_trip_co_contract)):
            for e in pairs:
                got, want = outcome(fn, g, e), outcome(oracle, g, e)
                assert got == want
                if not isinstance(got, str):
                    assert got.vertices == want.vertices
                    assert got.masks == want.masks and got.edges == want.edges
        for t in verts + ["nosuch"]:
            got, want = (outcome(double_along_link, g, t),
                         outcome(oracles.edge_set_double_along_link, g, t))
            assert got == want
            if not isinstance(got, str):
                assert got[0].masks == want[0].masks
                assert got[0].edges == want[0].edges


def test_induced_subgraph_matches_the_edge_set_oracle():
    # every graph on at most 6 vertices in a shuffled stored order, kept on
    # every vertex subset (given in reverse), alone and with unknown vertices
    rng = random.Random(23)
    for g in small_graphs(6):
        verts = list(g.vertices)
        rng.shuffle(verts)
        g = SimpleGraph(verts, g.edges)
        for k in range(len(verts) + 1):
            for keep in itertools.combinations(verts, k):
                for extra in ((), ("nosuch", 7)):
                    given = extra + keep[::-1]
                    got = outcome(induced_subgraph, g, given)
                    want = outcome(oracles.edge_set_induced_subgraph, g, given)
                    assert got == want
                    if not isinstance(got, str):
                        assert got.vertices == want.vertices
                        assert got.masks == want.masks


def test_a_prime_may_take_the_label_of_t():
    # t is not a vertex of its double, so its label is free there (the CLI
    # tests pin the refusal of a taken label)
    dbl, rho = double_along_link(SimpleGraph(("a", "a'"), []), "a'")
    assert dbl.vertices == ("a", "a'") and rho == {"a": "a", "a'": "a"}


def test_find_hole_matches_brute_force():
    rng = random.Random(5)
    for g in small_graphs(7):
        h = shuffled(g, rng)
        for x in (h, opposite(h)):
            assert find_hole(x, 4) == oracles.brute_force_hole(x, 4)
            assert find_hole(x, 5) == oracles.brute_force_hole(x, 5)


def test_antiholes_match_brute_force_on_the_opposite():
    # the antihole witness is the first hole of the opposite graph, built
    # from the complemented masks; it must be the brute-force first hole
    rng = random.Random(23)
    antiholes = 0
    for g in small_graphs(7):
        h = shuffled(g, rng)
        for x in (h, opposite(h)):
            hole = oracles.brute_force_hole(x, 5)
            anti = oracles.brute_force_hole(opposite(x), 5)
            want = (("hole", hole) if hole is not None
                    else ("antihole", anti) if anti is not None else None)
            assert is_weakly_chordal(x) == (want is None, want)
            assert racg_surface_subgroup(x).witness == want
            antiholes += hole is None and anti is not None
    assert antiholes >= 20


def test_find_hole_examples():
    assert find_hole(catalog.cycle(5), 5) == ("v1", "v2", "v3", "v4", "v5")
    assert find_hole(catalog.path(6), 5) is None
    assert find_hole(catalog.cycle(6), 5) == ("v1", "v2", "v3", "v4", "v5", "v6")
    # every vertex has two neighbors, but the six are two triangles
    two_triangles = SimpleGraph("abcdef", ["ab", "bc", "ac", "de", "ef", "df"])
    assert find_hole(two_triangles, 4) is None


def test_weakly_chordal_examples():
    ok, _ = is_weakly_chordal(catalog.path(7))
    assert ok
    ok, witness = is_weakly_chordal(catalog.cycle(5))
    assert not ok and witness[0] == "hole" and len(witness[1]) == 5
    # C6 complement contains no long hole but C7 complement has an antihole
    ok, witness = is_weakly_chordal(opposite(catalog.cycle(7)))
    assert not ok and witness[0] == "antihole" and len(witness[1]) == 7


def test_cliques_match_subset_filter():
    rng = random.Random(11)
    for g in small_graphs(6):
        h = shuffled(g, rng)
        assert cliques(h) == oracles.subset_cliques(h)
    assert cliques(SimpleGraph((), ())) == [frozenset()]
    assert cliques(catalog.cycle(3))[-1] == frozenset({"v1", "v2", "v3"})


def test_are_isomorphic_matches_brute_force():
    rng = random.Random(7)
    graphs5 = enumerate_graphs(4)
    for g1 in graphs5:
        for g2 in graphs5:
            got = are_isomorphic(g1, g2) is not None
            assert got == oracles.brute_force_isomorphic(g1, g2)


def test_are_isomorphic_returns_valid_map():
    g1 = catalog.cycle(6)
    perm = {"v%d" % (i + 1): "v%d" % ((i * 5) % 6 + 1) for i in range(6)}
    g2 = SimpleGraph(tuple(sorted(perm.values())),
                     [(perm[u], perm[v]) for u, v in g1.sorted_edges()])
    m = are_isomorphic(g1, g2)
    assert m is not None
    for u, v in itertools.combinations(g1.vertices, 2):
        assert ((frozenset((u, v)) in g1.edges)
                == (frozenset((m[u], m[v])) in g2.edges))


def test_has_induced():
    g = catalog.cycle(6)
    assert has_induced(g, catalog.path(3)) is not None
    assert has_induced(g, catalog.cycle(3)) is None
    with pytest.raises(ValueError):
        has_induced(catalog.path(3), catalog.path(4))


def test_has_induced_matches_brute_force():
    rng = random.Random(9)
    patterns = [opposite(catalog.cycle(6)), opposite(catalog.path(6)),
                catalog.p1_7(), catalog.p2_7()]
    hosts = patterns + enumerate_graphs(7)[::20]
    for pat in patterns[:2]:  # one extra vertex: several subsets may match
        for _ in range(8):
            hosts.append(SimpleGraph(pat.vertices + ("x",), list(pat.edges) + [
                (v, "x") for v in pat.vertices if rng.random() < 0.5]))
    found = 0
    for host in hosts:
        h = shuffled(host, rng)
        for pat in patterns:
            if len(pat) > len(h):
                continue
            got = has_induced(h, pat)
            assert got == oracles.brute_force_induced(h, pat)
            found += got is not None
    assert found >= 20


def test_canonical_bits_matches_permutation_oracle():
    rng = random.Random(11)
    graphs = [shuffled(g, rng) for g in small_graphs(6)]
    graphs += [random_graph(n, rng.choice((0.3, 0.5, 0.7)), rng)
               for n in (7, 8) for _ in range(30)]
    graphs += [shuffled(g, rng) for g in twin_heavy_graphs()]
    for g in graphs:
        colors = oracles.wl_colors(g)
        assert _refine(g.masks) == [colors[v] for v in g.vertices]
        assert canonical_bits(g) == oracles.permutation_canonical_bits(g), \
            write_edgelist(g)


def test_canonical_graph_invariant_under_relabeling():
    rng = random.Random(3)
    for g in enumerate_graphs(5)[::5]:
        verts = list(g.vertices)
        rng.shuffle(verts)
        perm = dict(zip(g.vertices, verts))
        h = SimpleGraph(tuple(sorted(verts, key=str)),
                        [(perm[u], perm[v]) for u, v in g.sorted_edges()])
        assert oracles.canonical_graph(g) == oracles.canonical_graph(h)


# graphs on n vertices by number of edges, OEIS A008406
EDGE_COUNTS = {
    1: [1], 2: [1, 1], 3: [1, 1, 1, 1], 4: [1, 1, 2, 3, 2, 1, 1],
    5: [1, 1, 2, 4, 6, 6, 6, 4, 2, 1, 1],
    6: [1, 1, 2, 5, 9, 15, 21, 24, 24, 21, 15, 9, 5, 2, 1, 1],
    7: [1, 1, 2, 5, 10, 21, 41, 65, 97, 131, 148, 148, 131, 97, 65, 41, 21,
        10, 5, 2, 1, 1],
}


def test_enumerate_graphs_counts():
    assert [len(enumerate_graphs(n)) for n in range(1, 8)] == \
        [1, 2, 4, 11, 34, 156, 1044]  # OEIS A000088
    for n, want in EDGE_COUNTS.items():
        got = [0] * (n * (n - 1) // 2 + 1)
        for g in enumerate_graphs(n):
            got[len(g.edges)] += 1
        assert got == want, n


def test_enumeration_runs_one_canonical_search_per_class(monkeypatch):
    # from an empty cache, for n and every smaller n it builds on: one search
    # per accepted candidate and one per opposite, so one per class, plus one
    # per candidate that passes the degree and color checks but not the
    # orbit test (no kept order ends in its new vertex)
    calls, opposites = [], []
    real, real_key = graphs._canonical, graphs._key

    def counting(masks, colors):
        orders = real(masks, colors)
        calls.append(bool(opposites)
                     or any(o[-1] == len(masks) - 1 for o in orders))
        return orders

    def key(masks):
        opposites.append(masks)
        try:
            return real_key(masks)
        finally:
            opposites.pop()

    monkeypatch.setattr(graphs, "_canonical", counting)
    monkeypatch.setattr(graphs, "_key", key)
    counts, rejected = [], []
    for n in range(1, 8):
        monkeypatch.setattr(graphs, "_ENUM_CACHE", {})
        calls.clear()
        enumerate_graphs(n)
        counts.append(len(calls))
        rejected.append(calls.count(False))
        classes = sum(len(enumerate_graphs(k)) for k in range(2, n + 1))
        assert counts[-1] == classes + rejected[-1], n
    assert counts == [0, 2, 6, 17, 51, 207, 1252]
    assert rejected == [0, 0, 0, 0, 0, 0, 1]


def test_augmentation_accepts_exactly_one_orbit():
    # put each vertex of g last in turn, as the new vertex of the candidate
    # from the parent left by deleting it: enumerate_graphs must accept
    # exactly the vertices of one Aut(g) orbit
    rng = random.Random(29)
    cases = [shuffled(g, rng) for g in small_graphs(6) if len(g) > 1]
    cases = [(h, oracles.brute_force_automorphisms(h)) for h in cases]
    cases += [(h, _automorphisms(h.masks)) for h in
              (shuffled(g, rng) for g in enumerate_graphs(7)[::4])]
    for g, auts in cases:
        n, masks = len(g), g.masks
        accepted = set()
        for v in range(n):
            order = [u for u in range(n) if u != v] + [v]
            cand = [sum(1 << j for j, u in enumerate(order)
                        if masks[w] >> u & 1) for w in order]
            parent = SimpleGraph(range(n - 1), [
                (i, j) for i, j in itertools.combinations(range(n - 1), 2)
                if cand[i] >> j & 1])
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(graphs, "_ENUM_CACHE", {n - 1: [parent]})
                mp.setattr(graphs, "_orbit_representatives",
                           lambda masks, room, nb=cand[-1]: [nb])
                got = enumerate_graphs(n)
            if got:
                assert canonical_bits(g) in map(canonical_bits, got)
                accepted.add(v)
        assert accepted == {perm[min(accepted)] for perm in auts}, \
            write_edgelist(g)


def test_enumerate_graphs_reaches_eight_vertices():
    graphs8 = enumerate_graphs(8)
    assert len(graphs8) == 12346  # OEIS A000088
    half = [1, 1, 2, 5, 11, 24, 56, 115, 221, 402, 663, 980, 1312, 1557, 1646]
    got = [0] * 29
    for g in graphs8:
        got[len(g.edges)] += 1
    assert got == half + half[-2::-1]  # OEIS A008406
    for n in (0, 9):
        with pytest.raises(ValueError, match="between 1 and 8"):
            enumerate_graphs(n)


def test_mutating_an_enumeration_leaves_the_next_one_alone(monkeypatch):
    monkeypatch.setattr(graphs, "_ENUM_CACHE", {})
    want = None
    for _ in range(3):  # built, then twice from the cache
        got = enumerate_graphs(5)
        want = want or list(got)
        assert got == want
        got.reverse()
        del got[3:]


def test_enumerate_graphs_matches_unpruned_enumeration():
    for n in range(1, 8):
        assert list(map(write_graph6, enumerate_graphs(n))) == \
            list(oracles.unpruned_enumeration(n)), n


def test_orbit_representatives_give_each_child_class_once():
    rng = random.Random(17)
    for g in small_graphs(6):
        masks = shuffled(g, rng).masks
        n = len(masks)

        child = [canonical_bits(tuple(m | (nb >> i & 1) << n
                                      for i, m in enumerate(masks)) + (nb,))
                 for nb in range(1 << n)]
        for room in range(n + 1):
            keys = [child[nb] for nb in _orbit_representatives(masks, room)]
            assert len(set(keys)) == len(keys)
            assert set(keys) == {child[nb] for nb in range(1 << n)
                                 if nb.bit_count() <= room}
    assert _orbit_representatives((0, 0), -1) == []


def test_automorphism_counts_satisfy_orbit_stabilizer():
    # each class G is hit by n!/|Aut(G)| of the 2^C(n,2) labelled graphs
    for n in range(1, 8):
        total = sum(math.factorial(n) // len(_automorphisms(g.masks))
                    for g in enumerate_graphs(n))
        assert total == 2 ** (n * (n - 1) // 2), n


def test_automorphisms_match_brute_force():
    rng = random.Random(13)
    for g in small_graphs(6):
        h = shuffled(g, rng)
        auts = _automorphisms(h.masks)
        assert len(set(auts)) == len(auts)
        assert set(auts) == oracles.brute_force_automorphisms(h), \
            write_edgelist(h)


def test_enumerate_graphs_distinct():
    seen = [oracles.canonical_graph(g) for g in enumerate_graphs(5)]
    assert len(set(seen)) == len(seen)


def test_graph6_roundtrip():
    for g in small_graphs(5):
        s = write_graph6(g)
        h = read_graph6(s)
        assert are_isomorphic(g, h) is not None
        assert write_graph6(h) == s


def test_graph6_known_values():
    # single edgeless vertex and the triangle
    assert write_graph6(SimpleGraph(("a",), [])) == "@"
    assert write_graph6(catalog.cycle(3)) == "Bw"


def test_edgelist_roundtrip():
    for g in (catalog.cycle(5), catalog.path(4), catalog.fig8()):
        text = write_edgelist(g)
        assert read_edgelist(text) == g


def test_edgelist_parse_errors():
    with pytest.raises(ValueError):
        read_edgelist("e a b\n")  # no vertex header
    with pytest.raises(ValueError):
        read_edgelist("n 2 a b\ne a c\n")
