"""Acceptance gate: one test per top-level criterion, each printing a single
PASS line with its measured scope.  Tolerances are exact (combinatorial
counts) unless a sampling bound is stated inline."""

import random
import time
from itertools import product

from gpwork import catalog
from gpwork.classify import (NO, UNKNOWN, YES, census, racg_surface_subgroup,
                             raag_surface_subgroup)
from gpwork.complexes import (build_z0, build_zf, cell_counts, check_special_map,
                              euler_characteristic, is_closed_surface, is_npc,
                              vertex_link)
from gpwork.embeddings import (HomomorphismSpec, co_contraction_embedding,
                               double_homomorphism, injectivity_sample,
                               relator_check)
from gpwork.graphs import (SimpleGraph, are_isomorphic, double_along_link,
                           enumerate_graphs, induced_subgraph, is_weakly_chordal,
                           opposite)
from gpwork.words import (GroupSpec, INF, Word, in_kernel_kp0, in_kernel_kpf,
                          multiply, normalize, project)

import oracles


def example_spec():
    """Path a-b-c with vertex-group orders 3, infinite, 4."""
    return GroupSpec(catalog.path(3), {"a": 3, "b": INF, "c": 4})


def all_raw_words(spec, max_len, exp_window):
    gens = oracles.generator_syllables(spec, exp_window)
    for n in range(max_len + 1):
        yield from product(gens, repeat=n)


def test_criterion_1_normal_form_soundness():
    """normalize agrees with the exhaustive shuffle-closure oracle on every
    graph with <= 4 vertices under uniform orders 2, 3 and infinity;
    exhaustively for short words, by seeded sample for longer ones; the
    confluence identity holds for all short pairs.  Budget: < 2 minutes."""
    start = time.time()
    rng = random.Random(0)
    specs = [GroupSpec(g, o)
             for n in range(1, 5) for g in enumerate_graphs(n)
             for o in (2, 3, INF)]
    words_checked = pairs_checked = 0
    for spec in specs:
        # exhaustive: length <= 5 with syllable exponents in the unit window
        # (length <= 4 on the four-vertex graphs, where the length-5 layer
        # alone is the bulk of the runtime budget), plus length <= 3 with
        # window 2 to cover multi-step exponent interaction
        full_len = 5 if len(spec.graph.vertices) <= 3 else 4
        for max_len, window in ((full_len, 1), (3, 2)):
            for syls in all_raw_words(spec, max_len, window):
                nf = normalize(Word(spec, syls))
                assert nf.syllables == oracles.shuffle_closure_normal_form(
                    spec, syls)
                words_checked += 1
        # seeded sample: length <= 5 with exponent window 3
        for _ in range(300 if full_len == 4 else 40):
            w = oracles.random_word(spec, rng, 5, exp_window=3)
            nf = normalize(w)
            assert nf.syllables == oracles.shuffle_closure_normal_form(
                spec, w.syllables)
            words_checked += 1
        # confluence: all pairs with combined raw length <= 3, unit window
        short = list(all_raw_words(spec, 3, 1))
        for u in short:
            for v in short:
                if len(u) + len(v) > 3:
                    continue
                lhs = normalize(Word(spec, u + v))
                rhs = multiply(normalize(Word(spec, u)), normalize(Word(spec, v)))
                assert lhs.syllables == rhs.syllables
                pairs_checked += 1
    elapsed = time.time() - start
    assert elapsed < 120
    print("criterion 1: PASS (%d specs, %d words vs oracle, %d confluence "
          "pairs, %.1fs)" % (len(specs), words_checked, pairs_checked, elapsed))


def test_criterion_2_kernel_conditions():
    """Kernel membership equals per-vertex projection arithmetic on 10,000
    seeded random words; the infinite-order generator lies in the
    finite-projection kernel but not the full one; projections to the finite
    part hit exactly 3*4 = 12 cosets."""
    spec = example_spec()
    rng = random.Random(1)
    for _ in range(10000):
        w = oracles.random_word(spec, rng, 6, exp_window=3)
        # independent arithmetic straight off the raw syllables
        sums = {v: 0 for v in spec.graph.vertices}
        for v, e in w.syllables:
            sums[v] += e
        in_kp0 = all(spec.reduce_exp(v, s) == 0 for v, s in sums.items())
        in_kpf = all(spec.reduce_exp(v, sums[v]) == 0 for v in spec.finite_part)
        assert in_kernel_kp0(w) == in_kp0
        assert in_kernel_kpf(w) == in_kpf
        assert project(w, "b") == sums["b"]
    b = Word(spec, (("b", 1),))
    assert in_kernel_kpf(b) and not in_kernel_kp0(b)
    cosets = {(project(w, "a"), project(w, "c"))
              for w in oracles.bfs_ball(spec, 4)}
    assert len(cosets) == 12
    print("criterion 2: PASS (10000 seeded words, 12 finite-part cosets)")


def test_criterion_3_cube_complex_reproductions():
    """Exact cell counts, tolerance 0, in seconds."""
    start = time.time()
    X = build_z0(GroupSpec(catalog.cycle(5), 2))
    assert cell_counts(X) == {0: 32, 1: 80, 2: 40}
    assert euler_characteristic(X) == -8
    assert is_closed_surface(X)
    assert is_npc(X)[0] and check_special_map(X)[0]

    assert euler_characteristic(build_z0(GroupSpec(catalog.cycle(4), 2))) == 0

    grid = build_z0(GroupSpec(SimpleGraph(("a", "b"), []), {"a": 3, "b": 4}))
    counts = cell_counts(grid)
    assert counts == {0: 12, 1: 17}
    assert euler_characteristic(grid) == -5
    assert counts[1] - counts[0] + 1 == 6  # free rank of the fundamental group

    Xf = build_zf(example_spec(), 4)
    assert cell_counts(Xf) == {0: 48, 1: 116, 2: 68}
    elapsed = time.time() - start
    assert elapsed < 30
    print("criterion 3: PASS (four exact reproductions, %.1fs)" % elapsed)


def test_criterion_4_specialness_property_suite():
    """Every graph on <= 5 vertices, every per-vertex order assignment from
    {2, 3}: the truncated complex is non-positively curved and the direction
    labeling is a local isometry; link simplices only grow under box
    enlargement.  Budget: < 5 minutes."""
    start = time.time()
    count = 0
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            for orders in product((2, 3), repeat=n):
                spec = GroupSpec(g, dict(zip(g.vertices, orders)))
                X = build_z0(spec)
                assert is_npc(X) == (True, None)
                ok, failures = check_special_map(X)
                assert ok and not failures
                count += 1
    # box monotonicity on a sample of nested boxes
    from gpwork.complexes import Box, CubeComplex
    for g in enumerate_graphs(3):
        spec = GroupSpec(g, INF)
        small = CubeComplex(spec, Box({v: ("interval", 0, 2)
                                       for v in g.vertices}))
        big = CubeComplex(spec, Box({v: ("interval", 0, 4)
                                     for v in g.vertices}))
        assert oracles.box_contains(big.box, small.box)
        for p in small.vertices():
            assert vertex_link(small, p).simplices <= vertex_link(big, p).simplices
        assert check_special_map(small)[0] and check_special_map(big)[0]
    elapsed = time.time() - start
    assert elapsed < 300
    print("criterion 4: PASS (%d order assignments, box monotonicity, %.1fs)"
          % (count, elapsed))


def test_criterion_5_embedding_certification():
    """Relator certification exhaustively at 6 vertices and below with order
    2; the named cycle-opposite chains and the doubled seven-vertex path;
    injectivity on the radius-3 ball; negative fixtures fail."""
    start = time.time()
    count = 0
    for n in range(2, 7):
        for g in enumerate_graphs(n):
            for t in g.vertices:
                assert relator_check(double_homomorphism(g, t, 2))[0]
                count += 1
            for e in opposite(g).edges:
                assert relator_check(co_contraction_embedding(g, e, 2))[0]
                count += 1
    # chains from the m-anticycle down to the 5-anticycle, 5 <= m <= 8
    for m in (6, 7, 8):
        cur = opposite(catalog.cycle(m))
        while len(cur.vertices) > 5:
            k = len(cur.vertices)
            cyc = oracles.brute_force_hole(opposite(cur), k)
            h = co_contraction_embedding(cur, cyc[:2], 2)
            assert relator_check(h)[0]
            cur = h.source.graph
        assert are_isomorphic(cur, opposite(catalog.cycle(5))) is not None
    # doubling the seven-vertex path opposite at d gives the third Phi graph
    dbl, _ = double_along_link(opposite(catalog.path(7)), "d")
    assert are_isomorphic(dbl, catalog.phi_graph(3)) is not None
    assert relator_check(double_homomorphism(opposite(catalog.path(7)),
                                             "d", 2))[0]
    # injectivity on the ball of radius 3
    h2 = co_contraction_embedding(catalog.cycle(6), ("v1", "v3"), 2)
    assert injectivity_sample(h2, 3) == (True, None)
    h_inf = co_contraction_embedding(catalog.cycle(6), ("v1", "v3"), INF)
    assert injectivity_sample(h_inf, 3)[0]
    # negative fixtures: a collision-producing map and a broken commutator
    bad1 = HomomorphismSpec(h2.source, h2.target,
                            [(v, Word(h2.target, ((v.split("*")[0], 1),)))
                             for v in h2.source.graph.vertices])
    assert relator_check(bad1)[0] and not injectivity_sample(bad1, 2)[0]
    bad2 = HomomorphismSpec(h2.source, h2.target,
                            [(v, Word(h2.target, (("v4" if "*" in v else v, 1),)))
                             for v in h2.source.graph.vertices])
    assert not relator_check(bad2)[0]
    elapsed = time.time() - start
    assert elapsed < 120
    print("criterion 5: PASS (%d exhaustive certifications, chains, "
          "injectivity, negative fixtures, %.1fs)" % (count, elapsed))


def test_criterion_6_seven_vertex_census():
    """Exactly 1044 classes on 7 vertices; the Coxeter verdict is YES exactly
    off the weakly chordal classes, every YES witness re-validates as an
    induced cycle; the named graphs are weakly chordal; the twelve-vertex
    example stays UNKNOWN with its note.  Budget: < 10 minutes."""
    start = time.time()
    graphs7 = enumerate_graphs(7)
    assert len(graphs7) == 1044
    yes = 0
    for g in graphs7:
        c = racg_surface_subgroup(g)
        wc, _ = is_weakly_chordal(g)
        assert (c.verdict == YES) == (not wc)
        if c.verdict == YES:
            yes += 1
            kind, verts = c.witness
            base = g if kind == "hole" else opposite(g)
            sub = induced_subgraph(base, verts)
            assert len(verts) >= 5
            assert oracles.brute_force_hole(sub, len(verts)) is not None
        else:
            assert c.verdict == NO  # decisive at 7 vertices
    named = ([catalog.p1_7(), catalog.p2_7(), opposite(catalog.path(6)),
              opposite(catalog.path(7))]
             + [catalog.lambda_graph(i) for i in range(12)]
             + [catalog.phi_graph(i) for i in range(1, 6)])
    for g in named:
        ok, _ = is_weakly_chordal(g)
        assert ok
        verdict = racg_surface_subgroup(g).verdict
        assert verdict == (NO if len(g.vertices) <= 7 else UNKNOWN)
    c = racg_surface_subgroup(catalog.fig8())
    assert c.verdict == UNKNOWN and "right-angled Artin" in c.note
    elapsed = time.time() - start
    assert elapsed < 600
    print("criterion 6: PASS (1044 classes, %d YES re-validated, named "
          "graphs, %.1fs)" % (yes, elapsed))


def test_criterion_7_raag_racg_divergence():
    """The three graphs whose Artin group contains a surface group while the
    Coxeter group does not."""
    for g in (opposite(catalog.path(6)), catalog.p1_7(), catalog.p2_7()):
        assert raag_surface_subgroup(g).verdict == YES
        assert racg_surface_subgroup(g).verdict == NO
    print("criterion 7: PASS (P6 opposite and both seven-vertex patterns)")


def test_criterion_8_cli_determinism():
    """Every documented invocation reproduces its golden file byte-for-byte
    on repeated runs."""
    from test_cli import GOLDEN_CASES, golden, run_cli
    for argv, code, golden_name in GOLDEN_CASES:
        first = run_cli(argv)
        second = run_cli(argv)
        assert first == second == (code, golden(golden_name))
    print("criterion 8: PASS (%d golden invocations, two runs each)"
          % len(GOLDEN_CASES))
