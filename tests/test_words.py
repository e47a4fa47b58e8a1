import random
from itertools import product

import pytest

from gpwork import catalog
from gpwork.graphs import SimpleGraph, opposite
from gpwork.words import (GroupSpec, INF, Word, _ball, cyclically_reduce, equal,
                          format_spec, format_word, identity, in_kernel_kp0,
                          in_kernel_kpf, invert, multiply, normalize,
                          parse_spec, parse_word, project)

import oracles

try:
    from hypothesis import given, settings, strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False


def example_spec():
    """Path a-b-c with orders 3, infinite, 4."""
    return GroupSpec(catalog.path(3), {"a": 3, "b": INF, "c": 4})


def test_spec_validation():
    g = catalog.path(2)
    with pytest.raises(ValueError):
        GroupSpec(g, {"a": 2})
    with pytest.raises(ValueError):
        GroupSpec(g, {"a": 1, "b": 2})
    with pytest.raises(ValueError):
        GroupSpec(g, {"a": 2, "b": 2, "z": 2})
    s = GroupSpec(g, 2)
    assert s.order == {"a": 2, "b": 2}
    assert s.finite_part == ("a", "b")
    assert GroupSpec(g, INF).finite_part == ()


def test_word_validation_and_exponent_reduction():
    spec = example_spec()
    w = Word(spec, [("a", 4), ("c", -1)])
    assert w.syllables == (("a", 1), ("c", 3))
    with pytest.raises(ValueError):
        Word(spec, [("a", 3)])  # reduces to zero
    with pytest.raises(ValueError):
        Word(spec, [("z", 1)])


def test_normalize_examples():
    spec = example_spec()
    # a and b commute and a has order 3
    assert format_word(normalize(parse_word(spec, "a b a^2"))) == "b"
    assert format_word(normalize(parse_word(spec, "a b a^2 c b^-1 c^3"))) == "1"
    assert format_word(normalize(parse_word(spec, "c^-1 a"))) == "c^3 a"
    # ShortLex prefers earlier vertices among commuting syllables
    assert format_word(normalize(parse_word(spec, "b a"))) == "a b"


def test_normalize_idempotent_and_length_minimal():
    rng = random.Random(0)
    spec = example_spec()
    for _ in range(200):
        w = oracles.random_word(spec, rng, 5)
        nf = normalize(w)
        assert normalize(nf).syllables == nf.syllables
        oracle = oracles.shuffle_closure_normal_form(spec, w.syllables)
        assert nf.syllables == oracle


def all_words(spec, max_len, exp_window=1):
    gens = oracles.generator_syllables(spec, exp_window)
    for n in range(max_len + 1):
        for combo in product(gens, repeat=n):
            yield combo


def test_memoized_closure_oracle_matches_the_plain_closure():
    # each word is asked about as drawn, and then shuffled by commuting
    # swaps, which the drawn word's closure has stored
    rng = random.Random(17)
    shorter = 0
    for _ in range(200):
        spec = oracles.random_spec(rng, 4)
        drawn = tuple((v, spec.reduce_exp(v, e)) for v, e in
                      oracles.random_syllables(spec, rng, rng.randrange(2, 7)))
        swapped = tuple(oracles.commuting_shuffle(spec, drawn, rng, 6))
        for word in (drawn, swapped):
            closure = oracles.shuffle_closure(spec, word)
            assert (oracles.shuffle_closure_normal_form(spec, word)
                    == oracles.least_reduced_word(spec, closure))
            assert swapped in oracles._LEAST[spec]
            shorter += min(map(len, closure)) < len(word)
    assert shorter >= 100


def test_normalize_matches_shuffle_closure_small_exhaustive():
    g = SimpleGraph(("a", "b", "c"), [("a", "b")])
    for orders in ({"a": 2, "b": 3, "c": 2}, {"a": INF, "b": 2, "c": INF}):
        spec = GroupSpec(g, orders)
        for syls in all_words(spec, 3):
            got = normalize(Word(spec, syls))
            assert got.syllables == oracles.shuffle_closure_normal_form(spec, syls)


def test_multiply_confluence_small_exhaustive():
    spec = GroupSpec(catalog.path(3), 2)
    words_ = [Word(spec, s) for s in all_words(spec, 2)]
    for u in words_:
        for v in words_:
            lhs = normalize(Word(spec, u.syllables + v.syllables))
            rhs = multiply(normalize(u), normalize(v))
            assert lhs.syllables == rhs.syllables


def test_group_axioms_sampled():
    rng = random.Random(1)
    spec = example_spec()
    for _ in range(100):
        u = oracles.random_word(spec, rng, 4)
        v = oracles.random_word(spec, rng, 4)
        w = oracles.random_word(spec, rng, 4)
        assert equal(multiply(multiply(u, v), w), multiply(u, multiply(v, w)))
        assert equal(multiply(u, invert(u)), identity(spec))
        assert equal(invert(invert(u)), u)


def test_project_and_kernels():
    spec = example_spec()
    w = parse_word(spec, "a b c a b^-2 c^2")
    assert project(w, "a") == 2
    assert project(w, "b") == -1
    assert project(w, "c") == 3
    assert not in_kernel_kp0(w)
    # the infinite-order generator b alone: trivial finite projections only
    b = parse_word(spec, "b")
    assert in_kernel_kpf(b) and not in_kernel_kp0(b)
    comm = parse_word(spec, "a c a^-1 c^-1")
    assert in_kernel_kp0(comm) and in_kernel_kpf(comm)
    assert not equal(comm, identity(spec))  # a, c do not commute


def test_kp0_inside_kpf():
    rng = random.Random(2)
    spec = example_spec()
    for _ in range(300):
        w = oracles.random_word(spec, rng, 5)
        if in_kernel_kp0(w):
            assert in_kernel_kpf(w)


def test_word_canonical_flag_is_internal():
    # P2: a and b commute
    spec = GroupSpec(catalog.path(2), 2)
    with pytest.raises(TypeError):
        Word(spec, [("b", 1), ("a", 1)], canonical=True)
    w = Word(spec, [("a", 1)])
    assert normalize(w) == w and hash(normalize(w)) == hash(w)
    assert identity(spec) == Word(spec, ())


def test_cyclically_reduce():
    spec = example_spec()
    w = parse_word(spec, "c a c^-1")
    red, conj = cyclically_reduce(w)
    assert len(red) == 1
    assert equal(multiply(multiply(conj, red), invert(conj)), w)
    rng = random.Random(3)
    cases = [(spec, oracles.random_word(spec, rng, 4)) for _ in range(100)]
    cases += [(s, Word(s, oracles.random_syllables(s, rng, 300, exp_window=2)))
              for s in long_word_specs() for _ in range(3)]
    for s, w in cases:
        red, conj = cyclically_reduce(w)
        assert equal(multiply(multiply(conj, red), invert(conj)), w)
        assert len(red) <= len(normalize(w))
        assert oracles.cyclic_reduction_error(s, red.syllables) is None


def long_word_specs():
    """C6 with orders 2, inf, 3, inf, 4, inf, and P7opp with orders inf."""
    c6 = catalog.cycle(6)
    return (GroupSpec(c6, dict(zip(c6.vertices, (2, INF, 3, INF, 4, INF)))),
            GroupSpec(opposite(catalog.path(7)), INF))


@pytest.mark.parametrize("n", [1000, 5000, 20000])
def test_long_words_against_linear_checker(n):
    # 20,000 syllables take minutes for a normal form growing like n^2
    rng = random.Random(n)
    for spec in long_word_specs():
        raw = oracles.random_syllables(spec, rng, n, exp_window=2)
        w = Word(spec, raw)
        nf = normalize(w)
        assert oracles.normal_form_error(spec, nf.syllables) is None
        proj = oracles.projections(spec, raw)
        assert oracles.projections(spec, nf.syllables) == proj
        shuffled = oracles.commuting_shuffle(spec, raw, rng, 2 * n)
        assert normalize(Word(spec, shuffled)).syllables == nf.syllables
        inv = invert(w)
        assert oracles.normal_form_error(spec, inv.syllables) is None
        assert oracles.projections(spec, inv.syllables, -1) == proj
        assert len(multiply(w, inv)) == 0
        cut = rng.randrange(n)
        u, v = Word(spec, raw[:cut]), Word(spec, raw[cut:])
        assert multiply(u, v).syllables == nf.syllables
        assert multiply(normalize(u), v).syllables == nf.syllables


def test_enumerate_elements_counts():
    # Z2 x Z2 on an edge: four elements in total
    spec = GroupSpec(SimpleGraph(("a", "b"), [("a", "b")]), 2)
    assert len(list(_ball(spec, 10, None))) == 4
    # infinite dihedral on two isolated vertices: 2n+1 elements up to length n
    spec = GroupSpec(SimpleGraph(("a", "b"), []), 2)
    for n in range(5):
        assert len(list(_ball(spec, n, None))) == 2 * n + 1
    # free product Z3 * Z4: counts follow the alternating-syllable recursion
    spec = GroupSpec(SimpleGraph(("a", "b"), []), {"a": 3, "b": 4})
    got = [len(list(_ball(spec, n, None))) for n in range(4)]
    # length n words alternate vertices: 2,3 exponent choices per syllable
    assert got == [1, 1 + 5, 1 + 5 + 2 * 3 + 3 * 2, 1 + 5 + 12 + 2 * 3 * 2 + 3 * 2 * 3]


def test_enumerate_elements_sorted_and_distinct():
    spec = example_spec()
    ball = sorted(_ball(spec, 3, None), key=len)
    assert len(set(ball)) == len(ball)
    assert [len(w) for w in ball] == sorted(len(w) for w in ball)


def test_enumerate_elements_cap_at_ball_size():
    for spec, max_len in ((example_spec(), 3),
                          (GroupSpec(catalog.cycle(5), 2), 4)):
        n = len(oracles.bfs_ball(spec, max_len))
        for ball in (lambda *a: list(_ball(*a)), oracles.bfs_ball):
            assert len(ball(spec, max_len, n)) == n
            with pytest.raises(ValueError, match="cap of %d " % (n - 1)):
                ball(spec, max_len, n - 1)


def test_parse_format_roundtrip():
    spec = example_spec()
    for text in ("1", "a", "b^-1", "a b^2 c^3", "c^3 a"):
        w = parse_word(spec, text)
        assert format_word(w) == text or equal(w, parse_word(spec, format_word(w)))
    with pytest.raises(ValueError):
        parse_word(spec, "q")
    with pytest.raises(ValueError):
        parse_word(spec, "a^x")


def test_spec_roundtrip():
    spec = example_spec()
    text = format_spec(spec)
    back = parse_spec(text)
    assert back == spec
    with pytest.raises(ValueError):
        parse_spec("n 2 a b\ne a b\no a 2\n")  # missing order for b


if HAVE_HYPOTHESIS:
    @st.composite
    def raw_words(draw):
        g = SimpleGraph(("a", "b", "c"), [("a", "b"), ("b", "c")])
        spec = GroupSpec(g, {"a": 2, "b": INF, "c": 3})
        n = draw(st.integers(0, 6))
        syls = []
        for _ in range(n):
            v = draw(st.sampled_from(("a", "b", "c")))
            e = draw(st.integers(-3, 3))
            syls.append((v, e))
        return spec, syls

    @given(raw_words())
    @settings(max_examples=150, deadline=None)
    def test_normalize_agrees_with_oracle_property(data):
        spec, syls = data
        syls = [(v, e) for v, e in syls if spec.reduce_exp(v, e) != 0]
        nf = normalize(Word(spec, syls))
        assert nf.syllables == oracles.shuffle_closure_normal_form(spec, syls)

    @given(raw_words(), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_normalize_invariant_under_commuting_swaps(data, rng):
        spec, syls = data
        syls = [(v, e) for v, e in syls if spec.reduce_exp(v, e) != 0]
        base = normalize(Word(spec, syls)).syllables
        shuffled = list(syls)
        adj = spec.graph.adj
        for _ in range(10):
            if len(shuffled) < 2:
                break
            i = rng.randrange(len(shuffled) - 1)
            u, v = shuffled[i][0], shuffled[i + 1][0]
            if u != v and v in adj[u]:
                shuffled[i], shuffled[i + 1] = shuffled[i + 1], shuffled[i]
        assert normalize(Word(spec, shuffled)).syllables == base

    @given(st.randoms(use_true_random=False), st.integers(0, 4))
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    def test_enumerate_elements_matches_bfs_oracle(rng, max_len):
        # the same words in the same order, or the same cap error
        spec = oracles.random_spec(rng, 6)

        def run(ball):
            try:
                return ball()
            except ValueError as e:
                return str(e)

        assert run(lambda: sorted(_ball(spec, max_len, 400), key=len)) == run(
            lambda: [w.syllables for w in oracles.bfs_ball(spec, max_len, 400)])

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_cyclically_reduce_matches_trial_conjugation_oracle(rng):
        # about one word in five reduces
        spec = oracles.random_spec(rng, 7)
        w = oracles.random_word(spec, rng, 30)
        red, conj = cyclically_reduce(w)
        red0, conj0 = oracles.trial_conjugation_reduce(w)
        assert red.syllables == red0.syllables
        assert conj.syllables == conj0.syllables
