"""The four benchmark workloads: inputs made from a seed, the jobs that run
them through gpwork, and the checks on every job's output.

Each `setup_<workload>(seed, ctx)` imports gpwork afresh, generates its job
list and loads its references, and returns a list of `Job`s.  A job's `run`
calls into gpwork only through module attributes (so a tracer installed
after set-up sees the calls) and returns plain data; `check` inspects that
data without calling gpwork and returns None or the reason it is wrong.
"""

from __future__ import annotations

import compileall
import hashlib
import importlib
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFS = HERE / "refs"
LAYERS = ("graphs", "catalog", "words", "complexes", "embeddings",
          "classify", "cli")
CLI = "import sys; from gpwork.cli import main; sys.exit(main())"

FIG2A_SPEC = """n 3 a b c
e a b
e b c
o a 3
o b inf
o c 4
"""


@dataclass
class Job:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Any]
    must_fail: bool = False
    inputs: Any = None  # the seeded part of the input, as plain data


def fresh_import():
    """Import the seven gpwork modules from source, dropping loaded copies
    first, so that every set-up pays the import."""
    for name in [m for m in sys.modules
                 if m == "gpwork" or m.startswith("gpwork.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return SimpleNamespace(**{layer: importlib.import_module("gpwork." + layer)
                              for layer in LAYERS})


def load_ref(name):
    with open(REFS / name) as fh:
        return json.load(fh)


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _expect(cond, reason):
    return None if cond else reason


# -- census -------------------------------------------------------------------

def setup_census(seed, ctx):
    """One real CLI run per job, in a fresh interpreter; nothing to generate.
    Set-up warms the bytecode cache, as an installed package has one."""
    compileall.compile_dir(str(SRC / "gpwork"), quiet=1)
    warm = subprocess.run([sys.executable, "-c", "import gpwork.cli"],
                          env=cli_env(), cwd=ROOT, capture_output=True)
    if warm.returncode:
        raise RuntimeError("cannot import gpwork.cli: %s"
                           % warm.stderr.decode(errors="replace"))
    ref = load_ref("census.json")
    out = Path(ctx["tmpdir"]) / ("census_n7_seed%d.tsv" % seed)
    argv = ["census", "-n", "7", "-o", str(out)]

    def run():
        # ctx["cli_prefix"], when set, starts a traced interpreter instead
        prefix = ctx.get("cli_prefix") or (lambda: [sys.executable, "-c", CLI])
        proc = subprocess.run(prefix() + argv, env=cli_env(), cwd=ROOT,
                              capture_output=True)
        text = out.read_text() if out.exists() else ""
        if out.exists():
            out.unlink()
        return proc.returncode, proc.stderr.decode(errors="replace"), text

    return [Job("census -n 7", run, lambda v: check_census(v, ref))]


# graphs on 7 vertices by number of edges, OEIS A008406; 1044 in all
EDGE_COUNTS_7 = (1, 1, 2, 5, 10, 21, 41, 65, 97, 131, 148, 148, 131, 97, 65,
                 41, 21, 10, 5, 2, 1, 1)


def graph6_adjacency(text):
    """Adjacency sets of a short-form graph6 string, decoded here rather than
    by gpwork."""
    n = ord(text[0]) - 63
    bits = [(ord(c) - 63) >> s & 1 for c in text[1:] for s in range(5, -1, -1)]
    adj = [set() for _ in range(n)]
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                adj[i].add(j)
                adj[j].add(i)
            k += 1
    return adj


def has_long_hole(adj):
    """An induced cycle on at least 5 vertices: a connected vertex subset in
    which every vertex has exactly two neighbours."""
    n = len(adj)
    for size in range(5, n + 1):
        for sub in combinations(range(n), size):
            s = set(sub)
            if any(len(adj[v] & s) != 2 for v in sub):
                continue
            seen, todo = {sub[0]}, [sub[0]]
            while todo:
                for u in adj[todo.pop()] & s - seen:
                    seen.add(u)
                    todo.append(u)
            if seen == s:
                return True
    return False


def weakly_chordal(adj):
    """No hole and no antihole on 5 or more vertices."""
    co = [set(range(len(adj))) - a - {v} for v, a in enumerate(adj)]
    return not has_long_hole(adj) and not has_long_hole(co)


def check_census(value, ref):
    code, err, text = value
    if code != 0:
        return "exit %d: %s" % (code, err.strip()[-200:])
    if hashlib.sha256(text.encode()).hexdigest() != ref["sha256"]:
        return "census output differs from the reference"
    rows = [line.split("\t") for line in text.splitlines()[1:]]
    if len(rows) != 1044:  # graphs on 7 vertices, OEIS A000088
        return "%d classes instead of 1044" % len(rows)
    if len({row[0] for row in rows}) != len(rows):
        return "a graph6 string repeats"
    edges = [0] * len(EDGE_COUNTS_7)
    for row in rows:
        if len(row) != 7 or row[1] != "7":
            return "malformed row %r" % (row,)
        adj = graph6_adjacency(row[0])
        edges[sum(map(len, adj)) // 2] += 1
        if (row[2] == "true") != weakly_chordal(adj):
            return "weakly_chordal is wrong for %s" % (row[0],)
    return _expect(tuple(edges) == EDGE_COUNTS_7,
                   "classes per edge count %r" % (edges,))


# -- complexes ----------------------------------------------------------------

def _stats_check(line, ref_line, points):
    m = re.match(r"V=(\d+) ", line)
    if m is None or int(m.group(1)) != points:
        return "V is not the product of the box sizes (%d): %s" % (points, line)
    return _expect(line == ref_line, "stats %r, reference %r" % (line, ref_line))


def complexes_pool(gp):
    """The criterion-4 family, one fixed assignment of orders in {2, 3} per
    graph on at most 5 vertices: graph i of the n-vertex list gets
    i mod (n + 1) threes.  Returns (key, graph, orders)."""
    rng = random.Random("complexes-sample")
    out = []
    for n in range(1, 6):
        for i, g in enumerate(gp.graphs.enumerate_graphs(n)):
            threes = set(rng.sample(range(n), i % (n + 1)))
            orders = tuple(3 if j in threes else 2 for j in range(n))
            key = "%s:%s" % (gp.graphs.write_graph6(g),
                             "".join(map(str, orders)))
            out.append((key, g, orders))
    return out


def complexes_large(gp):
    """Larger boxes: (key, spec maker, q or None for build_z0, points)."""
    cat, w = gp.catalog, gp.words
    return [
        ("Phi3:2", lambda: w.GroupSpec(cat.phi_graph(3), 2), None, 2 ** 8),
        ("C6:3", lambda: w.GroupSpec(cat.cycle(6), 3), None, 3 ** 6),
        ("Lambda7:2", lambda: w.GroupSpec(cat.lambda_graph(7), 2), None, 2 ** 7),
        ("fig2a:zf4", lambda: w.parse_spec(FIG2A_SPEC), 4, 3 * 4 * 4),
    ]


def large_stats(gp, make, q):
    cx = gp.complexes
    return cx.stats_line(cx.build_z0(make()) if q is None
                         else cx.build_zf(make(), q))


def setup_complexes(seed, ctx):
    gp = fresh_import()
    ref = load_ref("complexes.json")
    rng = random.Random("complexes-%d" % seed)
    jobs = []
    for key, g, orders in complexes_pool(gp):
        # the seed reorders the vertices; the stats line is invariant under
        # that, and every seed costs about the same
        orders = dict(zip(g.vertices, orders))
        verts = list(g.vertices)
        rng.shuffle(verts)
        g = gp.graphs.SimpleGraph(verts, g.edges)

        def run(g=g, orders=orders):
            spec = gp.words.GroupSpec(g, orders)
            return gp.complexes.stats_line(gp.complexes.build_z0(spec))
        points = 1
        for m in orders.values():
            points *= m

        def check(line, key=key, points=points):
            err = _stats_check(line, ref[key], points)
            return err or _expect("npc=yes special=yes" in line,
                                  "criterion-4 complex not special: " + line)
        jobs.append(Job("z0 " + key, run, check, inputs=verts))
    for key, make, q, points in complexes_large(gp):
        jobs.append(Job(key, lambda make=make, q=q: large_stats(gp, make, q),
                        lambda line, key=key, points=points:
                        _stats_check(line, ref[key], points)))
    jobs.append(Job("hollow corner", lambda: hollow_corner_npc(gp),
                    lambda v: _expect(v == ref["hollow_corner"],
                                      "hollow corner reported %r" % (v,)),
                    must_fail=True))
    rng.shuffle(jobs)
    return jobs


def hollow_corner_npc(gp):
    """Three squares at a cube corner with no 3-cube: not non-positively
    curved, offender (0, 0, 0)."""
    spec = gp.words.GroupSpec(gp.catalog.cycle(3), gp.words.INF)
    cubes = frozenset({((0, 0, 0), frozenset(pair))
                       for pair in (("v1", "v2"), ("v1", "v3"), ("v2", "v3"))})
    ok, offender = gp.complexes.is_npc(
        gp.complexes.CubeComplex(spec, explicit_cubes=cubes))
    return ["npc", ok, list(offender) if offender is not None else None]


# -- embeddings ---------------------------------------------------------------

def injectivity_cases(gp):
    cat, emb, gr, w = gp.catalog, gp.embeddings, gp.graphs, gp.words
    return [
        ("inject C6 cocontract inf L4",
         lambda: emb.co_contraction_embedding(cat.cycle(6), ("v1", "v3"), w.INF), 4),
        ("inject C6 cocontract 2 L5",
         lambda: emb.co_contraction_embedding(cat.cycle(6), ("v1", "v3"), 2), 5),
        ("inject P7opp double d L3",
         lambda: emb.double_homomorphism(gr.opposite(cat.path(7)), "d", 2), 3),
    ]


def bad_fixtures(gp):
    """The test suite's negative fixtures over the C6 co-contraction: bad1
    passes the relators but collides on the radius-2 ball, bad2 breaks a
    relator."""
    emb, w = gp.embeddings, gp.words
    h2 = emb.co_contraction_embedding(gp.catalog.cycle(6), ("v1", "v3"), 2)
    src, tgt = h2.source, h2.target
    bad1 = emb.HomomorphismSpec(src, tgt, [
        (v, w.Word(tgt, ((v.split("*")[0], 1),))) for v in src.graph.vertices])
    bad2 = emb.HomomorphismSpec(src, tgt, [
        (v, w.Word(tgt, (("v4" if "*" in v else v, 1),)))
        for v in src.graph.vertices])
    return bad1, bad2


def run_bad1(gp):
    bad1, _ = bad_fixtures(gp)
    ok, _ = gp.embeddings.relator_check(bad1)
    inj, coll = gp.embeddings.injectivity_sample(bad1, 2)
    pair = None if coll is None else [gp.words.format_word(x) for x in coll]
    return ["bad1", ok, inj, pair]


def run_bad2(gp):
    _, bad2 = bad_fixtures(gp)
    ok, failures = gp.embeddings.relator_check(bad2)
    return ["bad2", ok, [list(f) for f in failures]]


def setup_embeddings(seed, ctx):
    gp = fresh_import()
    ref = load_ref("embeddings.json")
    rng = random.Random("embeddings-%d" % seed)
    emb, gr = gp.embeddings, gp.graphs
    jobs = []
    for n in range(2, 7):
        for g in gr.enumerate_graphs(n):
            # the seed fixes each graph's stored vertex order, which decides
            # every tie-break in the normal forms the relator check computes
            verts = list(g.vertices)
            rng.shuffle(verts)
            g = gr.SimpleGraph(verts, g.edges)
            g6 = gr.write_graph6(g)
            for t in g.vertices:
                jobs.append(Job("double %s at %s" % (g6, t),
                                lambda g=g, t=t: emb.relator_check(
                                    emb.double_homomorphism(g, t, 2)),
                                _relators_pass, inputs=verts))
            for e in gr.opposite(g).sorted_edges():
                jobs.append(Job("cocontract %s at %s,%s" % ((g6,) + e),
                                lambda g=g, e=e: emb.relator_check(
                                    emb.co_contraction_embedding(g, e, 2)),
                                _relators_pass, inputs=verts))
    for label, make, L in injectivity_cases(gp):
        jobs.append(Job(label,
                        lambda make=make, L=L: list(emb.injectivity_sample(make(), L)),
                        lambda v: _expect(v == [True, None],
                                          "injectivity failed: %r" % (v,))))
    jobs.append(Job("bad1", lambda: run_bad1(gp),
                    lambda v: _expect(v == ref["bad1"], "bad1 gave %r" % (v,)),
                    must_fail=True))
    jobs.append(Job("bad2", lambda: run_bad2(gp),
                    lambda v: _expect(v == ref["bad2"], "bad2 gave %r" % (v,)),
                    must_fail=True))
    rng.shuffle(jobs)
    return jobs


def _relators_pass(value):
    ok, failures = value
    return _expect(ok and not failures, "relators failed: %r" % (failures,))


# -- long words ---------------------------------------------------------------

WORD_LENGTHS = {"C6": (250, 250, 250, 500, 500, 1000),
                "P7opp": (250, 250, 250, 500, 500, 1500)}
CYCLIC_LENGTHS = (100, 114, 128, 142, 157, 171, 185, 200)


def long_word_specs(gp):
    w, cat = gp.words, gp.catalog
    c6 = cat.cycle(6)
    return {"C6": w.GroupSpec(c6, dict(zip(c6.vertices,
                                           (2, w.INF, 3, w.INF, 4, w.INF)))),
            "P7opp": w.GroupSpec(gp.graphs.opposite(cat.path(7)), w.INF)}


class Alphabet:
    """Plain copies of a spec's vertex order, orders and commutation, so
    that checks need no gpwork call."""

    def __init__(self, spec):
        self.vertices = list(spec.graph.vertices)
        self.index = {v: i for i, v in enumerate(self.vertices)}
        self.order = dict(spec.orders)
        self.adj = {v: set(spec.graph.adj[v]) for v in self.vertices}

    def random_word(self, rng, n):
        out = []
        for _ in range(n):
            v = rng.choice(self.vertices)
            m = self.order[v]
            out.append((v, rng.choice((-2, -1, 1, 2)) if m is None
                        else rng.randrange(1, m)))
        return tuple(out)

    def shuffle(self, rng, syls):
        """Swap random adjacent pairs of commuting syllables."""
        s = list(syls)
        for _ in range(2 * len(s)):
            i = rng.randrange(len(s) - 1)
            if s[i][0] == s[i + 1][0] or s[i][0] in self.adj[s[i + 1][0]]:
                s[i], s[i + 1] = s[i + 1], s[i]
        return tuple(s)

    def projections(self, syls, sign=1):
        sums = dict.fromkeys(self.vertices, 0)
        for v, e in syls:
            sums[v] += sign * e
        return [s if self.order[v] is None else s % self.order[v]
                for v, s in sums.items()]

    def normal_form_error(self, syls):
        """Reduced (no two syllables of one vertex can meet) and the
        lexicographically least shuffle (no syllable can move left past a
        larger one it commutes with), in the spec's vertex order."""
        key = [(self.index[v], e < 0, abs(e)) for v, e in syls]
        for j, (v, _) in enumerate(syls):
            for k in range(j - 1, -1, -1):
                u = syls[k][0]
                if u == v:
                    return "syllables %d and %d can merge" % (k, j)
                if u not in self.adj[v]:
                    break
                if key[k] > key[j]:
                    return "syllable %d can move left of %d" % (j, k)
        return None

    def cyclic_error(self, syls):
        """No vertex has one syllable that can reach the front and another
        that can reach the back, where the two would merge."""
        front, back = {}, {}
        for i, (v, _) in enumerate(syls):
            if all(u in self.adj[v] for u, _ in syls[:i]):
                front.setdefault(v, set()).add(i)
            if all(u in self.adj[v] for u, _ in syls[i + 1:]):
                back.setdefault(v, set()).add(i)
        for v, fi in front.items():
            if any(i != j for i in fi for j in back.get(v, ())):
                return "a conjugate by %s is shorter" % (v,)
        return None


def long_word_pool(gp):
    """Fixed base words, the same for every seed: (label, kind, spec,
    alphabet, syllables)."""
    rng = random.Random("long_words-pool")
    out = []
    for name, spec in long_word_specs(gp).items():
        alpha = Alphabet(spec)
        for k, n in enumerate(WORD_LENGTHS[name]):
            out.append(("%s word %d #%d" % (name, n, k), "word", spec, alpha,
                        alpha.random_word(rng, n)))
        for n in CYCLIC_LENGTHS:
            out.append(("%s cyclic %d" % (name, n), "cyclic", spec, alpha,
                        alpha.random_word(rng, n)))
    return out


def run_word(w, spec, raw, shuffled):
    word = w.Word(spec, raw)
    nf = w.normalize(word)
    inv = w.invert(word)
    return (nf.syllables, inv.syllables, len(w.multiply(nf, inv)),
            w.equal(nf, w.Word(spec, shuffled)),
            [w.project(word, v) for v in spec.graph.vertices])


def run_cyclic(w, spec, raw):
    red, conj = w.cyclically_reduce(w.Word(spec, raw))
    return red.syllables, conj.syllables


def digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def check_word(value, alpha, raw, ref):
    nf, inv, prod_len, eq, proj = value
    want = alpha.projections(raw)
    return (_expect(prod_len == 0, "w * w^-1 is not the identity")
            or _expect(eq, "w differs from a commuting shuffle")
            or _expect(proj == want, "project differs from the raw exponent sums")
            or _expect(alpha.projections(nf) == want,
                       "normal form changes the projections")
            or _expect(alpha.projections(inv, -1) == want,
                       "inverse has wrong projections")
            or _expect(len(inv) == len(nf) <= len(raw),
                       "normal form lengths disagree")
            or alpha.normal_form_error(nf)
            or alpha.normal_form_error(inv)
            or _expect(digest(value) == ref, "output differs from the reference"))


def check_cyclic(value, alpha, raw, ref):
    red, _ = value
    return (_expect(alpha.projections(red) == alpha.projections(raw),
                    "cyclic reduction changes the projections")
            or _expect(len(red) <= len(raw), "reduction grew")
            or alpha.normal_form_error(red)
            or alpha.cyclic_error(red)
            or _expect(digest(value) == ref, "output differs from the reference"))


def setup_long_words(seed, ctx):
    """The seed shuffles commuting syllables of fixed base words: the inputs
    differ per seed, the elements (and so the outputs) do not."""
    gp = fresh_import()
    ref = ctx.get("long_words_ref") or load_ref("long_words.json")
    rng = random.Random("long_words-%d" % seed)
    jobs = []
    for label, kind, spec, alpha, base in long_word_pool(gp):
        raw = alpha.shuffle(rng, base)
        if kind == "word":
            other = alpha.shuffle(rng, base)
            run = lambda spec=spec, raw=raw, other=other: run_word(
                gp.words, spec, raw, other)
            check = check_word
        else:
            run = lambda spec=spec, raw=raw: run_cyclic(gp.words, spec, raw)
            check = check_cyclic
        jobs.append(Job(label, run, lambda v, check=check, alpha=alpha,
                        raw=raw, label=label: check(v, alpha, raw, ref[label]),
                        inputs=raw))
    rng.shuffle(jobs)
    return jobs


SETUPS = {"census": setup_census, "complexes": setup_complexes,
          "embeddings": setup_embeddings, "long_words": setup_long_words}
