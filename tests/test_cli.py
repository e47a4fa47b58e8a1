import hashlib
import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

import gpwork
from gpwork import catalog
from gpwork.cli import main
from gpwork.graphs import opposite

try:
    from hypothesis import given, settings, strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
FIXTURES = os.path.join(HERE, "fixtures")


def run_cli(argv, stdin_text=None):
    buf = io.StringIO()
    old_stdin = sys.stdin
    try:
        if stdin_text is not None:
            sys.stdin = io.StringIO(stdin_text)
        with redirect_stdout(buf):
            code = main(argv)
    finally:
        sys.stdin = old_stdin
    return code, buf.getvalue()


def run_fresh(argv, **kwargs):
    """Run the CLI in a new interpreter on the same gpwork this process imported."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(gpwork.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "gpwork"] + argv,
                          capture_output=True, env=env, **kwargs)


def golden(name):
    with open(os.path.join(GOLDEN, name)) as fh:
        return fh.read()


def fixture(name):
    return os.path.join(FIXTURES, name)


GOLDEN_CASES = [
    (["graph", "wc", "--name", "C5"], 1, "graph_wc_c5.txt"),
    (["word", "normalize", "a b a^2", "--spec", fixture("fig2a.spec")],
     0, "word_normalize_fig2a.txt"),
    (["word", "kp0", "a b a b", "--spec", fixture("free2.spec")],
     0, "word_kp0_free2.txt"),
    (["embed", "cocontract", "--name", "C6", "--edge", "v1,v3",
      "--orders", "2", "--verify"], 0, "embed_cocontract_c6.txt"),
    (["embed", "double", "--name", "P7opp", "-t", "d", "--orders", "2",
      "--verify"], 0, "embed_double_p7opp.txt"),
    (["classify", "--name", "P1_7", "--group", "racg"], 1,
     "classify_p1_7_racg.txt"),
    (["classify", "--name", "P1_7", "--group", "raag"], 0,
     "classify_p1_7_raag.txt"),
    (["classify", "--name", "Fig8", "--group", "racg"], 1,
     "classify_fig8_racg.txt"),
    (["census", "-n", "4"], 0, "census_n4.tsv"),
    (["graph", "enum", "-n", "5"], 0, "graph_enum_n5.txt"),
]


@pytest.mark.parametrize("argv,code,golden_name", GOLDEN_CASES)
def test_golden_outputs(argv, code, golden_name):
    got_code, out = run_cli(argv)
    assert got_code == code
    assert out == golden(golden_name)
    # byte-reproducible on a second run
    got_code2, out2 = run_cli(argv)
    assert (got_code2, out2) == (got_code, out)


def test_complex_pipe_golden():
    _, built = run_cli(["complex", "build-z0", "--name", "C5", "--orders", "2"])
    code, out = run_cli(["complex", "stats"], stdin_text=built)
    assert code == 0
    assert out == golden("complex_stats_c5.txt")
    _, built = run_cli(["complex", "build-zf", "--spec", fixture("fig2a.spec"),
                        "-q", "4"])
    code, out = run_cli(["complex", "stats"], stdin_text=built)
    assert code == 0
    assert out == golden("complex_stats_fig2a_q4.txt")


def test_spec_documented_examples():
    code, out = run_cli(["word", "normalize", "a b a^2",
                         "--spec", fixture("fig2a.spec")])
    assert (code, out) == (0, "b\n")
    code, out = run_cli(["word", "eq", "b b^-1", "1",
                         "--spec", fixture("fig2a.spec")])
    assert (code, out) == (0, "true\n")
    # word literals go before or after the options
    for argv in (["word", "mul", "--name", "C5", "v1", "v2"],
                 ["word", "mul", "v1", "--name", "C5", "v2"]):
        assert run_cli(argv) == (0, "v1 v2\n")
    code, out = run_cli(["complex", "special", "--spec", fixture("fig2a.spec"),
                         "-q", "4"])
    assert (code, out) == (0, "special=yes\n")
    code, out = run_cli(["classify", "--name", "Fig8", "--group", "racg"])
    assert code == 1 and out.startswith("UNKNOWN (")


def test_graph_ops():
    code, out = run_cli(["graph", "opp", "--name", "C4"])
    assert code == 0 and "e v1 v3" in out and "e v1 v2" not in out
    code, out = run_cli(["graph", "hole", "--name", "C6"])
    assert (code, out) == (0, "hole=v1,v2,v3,v4,v5,v6\n")
    code, out = run_cli(["graph", "hole", "--name", "P6"])
    assert (code, out) == (1, "hole=none\n")
    code, out = run_cli(["graph", "iso", "--name", "C5", "--other", "C5opp"])
    assert code == 0 and out.startswith("isomorphic=true\n")
    code, out = run_cli(["graph", "contract", "--name", "C4",
                         "--edge", "v1,v2"])
    assert code == 0 and out.startswith("n 3 ")
    code, out = run_cli(["graph", "double", "--name", "P5", "-t", "c"])
    assert code == 0 and "rho a' a" in out


@pytest.mark.parametrize("n, digest", [
    (6, "8afe1ac00f7709e57a595ad660a45b43731e5e90f5b1936074491838fb449607"),
    (7, "ad530e8b8c46fd74efe41d701d5ee6cef01b846a4e6d662ead3cfa7d9a0d2b7f"),
], ids=("n6", "n7"))
def test_graph_enum_bytes_pinned(n, digest):
    # every class representative and the graph6 order, next to the census
    # sha256 in test_classify.py
    code, out = run_cli(["graph", "enum", "-n", str(n)])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_graph_enum_keeps_the_census_range(capsys):
    # enumerate_graphs goes to 8 vertices; `graph enum` stops at 7
    for n in ("0", "8"):
        assert run_cli(["graph", "enum", "-n", n]) == (2, "")
        assert capsys.readouterr().err == "error: n must be between 1 and 7\n"


def test_cocontract_rejects_an_edge_of_the_graph(capsys):
    # {v1, v2} is an edge of C5, so not one of the opposite graph, and a
    # repeated endpoint is named as given by both commands
    for cmd in ("graph", "embed"):
        for edge in ("v1,v2", "v1,v1"):
            assert run_cli([cmd, "cocontract", "--name", "C5",
                            "--edge", edge]) == (2, "")
            assert capsys.readouterr().err == (
                "error: %s is not an edge of the opposite graph\n"
                % (edge.split(","),))


def test_embed_error_precedence(capsys):
    # a double reports a bad order before a bad -t; a co-contraction reports
    # a bad edge before a bad order
    assert run_cli(["embed", "double", "--name", "C5", "-t", "zz",
                    "--orders", "v1=2"]) == (2, "")
    assert capsys.readouterr().err == "error: vertex 'v2' has no order\n"
    assert run_cli(["embed", "cocontract", "--name", "C5", "--edge", "v1,v2",
                    "--orders", "v1=2"]) == (2, "")
    assert capsys.readouterr().err == (
        "error: ['v1', 'v2'] is not an edge of the opposite graph\n")


@pytest.mark.parametrize("argv", [["graph", "contract"], ["graph", "cocontract"],
                                  ["embed", "cocontract"]],
                         ids=("contract", "cocontract", "embed-cocontract"))
def test_edge_names_exactly_two_vertices(capsys, argv):
    for edge, n in (("v1,v3,v3", 3), ("v1,v2,v1", 3), ("v1", 1)):
        assert run_cli(argv + ["--name", "C5", "--edge", edge]) == (2, "")
        assert capsys.readouterr().err == (
            "error: --edge takes 2 vertices, got %d\n" % n)


TAKEN = "error: the new vertex label 'a*b' is taken\n"


@pytest.mark.parametrize("argv, text, out, err", [
    (["graph", "contract", "--edge", "a,b"], "n 3 a b a*b\ne a b\n", "", TAKEN),
    (["graph", "cocontract", "--edge", "a,b"], "n 3 a b a*b\n", "", TAKEN),
    (["embed", "cocontract", "--edge", "a,b"], "n 3 a b a*b\n", "", TAKEN),
    (["graph", "double", "-t", "b"], "n 3 a b a'\n",
     "n 4 a a' a'' a'''\nrho a a\nrho a' a'\nrho a'' a\nrho a''' a'\n", ""),
    (["embed", "double", "-t", "b"], "n 3 a b a'\n",
     "im a a\nim a' a'\nim a'' b a b\nim a''' b a' b\n", ""),
], ids=("contract", "cocontract", "embed-cocontract", "double", "embed-double"))
def test_new_vertex_labels_must_be_free(capsys, argv, text, out, err):
    # the merged vertex a*b is already a vertex, so it is refused; the second
    # copies of a and a' take primes until free, a'' and a''' (rho says which)
    assert run_cli(argv + ["--file", "-"], stdin_text=text) == (2 if err else 0, out)
    assert capsys.readouterr().err == err


def test_census_file_output(tmp_path):
    out_file = tmp_path / "table.tsv"
    code, out = run_cli(["census", "-n", "3", "-o", str(out_file)])
    assert code == 0 and out == ""
    assert out_file.read_text() == golden_census_3()


def golden_census_3():
    _, out = run_cli(["census", "-n", "3"])
    return out


def test_error_exit_codes(capsys):
    code, _ = run_cli(["graph", "wc", "--name", "nosuch"])
    assert code == 2
    code, _ = run_cli(["graph", "induced", "--name", "C5"])  # missing --verts
    assert code == 2
    code, _ = run_cli(["word", "normalize", "q", "--spec",
                       fixture("fig2a.spec")])
    assert code == 2
    code, _ = run_cli(["complex", "build-zf", "--name", "C5", "--orders", "2",
                       "-q", "2"])
    assert code == 2
    code, _ = run_cli(["embed", "cocontract", "--name", "C6",
                       "--edge", "v1,v2", "--orders", "2"])
    assert code == 2
    # each of these raised a traceback before: too few words, missing
    # files, an order list that leaves a vertex out
    code, _ = run_cli(["word", "mul", "--spec", fixture("fig2a.spec")])
    assert code == 2
    code, _ = run_cli(["embed", "verify"])
    assert code == 2
    code, _ = run_cli(["embed", "cocontract", "--name", "C6",
                       "--edge", "v1,v3", "--orders", "v1=2"])
    assert code == 2
    capsys.readouterr()
    # an error found after the homomorphism is built still writes nothing
    # to stdout
    assert run_cli(["embed", "cocontract", "--name", "C6",
                    "--edge", "v1,v3", "-L", "-1"]) == (2, "")
    assert capsys.readouterr().err == "error: max_len must be >= 0\n"
    for orders in ("x", "a=x"):
        assert run_cli(["word", "inv", "a", "--name", "P3",
                        "--orders", orders]) == (2, "")
        assert capsys.readouterr().err == (
            "error: --orders: 'x' is not an integer or inf\n")
    # one order per vertex, each for a vertex of the graph
    for orders, err in (
            ("a=2,b=2,a=3", "--orders: a second order for vertex 'a'"),
            ("a=2,b=2,c=3", "order given for unknown vertex 'c'")):
        assert run_cli(["word", "proj", "a a", "-v", "a", "--name", "P2",
                        "--orders", orders]) == (2, "")
        assert capsys.readouterr().err == "error: %s\n" % err
    # a word literal beyond the op's count is refused, not dropped
    for argv, err in (
            (["word", "normalize", "--name", "C5", "v1", "v2", "v3"],
             "normalize takes one word, got 3"),
            (["word", "mul", "v1", "--name", "C5", "v2", "v3"],
             "mul takes two words, got 3"),
            (["word", "eq", "v1", "v1", "v2", "--name", "C5"],
             "eq takes two words, got 3")):
        assert run_cli(argv) == (2, "")
        assert capsys.readouterr().err == "error: %s\n" % err
    # -q 0 is a cyclic size, not a missing -q; an option of the other
    # builder, or of no builder, is refused rather than dropped
    for argv, err in (
            (["complex", "build-zf", "--name", "P2", "--orders", "inf",
              "-q", "0"], "cyclic size q must be >= 3"),
            (["complex", "stats", "--name", "C4", "--orders", "inf",
              "-q", "0"], "cyclic size q must be >= 3"),
            (["complex", "stats", "--name", "C4", "--orders", "inf",
              "-q", "1"], "cyclic size q must be >= 3"),
            (["complex", "build-z0", "--name", "P2", "--orders", "inf",
              "-q", "3"], "-q does not apply to a build-z0 complex"),
            (["complex", "build-zf", "--name", "P2", "--orders", "inf",
              "--window", "2"], "--window does not apply to a build-zf complex"),
            (["complex", "npc", "--name", "C4", "--orders", "inf", "-q", "3",
              "--window", "2"], "--window does not apply to a build-zf complex"),
            (["complex", "stats", fixture("fig2a.spec"), "-q", "3"],
             "-q and --window build a complex from a graph or spec, not from "
             "a complex file"),
            # both size only infinite-order axes
            (["complex", "stats", "--name", "P3", "--orders", "2",
              "--window", "7"],
             "--window sizes only infinite-order axes, and the spec has none"),
            (["complex", "stats", "--name", "P3", "--orders", "2", "-q", "9"],
             "-q sizes only infinite-order axes, and the spec has none"),
            (["complex", "build-z0", "--name", "P3", "--orders", "a=2,b=3,c=4",
              "--window", "0"],
             "--window sizes only infinite-order axes, and the spec has none"),
            (["complex", "surface", "--name", "C4", "--orders", "3", "-q", "3"],
             "-q sizes only infinite-order axes, and the spec has none")):
        assert run_cli(argv) == (2, ""), argv
        assert capsys.readouterr().err == "error: %s\n" % err
    for argv in (["frobnicate"], ["word", "mul", "--name", "C5", "v1", "--bogus"]):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 2


def test_complex_stats_does_not_list_the_points():
    # about 10^9 points; the room-class walk answers at once
    proc = run_fresh(["complex", "stats", "--name", "P3", "--orders", "inf",
                      "--window", "1000"], text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "V=1003003001 E=3006003000 F=2002000000 C3=0 chi=-999999 "
        "npc=yes special=yes surface=no\n", "")


def test_one_input_source_per_command(capsys, tmp_path):
    # a second graph, spec or complex source is refused, not ignored
    spec = fixture("fig2a.spec")
    code, text = run_cli(["complex", "build-z0", "--name", "C5", "--orders", "2"])
    assert code == 0
    cx = tmp_path / "c5.cx"
    cx.write_text(text)
    cx = str(cx)
    for argv, given in (
            (["graph", "hole", "--name", "C5", "--g6", "?"], "--name and --g6"),
            (["graph", "opp", "--g6", "?", "--file", spec], "--g6 and --file"),
            (["graph", "wc", "--name", "C5", "--g6", "?", "--file", spec],
             "--name, --g6 and --file"),
            (["word", "normalize", "a b", "--spec", spec, "--name", "C5",
              "--orders", "3"], "--spec, --name and --orders"),
            (["word", "normalize", "a b", "--spec", spec, "--orders", "3"],
             "--spec and --orders"),
            (["word", "mul", "v1", "v2", "--name", "C5", "--file", spec],
             "--name and --file"),
            (["complex", "stats", cx, "--name", "P3"],
             "a complex file and --name"),
            (["complex", "stats", cx, "--orders", "3"],
             "a complex file and --orders"),
            (["complex", "npc", cx, "--spec", spec], "a complex file and --spec"),
            (["complex", "stats", "--name", "C5", "--g6", "?"],
             "--name and --g6"),
            (["complex", "build-z0", "--spec", spec, "--g6", "?"],
             "--spec and --g6"),
            (["classify", "--name", "C5", "--g6", "?", "--group", "racg"],
             "--name and --g6"),
            (["embed", "double", "--name", "P3", "--file", spec, "-t", "b"],
             "--name and --file")):
        assert run_cli(argv) == (2, ""), argv
        assert (capsys.readouterr().err
                == "error: %s cannot be used together\n" % given)
    # a complex read from stdin takes no --orders either
    assert run_cli(["complex", "stats", "--orders", "3"], text) == (2, "")
    assert (capsys.readouterr().err
            == "error: a complex file and --orders cannot be used together\n")
    # one source of each kind still runs
    built = run_cli(["complex", "stats", "--name", "C5", "--orders", "2"])
    assert built[0] == 0 and built[1].startswith("V=32 ")
    assert run_cli(["complex", "stats", cx]) == built
    assert run_cli(["word", "normalize", "a b", "--spec", spec]) == (0, "a b\n")


def test_graph_enum_and_builders_refuse_a_source_they_never_read(capsys):
    for argv, given in (
            (["graph", "enum", "-n", "2", "--name", "C5", "--g6", "?"],
             "graph enum, --name and --g6"),
            (["graph", "enum", "-n", "2", "--file", "nosuch"],
             "graph enum and --file"),
            (["complex", "build-z0", "nosuch.cx", "--name", "P2"],
             "complex build-z0 and a complex file"),
            (["complex", "build-zf", "nosuch.cx", "--name", "P2"],
             "complex build-zf and a complex file")):
        assert run_cli(argv) == (2, ""), argv
        assert (capsys.readouterr().err
                == "error: %s cannot be used together\n" % given)


def test_embed_reads_a_graph_or_three_files_not_both(capsys, tmp_path):
    free2 = fixture("free2.spec")
    hom = tmp_path / "id.hom"
    hom.write_text("im a a\nim b b\n")
    files = ["--source-spec", free2, "--target-spec", free2, "--hom", str(hom)]
    for argv, given in (
            (["embed", "verify"] + files + ["--name", "C5", "--g6", "?",
                                            "--orders", "3", "-t", "a"],
             "embed verify, --name, --g6, --orders and -t"),
            (["embed", "inject-sample"] + files + ["--file", "nosuch", "-L", "1"],
             "embed inject-sample and --file"),
            (["embed", "verify"] + files + ["--edge", "a,b", "--mirror",
                                            "--verify"],
             "embed verify, --edge, --mirror and --verify"),
            (["embed", "double", "--name", "C5", "-t", "v1", "--edge", "v1,v3",
              "--source-spec", "x"], "embed double and --source-spec"),
            (["embed", "cocontract", "--name", "C6", "--edge", "v1,v3",
              "--target-spec", "x", "--hom", "y"],
             "embed cocontract, --target-spec and --hom")):
        assert run_cli(argv) == (2, ""), argv
        assert (capsys.readouterr().err
                == "error: %s cannot be used together\n" % given)
    # one source of each kind still runs
    assert run_cli(["embed", "verify"] + files) == (0, "relators: PASS\n")
    assert run_cli(["embed", "inject-sample"] + files + ["-L", "1"]) == (
        0, "injectivity(L=1): PASS\n")


@pytest.mark.parametrize("op, text, line", [
    ("word", "n\no a 2\n", 1),                      # no vertex count
    ("word", "n x a\no a 2\n", 1),                  # non-integer count
    ("word", "n 1 a\no a two\n", 2),                # non-integer order
    ("complex", "n 1 a\no a 2\nbox a\n", 3),        # no box kind
    ("complex", "n 1 a\no a 2\nbox a interval 0\n", 3),  # missing bound
    ("complex", "n 1 a\no a 2\nbox a cyclic x\n", 3),    # non-integer bound
    ("complex", "n 1 a\nbox a cyclic 3\no a x\n", 3),    # spec line numbers
    ("complex", "n 1 a\no a 2\nbox a cyclic 3\n", 3),    # cyclic, finite order
    ("complex", "n 1 a\no a 2\n\nbox a interval 0 2\n", 4),  # 3 points, order 2
    ("complex", "n 1 a\no a inf\nbox a interval 2 1\n", 3),  # empty interval
    ("embed", "# no vertex\nim\n", 2),
    # one line per vertex and directive, naming a vertex of the graph
    ("word", "n 1 a\no a 2\no a 3\n", 3),           # repeated order
    ("complex", "n 1 a\no a 2\nbox a interval 0 1\nbox a interval 0 0\n",
     4),                                            # repeated box
    ("embed", "im a a\n\nim a 1\n", 3),             # repeated image
    ("word", "n 1 a\no a 2\no z 2\n", 3),           # unknown vertex's order
    ("embed", "im a a\nim z a\n", 2),               # unknown vertex's image
    ("word", "n 2 a a\no a 2\n", 1),                # repeated label
    ("word", "n 1 a\ne a a\no a 2\n", 2),           # self-loop
    ("word", "n 1 a\ne a z\no a 2\n", 2),           # unknown endpoint
    ("graph", "NOPE", "error: unknown graph name 'NOPE'\n"),
])
def test_malformed_input_exits_2_with_line_number(tmp_path, capsys, op, text,
                                                   line):
    """`line` is the line number the message must start with, or the exact
    stderr text for input that has no lines."""
    path = tmp_path / "input.txt"
    path.write_text(text)
    spec = tmp_path / "a.spec"
    spec.write_text("n 1 a\no a 2\n")
    argv = {"word": ["word", "normalize", "a", "--spec", str(path)],
            "complex": ["complex", "stats", str(path)],
            "embed": ["embed", "verify", "--source-spec", str(spec),
                      "--target-spec", str(spec), "--hom", str(path)],
            "graph": ["graph", "opp", "--name", text]}[op]
    code, _ = run_cli(argv)
    err = capsys.readouterr().err
    assert code == 2
    if isinstance(line, str):
        assert err == line
    else:
        assert err.startswith("error: line %d:" % line)
    assert "Traceback" not in err


def test_negative_fixture_relator_failure(tmp_path):
    # corrupt the generated homomorphism file, then verify must fail
    _, hom = run_cli(["embed", "cocontract", "--name", "C6",
                      "--edge", "v1,v3", "--orders", "2"])
    corrupted = hom.replace("im v1*v3 v3 v1 v3", "im v1*v3 v4")
    _, src_text = run_cli(["graph", "cocontract", "--name", "C6",
                           "--edge", "v1,v3"])
    src_spec = src_text + "".join("o %s 2\n" % v
                                  for v in ("v1*v3", "v2", "v4", "v5", "v6"))
    opp = run_fresh(["graph", "opp", "--name", "C6opp"], text=True)
    assert opp.returncode == 0
    tgt_spec = opp.stdout
    tgt_spec += "".join("o v%d 2\n" % (i + 1) for i in range(6))
    src_file = tmp_path / "src.spec"
    tgt_file = tmp_path / "tgt.spec"
    hom_file = tmp_path / "bad.hom"
    src_file.write_text(src_spec)
    tgt_file.write_text(tgt_spec)
    hom_file.write_text(corrupted)
    code, out = run_cli(["embed", "verify", "--source-spec", str(src_file),
                         "--target-spec", str(tgt_file), "--hom", str(hom_file)])
    assert code == 1
    assert out.startswith("relators: FAIL[")


def test_console_script_determinism():
    runs = [run_fresh(["census", "-n", "4"]) for _ in range(2)]
    assert runs[0].returncode == 0
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout.decode() == golden("census_n4.tsv")


if HAVE_HYPOTHESIS:
    LABELS = ("a", "b", "c", "d")
    REGISTRY = ("C5", "C6", "C6opp", "P4", "P5", "P7opp", "Fig8", "Lambda7")
    JUNK = ("", "z", "a'", "x*y", "#", "^", "-1", "0", "1", "2", "3", "inf",
            "x", "n", "e", "o", "box", "im", "interval", "cyclic")

    @st.composite
    def input_texts(draw, kind):
        """A graph/spec, complex or homomorphism text: well formed, then up to
        three lines dropped, duplicated, replaced or inserted as junk."""
        k = draw(st.integers(1, 4))
        label = st.sampled_from(LABELS[:k])
        if kind == "hom":
            syllable = st.builds("{}^{}".format, label, st.integers(-2, 2))
            lines = ["im %s %s" % (v, " ".join(draw(st.lists(syllable,
                                                             max_size=3))))
                     for v in LABELS[:k]]
        else:
            lines = ["n %d %s" % (k, " ".join(LABELS[:k]))]
            lines += ["e %s %s" % p for p in draw(st.lists(
                st.tuples(label, label), max_size=5))]
            lines += ["o %s %s" % (v, draw(st.sampled_from(("2", "3", "inf"))))
                      for v in LABELS[:k]]
        if kind == "complex":
            for v in LABELS[:k]:
                lo, size = draw(st.integers(0, 2)), draw(st.integers(0, 2))
                lines.append(draw(st.sampled_from((
                    "box %s interval %d %d" % (v, lo, lo + size),
                    "box %s cyclic %d" % (v, size + 2)))))
        junk = st.lists(st.sampled_from(JUNK + LABELS), max_size=5).map(" ".join)
        for _ in range(draw(st.integers(0, 3))):
            i = draw(st.integers(0, len(lines)))
            how = draw(st.sampled_from(("drop", "dup", "junk", "insert")))
            if how == "insert" or not lines:
                lines.insert(i, draw(junk))
            elif how == "drop":
                del lines[min(i, len(lines) - 1)]
            elif how == "dup":
                lines.insert(i, lines[min(i, len(lines) - 1)])
            else:
                lines[min(i, len(lines) - 1)] = draw(junk)
        return "\n".join(lines) + "\n"

    @pytest.fixture(scope="module")
    def fuzz_dir(tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz")

    FAMILIES = ("graph", "word", "complex", "embed-registry", "embed-file",
                "classify", "census")

    # a fixed share per command family: 7 x 17 = 119 examples
    @pytest.mark.parametrize("family", FAMILIES)
    @given(data=st.data())
    @settings(max_examples=17, deadline=None, derandomize=True, database=None)
    def test_fuzzed_inputs_exit_0_1_or_2(fuzz_dir, family, data):
        spec, cpx, hom = (fuzz_dir / "spec.txt", fuzz_dir / "complex.txt",
                          fuzz_dir / "hom.txt")
        for path, kind in ((spec, "spec"), (cpx, "complex"), (hom, "hom")):
            path.write_text(data.draw(input_texts(kind)))
        spec, cpx, hom = str(spec), str(cpx), str(hom)
        draw = data.draw
        name = st.sampled_from(LABELS[:3] + ("", "z"))
        pair = st.builds("{},{}".format, name, name)
        word = st.lists(st.builds("{}^{}".format, name, st.sampled_from(
            ("1", "-1", "2", "0", "x"))), max_size=3).map(" ".join)

        def opt(*args):
            return list(args) if draw(st.booleans()) else []

        def orders():
            return opt("--orders", draw(st.sampled_from(
                ("2", "inf", "a=2,b=inf,c=3,d=2", "a=x", "x", "1", "a=2,z=3"))))

        def op(*ops):
            return draw(st.sampled_from(ops))

        def registry_embed():
            # a homomorphism that builds, so that a bad -L fails after it
            name = draw(st.sampled_from(REGISTRY))
            g = catalog.by_name(name)
            if draw(st.booleans()):
                how = ["double", "-t", draw(st.sampled_from(g.vertices))]
            else:
                edge = draw(st.sampled_from(opposite(g).sorted_edges()))
                how = ["cocontract", "--edge", ",".join(edge)]
            return (["embed", how[0], "--name", name] + how[1:]
                    + opt("--orders", draw(st.sampled_from(("2", "3", "inf"))))
                    + opt("--verify") + opt("--mirror")
                    + ["-L", draw(st.sampled_from(("-1", "0", "1")))])

        argv = {
            "graph": lambda: [
                "graph", op("opp", "induced", "contract", "cocontract",
                            "double", "hole", "wc", "iso", "enum"),
                "--file", spec] + opt("--verts", draw(pair))
            + opt("--edge", draw(pair)) + opt("-t", draw(name))
            + opt("--other", spec) + opt("-n", str(draw(st.integers(-1, 5))))
            + opt("--min-len", str(draw(st.integers(2, 6)))),
            "word": lambda: [
                "word", op("normalize", "mul", "inv", "eq", "proj", "kp0",
                           "kpf")] + draw(st.lists(word, max_size=3))
            + opt("--spec", spec) + opt("--file", spec) + orders()
            + opt("-v", draw(name)),
            "complex": lambda: [
                "complex", op("build-z0", "build-zf", "stats", "npc",
                              "special", "surface")]
            + opt(cpx) + opt("--spec", spec) + opt("--file", spec) + orders()
            + opt("-q", str(draw(st.integers(0, 4))))
            + opt("--window", str(draw(st.integers(-1, 3)))),
            "embed-registry": registry_embed,
            "embed-file": lambda: [
                "embed", op("double", "cocontract", "verify", "inject-sample")]
            + opt("--file", spec) + opt("-t", draw(name))
            + opt("--edge", draw(pair)) + orders() + opt("--verify")
            + opt("--mirror") + opt("-L", str(draw(st.integers(-1, 2))))
            + opt("--source-spec", spec) + opt("--target-spec", spec)
            + opt("--hom", hom),
            "classify": lambda: [
                "classify", "--file", spec, "--group", op("racg", "raag")]
            + opt("--certificate"),
            "census": lambda: ["census", "-n", str(draw(st.integers(-1, 4)))],
        }[family]()
        out, err = io.StringIO(), io.StringIO()
        old_stdin, sys.stdin = sys.stdin, io.StringIO(draw(input_texts("complex")))
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        finally:
            sys.stdin = old_stdin
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert out.getvalue() == "", argv
