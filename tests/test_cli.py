import io
import os
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

import gpwork
from gpwork.cli import main

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


def test_census_file_output(tmp_path):
    out_file = tmp_path / "table.tsv"
    code, out = run_cli(["census", "-n", "3", "-o", str(out_file)])
    assert code == 0 and out == ""
    assert out_file.read_text() == golden_census_3()


def golden_census_3():
    _, out = run_cli(["census", "-n", "3"])
    return out


def test_error_exit_codes():
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
    with pytest.raises(SystemExit) as exc:
        run_cli(["frobnicate"])
    assert exc.value.code == 2


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
])
def test_malformed_input_exits_2_with_line_number(tmp_path, capsys, op, text,
                                                   line):
    path = tmp_path / "input.txt"
    path.write_text(text)
    spec = tmp_path / "a.spec"
    spec.write_text("n 1 a\no a 2\n")
    argv = {"word": ["word", "normalize", "a", "--spec", str(path)],
            "complex": ["complex", "stats", str(path)],
            "embed": ["embed", "verify", "--source-spec", str(spec),
                      "--target-spec", str(spec), "--hom", str(path)]}[op]
    code, _ = run_cli(argv)
    err = capsys.readouterr().err
    assert code == 2
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
