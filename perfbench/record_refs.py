"""Record the reference outputs the benchmark compares against, from the
source tree next to this directory.  Run once per deliberate change of
output, from the repository root:

    python3 perfbench/record_refs.py
"""

import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads as wl


def write(name, data):
    wl.REFS.mkdir(exist_ok=True)
    (wl.REFS / name).write_text(json.dumps(data, indent=0, sort_keys=True) + "\n")


def main():
    gp = wl.fresh_import()
    cx = gp.complexes
    stats = {}
    for key, g, orders in wl.complexes_pool(gp):
        spec = gp.words.GroupSpec(g, dict(zip(g.vertices, orders)))
        stats[key] = cx.stats_line(cx.build_z0(spec))
    for key, make, q, _ in wl.complexes_large(gp):
        stats[key] = wl.large_stats(gp, make, q)
    stats["hollow_corner"] = wl.hollow_corner_npc(gp)
    write("complexes.json", stats)

    write("embeddings.json", {"bad1": wl.run_bad1(gp), "bad2": wl.run_bad2(gp)})

    words = {}
    for label, kind, spec, _, base in wl.long_word_pool(gp):
        value = (wl.run_word(gp.words, spec, base, base) if kind == "word"
                 else wl.run_cyclic(gp.words, spec, base))
        words[label] = wl.digest(value)
    write("long_words.json", words)

    (wl.HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=wl.HERE / "out") as tmp:
        out = Path(tmp) / "census.tsv"
        subprocess.run([sys.executable, "-c", wl.CLI, "census", "-n", "7",
                        "-o", str(out)], env=wl.cli_env(), check=True)
        data = out.read_bytes()
    write("census.json", {"sha256": hashlib.sha256(data).hexdigest(),
                          "rows": data.count(b"\n") - 1})


if __name__ == "__main__":
    main()
