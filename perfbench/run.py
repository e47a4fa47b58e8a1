"""gpwork benchmark: one workload per run, closed loop with one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one table

Set-up (import, input generation from the seed, reference loading) runs
once, then the workload's fixed job list runs pass after pass for about S
seconds, one job at a time, each pass after a fresh set-up; every job's
output is checked.  With --trace 0 the last stdout line carries the
end-to-end metrics:

    wall_s       time for the job list: sum of each job's median latency
    job_p50_ms   median job latency (each job at its median over passes)
    job_tail_ms  the job latency with 10 jobs beyond it (percentile and job
                 count go to the result file); the maximum when a pass has
                 fewer than 11 jobs (census: the run's samples of its job)
    setup_s      median set-up time over the run
    peak_rss_mb  peak resident memory of this process (census: largest child)

Failed jobs (wrong output, exception, a must-fail job passing) are counted
in `failed` out of `attempted`.  With --trace 1 the first half of the time runs untraced
and the second half with every public gpwork function wrapped, and the
last line carries the per-layer metrics.  Set-up is not traced: layer
metrics cover the job list only, so graph enumeration in the embeddings
set-up shows in its setup_s, not in graphs.*.  A result file with the run's
context goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer as tr
import workloads as wl

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
TAIL_BEYOND = 10

END_TO_END = (("wall_s", "s"), ("job_p50_ms", "ms"), ("job_tail_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("graphs.self_s", "s"), ("graphs.enumerate_graphs.s", "s"),
    ("graphs.canonical_bits.calls", "count"), ("graphs.canonical_bits.s", "s"),
    ("graphs.enum.classes_per_candidate", "ratio"),
    ("graphs.are_isomorphic.calls", "count"), ("graphs.are_isomorphic.s", "s"),
    ("graphs.has_induced.calls", "count"), ("graphs.has_induced.s", "s"),
    ("graphs.find_hole.calls", "count"), ("graphs.find_hole.s", "s"),
    ("classify.self_s", "s"), ("classify.racg_surface_subgroup.s", "s"),
    ("classify.raag_surface_subgroup.s", "s"), ("classify.rows", "count"),
    ("cli.import_s", "s"), ("cli.self_s", "s"),
    ("words.self_s", "s"), ("words.normalize.calls", "count"),
    ("words.normalize.s", "s"), ("words.normalize.syl_in", "count"),
    ("words.normalize.us_per_syl", "us"), ("words.multiply.calls", "count"),
    ("words.multiply.s", "s"), ("words.multiply.syl_in", "count"),
    ("words.invert.s", "s"), ("words.equal.s", "s"),
    ("words.cyclically_reduce.s", "s"), ("words.enumerate_elements.s", "s"),
    ("words.enumerate_elements.elements", "count"),
    ("words.enumerate_elements.distinct_per_product", "ratio"),
    ("complexes.self_s", "s"), ("complexes.stats_line.s", "s"),
    ("complexes.cell_counts.s", "s"), ("complexes.is_npc.s", "s"),
    ("complexes.check_special_map.s", "s"),
    ("complexes.is_closed_surface.s", "s"),
    ("complexes.vertex_link.calls", "count"), ("complexes.vertex_link.s", "s"),
    ("complexes.points", "count"), ("complexes.link.distinct_per_call", "ratio"),
    ("embeddings.self_s", "s"), ("embeddings.construct.s", "s"),
    ("embeddings.relator_check.calls", "count"),
    ("embeddings.relator_check.s", "s"), ("embeddings.apply.calls", "count"),
    ("embeddings.apply.s", "s"), ("embeddings.injectivity_sample.s", "s"),
    ("catalog.self_s", "s"),
    ("trace.wall_s", "s"), ("trace.driver_s", "s"), ("trace.overhead_s", "s"),
)


@dataclass
class Pass:
    wall: float
    latencies: list
    outputs: list  # digest of each job's value when kept, else None
    failures: list = field(default_factory=list)  # (job label, reason)


def run_pass(jobs, keep_outputs=False):
    """Run the jobs one after another, then check each output.  With
    `keep_outputs`, the pass keeps a digest of every output, for comparing
    traced with untraced passes."""
    clock = time.perf_counter
    latencies, values = [], []
    start = clock()
    for job in jobs:
        t0 = clock()
        try:
            value = job.run()
        except Exception as exc:  # a failing job is counted, not fatal
            value = exc
        latencies.append(clock() - t0)
        values.append(value)
    wall = clock() - start
    p = Pass(wall, latencies,
             [wl.digest(v) for v in values] if keep_outputs else None)
    for job, value in zip(jobs, values):
        if isinstance(value, Exception):
            reason = "raised %s: %s" % (type(value).__name__, value)
        else:
            try:
                reason = job.check(value)
            except Exception as exc:
                reason = "check raised %s: %s" % (type(exc).__name__, exc)
        if reason:
            p.failures.append((job.label, reason))
    return p


def measure(make_jobs, budget, setup_times, tracer=None, keep_outputs=False):
    """Set up, then run one pass of the job list; repeat while the next round
    is expected to end within `budget` seconds (at least one round).  Every
    pass gets a fresh set-up, so all passes do the same work and set-up time
    is sampled across the run.  Returns the passes and the last job list."""
    passes, rounds = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        jobs = make_jobs()
        setup_times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.install()
        try:
            passes.append(run_pass(jobs, keep_outputs))
        finally:
            if tracer is not None:
                tracer.uninstall()
                tracer.end_pass()
        rounds.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(rounds) > budget:
            return passes, jobs


def job_medians(passes):
    """Each job's latency as its median over the run's passes, so that a slow
    spell during one pass counts once."""
    return [statistics.median(lat) for lat in zip(*(p.latencies
                                                    for p in passes))]


def tail(latencies):
    """The latency with TAIL_BEYOND jobs beyond it; the maximum when there
    are not that many.  Returns (value, percentile, number of jobs)."""
    n = len(latencies)
    rank = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return sorted(latencies)[rank], 100.0 * (rank + 1) / n, n


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "census" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def cli_import_s(repeats=5):
    """Fresh-interpreter import of gpwork.cli minus a bare interpreter."""
    bare, full = [], []
    for _ in range(repeats):
        for code, acc in (("pass", bare), ("import gpwork.cli", full)):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=wl.cli_env(),
                           cwd=wl.ROOT, check=True)
            acc.append(time.perf_counter() - t0)
    return statistics.median(full) - statistics.median(bare)


def per_layer(summary, passes, traced_wall, untraced_wall, import_s):
    fn, counts, under = summary["functions"], summary["counts"], summary["under"]

    def f(name, key):
        return fn.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    layer_self = sum(summary["layers"].values()) / passes
    special = {
        "cli.import_s": import_s,
        "graphs.enum.classes_per_candidate": ratio(
            under.get(("graphs.enumerate_graphs", "graphs.canonical_graph"), 0),
            under.get(("graphs.enumerate_graphs", "graphs.canonical_bits"), 0)),
        "words.normalize.us_per_syl": ratio(
            1e6 * f("words.normalize", "s"), counts["words.normalize.syl_in"]),
        "words.enumerate_elements.distinct_per_product": ratio(
            counts["words.enumerate_elements.elements"],
            under.get(("words.enumerate_elements", "words.multiply"), 0)),
        "complexes.link.distinct_per_call": ratio(
            summary["distinct_links"], f("complexes.vertex_link", "calls")),
        "embeddings.construct.s": (f("embeddings.double_homomorphism", "s")
                                   + f("embeddings.co_contraction_embedding", "s"))
        / passes,
        "trace.wall_s": traced_wall,
        "trace.driver_s": traced_wall - layer_self,
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    out = {}
    for name, unit in PER_LAYER:
        if name in special:
            value = special[name]
        elif name in counts:
            value = counts[name] / passes
        elif name.endswith(".self_s"):
            value = summary["layers"][name[:-len(".self_s")]] / passes
        elif name.endswith(".calls"):
            value = f(name[:-len(".calls")], "calls") / passes
        else:
            value = f(name[:-len(".s")], "s") / passes
        out[name] = value
    return out


def layer_table(summary, passes, metrics):
    traced_wall, driver = metrics["trace.wall_s"], metrics["trace.driver_s"]
    lines = ["%-11s %10s %10s %7s" % ("layer", "self_s", "calls", "share")]
    for layer in tr.LAYERS:
        calls = sum(r["calls"] for n, r in summary["functions"].items()
                    if n.split(".", 1)[0] == layer)
        self_s = summary["layers"][layer] / passes
        lines.append("%-11s %10.4f %10d %6.1f%%" % (
            layer, self_s, calls // passes, 100 * self_s / traced_wall))
    lines.append("%-11s %10.4f %10s %6.1f%%" % ("driver", driver, "-",
                                                100 * driver / traced_wall))
    lines.append("%-11s %10.4f  (per traced pass)" % ("wall", traced_wall))
    return "\n".join(lines)


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    git = wl.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines():
    return sum(len(p.read_text().splitlines())
               for p in sorted(wl.SRC.rglob("*.py")))


def run_workload(args, ctx):
    setup = wl.SETUPS[args.workload]

    def make_jobs():
        return setup(args.seed, ctx)
    # one set-up before the measured rounds (the first in the process, with
    # its one-off costs), then one per pass
    t0 = time.perf_counter()
    make_jobs()
    setup_times = [time.perf_counter() - t0]
    budget = args.seconds / 2 if args.trace else args.seconds
    passes, jobs = measure(make_jobs, budget, setup_times,
                           keep_outputs=bool(args.trace))
    record = {"setup_runs": setup_times, "jobs_per_pass": len(jobs)}
    traced = []
    if args.trace:
        tracer = tr.Tracer()
        if args.workload == "census":
            child_files = []

            def prefix():
                child_files.append(os.path.join(ctx["tmpdir"],
                                                "spans%d" % len(child_files)))
                return [sys.executable, str(HERE / "traced_cli.py"),
                        child_files[-1]]
            ctx["cli_prefix"] = prefix
            traced, _ = measure(make_jobs, budget, [], keep_outputs=True)
            ctx["cli_prefix"] = None
            for path in child_files:
                tracer.merge(tr.Tracer.load(path))
        else:
            traced, _ = measure(make_jobs, budget, [], tracer, keep_outputs=True)
        spans = OUT / ("spans-%s.bin" % args.workload)
        tracer.dump(spans)
        summary = tracer.summary()
        traced_wall = statistics.mean(p.wall for p in traced)
        untraced_wall = statistics.mean(p.wall for p in passes)
        metrics = per_layer(summary, len(traced), traced_wall, untraced_wall,
                            cli_import_s())
        units = dict(PER_LAYER)
        table = layer_table(summary, len(traced), metrics)
        record.update(spans_file=str(spans.relative_to(wl.ROOT)),
                      span_count=len(tracer.starts), layer_table=table)
        print(table, file=sys.stderr)
        for p in traced:
            for i, (a, b) in enumerate(zip(passes[0].outputs, p.outputs)):
                if a != b:
                    p.failures.append((jobs[i].label,
                                       "traced output differs from untraced"))
    else:
        wall = [p.wall for p in passes]
        medians = job_medians(passes)
        # with one job per pass (census), that job's samples are the latencies
        lat = medians if len(medians) > 1 else [p.latencies[0] for p in passes]
        tail_s, pct, n = tail(lat)
        metrics = {"wall_s": sum(medians),
                   "job_p50_ms": 1e3 * statistics.median(lat),
                   "job_tail_ms": 1e3 * tail_s,
                   "setup_s": statistics.median(setup_times),
                   "peak_rss_mb": peak_rss_mb(args.workload)}
        units = dict(END_TO_END)
        record.update(pass_walls=wall, tail_percentile=pct, tail_n=n)
    all_passes = passes + traced
    failures = [f for p in all_passes for f in p.failures]
    attempted = sum(len(p.latencies) for p in all_passes)
    must_fail = [j.label for j in jobs if j.must_fail]
    record.update(passes=len(passes), traced_passes=len(traced),
                  attempted=attempted, failed=len(failures),
                  fail_ratio=len(failures) / attempted,
                  must_fail_jobs=must_fail,
                  must_fail_observed=len(must_fail) * len(all_passes)
                  - sum(1 for label, _ in failures if label in must_fail),
                  failures=failures[:50])
    return metrics, units, record


def run_all(args):
    """Each workload in its own interpreter, one after another; one table."""
    ok = True
    print("%-11s %-22s %16s  %s" % ("workload", "metric", "value", "unit"))
    for name in wl.SETUPS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print("%-11s failed: %s" % (name, proc.stderr.strip()[-300:]))
            ok = False
            continue
        res = json.loads(lines[-1])
        for metric, m in res["metrics"].items():
            print("%-11s %-22s %16.6g  %s" % (name, metric, m["value"], m["unit"]))
        print("%-11s %-22s %16.6g  %s" % (name, "fail_ratio",
                                          res["failed"] / res["attempted"],
                                          "ratio"))
        ok = ok and res["correct"]
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(wl.SETUPS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (wl.SRC / "gpwork").is_dir():
        print("error: no gpwork source tree at %s" % wl.SRC, file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        metrics, units, record = run_workload(args, {"tmpdir": tmp})
    correct = record["failed"] == 0
    result = {"correct": correct, "attempted": record["attempted"],
              "failed": record["failed"],
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    context = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
               "commit": git_commit(), "src_lines": src_lines()}
    path = OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed,
                                               args.trace))
    path.write_text(json.dumps(dict(context, **record, result=result),
                               indent=1) + "\n")
    for k, v in metrics.items():
        print("%-44s %14.6g %s" % (k, v, units[k]), file=sys.stderr)
    print("fail_ratio %.6g (%d of %d); must-fail observed failing: %d; %s"
          % (record["fail_ratio"], record["failed"], record["attempted"],
             record["must_fail_observed"], path.relative_to(wl.ROOT)),
          file=sys.stderr)
    for label, reason in record["failures"][:10]:
        print("FAILED %s: %s" % (label, reason), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
