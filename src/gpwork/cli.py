"""Deterministic command-line front end.

Exit codes: 0 affirmative / success, 1 negative verdict, 2 usage or parse
error.  Identical invocations on identical inputs produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import io
import sys

from . import catalog, classify, complexes, embeddings, graphs, words


def _read_text(path):
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _exclusive(options):
    """Refuse more than one of the given inputs `options`."""
    if len(options) > 1:
        raise ValueError("%s and %s cannot be used together" % (
            ", ".join(options[:-1]), options[-1]))


def _given(args, *options):
    """The options among `options` that the command line gives."""
    return [o for o in options
            if getattr(args, o.lstrip("-").replace("-", "_"), None)]


def _load_graph(args):
    _exclusive(_given(args, "--name", "--g6", "--file"))
    if getattr(args, "name", None):
        try:
            return catalog.by_name(args.name)
        except KeyError as exc:
            raise ValueError(exc.args[0]) from None
    if getattr(args, "g6", None):
        return graphs.read_graph6(args.g6)
    if getattr(args, "file", None):
        return graphs.read_edgelist(_read_text(args.file))
    raise ValueError("give a graph via --name, --g6 or --file")


def _parse_orders(text):
    """Uniform order (`2`, `inf`) or per-vertex `a=2,b=inf` assignments."""
    try:
        if "=" not in text:
            return words.parse_order(text.strip())
        orders = {}
        for part in text.split(","):
            v, _, ms = (s.strip() for s in part.partition("="))
            if v in orders:
                raise ValueError("a second order for vertex %r" % (v,))
            orders[v] = words.parse_order(ms)
        return orders
    except ValueError as exc:
        raise ValueError("--orders: %s" % (exc,)) from None


def _edge(args, missing):
    """The two vertex names of --edge; `missing` is the error without it."""
    if not args.edge:
        raise ValueError(missing)
    ends = args.edge.split(",")
    if len(ends) != 2:
        raise ValueError("--edge takes 2 vertices, got %d" % len(ends))
    return ends


def _load_spec(args):
    if args.spec:
        _exclusive(["--spec"] + _given(args, "--name", "--g6", "--file",
                                       "--orders"))
        return words.parse_spec(_read_text(args.spec))
    return words.GroupSpec(_load_graph(args), _parse_orders(args.orders or "2"))


def _graph_args(p, with_orders=False):
    p.add_argument("--name", help="named graph from the registry (e.g. C5, P7opp, Phi3)")
    p.add_argument("--g6", help="graph6 literal")
    p.add_argument("--file", help="edge-list file (- for stdin)")
    if with_orders:
        p.add_argument("--orders", help="uniform order or per-vertex list (default 2)")


# -- subcommand handlers ---------------------------------------------------
# Each writes its report to `out` and returns 0 or 1, or raises for exit 2.

def cmd_graph(args, out):
    op = args.op
    if op == "enum":
        _exclusive(["graph enum"] + _given(args, "--name", "--g6", "--file"))
        if not 1 <= args.n <= 7:  # the census range
            raise ValueError("n must be between 1 and 7")
        for g in graphs.enumerate_graphs(args.n):
            out.write(graphs.write_graph6(g) + "\n")
        return 0
    g = _load_graph(args)
    if op == "opp":
        out.write(graphs.write_edgelist(graphs.opposite(g)))
        return 0
    if op == "induced":
        if not args.verts:
            raise ValueError("induced needs --verts")
        out.write(graphs.write_edgelist(
            graphs.induced_subgraph(g, args.verts.split(","))))
        return 0
    if op in ("contract", "cocontract"):
        fn = graphs.contract_edge if op == "contract" else graphs.co_contract
        out.write(graphs.write_edgelist(
            fn(g, _edge(args, "%s needs --edge u,v" % op))))
        return 0
    if op == "double":
        if not args.t:
            raise ValueError("double needs -t")
        dbl, rho = graphs.double_along_link(g, args.t)
        out.write(graphs.write_edgelist(dbl))
        for u in dbl.vertices:
            out.write("rho %s %s\n" % (u, rho[u]))
        return 0
    if op == "hole":
        hole = graphs.find_hole(g, args.min_len)
        out.write("hole=%s\n" % ("none" if hole is None
                                 else ",".join(map(str, hole))))
        return 1 if hole is None else 0
    if op == "wc":
        ok, witness = graphs.is_weakly_chordal(g)
        if ok:
            out.write("weakly_chordal=true\n")
            return 0
        kind, cyc = witness
        out.write("weakly_chordal=false witness=%s:%d\n" % (kind, len(cyc)))
        return 1
    # iso
    if not args.other:
        raise ValueError("iso needs --other (name or file)")
    try:
        g2 = catalog.by_name(args.other)
    except KeyError:
        g2 = graphs.read_edgelist(_read_text(args.other))
    mapping = graphs.are_isomorphic(g, g2)
    if mapping is None:
        out.write("isomorphic=false\n")
        return 1
    out.write("isomorphic=true\n")
    for v in g.vertices:
        out.write("map %s %s\n" % (v, mapping[v]))
    return 0


def cmd_word(args, out):
    spec = _load_spec(args)
    op = args.op
    arity = 2 if op in ("mul", "eq") else 1
    if len(args.words) != arity:
        raise ValueError("%s takes %s, got %d" % (
            op, "two words" if arity == 2 else "one word", len(args.words)))
    ws = [words.parse_word(spec, t) for t in args.words]
    if op == "proj":
        if not args.vertex:
            raise ValueError("proj needs -v VERTEX")
        out.write("%d\n" % words.project(ws[0], args.vertex))
        return 0
    if op in ("normalize", "mul", "inv"):
        fn = {"normalize": words.normalize, "mul": words.multiply,
              "inv": words.invert}[op]
        out.write(words.format_word(fn(*ws)) + "\n")
        return 0
    fn = {"eq": words.equal, "kp0": words.in_kernel_kp0,
          "kpf": words.in_kernel_kpf}[op]
    ok = fn(*ws)
    out.write("true\n" if ok else "false\n")
    return 0 if ok else 1


def _build_complex(args, zf):
    """build_zf with cyclic size -q (default 3) when zf, else build_z0 with
    --window; the option of the other builder is refused."""
    if (args.window if zf else args.q) is not None:
        raise ValueError("%s does not apply to a %s complex" % (
            ("--window", "build-zf") if zf else ("-q", "build-z0")))
    spec = _load_spec(args)
    if zf:
        return complexes.build_zf(spec, 3 if args.q is None else args.q)
    return complexes.build_z0(spec, args.window)


def _load_complex(args):
    """The complex file (default stdin), or one built from a graph or spec:
    by build_zf when -q is given, else by build_z0."""
    sources = _given(args, "--spec", "--name", "--g6", "--file")
    if args.complex_file or not sources:
        if args.q is not None or args.window is not None:
            raise ValueError("-q and --window build a complex from a graph "
                             "or spec, not from a complex file")
        _exclusive(["a complex file"] + sources + _given(args, "--orders"))
        return complexes.parse_complex(_read_text(args.complex_file or "-"))
    return _build_complex(args, args.q is not None)


def cmd_complex(args, out):
    op = args.op
    if op in ("build-z0", "build-zf"):
        if args.complex_file:
            _exclusive(["complex " + op, "a complex file"])
        out.write(complexes.format_complex(
            _build_complex(args, op == "build-zf")))
        return 0
    X = _load_complex(args)
    if op == "stats":
        out.write(complexes.stats_line(X) + "\n")
        return 0
    if op == "npc":
        ok, _ = complexes.is_npc(X)
        out.write("npc=%s\n" % ("yes" if ok else "no"))
    elif op == "special":
        ok, _ = complexes.check_special_map(X)
        out.write("special=%s\n" % ("yes" if ok else "no"))
    else:  # surface
        ok = complexes.is_closed_surface(X)
        out.write("surface=%s chi=%d\n" % ("yes" if ok else "no",
                                           complexes.euler_characteristic(X)))
    return 0 if ok else 1


def _write_relators(h, out):
    """Relator report line; True when every relator holds."""
    ok, failures = embeddings.relator_check(h)
    out.write("relators: PASS\n" if ok else
              "relators: FAIL[%s]\n" % ",".join(d for d, _ in failures))
    return ok


def _write_injectivity(h, L, out):
    """Injectivity report line for the ball of radius L; True on PASS."""
    ok, coll = embeddings.injectivity_sample(h, L)
    if ok:
        out.write("injectivity(L=%d): PASS\n" % L)
    else:
        u, v = coll
        out.write("injectivity(L=%d): FAIL(%s,%s)\n"
                  % (L, words.format_word(u), words.format_word(v)))
    return ok


def cmd_embed(args, out):
    op = args.op
    if op in ("double", "cocontract"):
        _exclusive(["embed " + op] + _given(args, "--source-spec",
                                            "--target-spec", "--hom"))
        g = _load_graph(args)
        orders = _parse_orders(args.orders or "2")
        if op == "double":
            if not args.t:
                raise ValueError("embed double needs -t")
            h = embeddings.double_homomorphism(g, args.t, orders,
                                              mirror=args.mirror)
        else:
            e = _edge(args, "embed cocontract needs --edge x,t")
            h = embeddings.co_contraction_embedding(g, e, orders,
                                                    mirror=args.mirror)
        out.write(embeddings.format_homomorphism(h))
        if args.verify and not _write_relators(h, out):
            return 1
        if args.inject is not None and not _write_injectivity(h, args.inject, out):
            return 1
        return 0
    _exclusive(["embed " + op] + _given(args, "--name", "--g6", "--file",
                                        "--orders", "-t", "--edge", "--mirror",
                                        "--verify"))
    if not (args.source_spec and args.target_spec and args.hom):
        raise ValueError("%s needs --source-spec, --target-spec and --hom" % op)
    src = words.parse_spec(_read_text(args.source_spec))
    tgt = words.parse_spec(_read_text(args.target_spec))
    h = embeddings.parse_homomorphism(src, tgt, _read_text(args.hom))
    if op == "verify":
        ok = _write_relators(h, out)
    else:  # inject-sample
        ok = _write_injectivity(h, 3 if args.inject is None else args.inject, out)
    return 0 if ok else 1


def cmd_classify(args, out):
    g = _load_graph(args)
    decide = (classify.racg_surface_subgroup if args.group == "racg"
              else classify.raag_surface_subgroup)
    c = decide(g)
    line = c.verdict
    if c.note:
        line += " (%s)" % c.note
    out.write(line + "\n")
    if args.certificate and c.witness is not None:
        kind, verts = c.witness
        out.write("witness %s %s\n" % (kind, ",".join(map(str, verts))))
        if args.group == "racg":
            _, report = classify.witness_complex(g, c.witness)
            out.write(report + "\n")
    return 0 if c.verdict == classify.YES else 1


def cmd_census(args, out):
    text = classify.census_text(args.n)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        out.write(text)
    return 0


def build_parser():
    ap = argparse.ArgumentParser(prog="gpw",
                                 description="graph products of groups workbench")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("graph", help="graph algebra and recognition")
    p.add_argument("op", choices=["opp", "induced", "contract", "cocontract",
                                  "double", "hole", "wc", "iso", "enum"])
    _graph_args(p)
    p.add_argument("--verts")
    p.add_argument("--edge")
    p.add_argument("-t")
    p.add_argument("--min-len", type=int, default=5)
    p.add_argument("--other")
    p.add_argument("-n", type=int, default=5)

    p = sub.add_parser("word", help="word arithmetic and kernel membership")
    p.add_argument("op", choices=["normalize", "mul", "inv", "eq", "proj",
                                  "kp0", "kpf"])
    p.add_argument("--spec", help="group spec file")
    _graph_args(p, with_orders=True)
    p.add_argument("-v", dest="vertex")
    p.add_argument("words", nargs="*")

    p = sub.add_parser("complex", help="cube complex construction and checks")
    p.add_argument("op", choices=["build-z0", "build-zf", "stats", "npc",
                                  "special", "surface"])
    p.add_argument("--spec")
    _graph_args(p, with_orders=True)
    p.add_argument("-q", type=int)
    p.add_argument("--window", type=int)
    p.add_argument("complex_file", nargs="?",
                   help="serialized complex (default stdin for checks)")

    p = sub.add_parser("embed", help="embedding construction and certification")
    p.add_argument("op", choices=["double", "cocontract", "verify",
                                  "inject-sample"])
    _graph_args(p, with_orders=True)
    p.add_argument("--edge")
    p.add_argument("-t")
    p.add_argument("--mirror", action="store_true",
                   help="conjugate by t^-1 instead of t")
    p.add_argument("--verify", action="store_true")
    p.add_argument("-L", dest="inject", type=int)
    p.add_argument("--source-spec")
    p.add_argument("--target-spec")
    p.add_argument("--hom")

    p = sub.add_parser("classify", help="surface-subgroup verdict for one graph")
    _graph_args(p)
    p.add_argument("--group", required=True, choices=["racg", "raag"])
    p.add_argument("--certificate", action="store_true")

    p = sub.add_parser("census", help="full classification table")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-o", "--output")

    return ap


def main(argv=None):
    """Run one command.  Its report reaches stdout only when it exits 0 or
    1; a usage or input error writes one `error:` line to stderr instead and
    exits 2.  Argument errors exit 2 through argparse."""
    ap = build_parser()
    args, extra = ap.parse_known_args(argv)
    if extra and (args.cmd != "word" or any(a.startswith("-") for a in extra)):
        ap.error("unrecognized arguments: %s" % " ".join(extra))
    if args.cmd == "word":
        args.words += extra  # literals given after an option
    handler = {"graph": cmd_graph, "word": cmd_word, "complex": cmd_complex,
               "embed": cmd_embed, "classify": cmd_classify,
               "census": cmd_census}[args.cmd]
    out = io.StringIO()
    try:
        code = handler(args, out)
    except (ValueError, OSError) as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 2
    sys.stdout.write(out.getvalue())
    return code
