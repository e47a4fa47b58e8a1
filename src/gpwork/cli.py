"""Deterministic command-line front end.

Exit codes: 0 affirmative / success, 1 negative verdict, 2 usage or parse
error.  Identical invocations on identical inputs produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import sys

from . import catalog, classify, complexes, embeddings, graphs, words


class UsageError(Exception):
    pass


def _read_text(path):
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _load_graph(args):
    if getattr(args, "name", None):
        try:
            return catalog.by_name(args.name)
        except KeyError as exc:
            raise UsageError(exc.args[0]) from None
    if getattr(args, "g6", None):
        return graphs.read_graph6(args.g6)
    if getattr(args, "file", None):
        return graphs.read_edgelist(_read_text(args.file))
    raise UsageError("give a graph via --name, --g6 or --file")


def _parse_orders(text, g):
    """Uniform order (`2`, `inf`) or per-vertex `a=2,b=inf` assignments."""
    text = text.strip()
    if "=" not in text:
        return words.INF if text in ("inf", "oo") else int(text)
    orders = {}
    for part in text.split(","):
        v, _, ms = part.partition("=")
        orders[v.strip()] = words.INF if ms.strip() in ("inf", "oo") else int(ms)
    return orders


def _load_spec(args):
    if getattr(args, "spec", None):
        return words.parse_spec(_read_text(args.spec))
    g = _load_graph(args)
    orders = _parse_orders(getattr(args, "orders", None) or "2", g)
    return words.GroupSpec(g, orders)


def _graph_args(p, with_orders=False):
    p.add_argument("--name", help="named graph from the registry (e.g. C5, P7opp, Phi3)")
    p.add_argument("--g6", help="graph6 literal")
    p.add_argument("--file", help="edge-list file (- for stdin)")
    if with_orders:
        p.add_argument("--orders", help="uniform order or per-vertex list (default 2)")


def _print_graph(g, out):
    out.write(graphs.write_edgelist(g))


# -- subcommand handlers ---------------------------------------------------

def cmd_graph(args, out):
    g = _load_graph(args)
    op = args.op
    if op == "opp":
        _print_graph(graphs.opposite(g), out)
        return 0
    if op == "induced":
        if not args.verts:
            raise UsageError("induced needs --verts")
        _print_graph(graphs.induced_subgraph(g, args.verts.split(",")), out)
        return 0
    if op == "contract":
        if not args.edge:
            raise UsageError("contract needs --edge u,v")
        _print_graph(graphs.contract_edge(g, args.edge.split(",")), out)
        return 0
    if op == "cocontract":
        if not args.edge:
            raise UsageError("cocontract needs --edge u,v")
        _print_graph(graphs.co_contract(g, args.edge.split(",")), out)
        return 0
    if op == "double":
        if not args.t:
            raise UsageError("double needs -t")
        dbl, rho = graphs.double_along_link(g, args.t)
        _print_graph(dbl, out)
        for u in dbl.vertices:
            out.write("rho %s %s\n" % (u, rho[u]))
        return 0
    if op == "hole":
        hole = graphs.find_hole(g, args.min_len)
        if hole is None:
            out.write("hole=none\n")
            return 1
        out.write("hole=%s\n" % ",".join(map(str, hole)))
        return 0
    if op == "wc":
        ok, witness = graphs.is_weakly_chordal(g)
        if ok:
            out.write("weakly_chordal=true\n")
            return 0
        kind, cyc = witness
        out.write("weakly_chordal=false witness=%s:%d\n" % (kind, len(cyc)))
        return 1
    if op == "iso":
        if not args.other:
            raise UsageError("iso needs --other (name or file)")
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
    raise UsageError("unknown graph op %r" % (op,))


def cmd_graph_enum(args, out):
    for g in graphs.enumerate_graphs(args.n):
        out.write(graphs.write_graph6(g) + "\n")
    return 0


def cmd_word(args, out):
    spec = _load_spec(args)
    op = args.op
    try:
        ws = [words.parse_word(spec, t) for t in args.words]
    except ValueError as exc:
        raise UsageError(str(exc))
    binary = op in ("mul", "eq")
    if len(ws) < 1 + binary:
        raise UsageError("%s needs %s" % (op, "two words" if binary else "a word"))
    if op == "normalize":
        out.write(words.format_word(words.normalize(ws[0])) + "\n")
        return 0
    if op == "mul":
        out.write(words.format_word(words.multiply(ws[0], ws[1])) + "\n")
        return 0
    if op == "inv":
        out.write(words.format_word(words.invert(ws[0])) + "\n")
        return 0
    if op == "eq":
        ok = words.equal(ws[0], ws[1])
        out.write("true\n" if ok else "false\n")
        return 0 if ok else 1
    if op == "proj":
        if not args.vertex:
            raise UsageError("proj needs -v VERTEX")
        out.write("%d\n" % words.project(ws[0], args.vertex))
        return 0
    if op == "kp0":
        ok = words.in_kernel_kp0(ws[0])
        out.write("true\n" if ok else "false\n")
        return 0 if ok else 1
    if op == "kpf":
        ok = words.in_kernel_kpf(ws[0])
        out.write("true\n" if ok else "false\n")
        return 0 if ok else 1
    raise UsageError("unknown word op %r" % (op,))


def _load_complex(args):
    if getattr(args, "complex_file", None):
        return complexes.parse_complex(_read_text(args.complex_file))
    if getattr(args, "spec", None) or getattr(args, "name", None) \
            or getattr(args, "file", None) or getattr(args, "g6", None):
        spec = _load_spec(args)
        if getattr(args, "q", None):
            return complexes.build_zf(spec, args.q)
        return complexes.build_z0(spec, getattr(args, "window", None))
    return complexes.parse_complex(sys.stdin.read())


def cmd_complex(args, out):
    op = args.op
    if op in ("build-z0", "build-zf"):
        spec = _load_spec(args)
        if op == "build-zf":
            X = complexes.build_zf(spec, args.q or 3)
        else:
            X = complexes.build_z0(spec, args.window)
        out.write(complexes.format_complex(X))
        return 0
    X = _load_complex(args)
    if op == "stats":
        out.write(complexes.stats_line(X) + "\n")
        return 0
    if op == "npc":
        ok, offender = complexes.is_npc(X)
        out.write("npc=%s\n" % ("yes" if ok else "no"))
        return 0 if ok else 1
    if op == "special":
        ok, failures = complexes.check_special_map(X)
        out.write("special=%s\n" % ("yes" if ok else "no"))
        return 0 if ok else 1
    if op == "surface":
        ok = complexes.is_closed_surface(X)
        out.write("surface=%s chi=%d\n" % ("yes" if ok else "no",
                                           complexes.euler_characteristic(X)))
        return 0 if ok else 1
    raise UsageError("unknown complex op %r" % (op,))


def cmd_embed(args, out):
    op = args.op
    if op in ("double", "cocontract"):
        g = _load_graph(args)
        orders = _parse_orders(args.orders or "2", g)
        if op == "double":
            if not args.t:
                raise UsageError("embed double needs -t")
            h = embeddings.double_homomorphism(g, args.t, orders,
                                              mirror=args.mirror)
        else:
            if not args.edge:
                raise UsageError("embed cocontract needs --edge x,t")
            h = embeddings.co_contraction_embedding(g, args.edge.split(","),
                                                    orders, mirror=args.mirror)
        out.write(embeddings.format_homomorphism(h))
        if args.verify:
            ok, failures = embeddings.relator_check(h)
            if ok:
                out.write("relators: PASS\n")
            else:
                out.write("relators: FAIL[%s]\n"
                          % ",".join(d for d, _ in failures))
                return 1
        if args.inject is not None:
            ok, coll = embeddings.injectivity_sample(h, args.inject)
            if ok:
                out.write("injectivity(L=%d): PASS\n" % args.inject)
            else:
                u, v = coll
                out.write("injectivity(L=%d): FAIL(%s,%s)\n"
                          % (args.inject, words.format_word(u),
                             words.format_word(v)))
                return 1
        return 0
    if not (args.source_spec and args.target_spec and args.hom):
        raise UsageError("%s needs --source-spec, --target-spec and --hom" % op)
    src = words.parse_spec(_read_text(args.source_spec))
    tgt = words.parse_spec(_read_text(args.target_spec))
    h = embeddings.parse_homomorphism(src, tgt, _read_text(args.hom))
    if op == "verify":
        ok, failures = embeddings.relator_check(h)
        if ok:
            out.write("relators: PASS\n")
            return 0
        out.write("relators: FAIL[%s]\n" % ",".join(d for d, _ in failures))
        return 1
    if op == "inject-sample":
        L = args.inject if args.inject is not None else 3
        ok, coll = embeddings.injectivity_sample(h, L)
        if ok:
            out.write("injectivity(L=%d): PASS\n" % L)
            return 0
        u, v = coll
        out.write("injectivity(L=%d): FAIL(%s,%s)\n"
                  % (L, words.format_word(u), words.format_word(v)))
        return 1
    raise UsageError("unknown embed op %r" % (op,))


def cmd_classify(args, out):
    g = _load_graph(args)
    if args.group == "racg":
        c = classify.racg_surface_subgroup(g)
    elif args.group == "raag":
        c = classify.raag_surface_subgroup(g)
    else:
        raise UsageError("--group must be racg or raag")
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
    ap = build_parser()
    args = ap.parse_args(argv)
    out = sys.stdout
    try:
        if args.cmd == "graph":
            if args.op == "enum":
                return cmd_graph_enum(args, out)
            return cmd_graph(args, out)
        if args.cmd == "word":
            return cmd_word(args, out)
        if args.cmd == "complex":
            return cmd_complex(args, out)
        if args.cmd == "embed":
            return cmd_embed(args, out)
        if args.cmd == "classify":
            return cmd_classify(args, out)
        if args.cmd == "census":
            return cmd_census(args, out)
    except (UsageError, ValueError, OSError) as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 2
    return 2
