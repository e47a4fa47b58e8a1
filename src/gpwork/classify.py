"""Decision procedures for hyperbolic-surface-subgroup existence.

For right-angled Coxeter groups the verdict is decisive up to seven
vertices: the group contains a hyperbolic surface group exactly when the
defining graph is not weakly chordal.  Beyond seven vertices only the
sufficiency direction survives (a hole or antihole witness), so the verdict
becomes UNKNOWN without one; the characterization genuinely fails there.
For right-angled Artin groups membership up to seven vertices reduces to
five induced patterns.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import catalog
from .graphs import (are_isomorphic, enumerate_graphs, find_hole,
                     has_induced, induced_subgraph, opposite, write_graph6)
from .words import GroupSpec
from .complexes import build_z0, euler_characteristic, is_closed_surface
from .embeddings import co_contraction_embedding, relator_check

YES, NO, UNKNOWN = "YES", "NO", "UNKNOWN"


@dataclass(frozen=True)
class Classification:
    verdict: str
    witness: tuple = None  # (kind, vertices)
    note: str = ""


_RAAG_PATTERNS = (
    ("C6opp", opposite(catalog.cycle(6))),
    ("P6opp", opposite(catalog.path(6))),
    ("P1_7", catalog.p1_7()),
    ("P2_7", catalog.p2_7()),
)


def racg_surface_subgroup(g):
    """Does the right-angled Coxeter group on g contain a hyperbolic surface
    group?"""
    return _racg(g, find_hole(g, 5))


def raag_surface_subgroup(g):
    """Does the right-angled Artin group on g contain a hyperbolic surface
    group?  Decisive up to 7 vertices via the five-pattern list."""
    return _raag(g, find_hole(g, 5))


def _racg(g, hole):
    """racg_surface_subgroup, given g's first hole of length >= 5."""
    if hole is not None:
        return Classification(YES, ("hole", hole))
    anti = find_hole(opposite(g), 5)
    if anti is not None:
        return Classification(YES, ("antihole", anti))
    if len(g.vertices) <= 7:  # the dichotomy holds up to 7 vertices
        return Classification(NO)
    note = ""
    if are_isomorphic(g, catalog.fig8()) is not None:
        note = ("this graph is known affirmative via a finite-index "
                "right-angled Artin subgroup, outside this tool's scope")
    return Classification(UNKNOWN, note=note)


def _raag(g, hole):
    """raag_surface_subgroup, given g's first hole of length >= 5."""
    if hole is not None:
        return Classification(YES, ("hole", hole))
    for name, pat in _RAAG_PATTERNS:
        if len(pat.vertices) > len(g.vertices):
            continue
        subset = has_induced(g, pat)
        if subset is not None:
            verts = tuple(v for v in g.vertices if v in subset)
            return Classification(YES, (name, verts))
    return Classification(NO if len(g.vertices) <= 7 else UNKNOWN)


def _witness_str(c):
    if c.witness is None:
        return "-"
    kind, verts = c.witness
    return "%s:%s" % (kind, ",".join(map(str, verts)))


CENSUS_HEADER = "graph6\tn\tweakly_chordal\tracg\tracg_witness\traag\traag_witness"


def census(n):
    """Classification rows for every isomorphism class on n vertices."""
    if not 1 <= n <= 7:
        raise ValueError("census supports 1 <= n <= 7")
    rows = []
    for g in enumerate_graphs(n):
        hole = find_hole(g, 5)
        racg, raag = _racg(g, hole), _raag(g, hole)
        wc = racg.verdict == NO  # at most 7 vertices: NO iff weakly chordal
        rows.append((write_graph6(g), n, "true" if wc else "false",
                     racg.verdict, _witness_str(racg),
                     raag.verdict, _witness_str(raag)))
    return rows


def census_text(n):
    lines = [CENSUS_HEADER]
    for row in census(n):
        lines.append("\t".join(map(str, row)))
    return "\n".join(lines) + "\n"


def witness_complex(g, witness):
    """Certify a YES witness.

    A hole witness of length m >= 5 yields the order-two cube complex over
    the cycle, certified as a closed surface of negative Euler
    characteristic.  An antihole witness is certified symbolically: a chain
    of co-contractions from the anticycle down to the five-anticycle, each
    step relator-verified.  Returns (complex or None, report string).
    """
    kind, verts = witness
    verts = tuple(verts)
    if kind == "hole":
        m = len(verts)
        sub = induced_subgraph(g, verts)
        cyc = find_hole(sub, m)
        if cyc is None or len(cyc) != m:
            raise ValueError("witness does not induce a cycle")
        if m < 5:
            raise ValueError("a length-%d cycle certifies only a flat torus, "
                             "not a hyperbolic surface" % (m,))
        X = build_z0(GroupSpec(sub, 2))
        chi = euler_characteristic(X)
        surf = is_closed_surface(X)
        report = "surface=%s chi=%d" % ("yes" if surf else "no", chi)
        return X, report
    if kind == "antihole":
        m = len(verts)
        if m < 5:
            raise ValueError("antihole witness too short")
        steps = []
        cur = opposite(catalog.cycle(m))
        while len(cur.vertices) != 5:
            cyc = find_hole(opposite(cur), 5)  # the underlying cycle
            e = frozenset(cyc[:2])
            h = co_contraction_embedding(cur, e, 2)
            ok, _ = relator_check(h)
            steps.append("cocontract %s relators=%s"
                         % (",".join(sorted(map(str, e))), "PASS" if ok else "FAIL"))
            cur = h.source.graph
        report = ("antihole length %d reduces to the five-anticycle; %s"
                  % (m, "; ".join(steps) if steps else "already minimal"))
        return None, report
    raise ValueError("unknown witness kind %r" % (kind,))
