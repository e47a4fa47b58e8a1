"""Named graphs: cycles, paths, and the specific six-to-twelve vertex graphs
used by the seven-vertex classification.

The lambda- and phi-families are defined through their opposite graphs, which
is how they are usually drawn; the constructors here return the graph itself
(the complement of the drawn one), with the drawn vertex labels.
"""

from __future__ import annotations

from .graphs import SimpleGraph, induced_subgraph, opposite


def cycle(m):
    """The cycle C_m on vertices v1..vm, m >= 3."""
    if m < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    verts = ["v%d" % (i + 1) for i in range(m)]
    edges = [(verts[i], verts[(i + 1) % m]) for i in range(m)]
    return SimpleGraph(verts, edges)


def path(n):
    """The path P_n on n vertices, labeled a, b, c, ... as in the figures."""
    if not 1 <= n <= 26:
        raise ValueError("paths are labeled with single letters; need 1 <= n <= 26")
    verts = [chr(ord("a") + i) for i in range(n)]
    edges = [(verts[i], verts[i + 1]) for i in range(n - 1)]
    return SimpleGraph(verts, edges)


def _p6_plus(t_neighbors):
    """P_6 on a..f together with an extra vertex t joined to `t_neighbors`."""
    p6 = path(6)
    verts = p6.vertices + ("t",)
    edges = set(p6.edges) | {frozenset((x, "t")) for x in t_neighbors}
    return SimpleGraph(verts, edges)


# t-neighborhoods (inside the drawn opposite graphs) for Lambda_1..Lambda_11.
_LAMBDA_T = {
    1: "cdef", 2: "ab", 3: "b", 4: "def", 5: "cde", 6: "cef",
    7: "cdf", 8: "ac", 9: "bd", 10: "bc", 11: "cd",
}


def lambda_opp(i):
    """The drawn graph Lambda_i^opp, 0 <= i <= 11."""
    if i == 0:
        verts = ("a", "b", "c", "e", "f", "g")
        edges = [("a", "b"), ("b", "c"), ("e", "f"), ("f", "g")]
        return SimpleGraph(verts, edges)
    if i not in _LAMBDA_T:
        raise ValueError("Lambda_%d is not defined" % (i,))
    return _p6_plus(_LAMBDA_T[i])


def lambda_graph(i):
    return opposite(lambda_opp(i))


def phi_opp(i):
    """The drawn graph Phi_i^opp, 1 <= i <= 5."""
    if i == 1:
        p7 = path(7)
        return SimpleGraph(p7.vertices + ("t",), set(p7.edges) | {frozenset("dt")})
    if i == 2:
        verts = ("a", "b", "c", "d", "e", "f", "g", "d'")
        edges = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f"),
                 ("f", "g"), ("c", "d'"), ("d'", "e"), ("d", "d'")]
        return SimpleGraph(verts, edges)
    if i == 3:
        verts = ("a", "b", "c", "e", "f", "g", "c'", "e'")
        edges = [("a", "b"), ("b", "c"), ("e", "f"), ("f", "g"), ("b", "c'"),
                 ("e'", "f"), ("c", "c'"), ("e", "e'"), ("c'", "e"), ("c", "e'")]
        return SimpleGraph(verts, edges)
    if i == 4:
        verts = ("a", "b", "c", "e", "f", "g", "e'", "c'")
        edges = [("a", "b"), ("b", "c"), ("e", "f"), ("f", "g"), ("g", "e'"),
                 ("b", "c'"), ("c", "c'"), ("e", "e'"), ("c'", "e"), ("c", "e'")]
        return SimpleGraph(verts, edges)
    if i == 5:
        verts = ("a", "b", "c", "e", "f", "g", "e'", "c'")
        edges = [("a", "b"), ("b", "c"), ("e", "f"), ("f", "g"), ("g", "e'"),
                 ("a", "c'"), ("c", "c'"), ("e", "e'"), ("c'", "e"), ("c", "e'")]
        return SimpleGraph(verts, edges)
    raise ValueError("Phi_%d is not defined" % (i,))


def phi_graph(i):
    return opposite(phi_opp(i))


def p1_7_opp():
    """Seven-vertex pattern graph (drawn form): Phi_4^opp without vertex a."""
    g = phi_opp(4)
    return induced_subgraph(g, set(g.vertices) - {"a"})


def p2_7_opp():
    """Seven-vertex pattern graph (drawn form): Phi_3^opp without vertex g."""
    g = phi_opp(3)
    return induced_subgraph(g, set(g.vertices) - {"g"})


def p1_7():
    return opposite(p1_7_opp())


def p2_7():
    return opposite(p2_7_opp())


def fig8_opp():
    """Drawn form of the twelve-vertex boundary example: P_6 with a pendant
    vertex attached to each path vertex."""
    p6 = path(6)
    verts = list(p6.vertices) + ["%s'" % v for v in p6.vertices]
    edges = set(p6.edges) | {frozenset((v, "%s'" % v)) for v in p6.vertices}
    return SimpleGraph(verts, edges)


def fig8():
    return opposite(fig8_opp())


def by_name(name):
    """Resolve a registry name like C5, C6opp, P7, P6opp, Phi3, Lambda7,
    P1_7, P2_7 or Fig8.  An `opp` suffix complements any base name."""
    want_opp = False
    base = name
    if base.lower().endswith("opp"):
        want_opp = True
        base = base[:-3]
    g = None
    low = base.lower()
    if low.startswith("c") and base[1:].isdigit():
        g = cycle(int(base[1:]))
    elif low.startswith("p") and base[1:].isdigit():
        g = path(int(base[1:]))
    elif low.startswith("phi") and base[3:].isdigit():
        g = phi_graph(int(base[3:]))
    elif low.startswith("lambda") and base[6:].isdigit():
        g = lambda_graph(int(base[6:]))
    elif low in ("p1_7", "p1(7)"):
        g = p1_7()
    elif low in ("p2_7", "p2(7)"):
        g = p2_7()
    elif low == "fig8":
        g = fig8()
    if g is None:
        raise KeyError("unknown graph name %r" % (name,))
    return opposite(g) if want_opp else g
