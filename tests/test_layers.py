import ast
import inspect
from pathlib import Path

import gpwork.catalog
import gpwork.classify
import gpwork.cli
import gpwork.complexes
import gpwork.embeddings
import gpwork.graphs
import gpwork.words

LAYERS = (gpwork.graphs, gpwork.catalog, gpwork.words, gpwork.complexes,
          gpwork.embeddings, gpwork.classify, gpwork.cli)


def test_public_functions_are_not_generators():
    # a span around a generator function would time only the creation of the
    # generator, so the public API returns lists; the tracer in perfbench/
    # refuses generator functions
    generators = [
        "%s.%s" % (mod.__name__, name)
        for mod in LAYERS for name, obj in vars(mod).items()
        if not name.startswith("_") and inspect.isfunction(obj)
        and obj.__module__ == mod.__name__
        and inspect.isgeneratorfunction(obj)]
    assert generators == []


def _uses(node_test):
    """(module file, top-level definition) for each node of the gpwork
    sources that node_test accepts."""
    found = set()
    for path in sorted(Path(gpwork.graphs.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if node_test(node):
                    found.add((path.name, getattr(top, "name", None)))
    return found


def test_only_outside_input_goes_through_the_checked_constructor():
    # the catalog's data and the text read by graph_from_lines are the only
    # outside input; every other graph is built from masks by graphs._graph
    calls = _uses(lambda node: isinstance(node, ast.Call) and (
        getattr(node.func, "id", None) == "SimpleGraph"
        or getattr(node.func, "attr", None) == "SimpleGraph"))
    assert {c for c in calls if c[0] != "catalog.py"} == {
        ("graphs.py", "graph_from_lines")}
    assert any(c[0] == "catalog.py" for c in calls)


def test_only_outside_orders_go_through_the_checked_spec_constructor():
    # orders read from text or passed in by a caller are checked; a spec
    # whose orders are pulled back from a checked one is built by words._spec
    calls = _uses(lambda node: isinstance(node, ast.Call) and (
        getattr(node.func, "id", None) == "GroupSpec"
        or getattr(node.func, "attr", None) == "GroupSpec"))
    assert calls == {
        ("cli.py", "_load_spec"), ("words.py", "spec_from_lines"),
        ("embeddings.py", "double_homomorphism"),
        ("embeddings.py", "co_contraction_embedding"),
        ("classify.py", "witness_complex")}


def test_only_the_graph_class_reads_edge_sets():
    # the kernel reads masks; `edges` stays for the tests and the benchmark
    reads = _uses(lambda node: isinstance(node, ast.Attribute)
                  and node.attr == "edges")
    assert reads == set()


def test_public_functions_without_a_caller_in_the_package():
    # a method counts as called when an attribute of its name is read in
    # gpwork, a function also when its bare name is; properties are data
    defined, names, attrs = set(), set(), set()
    for path in sorted(Path(gpwork.graphs.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            cls = top.name if isinstance(top, ast.ClassDef) else None
            for node in top.body if cls else [top]:
                if (isinstance(node, ast.FunctionDef)
                        and not node.name.startswith("_")
                        and not any(getattr(d, "id", None) == "cached_property"
                                    for d in node.decorator_list)):
                    defined.add((cls, node.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    uncalled = {(cls, name) for cls, name in defined
                if name not in attrs and (cls or name not in names)}
    assert uncalled == {
        # perfbench's tracer wraps vars(HomomorphismSpec)["apply"]
        ("HomomorphismSpec", "apply"),
        # the long_words workload times it
        (None, "cyclically_reduce")}
