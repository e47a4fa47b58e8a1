import inspect

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
