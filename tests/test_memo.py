"""The memo helper, the module names the benchmark's tracer reads, and the
rule that every public name under src/ has a reader outside the tests.

bench/tracer.py wraps library functions and reads the cache dicts by name
from outside the package; a renamed function or a cache that is no longer a
module attribute would stop every traced benchmark run.
"""

import ast
import glob
import importlib
import importlib.util
import inspect
import json
import os
import pkgutil

import pytest

import modmacd
from modmacd import combinat, memo, modmac
from modmacd.combinat import Partition, SequencePair
from modmacd.lattice import partition_function_coeffs
from modmacd.modmac import kostka_qt
from modmacd.phi import phi_finite, phi_normalized, phi_series
from modmacd.qseries import gauss_binomial
from modmacd.symoracle import kostka_number, macdonald_P

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_spec = importlib.util.spec_from_file_location(
    "bench_tracer", os.path.join(ROOT, "bench", "tracer.py"))
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    PER_LAYER = [m["name"] for m in json.load(fh)["per_layer"]]

# per-layer names that bench/run.py derives from other counters rather than
# from one traced function
DERIVED = {"exactalg.rf_ops"}
FUNCTION_METRICS = [
    name for name in PER_LAYER
    if name.split(".")[0] in tracer.MODULES
    and name.rpartition(".")[0] not in set(tracer.MODULES) | DERIVED]


def _cache(key):
    module, attr = tracer.CACHES[key]
    return getattr(importlib.import_module("modmacd." + module), attr)


def _module_caches():
    """Every module-level dict named *_CACHE in the package, by
    module.name (``__main__``, which runs the command, is skipped)."""
    out = {}
    for info in pkgutil.iter_modules(modmacd.__path__):
        if info.name.startswith("__"):
            continue
        module = importlib.import_module("modmacd." + info.name)
        for attr, value in vars(module).items():
            if attr.endswith("_CACHE") and isinstance(value, dict):
                out["%s.%s" % (info.name, attr)] = value
    return out


def _results():
    sp = SequencePair((0, 1, 3), (1, 2, 3))
    lam = Partition((2, 1))
    return [gauss_binomial(6, 2), phi_normalized(sp), phi_series(sp),
            phi_finite(sp),
            partition_function_coeffs(lam, 2, formula="x"),
            partition_function_coeffs(lam, 2, formula="z"),
            partition_function_coeffs(lam, 2, formula="hl"),
            macdonald_P(lam, 3).coeffs, kostka_qt(lam),
            modmac.cauchy_check("W", 1, 1, 2)]


def test_clear_caches_empties_every_cache_and_recomputes_the_same():
    # Every *_CACHE dict of every module, the tracer's eight among them, is
    # filled by these calls, registered with memo and emptied by
    # clear_caches; a cache that is not would outlive clear_caches.
    caches = _module_caches()
    assert all(any(_cache(key) is cache for cache in caches.values())
               for key in tracer.CACHES)
    memo.clear_caches()
    before = _results()
    assert [name for name, cache in caches.items() if not cache] == []
    assert [name for name, cache in caches.items()
            if not any(cache is registered
                       for registered in memo._CACHES)] == []
    memo.clear_caches()
    assert [name for name, cache in caches.items() if cache] == []
    assert _results() == before


def test_clear_caches_empties_the_partitions_cache():
    # partitions_of hands every caller the same cached tuple, keyed by the
    # weight and the part bound clipped to it.
    memo.clear_caches()
    assert combinat.partitions_of(5, 9) is combinat.partitions_of(5)
    assert combinat._PARTITIONS_CACHE
    memo.clear_caches()
    assert not combinat._PARTITIONS_CACHE


def test_memoized_keys_by_positional_arguments():
    cache = {}
    calls = []

    @memo.memoized(cache)
    def double(x):
        calls.append(x)
        return 2 * x

    assert double(3) == double(3) == 6
    assert calls == [3] and cache == {(3,): 6}
    assert double.__name__ == "double" and inspect.isfunction(double)
    memo.clear_caches()
    assert cache == {}


def test_kostka_number_ignores_trailing_zeros():
    lam = Partition((2, 1))
    for mu in ((1, 1, 1), (2, 1), (3,)):
        assert kostka_number(lam, mu + (0, 0)) == kostka_number(lam, mu)


@pytest.mark.parametrize("key", sorted(tracer.CACHES))
def test_tracer_caches_are_registered_dicts(key):
    cache = _cache(key)
    assert isinstance(cache, dict)
    assert any(cache is registered for registered in memo._CACHES)


def _traced(base):
    """Everything the tracer would wrap under the metric name ``base``."""
    module, _, metric = base.partition(".")
    mod = importlib.import_module("modmacd." + module)
    if metric.startswith("partition_function."):
        return [("partition_function_coeffs", mod.partition_function_coeffs)]
    found = [(attr, vars(getattr(mod, cls)).get(attr))
             for cls, ops in tracer.OPERATORS.items() if module == "exactalg"
             for attr, name in ops.items() if name == metric]
    names = [f for f, m in tracer.RENAMES.get(module, {}).items()
             if m == metric] + [metric]
    found += [(f, getattr(mod, f)) for f in names
              if getattr(mod, f, None) is not None
              and getattr(mod, f).__module__ == mod.__name__]
    return found


@pytest.mark.parametrize("name", FUNCTION_METRICS)
def test_per_layer_metric_names_a_plain_function(name):
    found = _traced(name.rpartition(".")[0])
    assert found, "no function behind %s" % name
    for attr, fn in found:
        assert inspect.isfunction(fn), "%s is not a plain function" % attr


def _names_read(node, skip=None):
    """Every name that the code of node reads or imports, outside skip:
    docstrings and comments do not count."""
    out = set()
    stack = [node]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _unreached():
    """Every top-level function or class of a modmacd module that no
    package code reads: not another module, not its own module outside its
    definition, not __init__'s export list and not the tracer (for a
    per-layer metric)."""
    trees = {}
    for path in glob.glob(os.path.join(os.path.dirname(modmacd.__file__),
                                       "*.py")):
        with open(path) as fh:
            trees[os.path.basename(path)[:-3]] = ast.parse(fh.read())
    traced = {(name.partition(".")[0], attr)
              for name in FUNCTION_METRICS
              for attr, _ in _traced(name.rpartition(".")[0])}
    unreached = []
    for module, tree in sorted(trees.items()):
        read = set().union(*(_names_read(other) for name, other
                             in trees.items() if name != module))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name in read | _names_read(tree, skip=node) \
                    or node.name in modmacd.__all__ \
                    or (module, node.name) in traced:
                continue
            unreached.append("%s.%s" % (module, node.name))
    return unreached


def test_every_public_name_is_reached_outside_the_tests():
    # A public name that only the tests call belongs in tests/.
    assert [name for name in _unreached()
            if not name.rpartition(".")[2].startswith("_")] == []


def test_every_private_name_is_reached_outside_the_tests():
    # The same for private helpers: one that only the tests call, such as
    # a step a rewrite left behind, belongs in tests/ or nowhere.
    assert [name for name in _unreached()
            if name.rpartition(".")[2].startswith("_")] == []
