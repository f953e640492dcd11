"""The routes stay independent: the H routes (the oracle against the
lattice routes) and the three Phi routes (series, finite, positive) share
no code that could make their answers agree.

A static call graph of src/, built with ast, lists the module-level
functions that both routes of a pair reach, and that list must be the
pair's allowlist below.  A function reaches every module-level function its
body names: one of its own module, one imported with ``from .module import
name`` (through re-exports) or ``module.name`` of an imported module.
Classes are types here, not nodes: Partition is the input both H routes
take, ExactPolynomial the output every route returns, and the errors are
raised, not computed with.
"""

import ast
import glob
import os

import pytest

import modmacd

# Each function both routes reach, and why sharing it cannot make their
# tables agree by itself.
SHARED = {
    "combinat.conjugate":
        "lambda' of a partition: the oracle reads arms and legs from it, "
        "the lattice x route sweeps it and the dual route sweeps lambda",
    "combinat.partitions_of":
        "the partitions of a weight: the oracle's bases run over them, and "
        "the lattice keys its table by them (_composition_index), where "
        "every composition the sweep sums must find its sorted partition, "
        "so a missing partition fails and an extra one gets no value",
    "combinat._partitions":
        "the memoized worker of partitions_of",
    "memo.memoized":
        "the cache helper: each function keeps its own dict and returns "
        "what the function returns",
    "packed._digits":
        "reads the balanced digits of a packed int: the routes decode "
        "different ints at different widths, so a fault in the reader "
        "moves their tables apart",
    "packed._rows_times":
        "multiplies packed rows by factors 1 - x^a t^b: Phi's rows of "
        "prod (1 - z t^x) for the lattice, the plethysm's and J's factors "
        "for the oracle, so a fault moves the two routes' tables apart",
    "packed._width":
        "the bit width of an l1 bound; each route bounds its own sums",
}

ROOTS = {"oracle": ("symoracle", "modified_H_oracle"),
         "lattice": ("lattice", "partition_function_coeffs")}

# Each function two Phi routes both reach, and why sharing it cannot make
# their answers agree by itself.  The three compute the same polynomial, so
# what reads their result into it is checked against a reference of its
# own.
PHI_SHARED = {
    "exactalg._prune":
        "drops the symbols that no term of a result uses, for _pruned",
    "exactalg._pruned":
        "builds the returned polynomial from canonical terms; "
        "tests/test_exactalg.py checks the pruning, and criterion 1 and "
        "tests/data/golden_phi.json pin the polynomials it returns",
    "memo.memoized":
        "the cache helper: each function keeps its own dict and returns "
        "what the function returns",
    "packed._digits":
        "reads the balanced digits of a route's own rows at its own width "
        "(phi_series packs at a width of its own); tests/test_packed.py "
        "checks it against the digits a row was packed from",
    "packed._gauss_table":
        "[a, b]_t at t = 2^W: the routes read different binomials (the "
        "series [a_k + s, b_k + s], the finite and positive sums their own "
        "pairs) at their own widths; tests/test_phi.py checks each entry "
        "against qseries.gauss_binomial",
    "packed._width":
        "the bit width of an l1 bound; each route bounds its own sums",
    "phi._decode":
        "reads a route's rows into the returned polynomial; "
        "tests/test_phi.py checks it against reference.unpack_rows, and "
        "criterion 1 and tests/data/golden_phi.json pin what it returns",
    "phi._packed_rows":
        "sums a route's own terms at the width of their summed norms: the "
        "finite sum's sub-tuples with their Pochhammer factors, the "
        "positive form's chains with binomials only, so a fault moves two "
        "different term sets apart, and phi_series, which does not use it, "
        "is compared with both",
    "phi._factor_rows":
        "the rows of prod (1 - z t^x), reached through _packed_rows; only "
        "the finite sum's terms carry such factors, the positive form's "
        "none, so at run time it moves the finite route alone",
    "packed._rows_times":
        "multiplies rows by factors 1 - z t^x for _factor_rows, and is "
        "reached as it is",
}

PHI_ROOTS = {"series": ("phi", "phi_series"),
             "finite": ("phi", "phi_finite"),
             "positive": ("phi", "phi_positive")}
_READ_OUT = {"exactalg._prune", "exactalg._pruned", "memo.memoized",
             "packed._digits", "packed._gauss_table", "packed._width",
             "phi._decode"}
PHI_PAIRS = {("series", "finite"): _READ_OUT,
             ("series", "positive"): _READ_OUT,
             ("finite", "positive"): _READ_OUT | {
                 "phi._packed_rows", "phi._factor_rows",
                 "packed._rows_times"}}


def _call_graph():
    """{(module, function): set of (module, function) its body names}."""
    trees = {}
    for path in glob.glob(os.path.join(os.path.dirname(modmacd.__file__),
                                       "*.py")):
        with open(path) as fh:
            trees[os.path.basename(path)[:-3]] = ast.parse(fh.read())
    functions = {(module, node.name): node
                 for module, tree in trees.items() for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    # per module, each local name bound by a relative import: the
    # (module, name) it imports, or (module, None) for a module
    bound = {module: {} for module in trees}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    bound[module][alias.asname or alias.name] = \
                        (node.module, alias.name) if node.module \
                        else (alias.name, None)

    def resolve(module, name):
        while (module, name) not in functions:
            if name not in bound.get(module, {}):
                return None
            module, name = bound[module][name]
            if name is None:
                return module, None
        return module, name

    graph = {}
    for (module, name), node in functions.items():
        out = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                target = resolve(module, sub.id)
            elif isinstance(sub, ast.Attribute) \
                    and isinstance(sub.value, ast.Name):
                target = resolve(module, sub.value.id)
                target = target and target[1] is None \
                    and resolve(target[0], sub.attr)
            else:
                continue
            if target and target[1] is not None:
                out.add(target)
        out.discard((module, name))
        graph[module, name] = out
    return graph


def _reach(graph, root):
    seen, stack = {root}, [root]
    while stack:
        for target in graph[stack.pop()] - seen:
            seen.add(target)
            stack.append(target)
    return seen


def test_the_graph_sees_each_route_through_its_own_code():
    graph = _call_graph()
    oracle = _reach(graph, ROOTS["oracle"])
    lattice = _reach(graph, ROOTS["lattice"])
    assert {("lattice", "_column_sweep"), ("lattice", "_column_moves"),
            ("lattice", "_hl_moves"), ("phi", "_phi_view"),
            ("packed", "_respace"), ("packed", "_unpack_qt")} <= lattice
    assert {("symoracle", "_plethysm_table"), ("symoracle", "_combine"),
            ("packed", "_digits")} <= oracle
    assert not {("phi", "_phi_view"), ("packed", "_respace")} & oracle
    series, finite, positive = (_reach(graph, PHI_ROOTS[route])
                                for route in ("series", "finite", "positive"))
    assert ("phi", "_packed_rows") not in series
    assert ("phi", "_positive_terms") in positive
    assert not {("phi", "_positive_terms"), ("phi", "_phi_view")} \
        & (series | finite)


def test_the_h_routes_share_only_the_allowlisted_functions():
    graph = _call_graph()
    shared = _reach(graph, ROOTS["oracle"]) & _reach(graph, ROOTS["lattice"])
    assert sorted("%s.%s" % key for key in shared) == sorted(SHARED)


def test_every_phi_allowlisted_function_has_a_reason():
    assert set().union(*PHI_PAIRS.values()) == set(PHI_SHARED)


@pytest.mark.parametrize("pair", sorted(PHI_PAIRS), ids="-".join)
def test_the_phi_routes_share_only_the_allowlisted_functions(pair):
    graph = _call_graph()
    first, second = (_reach(graph, PHI_ROOTS[route]) for route in pair)
    assert sorted("%s.%s" % key for key in first & second) \
        == sorted(PHI_PAIRS[pair])
