"""The H routes stay independent: the oracle and the lattice routes share
no code that could make their tables agree.

A static call graph of src/, built with ast, lists the module-level
functions that both the oracle (symoracle.modified_H_oracle) and the
lattice routes (lattice.partition_function_coeffs, which runs x, dual and
Hall-Littlewood) reach, and that list must be the allowlist below.  A
function reaches every module-level function its body names: one of its
own module, one imported with ``from .module import name`` (through
re-exports) or ``module.name`` of an imported module.  Classes are types
here, not nodes: Partition is the input both routes take, ExactPolynomial
the output both return, and the errors are raised, not computed with.
"""

import ast
import glob
import os

import modmacd

# Each function both routes reach, and why sharing it cannot make their
# tables agree by itself.
SHARED = {
    "combinat.conjugate":
        "lambda' of a partition: the oracle reads arms and legs from it, "
        "the lattice x route sweeps it and the dual route sweeps lambda",
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
            ("lattice", "_hl_moves"), ("phi", "_phi_rows"),
            ("packed", "_respace"), ("packed", "_unpack_qt")} <= lattice
    assert {("symoracle", "_plethysm_table"), ("symoracle", "_combine"),
            ("packed", "_digits")} <= oracle
    assert not {("phi", "_phi_rows"), ("packed", "_respace")} & oracle


def test_the_h_routes_share_only_the_allowlisted_functions():
    graph = _call_graph()
    shared = _reach(graph, ROOTS["oracle"]) & _reach(graph, ROOTS["lattice"])
    assert sorted("%s.%s" % key for key in shared) == sorted(SHARED)
