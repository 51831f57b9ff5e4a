"""The package's import graph: the imports that its modules make between
themselves when they load form no cycle, so ``import postlie`` works
whatever order ``postlie/__init__`` lists its submodules in."""

from __future__ import annotations

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "postlie"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _load_time_imports(tree: ast.Module):
    """Import statements that run when the module loads.  Function bodies
    are skipped: an import there is lazy and runs on the first call."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _targets(node: ast.Import | ast.ImportFrom) -> set[str]:
    """The package modules one import statement loads; ``__init__``
    stands for the package itself."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    else:
        module = ".".join(filter(None, ["postlie" if node.level else "", node.module]))
        names = [f"{module}.{alias.name}" for alias in node.names]
    out = set()
    for name in names:
        head, _, rest = name.partition(".")
        if head == "postlie":
            sub = rest.partition(".")[0]
            out.add(sub if sub in MODULES else "__init__")
    return out


def import_graph() -> dict[str, set[str]]:
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        graph[path.stem] = set().union(*map(_targets, _load_time_imports(tree)))
        graph[path.stem].discard(path.stem)
    return graph


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One cycle of the graph as a closed path of modules, or None."""
    done: set[str] = set()
    path: list[str] = []

    def visit(node: str) -> list[str] | None:
        if node in path:
            return path[path.index(node):] + [node]
        if node in done:
            return None
        path.append(node)
        for nxt in sorted(graph.get(node, ())):
            cycle = visit(nxt)
            if cycle:
                return cycle
        path.pop()
        done.add(node)
        return None

    for start in sorted(graph):
        cycle = visit(start)
        if cycle:
            return cycle
    return None


def test_graph_reads_the_imports():
    graph = import_graph()
    assert set(graph) == MODULES
    assert {"algebroid", "checks"} <= graph["braiding"]
    assert graph["trees"] == set()
    # Imports inside functions load lazily and are not edges.
    assert "geomint" not in graph["cli"] and "geomint" not in graph["__init__"]


def test_import_graph_is_acyclic():
    cycle = find_cycle(import_graph())
    assert cycle is None, "import cycle: " + " -> ".join(cycle)


def test_find_cycle_sees_a_cycle():
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert find_cycle({"a": {"b", "c"}, "b": {"c"}, "c": set()}) is None
