import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(ROOT.glob("src/gptcone/*.py"))

# The one import inside a function: the benchmark tracer looks
# max_entangled_fidelity up in gptcone.herm, so the function stays in herm,
# the lowest layer, and imports the conic solver of dual when it runs.
FUNCTION_IMPORTS = {("herm", "max_entangled_fidelity")}


def _imports(path):
    """``(imported module, enclosing function or None)`` for each import
    in ``path``; a relative import names its module within gptcone."""
    found = []

    def visit(node, function):
        if isinstance(node, ast.ImportFrom) and node.level:
            targets = [node.module] if node.module else [
                alias.name for alias in node.names]
            found.extend((target, function) for target in targets)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.append((None, function))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = function or node.name
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text()), None)
    return found


def test_no_module_defines_a_top_level_name_twice():
    # A later def or class of the same name replaces the earlier one, so a
    # test defined twice runs only once, and silently.
    twice = []
    for path in sorted([*ROOT.glob("src/gptcone/*.py"),
                        *ROOT.glob("tests/*.py")]):
        seen = set()
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if node.name in seen:
                    twice.append(f"{path.relative_to(ROOT)}: {node.name}")
                seen.add(node.name)
    assert not twice, twice


def test_modules_import_each_other_without_a_cycle():
    # Every relative import, at the top or inside a function, except the
    # one from herm's lowest layer up to dual.
    graph = {path.stem: {target for target, _ in _imports(path)
                         if target} for path in MODULES}
    graph["herm"].discard("dual")
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as exc:
        raise AssertionError(f"import cycle {exc.args[1]}") from None


def test_only_herm_max_entangled_fidelity_imports_inside_a_function():
    inside = {(path.stem, function) for path in MODULES
              for _, function in _imports(path) if function}
    assert inside == FUNCTION_IMPORTS
