import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


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
