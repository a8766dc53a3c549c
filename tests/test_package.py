"""The package carries only what the program runs: every function, class and
method defined under src/layerlens is named somewhere else in the program,
that is in src/, scripts/ or perfbench/, not counting the re-exports in
__init__.py. Code only the tests call belongs in the tests. README's Layout
block names every module and script."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROGRAM = ("src", "scripts", "perfbench")


def definitions(tree: ast.Module):
    """Module-level functions and classes, and the methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (m.name for m in node.body if isinstance(m, ast.FunctionDef))


def test_every_definition_in_src_is_used_by_the_program():
    defined = Counter(
        name
        for path in sorted((ROOT / "src" / "layerlens").glob("*.py"))
        for name in definitions(ast.parse(path.read_text()))
        if not (name.startswith("__") and name.endswith("__"))
    )
    # a re-export in __init__.py names a definition without using it
    init = ROOT / "src" / "layerlens" / "__init__.py"
    text = "\n".join(p.read_text() for d in PROGRAM for p in sorted((ROOT / d).rglob("*.py")) if p != init)
    only_defined = sorted(
        name for name, n in defined.items() if len(re.findall(rf"\b{re.escape(name)}\b", text)) <= n
    )
    assert only_defined == []


def test_readme_layout_names_every_module_and_script():
    readme = (ROOT / "README.md").read_text()
    layout = readme.split("\n## Layout\n", 1)[1].split("```")[1]
    files = [p.name for p in sorted((ROOT / "src" / "layerlens").glob("*.py")) if p.name != "__init__.py"]
    files += [p.name for p in sorted((ROOT / "scripts").glob("*.py"))]
    assert [name for name in files if not re.search(rf"\b{re.escape(name)}\b", layout)] == []
