"""Every library module uses every name it imports: a deletion that
leaves an import behind, such as an orphaned ``weakref`` or
``Fraction``, fails here.  The package's ``__init__`` is skipped, since
its imports are its exports."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "contextuality"


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def test_no_library_module_imports_a_name_it_never_uses():
    unused = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":
            names = _unused_imports(ast.parse(path.read_text()))
            if names:
                unused[path.name] = names
    assert unused == {}


def test_the_check_sees_an_orphaned_import():
    tree = ast.parse("import weakref\nfrom fractions import Fraction\n"
                     "from math import gcd as g\nimport os.path\n"
                     "x = g(os.sep, 1)\n")
    assert _unused_imports(tree) == ["weakref (line 1)", "Fraction (line 2)"]
