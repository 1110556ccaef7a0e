"""The library imports nothing outside the standard library and itself."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "twistlab"


def test_src_imports_only_stdlib():
    allowed = set(sys.stdlib_module_names) | {"twistlab"}
    files = sorted(SRC.glob("*.py"))
    assert files
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name} imports {name}"


def test_src_module_imports_are_used():
    # no linter ships with the project, so this keeps deletions from leaving stale imports
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {
            alias.asname or alias.name.split(".")[0]
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = sorted(imported - used)
        assert not unused, f"{path.name} imports {unused} and never uses them"


def _only_binds_its_arguments(init: ast.FunctionDef) -> bool:
    return all(
        isinstance(stmt, ast.Assign)
        and len(stmt.targets) == 1
        and isinstance(target := stmt.targets[0], ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
        and isinstance(stmt.value, ast.Name)
        and stmt.value.id == target.attr
        for stmt in init.body
    )


def test_records_use_the_shared_constructor():
    # Record.__init__ binds the fields; a record class writes its own only to check or derive one
    for path in sorted(SRC.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(cls, ast.ClassDef) or not any(getattr(b, "id", None) == "Record" for b in cls.bases):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and node.name == "__init__":
                    assert not _only_binds_its_arguments(node), f"{path.name}: {cls.name}.__init__ only binds fields"
