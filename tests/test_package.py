import ast
import sys
from pathlib import Path

import k3nodal


def test_all_lists_exactly_the_public_objects_the_package_binds():
    bound = {
        name
        for name, value in vars(k3nodal).items()
        if not name.startswith("_") and getattr(value, "__module__", "").startswith("k3nodal.")
    }
    assert len(k3nodal.__all__) == len(set(k3nodal.__all__))
    assert set(k3nodal.__all__) == bound


def test_package_imports_only_itself_and_the_standard_library():
    sources = sorted(Path(k3nodal.__file__).parent.glob("*.py"))
    imported = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update((path.name, alias.name) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add((path.name, node.module))
    outside = {
        (name, module) for name, module in imported
        if module.split(".")[0] not in sys.stdlib_module_names
    }
    assert imported and not outside


ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(k3nodal.__file__).parent


def _references(paths) -> set[str]:
    """The names the files read: Name ids, Attribute names and import aliases."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.split(".")[-1])
    return names


def test_every_public_name_has_a_caller():
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    callers = modules + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    assert set(k3nodal.__all__) - _references(callers) == set()


def test_no_unused_import_or_private_definition():
    sources = sorted(PACKAGE.glob("*.py"))
    referenced = _references(sources)
    dead = []
    for path in sources:
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if path.name == "__init__.py":
            read |= set(k3nodal.__all__)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound = [(a.asname or a.name).split(".")[0] for a in node.names]
                dead += [(path.name, name) for name in bound if name not in read]
                continue
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, ast.Assign):
                defined = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            dead += [
                (path.name, name) for name in defined
                if name.startswith("_") and not name.startswith("__") and name not in referenced
            ]
    assert dead == []
