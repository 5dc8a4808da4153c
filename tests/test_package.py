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
