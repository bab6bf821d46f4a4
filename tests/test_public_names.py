import ast
import importlib
import inspect
import pkgutil

import splr


def test_public_names_resolve():
    # Every name a module lists in __all__, and every name the package
    # imports into its top level, exists: a deletion cannot leave a
    # dangling export.
    for info in pkgutil.iter_modules(splr.__path__):
        module = importlib.import_module(f"splr.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"splr.{info.name}.{name}"
    tree = ast.parse(inspect.getsource(splr))
    imported = [alias.asname or alias.name
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    assert imported
    for name in imported:
        assert hasattr(splr, name), f"splr.{name}"


def test_modules_use_every_name_they_import():
    # No module but the package's __init__ re-exports: every name another
    # module imports is read somewhere in it, so a deletion cannot leave a
    # dead import behind.
    for info in pkgutil.iter_modules(splr.__path__):
        tree = ast.parse(inspect.getsource(importlib.import_module(f"splr.{info.name}")))
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, f"splr.{info.name} imports {sorted(imported - used)} unused"
