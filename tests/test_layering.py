"""Module boundaries of the rsl package: a module uses only the public
names of another rsl module, and none imports a thread or process pool.
Read from the import statements with `ast`, so nothing is imported or run."""

import ast
from pathlib import Path

import rsl

SRC = Path(rsl.__file__).parent


def _private_imports(path):
    """(module, name) for every underscore name that `path` imports from
    another rsl module."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "rsl"):
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield node.module or ".", alias.name


def test_no_private_names_across_modules():
    found = {f"{path.name}: {mod}.{name}"
             for path in sorted(SRC.glob("*.py")) for mod, name in _private_imports(path)}
    assert not found, sorted(found)


# kernels and products run on the calling thread; threads come from the
# launch environment (BLAS), never from a pool the package makes
THREAD_MODULES = ("threading", "concurrent.futures", "multiprocessing")


def _imported_modules(path):
    """Every absolute module name that `path` imports."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_no_thread_or_process_pools():
    found = {f"{path.name}: {name}"
             for path in sorted(SRC.glob("*.py")) for name in _imported_modules(path)
             if any(name == mod or name.startswith(mod + ".") for mod in THREAD_MODULES)}
    assert not found, sorted(found)
