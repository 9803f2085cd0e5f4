"""Module boundaries of the rsl package: a module uses only the public
names of another rsl module, none imports a thread or process pool, and
scipy is imported in one place only.  Read from the import statements with
`ast`, so nothing is imported or run."""

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


def _import_names(node):
    """Every absolute module name that the statement `node` imports."""
    if isinstance(node, ast.Import):
        yield from (alias.name for alias in node.names)
    elif isinstance(node, ast.ImportFrom) and not node.level and node.module:
        yield node.module
        yield from (f"{node.module}.{alias.name}" for alias in node.names)


def _imported_modules(path):
    """Every absolute module name that `path` imports."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        yield from _import_names(node)


def test_no_thread_or_process_pools():
    found = {f"{path.name}: {name}"
             for path in sorted(SRC.glob("*.py")) for name in _imported_modules(path)
             if any(name == mod or name.startswith(mod + ".") for mod in THREAD_MODULES)}
    assert not found, sorted(found)


def _scipy_import_scopes(node, scope="<module>"):
    """The innermost enclosing function or class (or "<module>") of every
    statement under `node` that imports scipy."""
    for child in ast.iter_child_nodes(node):
        if any(name.split(".")[0] == "scipy" for name in _import_names(child)):
            yield scope
        inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        yield from _scipy_import_scopes(child, child.name if inner else scope)


def test_scipy_only_in_high_dimension_kernels():
    # the n = 2..5 kernels, bessel_j and the asymptotic split are in-house;
    # scipy.special serves radial_kernel for n >= 6 only
    found = [f"{path.name}: {scope}" for path in sorted(SRC.glob("*.py"))
             for scope in _scipy_import_scopes(ast.parse(path.read_text(), str(path)))]
    assert found == ["bessel.py: _kernel_chunk"], found


def _phase_step_parameters(path):
    """The name of every function in `path` with a `phase_step` parameter."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            if any(arg.arg == "phase_step" for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs)):
                yield getattr(node, "name", "<lambda>")


def test_phase_step_only_sizes_uniform_steps():
    # the refinement level of the uniform node steps; Gauss panels span
    # grids.PANEL_PHASE, which no caller sets (SamplerConfig.phase_step is a
    # field, refined by criterion 12, not a parameter)
    found = sorted(f"{path.name}: {name}" for path in sorted(SRC.glob("*.py"))
                   for name in _phase_step_parameters(path))
    assert found == ["fastfield.py: band_plan", "grids.py: node_phase"], found
