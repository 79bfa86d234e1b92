import ast
import glob
import os
import subprocess
import sys

import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src", "bubblebem")
PERFBENCH = os.path.join(os.path.dirname(TESTS), "perfbench")
# module name -> path: the package modules but __init__, and every test file
FILES = {os.path.basename(path)[:-3]: path
         for folder in (SRC, TESTS)
         for path in sorted(glob.glob(os.path.join(folder, "*.py")))
         if not path.endswith("__init__.py")}

# imported but not called: perfbench's tracer test looks the name up in
# every namespace that holds it
KEPT = {("scattering", "assemble_single_layer")}


def _parse(path: str) -> ast.Module:
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read())


def unused_imports(module: str) -> list[str]:
    """Names a module imports and never reads."""
    tree = _parse(FILES[module])
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported
                  if name not in used and (module, name) not in KEPT)


def private_reads(module: str) -> list[str]:
    """Reads of another object's private attribute, ``x._name``: reads
    through ``self`` or ``cls`` and dunders are not counted."""
    tree = _parse(FILES[module])
    return sorted(
        f"{ast.unparse(node.value)}.{node.attr}" for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and node.attr.startswith("_") and not node.attr.startswith("__")
        and not (isinstance(node.value, ast.Name)
                 and node.value.id in ("self", "cls")))


@pytest.mark.parametrize("module", sorted(FILES))
def test_every_import_is_used(module):
    assert unused_imports(module) == []


@pytest.mark.parametrize("module", sorted(
    name for name, path in FILES.items() if path.startswith(SRC)))
def test_no_private_attribute_reads(module):
    # a module reads another's private names by importing them, so the
    # import check sees them, and no object's private state from outside
    assert private_reads(module) == []


def test_cli_does_not_load_scipy_optimize(tmp_path):
    # the peak fit is numpy's: a sweep that fits a peak loads no
    # scipy.optimize, so no later sweep in the process pays for it
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(SRC), *filter(None, [env.get("PYTHONPATH")])])
    code = (
        "import sys, bubblebem.cli as cli\n"
        "print('scipy.optimize' in sys.modules)\n"
        "code = cli.main(['sweep', '--icosphere', '1,1', '--eps', '0.05',\n"
        "                 '--omega-grid', '1.5:1.9:0.05', '--method',\n"
        f"                 'dilated', '--out', {str(tmp_path)!r}])\n"
        "print(code, 'scipy.optimize' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[0] == "False"
    assert out.stdout.splitlines()[-1] == "0 False"
    assert (tmp_path / "peak.csv").exists()


def optimize_imports(source: str) -> list[str]:
    """The imports of scipy.optimize, or of a name from it, anywhere in
    ``source``: at top level or inside a function."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names
                      if alias.name.split(".")[:2] == ["scipy", "optimize"]]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
            if any(name.split(".")[:2] == ["scipy", "optimize"]
                   for name in names):
                found.append(ast.unparse(node))
    return found


def test_no_module_imports_scipy_optimize():
    # the rule sees an import inside a function as well as at the top
    assert optimize_imports("import scipy.optimize as so\n"
                            "def f():\n"
                            "    from scipy.optimize import curve_fit\n"
                            "    from scipy import linalg, optimize\n") == [
        "scipy.optimize", "from scipy.optimize import curve_fit",
        "from scipy import linalg, optimize"]
    paths = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert os.path.join(SRC, "__init__.py") in paths
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            assert optimize_imports(fh.read()) == [], path


def thread_starts(module: str) -> tuple[bool, list[str]]:
    """Whether a module imports ``threading``, and the top-level function
    around each ``threading.Thread(...)`` it constructs."""
    tree = _parse(FILES[module])
    imports = any(
        isinstance(node, ast.Import)
        and any(alias.name == "threading" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "threading"
        for node in ast.walk(tree))
    owners = []
    for top in tree.body:
        owner = top.name if isinstance(top, ast.FunctionDef) else "<module>"
        owners.extend(
            owner for node in ast.walk(top) if isinstance(node, ast.Call)
            and ast.unparse(node.func) in ("threading.Thread", "Thread"))
    return imports, owners


def test_threads_start_in_one_place():
    # the worker pool is the one place threads start: no second pool can
    # grow beside it
    found = {module: thread_starts(module) for module, path in FILES.items()
             if path.startswith(SRC)}
    assert {m for m, (imports, _) in found.items() if imports} == {
        "layer_ops"}
    assert {m: owners for m, (_, owners) in found.items() if owners} == {
        "layer_ops": ["_side_by_side"]}


def _reads(tree: ast.AST) -> set[str]:
    """Names read under ``tree`` as an ``ast.Name`` or an ``ast.Attribute``."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}


def unreferenced_public_names() -> list[str]:
    """Top-level public functions and classes of the package that neither
    package code outside their own definition and ``__init__`` nor a
    ``perfbench`` file (its ``from bubblebem... import`` names and its
    attribute reads) references."""
    bench = set()
    for path in sorted(glob.glob(os.path.join(PERFBENCH, "*.py"))):
        tree = _parse(path)
        bench |= {node.attr for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)}
        bench |= {alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  and (node.module or "").startswith("bubblebem")
                  for alias in node.names}
    # every top-level statement of the package, with the names it reads
    tops = [(module, top, _reads(top)) for module, path in FILES.items()
            if path.startswith(SRC) for top in _parse(path).body]
    return sorted(
        f"{module}.{top.name}" for module, top, _ in tops
        if isinstance(top, (ast.FunctionDef, ast.ClassDef))
        and not top.name.startswith("_") and top.name not in bench
        and not any(top.name in names for _, other, names in tops
                    if other is not top))


def test_every_public_name_has_a_caller():
    # the library keeps only what its callers run: a helper only tests
    # call lives in tests/reference.py
    assert unreferenced_public_names() == []
