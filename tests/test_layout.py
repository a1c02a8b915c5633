"""What ``src/levylab`` may hold: every module-level function and class,
and every method of such a class, has a caller, every parameter default
is overridden by some call, and importing the package loads no heavy
scipy subpackage.

A definition counts as used when its name appears in ``src/levylab`` or in
``perfbench/`` outside its own definition and outside ``__init__.py``
(whose exports are not uses).  A name appears as a name, an attribute, or
a dotted part of a string (perfbench's tracer names its targets in
strings).  Dunder methods and methods that override a base class's are
called by the language or the base class, so they need no caller.  Code
that only tests call belongs in ``tests/oracles.py``.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "levylab"

#: kept without a caller in src/ or perfbench/, each for a stated reason
ALLOWED = {
    "r_p": "the limiting E|R|^p, to be written beside the finite-size columns",
    "resolvent_upper_bound": "the paper's resolvent control of Q_I, to be "
                             "written by the batch runs",
    "eval_G_error_estimate": "to give solve-fixed-point its quadrature error",
    "empirical_gamma": "the order parameter from resolvent samples, named by "
                       "acceptance criterion 05",
}


def _names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names, attributes and dotted string parts in tree, outside skip."""
    found: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.update(node.value.split("."))
        stack.extend(ast.iter_child_nodes(node))
    return found


def _modules():
    return {path: ast.parse(path.read_text())
            for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}


def _definitions(path: Path, tree: ast.Module):
    """``(node, label)`` for each module-level function and class, and
    each method of such a class that is neither a dunder nor an override
    of a base class's method."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        yield node, node.name
        if isinstance(node, ast.ClassDef):
            bases = getattr(importlib.import_module(f"levylab.{path.stem}"),
                            node.name).__mro__[1:]
            for method in node.body:
                if (isinstance(method, ast.FunctionDef) and not method.name.startswith("__")
                        and not any(hasattr(base, method.name) for base in bases)):
                    yield method, f"{node.name}.{method.name}"


def test_every_definition_has_a_caller_outside_tests():
    modules = _modules()
    bench = set().union(*(_names(ast.parse(p.read_text()))
                          for p in sorted((ROOT / "perfbench").glob("*.py"))))
    unused = []
    for path, tree in modules.items():
        for node, label in _definitions(path, tree):
            used = bench | set().union(*(_names(other, skip=node)
                                         for other in modules.values()))
            if node.name not in used and node.name not in ALLOWED:
                unused.append(f"{path.name}:{node.lineno} {label}")
    assert not unused, "defined in src/levylab but only tests use: " + ", ".join(unused)


def test_allowlist_names_live_definitions():
    defined = {node.name for tree in _modules().values() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert set(ALLOWED) <= defined


def _defaulted_parameters(tree: ast.AST):
    """``(function, parameter, position)`` for every parameter with a
    default; position counts from a method's first argument after self
    or cls, and is None for a keyword-only parameter."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        shift = int(bool(positional) and positional[0].arg in ("self", "cls"))
        first = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first:], first):
            yield node.name, arg.arg, i - shift
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield node.name, arg.arg, None


def _call_arguments(tree: ast.AST):
    """``(callee name, positional count, keyword names)`` per call; a
    ``*args`` passes every position and a ``**kwargs`` every keyword
    (as the name None)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            count = (float("inf") if any(isinstance(a, ast.Starred) for a in node.args)
                     else len(node.args))
            yield name, count, {k.arg for k in node.keywords}


def test_every_default_is_overridden_by_a_call():
    # a default that no call in src/, perfbench/ or tests/ overrides is a
    # constant in disguise: one more value to document and to test
    callers = [ROOT / "src", ROOT / "perfbench", ROOT / "tests"]
    calls = {}
    for path in sorted(p for d in callers for p in d.rglob("*.py")):
        for name, count, keywords in _call_arguments(ast.parse(path.read_text())):
            calls.setdefault(name, []).append((count, keywords))
    never = [f"{path.name} {func}({param})"
             for path, tree in _modules().items()
             for func, param, pos in _defaulted_parameters(tree)
             if not any(param in kw or None in kw or (pos is not None and count > pos)
                        for count, kw in calls.get(func, []))]
    assert not never, "defaults that no call overrides: " + ", ".join(never)


def _loaded_after(code: str, modules: tuple[str, ...]) -> list[str]:
    """Those of ``modules`` in sys.modules after a fresh interpreter runs code."""
    probe = f"{code}\nprint(' '.join(m for m in {modules!r} if m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", "import sys\n" + probe], capture_output=True,
                         text=True, check=True, cwd=ROOT,
                         env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}, timeout=120)
    return out.stdout.split()


def test_cli_import_loads_no_scipy_subpackage():
    # scipy.special alone cost about 110 ms of every cold start, and
    # scipy.interpolate (with scipy.optimize behind it) and scipy.integrate
    # about 0.3 s; the package needs scipy's top level only
    heavy = ("scipy.special", "scipy.linalg", "scipy.sparse", "scipy.interpolate",
             "scipy.integrate", "scipy.optimize")
    assert _loaded_after("import levylab.cli", heavy) == []


def test_solve_and_determinant_load_no_scipy_special_or_linalg():
    # a lazy import would only move the cost into the first round: the
    # scalar solve and a Fredholm determinant build Gauss rules and Gamma
    # values, and must still find neither module loaded
    code = ("import levylab.cli\n"
            "from levylab.fixed_point import solve_tilde_gamma\n"
            "from levylab.kernel_spectrum import assemble_H, fredholm_det\n"
            "solve_tilde_gamma(0.2j, 1.0)\n"
            "fredholm_det(assemble_H(1.5, 32), 2, refine=False)")
    assert _loaded_after(code, ("scipy.special", "scipy.linalg")) == []
