"""Every function and method defined in scx is named somewhere in the
project's sources, tests or benchmark, other than by its own definition.

A name counts when it appears as a name, an attribute or a word of a string
(the benchmark's tracer names the functions it wraps in strings); imports and
docstrings do not count.  Dunder methods and the names in `scx.__all__` are
exempt.
"""

import ast
import re
from pathlib import Path

import scx

ROOT = Path(__file__).resolve().parent.parent
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _trees(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(), str(path))


def _docstrings(tree):
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                out.add(id(first.value))
    return out


def _names_used():
    used = set()
    for _, tree in _trees("src", "tests", "bench"):
        docs = _docstrings(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in docs):
                used.update(_WORD.findall(node.value))
    return used


def test_no_function_is_unused():
    used = _names_used() | set(scx.__all__)
    unused = []
    for path, tree in _trees("src/scx"):
        for node in ast.walk(tree):
            if isinstance(node, _DEFS) and node.name not in used:
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unused, "functions named nowhere: " + ", ".join(unused)


def test_every_tracer_target_is_defined_where_the_tracer_looks():
    # bench/tracer.py wraps functions by name: a module global, or a method
    # in its class's own __dict__; a missing one makes `--trace 1` fail
    import importlib
    import importlib.util

    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = list(tracer.FRAMES) + list(tracer.COUNTS)
    targets += [("rings", f"RingElement.{op}") for op in tracer.RING_OPS]
    for layer, name in targets:
        owner = importlib.import_module(f"scx.{layer}")
        if "." in name:
            cls, attr = name.split(".")
            assert attr in vars(getattr(owner, cls)), f"{layer}.{name}"
        else:
            assert callable(getattr(owner, name, None)), f"{layer}.{name}"
