"""Every public function and class of the library has a reason to exist.

Each public name defined in a favlab module must be used by the library
itself (a code reference in src/favlab outside its own definition), be
documented as API (a backticked mention in the README "Library tour"), or
be measured by the benchmark (a label in BENCHMARK.json's per_layer).
Methods are left out: their names are too common to search for.
"""

import ast
import importlib
import inspect
import io
import json
import pkgutil
import re
import tokenize
from pathlib import Path

import pytest

import favlab

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(favlab.__file__).resolve().parent


def public_names(module):
    """(name, object) of the public functions and classes defined in module,
    found the way perfbench/tracer.py walks a layer."""
    return [(name, obj) for name, obj in sorted(vars(module).items())
            if not name.startswith("_")
            and (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == module.__name__]


MODULES = [importlib.import_module(f"favlab.{info.name}")
           for info in pkgutil.iter_modules(favlab.__path__)]
SURFACE = [(module, name, obj) for module in MODULES
           for name, obj in public_names(module)]


def code_names(path, skip=range(0)):
    """The NAME tokens of a source file (comments and strings excluded),
    leaving out those on the 1-based lines in skip."""
    tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
    return {tok.string for tok in tokens
            if tok.type == tokenize.NAME and tok.start[0] not in skip}


def referenced_in_library(module, name, obj):
    lines, first = inspect.getsourcelines(obj)
    own = Path(inspect.getsourcefile(obj)).resolve()
    for path in sorted(SRC.glob("*.py")):
        skip = range(first, first + len(lines)) if path == own else range(0)
        if name in code_names(path, skip):
            return True
    return False


def library_tour_mentions():
    """Names written in backticks in the README "Library tour" section, by
    the span's text before any "(" and after its last "."."""
    text = (ROOT / "README.md").read_text()
    tour = text.split("## Library tour", 1)[1].split("\n## ", 1)[0]
    return {span.split("(", 1)[0].strip().rsplit(".", 1)[-1]
            for span in re.findall(r"`([^`]+)`", tour)}


def benchmark_labels():
    """"layer.name" prefixes of the benchmark's per-layer metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {".".join(metric["name"].split(".")[:2])
            for metric in spec["per_layer"]}


TOUR = library_tour_mentions()
LABELS = benchmark_labels()


def test_surface_is_walked():
    names = {f"{m.__name__}.{name}" for m, name, _ in SURFACE}
    assert {"favlab.geometry.hull_arcs_of_squares", "favlab.cli.main",
            "favlab.visibility.LineFamily"} <= names


@pytest.mark.parametrize("module, name, obj", SURFACE,
                         ids=[f"{m.__name__.rsplit('.', 1)[1]}.{name}"
                              for m, name, _ in SURFACE])
def test_public_name_is_used_documented_or_measured(module, name, obj):
    layer = module.__name__.rsplit(".", 1)[1].lstrip("_")
    assert (name in TOUR or f"{layer}.{name}" in LABELS
            or referenced_in_library(module, name, obj)), (
        f"{module.__name__}.{name} is not referenced in src/favlab, not in "
        "the README library tour and not in BENCHMARK.json's per_layer")


def private_definitions(path):
    """(name, first line, last line) of the module-level functions, classes
    and constants of a source file whose names start with one underscore."""
    found = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        first = min([node.lineno]
                    + [d.lineno for d in getattr(node, "decorator_list", [])])
        found += [(name, first, node.end_lineno) for name in names
                  if name.startswith("_") and not name.startswith("__")]
    return found


PRIVATE = [(path, name, first, last) for path in sorted(SRC.glob("*.py"))
           for name, first, last in private_definitions(path)]


def test_private_definitions_are_walked():
    names = {f"{path.stem}.{name}" for path, name, _, _ in PRIVATE}
    assert {"geometry._arc_union", "_kernels._merge_sorted",
            "_kernels._PASS", "visibility._ARC_BLOCK"} <= names


@pytest.mark.parametrize("path, name, first, last", PRIVATE,
                         ids=[f"{path.stem}.{name}"
                              for path, name, _, _ in PRIVATE])
def test_private_name_is_used_in_library(path, name, first, last):
    """A private helper or constant that the library no longer uses is
    dead code, whatever tests still reach it."""
    assert any(name in code_names(other, range(first, last + 1)
                                  if other == path else range(0))
               for other in sorted(SRC.glob("*.py"))), (
        f"{path.stem}.{name} is not referenced in src/favlab outside its "
        "own definition")
