"""src/garlands holds no route that only tests call.

Every function and method defined under src/garlands must be referenced by
name somewhere else in src/garlands, or be on the list below with the reason
it stays.  A function is referenced by a call, an attribute or an import; a
method only by an attribute or an import, since a bare name that matches it
is a local variable or another function.  A reference from inside its own
body, such as recursion, does not count, and neither does the package's
__init__.py: a public name that nothing else calls is no caller's route.
Every name on the list must still be such a stray.  Test-only routes belong
in tests/oracles.py.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "garlands"
TRACER_PATH = ROOT / "perfbench" / "tracer.py"

# name -> why it stays with no caller in src/garlands
ALLOWED = {
    "_reset_lattices": "tests empty the lattice memo so that counted computations start cold",
    "count_power_in_base": "a public paper check: acceptance criterion c08 counts x^e landing in the base field",
    "primitive_norm_one_search": "a public paper check: acceptance criterion c09 searches for a primitive norm-one unit",
    # the normality graph is held in member positions, and the case document reads those; its id views stay
    # for callers that key on member ids, as the graph's fields did
    "edges": "NormalityGraph's id view of its edges, (smaller id, larger id) sorted",
    "garlands": "public API: the garlands as id lists, read off the graph's component labels",
}


def _tracer_names() -> set[str]:
    """Functions and methods the benchmark's tracer wraps by name: renaming or moving them breaks it."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return {attr for _, attr, _ in mod._FUNCTIONS.values()} | {attr for _, _, attr, _ in mod._METHODS.values()}


def _unreferenced(src: Path = SRC) -> list[str]:
    """module:name of every def whose name the package mentions nowhere outside that def."""
    defs, refs = [], []  # defs: (module, node, is a method); refs: (name, is a bare name, ids of enclosing defs)
    for path in sorted(src.glob("*.py")):
        counts = path.name != "__init__.py"

        def visit(node, enclosing, in_class):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append((path.stem, node, in_class))
                enclosing = enclosing | {id(node)}
            if counts and isinstance(node, ast.Name):
                refs.append((node.id, True, enclosing))
            elif counts and isinstance(node, (ast.Attribute, ast.alias)):
                refs.append((node.attr if isinstance(node, ast.Attribute) else node.name, False, enclosing))
            for child in ast.iter_child_nodes(node):
                visit(child, enclosing, isinstance(node, ast.ClassDef))

        visit(ast.parse(path.read_text()), frozenset(), False)
    return [
        f"{module}:{node.name}"
        for module, node, method in defs
        if not any(
            name == node.name and not (method and bare) and id(node) not in enclosing for name, bare, enclosing in refs
        )
    ]


def test_every_src_route_has_a_caller_or_a_reason():
    pinned = _tracer_names() | set(ALLOWED)
    strays = [
        entry
        for entry in _unreferenced()
        if (name := entry.split(":")[1]) not in pinned and not (name.startswith("__") and name.endswith("__"))
    ]
    assert strays == [], "move test-only routes to tests/oracles.py, or list the reason they stay"


def test_every_allowed_name_is_still_a_stray():
    strays = {entry.split(":")[1] for entry in _unreferenced()}
    assert sorted(set(ALLOWED) - strays) == [], "drop allowlist entries that a caller in src/garlands now names"


def test_the_check_sees_a_stray_route(tmp_path):
    # a def nothing calls is reported; one that only calls itself is too; so
    # is a method whose name only a local variable shares, and a function
    # that only __init__.py imports
    (tmp_path / "mod.py").write_text(
        "def used():\n    return 1\n\n\ndef caller():\n    return used() + measure(Box())\n\n\n"
        "def stray(n):\n    return stray(n - 1) if n else 0\n\n\n"
        "class Box:\n    def size(self):\n        return 1\n\n    def shown(self):\n        return 2\n\n\n"
        "def measure(box):\n    size = box.shown()\n    return size\n\n\n"
        "def exported():\n    return 3\n"
    )
    (tmp_path / "__init__.py").write_text("from .mod import caller, exported\n")
    assert _unreferenced(tmp_path) == ["mod:caller", "mod:stray", "mod:size", "mod:exported"]
