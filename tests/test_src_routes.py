"""src/garlands holds no route that only tests call.

Every function and method defined under src/garlands must be referenced by
name somewhere else in src/garlands (a call, an attribute, or an import such
as the package's public names), or be on the list below with the reason it
stays.  A reference from inside its own body, such as recursion, does not
count.  Test-only routes belong in tests/oracles.py.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "garlands"
TRACER_PATH = ROOT / "perfbench" / "tracer.py"

# name -> why it stays with no caller in src/garlands
ALLOWED = {
    "stable_json": "perfbench/worker.py imports it to compare served and computed reports",
    "_reset_lattices": "tests empty the lattice memo so that counted computations start cold",
}


def _tracer_names() -> set[str]:
    """Functions and methods the benchmark's tracer wraps by name: renaming or moving them breaks it."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return {attr for _, attr, _ in mod._FUNCTIONS.values()} | {attr for _, _, attr, _ in mod._METHODS.values()}


def _unreferenced(src: Path = SRC) -> list[str]:
    """module:name of every def whose name the package mentions nowhere outside that def."""
    defs, refs = [], []  # refs: (name, ids of the defs enclosing the reference)
    for path in sorted(src.glob("*.py")):

        def visit(node, enclosing):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append((path.stem, node))
                enclosing = enclosing | {id(node)}
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, ast.alias):
                name = node.name
            if name:
                refs.append((name, enclosing))
            for child in ast.iter_child_nodes(node):
                visit(child, enclosing)

        visit(ast.parse(path.read_text()), frozenset())
    return [
        f"{module}:{node.name}"
        for module, node in defs
        if not any(name == node.name and id(node) not in enclosing for name, enclosing in refs)
    ]


def test_every_src_route_has_a_caller_or_a_reason():
    pinned = _tracer_names() | set(ALLOWED)
    strays = [
        entry
        for entry in _unreferenced()
        if (name := entry.split(":")[1]) not in pinned and not (name.startswith("__") and name.endswith("__"))
    ]
    assert strays == [], "move test-only routes to tests/oracles.py, or list the reason they stay"


def test_the_check_sees_a_stray_route(tmp_path):
    # a def nothing calls is reported; one that only calls itself is too
    (tmp_path / "mod.py").write_text(
        "def used():\n    return 1\n\n\ndef caller():\n    return used()\n\n\n"
        "def stray(n):\n    return stray(n - 1) if n else 0\n"
    )
    assert _unreferenced(tmp_path) == ["mod:caller", "mod:stray"]
