"""``src/citevec`` holds only what runs: every module-level function and
every method has a caller in the package, or is an entry point listed in
``ENTRY_POINTS`` with where it is reached from.

A function counts as called when its name appears in the package's code,
outside its own body, as a name or an attribute.  Matching is by name
alone, so a method that shares its name with another callable (``copy``,
``values``) counts as called by the other's calls.  Dunder methods are
called by Python itself and are not checked.
"""

import ast
from collections import Counter
from pathlib import Path

import citevec

SRC = Path(citevec.__file__).parent

# functions nothing in the package calls: each is reached from outside it
ENTRY_POINTS = {
    "tokenize_text": "in citevec.__all__",
    "rank_i4i": "in citevec.__all__",
    "ablation_report": "in citevec.__all__",
    "format_ablation": "in citevec.__all__",
    "EmbeddingConfig.with_updates": "demos/03 derives its variants' configs with it",
    "ModelMatrices.fingerprint": "bench/workloads.py compares rounds and round trips by it",
    "Token.is_cite": "bench/workloads.py rebuilds corpus text with it",
    "HyperDocument.cite_targets": "demos/01 prints a document's citations with it",
    "NegativeSampler.sample": "bench/tracing.py wraps it; bench/selftest.py checks the hook",
}


def names(node) -> Counter:
    """How often each name and attribute occurs in ``node``."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))


def uncalled() -> set[str]:
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))]
    used = sum((names(tree) for tree in trees), Counter())
    found = set()
    for tree in trees:
        defs = [("", node) for node in tree.body]
        defs += [(f"{node.name}.", member) for node in tree.body
                 if isinstance(node, ast.ClassDef) for member in node.body]
        for prefix, node in defs:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            dunder = node.name.startswith("__") and node.name.endswith("__")
            if not dunder and used[node.name] == names(node)[node.name]:
                found.add(prefix + node.name)
    return found


class TestNoDeadCode:
    def test_every_function_has_a_caller_or_is_an_entry_point(self):
        found = uncalled()
        assert found - ENTRY_POINTS.keys() == set(), "no caller in src/citevec"
        assert ENTRY_POINTS.keys() - found == set(), "listed as entry points but called"

    def test_entry_points_said_to_be_exported_are(self):
        exported = {name for name, reason in ENTRY_POINTS.items() if reason == "in citevec.__all__"}
        assert exported <= set(citevec.__all__)
