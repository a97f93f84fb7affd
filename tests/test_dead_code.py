"""``src/citevec`` holds only what runs: every module-level function and
every method has a caller in the package, or is an entry point listed in
``ENTRY_POINTS`` with where it is reached from.

A module-level function counts as called when its name appears in the
package's code, outside its own body, as a name or an attribute.  A method
``C.m`` counts as called by an attribute ``x.m`` outside its own body
whose receiver resolves to ``C``: ``self`` inside ``C``, or a name in
``RECEIVERS`` (``vocab.n_docs`` and ``model.vocab.n_docs`` are
``Vocabulary``'s).  An attribute on any other receiver, or a bare name,
counts only for a method whose name is not shared: no other function,
class, field or method in the package bears it, and none of the
``SHARED_TYPES`` has it (``copy``, ``values``, ``take``).  Dunder methods
are called by Python itself and are not checked.
"""

import ast
from collections import Counter
from pathlib import Path

import numpy as np

import citevec

SRC = Path(citevec.__file__).parent

# functions nothing in the package calls: each is reached from outside it
ENTRY_POINTS = {
    "tokenize_text": "in citevec.__all__",
    "rank_i4i": "in citevec.__all__",
    "ablation_report": "in citevec.__all__",
    "format_ablation": "in citevec.__all__",
    "ModelMatrices.fingerprint": "bench/workloads.py compares rounds and round trips by it",
    "Token.is_cite": "bench/workloads.py rebuilds corpus text with it",
    "HyperDocument.cite_targets": "demos/01 prints a document's citations with it",
    "NegativeSampler.sample": "bench/tracing.py wraps it; bench/selftest.py checks the hook",
    "ModelMatrices.copy": "README's way to edit a model's matrices once it has been ranked",
}

# the class a receiver of this name holds, wherever it is used
RECEIVERS = {
    "vocab": "Vocabulary",
    "matrices": "ModelMatrices",
    "config": "EmbeddingConfig",
    "cur": "_Cursor",
    "examples": "_Examples",
}
# types whose methods the package calls on receivers the test cannot resolve
SHARED_TYPES = (np.ndarray, np.random.Generator, dict, list, set, str, bytes)


def references(tree, cls=None) -> Counter:
    """How often each name occurs in ``tree`` as a name (key ``(None,
    name)``) or an attribute (key ``(receiver class or None, name)``);
    ``self`` is the class ``cls``, or the class whose body it is in."""
    found = Counter()

    def walk(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name):
                found[None, child.id] += 1
            elif isinstance(child, ast.Attribute):
                receiver = child.value
                receiver = receiver.id if isinstance(receiver, ast.Name) else getattr(receiver, "attr", None)
                found[cls if receiver == "self" else RECEIVERS.get(receiver), child.attr] += 1
            walk(child, child.name if isinstance(child, ast.ClassDef) else cls)

    walk(tree, cls)
    return found


def definitions(trees):
    """``(class name or None, function node)`` for every function and method,
    and every name that a function, class, field or method bears."""
    defs, borne = [], Counter()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                borne[node.name] += 1
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append((None, node))
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        defs.append((node.name, member))
                        borne[member.name] += 1
                    elif isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                        borne[member.target.id] += 1
    return defs, borne


def calls(refs: Counter, cls: str | None, name: str, shared: bool) -> int:
    """The references that call function ``name`` (a method of ``cls``
    unless ``cls`` is None)."""
    if cls is None:
        return sum(n for (_, attr), n in refs.items() if attr == name)
    unresolved = refs[None, name] if not shared else 0
    return refs[cls, name] + unresolved


def uncalled() -> set[str]:
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))]
    used = sum((references(tree) for tree in trees), Counter())
    defs, borne = definitions(trees)
    found = set()
    for cls, node in defs:
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        shared = borne[node.name] > 1 or any(hasattr(t, node.name) for t in SHARED_TYPES)
        if calls(used, cls, node.name, shared) == calls(references(node, cls), cls, node.name, shared):
            found.add(f"{cls}.{node.name}" if cls else node.name)
    return found


class TestNoDeadCode:
    def test_every_function_has_a_caller_or_is_an_entry_point(self):
        found = uncalled()
        assert found - ENTRY_POINTS.keys() == set(), "no caller in src/citevec"
        assert ENTRY_POINTS.keys() - found == set(), "listed as entry points but called"

    def test_entry_points_said_to_be_exported_are(self):
        exported = {name for name, reason in ENTRY_POINTS.items() if reason == "in citevec.__all__"}
        assert exported <= set(citevec.__all__)
