"""Two rules of the ranking code, each kept in one place.

The float32 filters' coverage rule: ``_SAFE_SQUARES`` and ``_MAX_DIM32``
are read only inside ``recommend._unit_rows``, which writes NaN into the
float32 copy for every row and query they do not cover.  Every other
function reads coverage off that NaN, so no second form of the rule, and
no mask made from it, can come back unseen.

The cited candidates' module boundary: how the cited rows are kept,
filtered and scored, for ``rank_i4o`` and ``evaluate`` alike, is read only
in ``recommend``.  ``evaluate`` asks ``recommend._cited_places`` for each
target's place, so no second module knows the panel's forms, the filters,
their proofs or the padding rule.

A name counts as read where it occurs in the package's code as a loaded
name, an attribute or an imported name; the module-level statement that
binds it is not a read.
"""

import ast
from pathlib import Path

import citevec

SRC = Path(citevec.__file__).parent
RULE = {"_SAFE_SQUARES", "_MAX_DIM32"}
# what only recommend reads: the cited panel, both filters, their proofs'
# functions, the exact steps and their constants
RANKING = {"_cited_panel", "_gather_panel", "_unit_rows", "_slack32", "_shortlist", "_exact_dots",
           "_score_block", "_near_places", "_places", "BLOCK_ROWS", "PAD_ROWS", "EVAL_BATCH",
           "_FILTER_ENTRIES"}


def reads(sources: dict[str, str], names) -> list[tuple[str, str]]:
    """``(where, name)`` for every read of a name in ``names`` in the
    modules ``sources`` (module name to its code): where is
    ``module.function``, ``module`` at module level, nested functions and
    classes joined by dots."""
    found = []

    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                name = child.id
            elif isinstance(child, ast.Attribute):
                name = child.attr
            elif isinstance(child, ast.alias):
                name = child.name
            else:
                name = None
            if name in names:
                found.append((where, name))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, f"{where}.{child.name}")
            else:
                walk(child, where)

    for module, code in sources.items():
        walk(ast.parse(code), module)
    return found


def package() -> dict[str, str]:
    return {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}


class TestOneCoverageRule:
    def test_only_unit_rows_reads_the_rule(self):
        found = reads(package(), RULE)
        assert {name for _, name in found} == RULE, "a constant of the rule is gone or renamed"
        assert {where for where, _ in found} == {"recommend._unit_rows"}

    def test_reads_elsewhere_are_found(self):
        """By import, by attribute, in a method and at module level; the
        statement that binds a name is not a read of it."""
        code = ("from .recommend import _MAX_DIM32\n"
                "_SAFE_SQUARES = (1.0, 2.0)\n"
                "LIMIT = _SAFE_SQUARES\n"
                "def f(m):\n    return m._SAFE_SQUARES\n"
                "class C:\n    def g(self):\n        return _MAX_DIM32\n")
        assert reads({"evaluation": code}, RULE) == [
            ("evaluation", "_MAX_DIM32"), ("evaluation", "_SAFE_SQUARES"),
            ("evaluation.f", "_SAFE_SQUARES"), ("evaluation.C.g", "_MAX_DIM32")]


class TestOneRankingModule:
    def test_only_recommend_reads_the_cited_panel_and_the_filters(self):
        found = reads(package(), RANKING)
        assert {name for _, name in found} == RANKING, "a name of the boundary is gone or renamed"
        assert {where.split(".")[0] for where, _ in found} == {"recommend"}

    def test_an_import_back_into_evaluation_is_found(self):
        """Any one of the names, imported into evaluation, is a read there."""
        for name in sorted(RANKING):
            code = f"from .recommend import CASES, {name}, rank_i4o\n"
            assert reads({"evaluation": code}, RANKING) == [("evaluation", name)]
