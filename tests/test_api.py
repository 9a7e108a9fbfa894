"""The public surface: fourovern.__all__, the functions the benchmark's
tracer wraps, and the library example in the docs."""

import ast
import importlib
import re
from pathlib import Path

import fourovern

ROOT = Path(__file__).resolve().parent.parent

PUBLIC = {
    "INT128_MAX", "INT128_MIN", "CheckedOverflowError", "ConstructionError",
    "DEFAULT_K_BOUND", "Fraction", "Method", "OracleBudgetError",
    "Status", "SweepRecord", "Th3Params", "TwoTermSolution",
    "UnitTriple", "checked_add", "checked_mul", "classify_hard", "divisors", "emit_report", "enumerate_three_term", "enumerate_two_term",
    "factorize", "first_solution", "is_prime", "make_triple",
    "solve", "solve_two_term", "sweep_range", "theorem2_dispatch",
    "theorem3_search", "theorem4_search", "unit_sum",
}


def library_example(doc):
    """The python block under the "## Library" heading of doc."""
    text = (ROOT / doc).read_text(encoding="utf-8")
    return text.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]


def test_all_is_the_public_set():
    assert len(fourovern.__all__) == len(PUBLIC) == 31
    assert set(fourovern.__all__) == PUBLIC
    for name in fourovern.__all__:
        assert hasattr(fourovern, name), name


def test_traced_labels_resolve():
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    traced = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]
    )
    assert len(traced) == 14
    for label in traced:
        module_name, attr = label.split(".")
        fn = getattr(importlib.import_module(f"fourovern.{module_name}"), attr)
        assert callable(fn) and fn.__module__ == f"fourovern.{module_name}", label


def test_paper_imports_are_public():
    # the documented example is README's "## Library" block
    line = re.search(r"^from fourovern import (.+)$", library_example("README.md"), re.M)
    assert {n.strip() for n in line.group(1).split(",")} <= PUBLIC


def test_library_example_runs():
    code = library_example("README.md")
    assert "assert unit_sum(triple.values) == Fraction(4, 25)" in code
    exec(compile(code, "README.md", "exec"), {})
