import ast
from pathlib import Path

import pytest

from wordrep import families
from wordrep.orientation import find_semi_transitive
from wordrep.outcome import (
    BUDGET_EXHAUSTED,
    REFUTED,
    WITNESS,
    _Budget,
    _OutOfBudget,
    run_search,
)


def test_tick_raises_once_the_budget_is_spent():
    budget = _Budget(max_nodes=2)
    assert budget.tick() and budget.tick()
    with pytest.raises(_OutOfBudget):
        budget.tick()
    assert budget.nodes == 3
    unbounded = _Budget()
    assert all(unbounded.tick() for _ in range(1000))


def test_zero_limits_stop_at_the_first_node():
    for limits in ({"max_nodes": 0}, {"max_seconds": 0}):
        budget = _Budget(**limits)
        with pytest.raises(_OutOfBudget):
            budget.tick()
        assert budget.nodes == 1
        out = find_semi_transitive(families.petersen(), **limits)
        assert (out.status, out.nodes_expanded) == (BUDGET_EXHAUSTED, 1)


def test_negative_limits_are_rejected():
    nan = float("nan")  # compares false with 0, so it once passed as no limit at all
    for limits in ({"max_nodes": -1}, {"max_seconds": -0.5}, {"max_nodes": nan}, {"max_seconds": nan}):
        with pytest.raises(ValueError):
            _Budget(**limits)
        with pytest.raises(ValueError):
            find_semi_transitive(families.petersen(), **limits)


def _kernel(budget, ticks, result):
    def kernel():
        for _ in range(ticks):
            budget.tick()
        return result

    return kernel


def accept(w):
    return w == "w"


def test_run_search_statuses_and_node_shares():
    budget = _Budget(max_nodes=5)
    out = run_search(_kernel(budget, 2, "w"), budget, accept, {"route": "test"})
    assert (out.status, out.witness, out.nodes_expanded) == (WITNESS, "w", 2)
    assert out.detail == {"route": "test"}
    # a search that shares the budget counts only the nodes it spent
    out = run_search(_kernel(budget, 2, None), budget, accept)
    assert (out.status, out.witness, out.nodes_expanded, out.detail) == (REFUTED, None, 2, {})
    # the sixth tick is past max_nodes=5
    out = run_search(_kernel(budget, 5, "w"), budget, accept)
    assert (out.status, out.witness, out.nodes_expanded) == (BUDGET_EXHAUSTED, None, 2)
    assert not out.conclusive


def test_run_search_rejects_a_witness_that_fails_verify():
    budget = _Budget()
    with pytest.raises(AssertionError):
        run_search(_kernel(budget, 1, "forged"), budget, accept)


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements, so a check in the library must
    # raise on its own
    src = Path(__file__).resolve().parent.parent / "src" / "wordrep"
    files = sorted(src.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


# Every function in the library that calls itself directly, with what bounds
# its depth: none does.  Every search keeps its own stack instead, and so do
# `contains_pattern` and `automorphisms`.  The scan sees a call by the
# function's own name, or as `self.name` / `cls.name`; mutual recursion and
# a call through an alias escape it.
RECURSIVE = set()


def _self_calls(tree, module):
    """Qualified names of the functions in `tree` whose bodies call them by
    name, or as `self.name` / `cls.name` in a class."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name, inner = child.name, scope + [child.name]
                for call in ast.walk(child):
                    if not isinstance(call, ast.Call):
                        continue
                    f = call.func
                    if (isinstance(f, ast.Name) and f.id == name) or (
                        isinstance(f, ast.Attribute)
                        and f.attr == name
                        and isinstance(f.value, ast.Name)
                        and f.value.id in ("self", "cls")
                    ):
                        found.append(".".join([module] + inner))
                        break
                visit(child, inner)
            elif isinstance(child, ast.ClassDef):
                visit(child, scope + [child.name])
            else:
                visit(child, scope)

    visit(tree, [])
    return found


def test_the_library_recurses_only_where_pinned():
    src = Path(__file__).resolve().parent.parent / "src" / "wordrep"
    found = {
        name
        for path in sorted(src.glob("*.py"))
        for name in _self_calls(ast.parse(path.read_text(), str(path)), path.stem)
    }
    new, gone = sorted(found - RECURSIVE), sorted(RECURSIVE - found)
    assert not new, f"new recursion, bound its depth here or keep a stack: {new}"
    assert not gone, f"no longer recursive, unpin: {gone}"
    # the scan sees a recursion: a function and a method that call themselves
    probe = ast.parse("def f(n):\n    return f(n - 1)\nclass C:\n    def g(self):\n        self.g()\n")
    assert _self_calls(probe, "m") == ["m.f", "m.C.g"]


def _ticking_methods(tree, module):
    """Qualified names of the methods of classes in `tree` that call
    `.tick()`, nested functions included."""
    return [
        f"{module}.{cls.name}.{method.name}"
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for method in cls.body
        if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
        if any(
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr == "tick"
            for call in ast.walk(method)
        )
    ]


def test_every_budgeted_search_is_a_function():
    # a search keeps its state in the locals of one function, not on an
    # object whose methods tick the budget
    src = Path(__file__).resolve().parent.parent / "src" / "wordrep"
    found = [
        name
        for path in sorted(src.glob("*.py"))
        for name in _ticking_methods(ast.parse(path.read_text(), str(path)), path.stem)
    ]
    assert found == [], f"a method ticks the budget, make its search a function: {found}"
    # the scan sees a method that ticks, and no function that does
    probe = ast.parse(
        "def f(budget):\n    budget.tick()\n"
        "class C:\n    def g(self):\n        self.budget.tick()\n"
    )
    assert _ticking_methods(probe, "m") == ["m.C.g"]
