"""Witness-or-refutation results for the bounded combinatorial searches."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

WITNESS = "witness"
REFUTED = "refuted"
BUDGET_EXHAUSTED = "budget_exhausted"


class BudgetExhausted(RuntimeError):
    """A search ran out of its node or time budget before reaching a verdict."""


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a bounded search: a verified witness, an exhaustive
    refutation, or an inconclusive budget exhaustion (never counted as a
    refutation)."""

    status: str
    witness: Any = None
    nodes_expanded: int = 0
    elapsed: float = 0.0
    detail: dict = field(default_factory=dict)

    @property
    def found(self):
        return self.status == WITNESS

    @property
    def refuted(self):
        return self.status == REFUTED

    @property
    def conclusive(self):
        return self.status != BUDGET_EXHAUSTED

    def require_conclusive(self):
        if not self.conclusive:
            raise BudgetExhausted(
                f"search stopped after {self.nodes_expanded} nodes without a verdict"
            )
        return self


class _OutOfBudget(Exception):
    """Raised by `_Budget.tick` once the budget is spent; `run_search`
    catches it."""


def _check_limits(max_nodes=None, max_seconds=None):
    """Raise ValueError unless each limit is None or non-negative (not NaN)."""
    for name, limit in (("max_nodes", max_nodes), ("max_seconds", max_seconds)):
        if limit is not None and not limit >= 0:
            raise ValueError(f"{name} must be non-negative, not {limit}")


class _Budget:
    """Node/time budget shared by the backtracking searches.

    A limit of None is no limit; a limit of 0 stops the search at its first
    node.  The clock is read at the first node and every 256th after it.
    """

    __slots__ = ("max_nodes", "deadline", "nodes")

    def __init__(self, max_nodes=None, max_seconds=None):
        _check_limits(max_nodes, max_seconds)
        self.max_nodes = max_nodes
        self.deadline = None if max_seconds is None else time.monotonic() + max_seconds
        self.nodes = 0

    def tick(self):
        """Count one node; raise `_OutOfBudget` once the budget is spent,
        else return True."""
        self.nodes += 1
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise _OutOfBudget
        if self.deadline is not None and self.nodes % 256 == 1:
            if time.monotonic() >= self.deadline:
                raise _OutOfBudget
        return True


def run_search(kernel, budget, verify, detail=None):
    """Run `kernel()`, which returns a witness or, after its whole tree, None,
    and which `budget.tick()` stops when the budget is spent.

    `nodes_expanded` counts this call's share of a budget that several
    searches may spend, and `elapsed` covers the kernel and `verify`.  A
    witness that `verify` rejects is a defect of the search, so it raises
    `AssertionError` rather than being returned.
    """
    start = time.monotonic()
    spent = budget.nodes
    witness = None
    try:
        witness = kernel()
        status = REFUTED if witness is None else WITNESS
    except _OutOfBudget:
        status = BUDGET_EXHAUSTED
    if witness is not None and not verify(witness):
        raise AssertionError(f"search returned a witness that fails its check: {witness!r}")
    elapsed = time.monotonic() - start
    return SearchOutcome(status, witness, budget.nodes - spent, elapsed, detail or {})
