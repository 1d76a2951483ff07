"""Witness-or-refutation results for the bounded combinatorial searches."""

from __future__ import annotations

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
    """Raised inside a search when `_Budget.tick` says the budget is spent."""


class _Budget:
    """Node/time budget shared by the backtracking searches."""

    __slots__ = ("max_nodes", "deadline", "nodes")

    def __init__(self, max_nodes=None, max_seconds=None):
        import time

        self.max_nodes = max_nodes
        self.deadline = time.monotonic() + max_seconds if max_seconds else None
        self.nodes = 0

    def tick(self):
        """Count one node; True while within budget."""
        self.nodes += 1
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            return False
        if self.deadline is not None and self.nodes % 256 == 0:
            import time

            if time.monotonic() > self.deadline:
                return False
        return True
