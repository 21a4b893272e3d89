"""Automatic region-of-interest selection.

The paper selects, per benchmark, "the biggest region for which the
optimizer suggests a transformation ... by hand".  This module
automates the choice: rank candidate regions (function subtrees of the
dynamic call graph) by the dynamic operations they cover *and* the
fraction of those operations the suggested transformations can improve
(parallelize, SIMDize, or tile), then pick the best.

The result is advisory -- exactly like the paper's flame-graph-guided
workflow -- and ties into :func:`repro.feedback.compute_region_metrics`
via the returned function set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from ..schedule.deps import loop_path
from .metrics import region_closure

if TYPE_CHECKING:  # repro.pipeline imports repro.feedback
    from ..pipeline import AnalysisResult


@dataclass
class RegionCandidate:
    """One candidate region with its ranking ingredients."""

    root_func: str
    funcs: Tuple[str, ...]
    ops: int
    transformable_ops: int
    score: float

    @property
    def label(self) -> str:
        return self.root_func


def _transformable_ops(result: AnalysisResult, funcs: Set[str]) -> int:
    """Dynamic ops in statements whose nest has a suggested plan with
    at least one transformation step."""
    planned_paths = {
        p.leaf.path for p in result.plans if p.steps
    }
    total = 0
    for fs in result.folded.statements.values():
        if fs.stmt.func not in funcs:
            continue
        path = loop_path(fs.stmt)
        if not path:
            continue
        if any(path[: len(pp)] == pp or pp[: len(path)] == path
               for pp in planned_paths):
            total += fs.count
    return total


def suggest_regions(
    result: AnalysisResult, top: int = 5
) -> List[RegionCandidate]:
    """Ranked region candidates (largest transformable first)."""
    cg = result.control.callgraph
    candidates: List[RegionCandidate] = []
    ops_by_func: Dict[str, int] = {}
    for fs in result.folded.statements.values():
        ops_by_func[fs.stmt.func] = ops_by_func.get(fs.stmt.func, 0) + fs.count
    total_ops = sum(ops_by_func.values()) or 1

    for root in sorted(cg.nodes):
        closure = region_closure(cg, [root])
        ops = sum(ops_by_func.get(f, 0) for f in closure)
        if ops == 0:
            continue
        t_ops = _transformable_ops(result, closure)
        # score: transformable coverage, breaking ties toward smaller
        # regions (prefer the kernel over main when equal)
        score = t_ops / total_ops - 0.001 * len(closure)
        candidates.append(
            RegionCandidate(
                root_func=root,
                funcs=tuple(sorted(closure)),
                ops=ops,
                transformable_ops=t_ops,
                score=score,
            )
        )
    candidates.sort(key=lambda c: (-c.score, len(c.funcs), c.root_func))
    return candidates[:top]


def suggest_region(result: AnalysisResult) -> Optional[RegionCandidate]:
    """The single best candidate (None for an empty profile)."""
    cands = suggest_regions(result, top=1)
    return cands[0] if cands else None
