"""Distributed loop-free backpressure: threshold marking plus epoch reversals.

Nodes watch their own backlog; crossing the epoch's threshold marks the queue
overloaded for the rest of the epoch.  When the epoch timer expires, each
commodity's marked nodes split into components connected over live links,
and the links entering a component from an unmarked node are reversed only
when that component holds the commodity's source or no link of the
commodity's DAG leaves it (a dead end).  The reversed-toward nodes move below
all others in the DAG's node order, and all marks clear.  Only local queue
information drives the decisions; the engine executes nodes synchronously.

Why the gate holds a reversal back: for a node set X holding neither source
nor destination, reversing every link into X leaves no link entering X, so no
flow can cross X any more.  The orientation's max-flow therefore never rises,
and falls if a flow used to pass through X.  The overloaded set of the
analysis (the smallest min-cut source side) always holds the source, so a
source-free component is a queue excursion, not the set the oracle would
reverse toward.  A dead-end component is the one exception: with no way out,
no flow passes through it already, so the reversal leaves the max-flow as it
was and lets the packets stranded inside leave.  This is the classic
link-reversal rule of Gafni and Bertsekas: a node with no outgoing link
reverses.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .reversal import reverse_toward

if TYPE_CHECKING:  # sim imports this module to run it
    from .sim import SimState


@dataclass(frozen=True)
class LfbpParams:
    """Detection thresholds R_k and epoch lengths T_k (last value repeats)."""

    thresholds: tuple = (60,)
    periods: tuple[int, ...] = (50,)
    delta = None  # a class attribute, not a field: bench/workloads.py's traced replay reads it

    def __post_init__(self):
        if not self.thresholds or not self.periods:
            raise ValueError("thresholds and periods must be non-empty")
        if any(t <= 0 for t in self.thresholds):
            raise ValueError("thresholds must be positive")
        if any(p < 1 for p in self.periods):
            raise ValueError("periods must be at least one slot")

    def threshold(self, epoch: int):
        return self.thresholds[min(epoch, len(self.thresholds) - 1)]

    def period(self, epoch: int) -> int:
        return self.periods[min(epoch, len(self.periods) - 1)]


def mark_step(state: SimState, params: LfbpParams) -> SimState:
    """Mark queues above the current threshold; marks stick until epoch end."""
    limit = params.threshold(state.epoch)
    for queue, marks in zip(state.queues, state.marks):
        if max(queue) <= limit:
            continue
        for i, backlog in enumerate(queue):
            if backlog > limit:
                marks.add(i)
    return state


def _reversible_marks(dag, marked: set, source: int) -> set:
    """The marked nodes a reversal may move toward: the union of the marked
    components (connected over live links) that hold ``source`` or that no
    link of ``dag`` leaves."""
    linked: dict[int, list[int]] = {node: [] for node in marked}
    exits = set()
    for tail, head, _cap in dag.directed_edges():
        if tail in marked:
            if head in marked:
                linked[tail].append(head)
                linked[head].append(tail)
            else:
                exits.add(tail)
    keep: set = set()
    seen: set = set()
    for start in marked:
        if start in seen:
            continue
        component = {start}
        stack = [start]
        while stack:
            for nxt in linked[stack.pop()]:
                if nxt not in component:
                    component.add(nxt)
                    stack.append(nxt)
        seen |= component
        if source in component or not component & exits:
            keep |= component
    return keep


def epoch_reversal(state: SimState, params: LfbpParams) -> SimState:
    """Per commodity, reverse links from unmarked nodes into the marked
    components that pass the gate of ``_reversible_marks``, then start the
    next epoch.  Each mark set is cleared in place, never rebound.

    The reversal log keeps one entry per commodity with marks: the slot, the
    commodity id, the flip count after the gate, and every marked node, so an
    epoch that marked nodes but flipped nothing stays visible.
    """
    changed = False
    for y, (dag, marks) in enumerate(zip(state.dags, state.marks)):
        if marks:
            marked = {state.node_of[i] for i in marks}
            marks.clear()
            commodity = state.commodities[y]
            toward = _reversible_marks(dag, marked, commodity.source)
            new_dag, flips = reverse_toward(dag, toward)
            state.reversal_log.append(
                (state.t, commodity.id, len(flips), tuple(sorted(marked)))
            )
            if flips:
                state.dags[y] = new_dag
                state.edges_reversed += len(flips)
                state.reversal_events += 1
                changed = True
    state.epoch += 1
    state.epoch_left = params.period(state.epoch)
    if changed:
        state.rebuild_plans()
    return state

