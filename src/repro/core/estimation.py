"""Distributed arboricity estimation: running the stack when a is unknown.

The paper (like BE08) assumes the arboricity bound ``a`` is globally
known.  When it is not, the standard remedy is *doubling*: attempt the
H-partition with the candidate bound â = 1, 2, 4, ...; a candidate at
least the true arboricity makes the peeling finish within its O(log n)
level budget, while an underestimate stalls — and a stall is *locally
detectable* (the peeling exceeded the budget without everyone leaving).

Cost analysis: a failed attempt costs its level budget O(log n) rounds;
there are O(log a) attempts; so estimation costs O(log a · log n) rounds —
the same order as Corollary 4.6 itself, i.e. not-knowing-a is asymptotically
free for the paper's headline algorithm.

:func:`estimate_arboricity_bound` returns the first successful candidate
(a certified upper bound within a factor (2+ε)·2 of the true arboricity);
:func:`legal_coloring_auto` chains it with Procedure Legal-Coloring.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..errors import InvalidParameterError
from ..simulator.context import NodeContext
from ..simulator.network import SynchronousNetwork
from ..simulator.program import NodeProgram
from ..types import ColorAssignment, HPartition
from .hpartition import degree_threshold, expected_num_levels
from .legal import legal_coloring_corollary46


class _BoundedPeelProgram(NodeProgram):
    """H-partition peeling that gives up after a fixed level budget.

    Halts with its level on success, or with ``None`` when the budget ran
    out while the node was still active — the local signature of an
    underestimated arboricity bound.
    """

    def __init__(self, threshold: int, level_budget: int):
        self._threshold = threshold
        self._budget = level_budget
        self._active_neighbors: set = set()

    def on_start(self, ctx: NodeContext) -> None:
        self._active_neighbors = set(ctx.neighbors)

    def on_round(self, ctx: NodeContext) -> None:
        for sender, payload in ctx.inbox.items():
            if payload == "leaving":
                self._active_neighbors.discard(sender)
        if len(self._active_neighbors) <= self._threshold:
            ctx.broadcast("leaving")
            ctx.halt(ctx.round_number)
        elif ctx.round_number >= self._budget:
            ctx.halt(None)  # stall detected locally


def try_hpartition(
    network: SynchronousNetwork,
    candidate: int,
    epsilon: float = 0.5,
    *,
    participants=None,
    part_of=None,
) -> Tuple[Optional[HPartition], int]:
    """Attempt an H-partition with arboricity candidate â.

    Returns ``(hpartition, rounds)`` on success or ``(None, rounds)`` when
    the peeling stalled within its level budget — i.e. â is too small.
    """
    if candidate < 1:
        raise InvalidParameterError("candidate arboricity must be >= 1")
    threshold = degree_threshold(candidate, epsilon)
    n = network.graph.n
    budget = expected_num_levels(max(2, n), epsilon) + 2
    result = network.run(
        lambda: _BoundedPeelProgram(threshold, budget),
        participants=participants,
        part_of=part_of,
        round_limit=budget + 2,
        global_params={"candidate": candidate, "epsilon": epsilon},
    )
    if any(level is None for level in result.outputs.values()):
        return None, result.rounds
    index = {v: int(level) for v, level in result.outputs.items()}
    hp = HPartition(
        index=index,
        degree_bound=threshold,
        rounds=result.rounds,
        params={"a": candidate, "epsilon": epsilon, "estimated": True},
    )
    return hp, result.rounds


def estimate_arboricity_bound(
    network: SynchronousNetwork,
    epsilon: float = 0.5,
    *,
    participants=None,
    part_of=None,
) -> Tuple[int, HPartition, int]:
    """Estimate an arboricity upper bound by doubling (â = 1, 2, 4, ...).

    Returns ``(bound, hpartition, total_rounds)``.  The returned bound
    satisfies: the H-partition with threshold ⌊(2+ε)·bound⌋ succeeded, so
    every algorithm in this library can run with it; and bound < 2·a + 2
    for the true arboricity a (the previous candidate bound/2 failed, and
    candidates ≥ a always succeed because the average degree argument of
    Lemma 2.3 applies).
    """
    participants = None if participants is None else tuple(participants)
    total_rounds = 0
    candidate = 1
    while candidate <= max(1, network.graph.n):
        hp, rounds = try_hpartition(
            network, candidate, epsilon,
            participants=participants, part_of=part_of,
        )
        total_rounds += rounds
        if hp is not None:
            return candidate, hp, total_rounds
        candidate *= 2
    raise InvalidParameterError(
        "arboricity estimation failed to converge"
    )  # pragma: no cover - candidates reach n, which always succeeds


def legal_coloring_auto(
    network: SynchronousNetwork,
    eta: float = 0.5,
    epsilon: float = 0.5,
    *,
    participants=None,
    part_of=None,
) -> ColorAssignment:
    """Color a graph of *unknown* arboricity: estimate, then Corollary 4.6.

    Total cost O(log a · log n) rounds — the estimation phase is the same
    order as the coloring itself, so not knowing a is asymptotically free.
    """
    participants = None if participants is None else tuple(participants)
    bound, _hp, est_rounds = estimate_arboricity_bound(
        network, epsilon, participants=participants, part_of=part_of
    )
    coloring = legal_coloring_corollary46(
        network, bound, eta=eta, epsilon=epsilon,
        participants=participants, part_of=part_of,
    )
    return ColorAssignment(
        colors=coloring.colors,
        rounds=est_rounds + coloring.rounds,
        algorithm="legal-coloring-auto (doubling + Corollary 4.6)",
        params={
            "estimated_bound": bound,
            "estimation_rounds": est_rounds,
            "coloring_rounds": coloring.rounds,
            "eta": eta,
        },
    )
