"""A model-compliant node program: every `repro check` rule stays quiet.

This fixture is the positive control for tests/test_check.py: a program
that uses the ctx API only, sends O(1) payloads, draws randomness from a
seeded per-node random.Random, declares quiescence after its last send,
ships a pure column kernel, and builds specs from JSON-stable params.
"""

import random

import numpy as np

from repro.experiments.spec import ScenarioSpec, TrialSpec
from repro.simulator.context import NodeContext
from repro.simulator.program import NodeProgram


class CleanProgram(NodeProgram):
    def __init__(self, seed: int):
        self._seed = seed
        self._rng = None
        self._best = None

    def on_start(self, ctx: NodeContext) -> None:
        self._rng = random.Random(self._seed * 7 + ctx.node)
        ctx.broadcast(self._rng.randrange(1 << 16))
        ctx.wake_at(3)
        ctx.idle_until_message()

    def on_round(self, ctx: NodeContext) -> None:
        for sender in sorted(ctx.inbox):
            payload = ctx.inbox[sender]
            if self._best is None or payload < self._best:
                self._best = payload
        if ctx.round_number >= 3:
            ctx.halt(self._best)
            return
        ctx.idle_until_message()

    def column_kernel(self, col):
        def run() -> None:
            local = col.degrees.copy()
            local += 1
            col.note_round(0, col.n, int(local.sum()))
            col.outputs = dict(enumerate(np.zeros(col.n, dtype=bool).tolist()))
            col.rounds = 1

        return run


def clean_specs():
    trial = TrialSpec(
        family="forest_union",
        algorithm="cor46",
        seed=3,
        family_params={"n": 100, "a": 4},
        algorithm_params={"eta": 0.5},
    )
    scenario = ScenarioSpec(
        family="forest_union",
        algorithm="cor46",
        family_params={"n": 100, "a": 4},
        num_seeds=2,
    )
    return trial, scenario
