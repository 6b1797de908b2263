"""Visibility on the run shapes the recursions use: subsets and ``part_of``.

The paper's recursions run a program "in parallel on every part": a
``SynchronousNetwork.run`` restricted to ``participants`` and split by a
``part_of`` labeling.  :meth:`~repro.simulator.engines.EngineRun.build_contexts`
derives each participant's visible neighbours from one edge mask over the
CSR.  These tests pin that mask against the per-neighbour filter it
replaced, on generated participant subsets and labelings — labels missing
from ``part_of``, the nested tuple labels that ``_combined_parts`` and the
Kuhn–Wattenhofer reduction build, non-participants that share a
participant's label, and graphs with non-contiguous ids — and check that
every engine returns a byte-identical ``RunResult`` on those shapes.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Graph, SynchronousNetwork
from repro.core.hpartition import HPartitionProgram
from repro.simulator import NodeProgram, engine_names
from repro.simulator.engines import EngineRun


def reference_visible(graph, participants, part_of, v):
    """The per-neighbour filter the edge mask replaced, kept as the oracle."""
    active_set = None if participants is None else set(participants)
    if part_of is not None:
        label = part_of.get(v)
        return tuple(
            u
            for u in graph.neighbors(v)
            if (active_set is None or u in active_set)
            and part_of.get(u) == label
        )
    if active_set is not None:
        return tuple(u for u in graph.neighbors(v) if u in active_set)
    return graph.neighbors(v)


class _ReportNeighbors(NodeProgram):
    """Halts at once with its context's visible neighbour tuple."""

    def on_start(self, ctx):
        ctx.halt(ctx.neighbors)


class _EchoSum(NodeProgram):
    """Two rounds of broadcasts; outputs what it heard, so any visibility
    difference shows up in outputs and message counts."""

    def on_start(self, ctx):
        ctx.broadcast(ctx.node)

    def on_round(self, ctx):
        heard = sorted(ctx.inbox)
        if ctx.round_number == 1:
            ctx.broadcast(sum(heard))
        else:
            ctx.halt((tuple(heard), sum(ctx.inbox.values())))


#: labels shaped like the recursions' part_of values: ints, None, and
#: (outer_label, block) tuples nested to any depth
LABELS = st.recursive(
    st.none() | st.integers(0, 2),
    lambda inner: st.tuples(inner, st.integers(0, 2)),
    max_leaves=4,
)


@st.composite
def run_shapes(draw):
    """A graph (ids possibly non-contiguous), participants and part_of."""
    n = draw(st.integers(0, 24))
    contiguous = draw(st.booleans())
    ids = list(range(n)) if contiguous else [3 * i + 7 for i in range(n)]
    pairs = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
    raw = draw(st.lists(pairs, max_size=3 * n)) if n else []
    edges = {(ids[min(i, j)], ids[max(i, j)]) for i, j in raw if i != j}
    graph = Graph(ids, edges)
    if draw(st.booleans()):
        participants = None
    else:
        participants = draw(st.lists(st.sampled_from(ids), unique=True)) if n else []
    part_of = None
    if draw(st.booleans()):
        # labels are drawn for every vertex, participant or not, and some
        # vertices are left out of the mapping entirely (label None)
        labelled = draw(st.lists(st.sampled_from(ids), unique=True)) if n else []
        part_of = {v: draw(LABELS) for v in labelled}
    return graph, participants, part_of


SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@SETTINGS
@given(run_shapes(), st.sampled_from(engine_names()))
def test_context_neighbors_match_reference_filter(shape, engine):
    graph, participants, part_of = shape
    net = SynchronousNetwork(graph, scheduler=engine)
    result = net.run(_ReportNeighbors, participants=participants, part_of=part_of)
    expected_order = graph.vertices if participants is None else sorted(participants)
    assert list(result.outputs) == list(expected_order)
    for v, visible in result.outputs.items():
        assert type(visible) is tuple
        assert visible == reference_visible(graph, participants, part_of, v)


@SETTINGS
@given(run_shapes())
def test_edge_mask_marks_exactly_the_visible_edges(shape):
    """The mask itself (not just the participants' slices of it): an edge
    between two non-participants is never visible."""
    graph, participants, part_of = shape
    order = graph.vertices if participants is None else tuple(sorted(participants))
    run = EngineRun(
        graph,
        NodeProgram,
        order=order,
        active_set=None if participants is None else set(participants),
        part_of=part_of,
        gp={},
        round_limit=1,
        count_bytes=False,
        trace=None,
        telemetry=None,
    )
    members = set(order)
    labels = part_of or {}
    expected = [
        v in members and u in members and labels.get(u) == labels.get(v)
        for v in graph.vertices
        for u in graph.neighbors(v)
    ]
    assert run.edge_mask().tolist() == expected


@SETTINGS
@given(run_shapes())
def test_run_results_identical_across_engines(shape):
    graph, participants, part_of = shape
    for factory in (_EchoSum, lambda: HPartitionProgram(3)):
        results = {
            engine: SynchronousNetwork(graph, scheduler=engine).run(
                factory,
                participants=participants,
                part_of=part_of,
                count_bytes=True,
            )
            for engine in engine_names()
        }
        reference = results["dense"]
        for engine, result in results.items():
            assert result == reference, engine


def test_labels_equal_across_types_share_a_part():
    """``part_of`` labels are compared by equality, as before: ``1`` and
    ``1.0`` are one part, and equal nested tuples built separately are one
    part."""
    graph = Graph(range(4), [(0, 1), (1, 2), (2, 3)])
    part_of = {0: 1, 1: 1.0, 2: (None, (0, 1)), 3: (None, (0, 1))}
    net = SynchronousNetwork(graph, scheduler="event")
    out = net.run(_ReportNeighbors, part_of=part_of).outputs
    assert out == {0: (1,), 1: (0,), 2: (3,), 3: (2,)}
