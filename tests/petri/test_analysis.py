"""Tests for reachability, boundedness, and firing-sequence search."""

import pytest

from repro.petri import (
    Marking,
    NetBuilder,
    ReachabilityGraph,
    StateSpaceLimitError,
    build_reachability_graph,
    check_boundedness,
    find_firing_sequence,
)


def chain_net():
    builder = NetBuilder("chain")
    builder.place("a", tokens=1).place("b").place("c")
    builder.transition("t1").transition("t2")
    builder.flow("a", "t1", "b", "t2", "c")
    return builder.build()


def cyclic_net():
    builder = NetBuilder("cycle")
    builder.place("a", tokens=1).place("b")
    builder.transition("fwd").transition("back")
    builder.flow("a", "fwd", "b").flow("b", "back", "a")
    return builder.build()


def unbounded_net():
    builder = NetBuilder("unbounded")
    builder.place("src", tokens=1).place("sink")
    builder.transition("gen")
    builder.arc("src", "gen").arc("gen", "src").arc("gen", "sink")
    return builder.build()


class TestReachability:
    def test_chain_states(self):
        net, m0 = chain_net()
        graph = build_reachability_graph(net, m0)
        assert len(graph) == 3
        assert len(graph.dead) == 1
        assert graph.dead[0] == Marking({"c": 1})

    def test_edges_labelled(self):
        net, m0 = chain_net()
        graph = build_reachability_graph(net, m0)
        fired = graph.transitions_fired()
        assert fired == {"t1", "t2"}
        assert graph.dead_transitions() == set()

    def test_dead_transition_found(self):
        builder = NetBuilder("dead")
        builder.place("a", tokens=1).place("never")
        builder.transition("ok").transition("starved")
        builder.flow("a", "ok", "a").flow("never", "starved", "a")
        net, m0 = builder.build()
        graph = build_reachability_graph(net, m0)
        assert graph.dead_transitions() == {"starved"}

    def test_cycle_is_reversible(self):
        net, m0 = cyclic_net()
        graph = build_reachability_graph(net, m0)
        assert graph.strongly_connected()
        assert not graph.dead

    def test_chain_not_reversible(self):
        net, m0 = chain_net()
        assert not build_reachability_graph(net, m0).strongly_connected()

    def test_safeness(self):
        net, m0 = cyclic_net()
        assert build_reachability_graph(net, m0).is_safe()

    def test_unsafe_detected(self):
        builder = NetBuilder("two")
        builder.place("a", tokens=2)
        net, m0 = builder.build()
        graph = build_reachability_graph(net, m0)
        assert not graph.is_safe()
        assert graph.max_tokens()["a"] == 2

    def test_state_limit_enforced(self):
        net, m0 = unbounded_net()
        with pytest.raises(StateSpaceLimitError):
            build_reachability_graph(net, m0, state_limit=50)

    def test_contains_and_successors(self):
        net, m0 = chain_net()
        graph = build_reachability_graph(net, m0)
        assert graph.contains(m0)
        succs = graph.successors(m0)
        assert ("t1", Marking({"b": 1})) in succs

    def test_graph_size(self):
        net, m0 = chain_net()
        graph = build_reachability_graph(net, m0)
        assert len(graph) == 3
        assert len(graph.edges) == 2

    def test_unreached_marking_breaks_strong_connectivity(self):
        net, m0 = cyclic_net()
        graph = build_reachability_graph(net, m0)
        stray = ReachabilityGraph(
            net, m0, graph.markings + [Marking({"b": 2})], graph.edges, []
        )
        assert graph.strongly_connected()
        assert not stray.strongly_connected()


class TestFiringSequenceSearch:
    def test_shortest_path_found(self):
        net, m0 = chain_net()
        path = find_firing_sequence(net, m0, Marking({"c": 1}))
        assert path == ["t1", "t2"]

    def test_identity_path(self):
        net, m0 = chain_net()
        assert find_firing_sequence(net, m0, m0) == []

    def test_unreachable_returns_none(self):
        net, m0 = chain_net()
        assert find_firing_sequence(net, m0, Marking({"a": 2})) is None

    def test_path_in_cycle(self):
        net, m0 = cyclic_net()
        path = find_firing_sequence(net, m0, Marking({"b": 1}))
        assert path == ["fwd"]


class TestBoundedness:
    def test_bounded_net(self):
        net, m0 = chain_net()
        result = check_boundedness(net, m0)
        assert result.bounded
        assert result.bound == 1

    def test_unbounded_net_detected(self):
        net, m0 = unbounded_net()
        result = check_boundedness(net, m0)
        assert not result.bounded
        assert result.witness_place == "sink"

    def test_bound_of_multitoken_net(self):
        builder = NetBuilder("k")
        builder.place("a", tokens=3)
        net, m0 = builder.build()
        assert check_boundedness(net, m0).bound == 3
