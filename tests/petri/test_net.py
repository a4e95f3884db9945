"""Unit tests for the core Petri-net structures and firing semantics."""

import pytest

from repro.petri import (
    Arc,
    DuplicateNodeError,
    InvalidMarkingError,
    Marking,
    NetBuilder,
    NetState,
    NotEnabledError,
    PetriNet,
    Place,
    Transition,
    UnknownNodeError,
)


def simple_net():
    """p1 --t--> p2 with one initial token in p1."""
    return (
        NetBuilder("simple")
        .place("p1", tokens=1)
        .place("p2")
        .transition("t")
        .flow("p1", "t", "p2")
        .build()
    )


class TestMarking:
    def test_zero_counts_are_dropped(self):
        assert Marking({"a": 0, "b": 1}) == Marking({"b": 1})

    def test_negative_count_rejected(self):
        with pytest.raises(InvalidMarkingError):
            Marking({"a": -1})

    def test_tokens_of_absent_place_is_zero(self):
        assert Marking({"a": 2}).tokens("b") == 0

    def test_equality_and_hash(self):
        m1 = Marking({"a": 1, "b": 2})
        m2 = Marking([("b", 2), ("a", 1)])
        assert m1 == m2
        assert hash(m1) == hash(m2)
        assert len({m1, m2}) == 1

    def test_add_applies_deltas(self):
        m = Marking({"a": 1}).add({"a": -1, "b": 2})
        assert m == Marking({"b": 2})

    def test_add_rejects_underflow(self):
        with pytest.raises(InvalidMarkingError):
            Marking({"a": 1}).add({"a": -2})

    def test_total_and_places_marked(self):
        m = Marking({"x": 2, "y": 1})
        assert m.total() == 3
        assert m.places_marked() == ("x", "y")

    def test_as_dict_roundtrip(self):
        m = Marking({"a": 3})
        assert Marking(m.as_dict()) == m

    def test_iteration_is_sorted(self):
        m = Marking({"z": 1, "a": 1})
        assert [p for p, _ in m] == ["a", "z"]

    def test_repr_contains_counts(self):
        assert "a:2" in repr(Marking({"a": 2}))


class TestNetConstruction:
    def test_duplicate_place_rejected(self):
        with pytest.raises(DuplicateNodeError):
            PetriNet("n", [Place("a"), Place("a")], [], [])

    def test_place_transition_name_collision_rejected(self):
        with pytest.raises(DuplicateNodeError):
            PetriNet("n", [Place("a")], [Transition("a")], [])

    def test_arc_to_unknown_node_rejected(self):
        with pytest.raises(UnknownNodeError):
            PetriNet("n", [Place("a")], [Transition("t")], [Arc("a", "x")])

    def test_place_to_place_arc_rejected(self):
        with pytest.raises(UnknownNodeError):
            PetriNet("n", [Place("a"), Place("b")], [], [Arc("a", "b")])

    def test_nonpositive_arc_weight_rejected(self):
        with pytest.raises(ValueError):
            Arc("a", "t", weight=0)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            Place("p", capacity=-1)

    def test_accessors(self):
        net, _ = simple_net()
        assert net.place("p1").name == "p1"
        assert net.transition("t").name == "t"
        assert net.has_place("p1") and not net.has_place("t")
        assert net.has_transition("t") and not net.has_transition("p1")
        with pytest.raises(UnknownNodeError):
            net.place("zzz")
        with pytest.raises(UnknownNodeError):
            net.transition("zzz")

    def test_preset_postset(self):
        net, _ = simple_net()
        assert net.preset("t") == {"p1": 1}
        assert net.postset("t") == {"p2": 1}

    def test_repr(self):
        net, _ = simple_net()
        assert "simple" in repr(net)


class TestFiring:
    def test_enabled_when_input_marked(self):
        net, m0 = simple_net()
        assert net.is_enabled("t", m0)
        assert net.enabled_transitions(m0) == ["t"]

    def test_fire_moves_token(self):
        net, m0 = simple_net()
        m1 = net.fire("t", m0)
        assert m1 == Marking({"p2": 1})

    def test_fire_not_enabled_raises(self):
        net, m0 = simple_net()
        m1 = net.fire("t", m0)
        with pytest.raises(NotEnabledError):
            net.fire("t", m1)

    def test_fire_sequence(self):
        builder = NetBuilder("chain")
        builder.place("a", tokens=1).place("b").place("c")
        builder.transition("t1").transition("t2")
        builder.flow("a", "t1", "b", "t2", "c")
        net, m0 = builder.build()
        final = net.fire_sequence(["t1", "t2"], m0)
        assert final == Marking({"c": 1})

    def test_weighted_arcs(self):
        builder = NetBuilder("weighted")
        builder.place("a", tokens=2).place("b").transition("t")
        builder.arc("a", "t", weight=2).arc("t", "b", weight=3)
        net, m0 = builder.build()
        assert net.is_enabled("t", m0)
        assert net.fire("t", m0) == Marking({"b": 3})
        assert not net.is_enabled("t", Marking({"a": 1}))

    def test_capacity_blocks_firing(self):
        builder = NetBuilder("cap")
        builder.place("a", tokens=1).place("b", tokens=1, capacity=1)
        builder.transition("t").flow("a", "t", "b")
        net, m0 = builder.build()
        assert not net.is_enabled("t", m0)

    def test_self_loop_capacity_allows_refire(self):
        # consume and reproduce on a capacity-1 place: still enabled
        builder = NetBuilder("loop")
        builder.place("a", tokens=1, capacity=1).transition("t")
        builder.arc("a", "t").arc("t", "a")
        net, m0 = builder.build()
        assert net.is_enabled("t", m0)
        assert net.fire("t", m0) == m0

    def test_is_dead(self):
        net, m0 = simple_net()
        assert not net.is_dead(m0)
        assert net.is_dead(net.fire("t", m0))

    def test_validate_marking_unknown_place(self):
        net, _ = simple_net()
        with pytest.raises(InvalidMarkingError):
            net.validate_marking(Marking({"nope": 1}))

    def test_validate_marking_capacity(self):
        builder = NetBuilder("v").place("p", tokens=1, capacity=1)
        net, m0 = builder.build()
        with pytest.raises(InvalidMarkingError):
            net.validate_marking(Marking({"p": 2}))


class TestIncidenceMatrix:
    def test_shape_and_entries(self):
        net, _ = simple_net()
        matrix, places, transitions = net.incidence_matrix()
        assert [len(row) for row in matrix] == [1, 1]
        i1, i2 = places.index("p1"), places.index("p2")
        assert matrix[i1][0] == -1
        assert matrix[i2][0] == 1

    def test_self_loop_cancels(self):
        builder = NetBuilder("loop")
        builder.place("a", tokens=1).transition("t")
        builder.arc("a", "t").arc("t", "a")
        net, _ = builder.build()
        matrix, _, _ = net.incidence_matrix()
        assert matrix == [[0]]


class TestNetState:
    def test_history_accumulates(self):
        net, m0 = simple_net()
        state = NetState(net, m0)
        assert state.enabled() == ["t"]
        state.fire("t")
        assert state.history == ["t"]
        assert state.is_dead()


class TestBuilder:
    def test_tokens_overwrites(self):
        builder = NetBuilder("b").place("p", tokens=1).tokens("p", 5)
        _, m0 = builder.build()
        assert m0.tokens("p") == 5

    def test_flow_requires_alternation(self):
        builder = NetBuilder("b").place("a", tokens=1).place("b")
        builder.flow("a", "b")  # place -> place: rejected at build
        with pytest.raises(UnknownNodeError):
            builder.build()
