"""Property-based tests (hypothesis) for the Petri-net engine."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.petri import (
    Marking,
    NetBuilder,
    build_concurrency_net,
    build_reachability_graph,
    place_invariants,
    simulate,
)

markings = st.dictionaries(
    st.sampled_from(["a", "b", "c", "d"]),
    st.integers(min_value=0, max_value=5),
    max_size=4,
)


class TestMarkingProperties:
    @given(markings)
    def test_construction_roundtrip(self, tokens):
        m = Marking(tokens)
        for place, count in tokens.items():
            assert m.tokens(place) == count

    @given(markings, markings)
    def test_equality_is_content_based(self, t1, t2):
        nonzero1 = {k: v for k, v in t1.items() if v}
        nonzero2 = {k: v for k, v in t2.items() if v}
        assert (Marking(t1) == Marking(t2)) == (nonzero1 == nonzero2)

    @given(markings)
    def test_hash_consistent_with_eq(self, tokens):
        m1, m2 = Marking(tokens), Marking(dict(tokens))
        assert m1 == m2 and hash(m1) == hash(m2)

    @given(markings, st.dictionaries(st.sampled_from(["a", "b"]), st.integers(0, 3)))
    def test_add_total(self, base, delta):
        m = Marking(base)
        m2 = m.add(delta)
        assert m2.total() == m.total() + sum(delta.values())


class _RandomRing:
    """A parametric token-ring net used as an arbitrary safe net."""

    @staticmethod
    def build(n_places, tokens_at):
        builder = NetBuilder("ring")
        for i in range(n_places):
            builder.place(f"p{i}", tokens=1 if i in tokens_at else 0)
        for i in range(n_places):
            builder.transition(f"t{i}")
            builder.flow(f"p{i}", f"t{i}", f"p{(i + 1) % n_places}")
        return builder.build()


class TestEngineProperties:
    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=0, max_value=120),
    )
    @settings(max_examples=40, deadline=None)
    def test_ring_conserves_tokens(self, n, seed):
        net, m0 = _RandomRing.build(n, {0})
        run = simulate(net, m0, max_steps=50, seed=seed)
        assert all(m.total() == 1 for m in run.markings)

    @given(st.integers(min_value=2, max_value=5))
    @settings(max_examples=10, deadline=None)
    def test_ring_reachability_size(self, n):
        net, m0 = _RandomRing.build(n, {0})
        graph = build_reachability_graph(net, m0)
        assert len(graph) == n  # token cycles through every place

    @given(st.integers(min_value=1, max_value=3), st.integers(0, 400))
    @settings(max_examples=30, deadline=None)
    def test_concurrency_model_invariants_under_random_walk(self, n, seed):
        """Random firing of the Figure-1 model never violates mutual
        exclusion or the one-state-per-thread property."""
        net, m0 = build_concurrency_net(n)
        run = simulate(net, m0, max_steps=60, seed=seed)
        for marking in run.markings:
            in_cs = sum(
                marking.tokens("C" if n == 1 else f"C{i}") for i in range(n)
            )
            assert in_cs + marking.tokens("E") == 1
            for i in range(n):
                suffix = "" if n == 1 else str(i)
                states = sum(
                    marking.tokens(b + suffix) for b in ("A", "B", "C", "D")
                )
                assert states == 1

    @given(st.integers(min_value=1, max_value=2))
    @settings(max_examples=5, deadline=None)
    def test_invariant_vectors_annihilate_incidence(self, n):
        net, _ = build_concurrency_net(n)
        matrix, places, _ = net.incidence_matrix()
        for inv in place_invariants(net):
            weights = inv.as_dict()
            vector = [weights.get(p, 0) for p in places]
            for column in zip(*matrix):
                assert sum(y * c for y, c in zip(vector, column)) == 0
