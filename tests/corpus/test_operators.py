"""Tests for the AST mutation operators."""

import ast
import inspect
import textwrap

import pytest

from repro.components import BoundedBuffer, OrderedPair
from repro.corpus import (
    OPERATORS,
    MutationError,
    MutationSite,
    apply_site,
    discover_sites,
)


def class_ast(cls) -> ast.ClassDef:
    node = ast.parse(textwrap.dedent(inspect.getsource(cls))).body[0]
    assert isinstance(node, ast.ClassDef)
    return node


def method(cls_node: ast.ClassDef, name: str) -> ast.FunctionDef:
    for node in cls_node.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    raise AssertionError(f"no method {name!r}")


def yields_of(func: ast.AST):
    """Multiset of syscall names yielded anywhere under ``func``."""
    names = [
        node.value.func.id
        for node in ast.walk(func)
        if isinstance(node, ast.Yield)
        and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Name)
    ]
    return sorted(names)


class TestDiscovery:
    def test_deterministic_and_unique(self):
        node = class_ast(BoundedBuffer)
        first = discover_sites(node)
        second = discover_sites(class_ast(BoundedBuffer))
        assert first == second
        labels = [s.label for s in first]
        assert len(labels) == len(set(labels))

    def test_bounded_buffer_site_inventory(self):
        labels = {s.label for s in discover_sites(class_ast(BoundedBuffer))}
        # both guarded waits, both notifyAlls, the syscall-free method
        for expected in (
            "wait_if@put#0",
            "wait_if@get#0",
            "notify_single@put#0",
            "notify_single@get#0",
            "drop_notify@put#0",
            "dup_notify@get#0",
            "unsync@size#0",
            "over_sync@cls#0",
        ):
            assert expected in labels

    def test_operator_table_declares_expectations(self):
        assert OPERATORS["wait_if"].expected == ("EF-T5",)
        assert OPERATORS["notify_single"].expected == ("FF-T5",)
        assert OPERATORS["dup_notify"].expected == ()  # control
        assert set(OPERATORS["lock_shuffle"].expected) == {"FF-T2", "FF-T4"}
        assert OPERATORS["sem_release_drop"].expected == ("FF-S3",)
        assert OPERATORS["drop_wait"].expected == ("FF-T3",)
        assert OPERATORS["wait_spin"].expected == ("FF-T4",)
        assert OPERATORS["extra_wait"].expected == ("EF-T3",)

    def test_expected_codes_resolve_to_taxonomy_classes(self):
        from repro.classify.taxonomy import FailureClass

        for op in OPERATORS.values():
            for code in op.expected:
                assert FailureClass.from_code(code).code == code


class TestApplication:
    def test_wait_if_weakens_loop_to_if(self):
        node = class_ast(BoundedBuffer)
        mutated = apply_site(node, MutationSite("wait_if", "put", 0))
        put = method(mutated, "put")
        assert not any(isinstance(n, ast.While) for n in ast.walk(put))
        branch = next(n for n in ast.walk(put) if isinstance(n, ast.If))
        assert yields_of(branch) == ["Wait"]
        # the original AST is untouched
        assert any(isinstance(n, ast.While) for n in ast.walk(method(node, "put")))

    def test_notify_single_narrows_notify_all(self):
        mutated = apply_site(
            class_ast(BoundedBuffer), MutationSite("notify_single", "get", 0)
        )
        assert yields_of(method(mutated, "get")) == ["Notify", "Wait"]
        assert yields_of(method(mutated, "put")) == ["NotifyAll", "Wait"]

    def test_drop_notify_deletes_the_notify(self):
        mutated = apply_site(
            class_ast(BoundedBuffer), MutationSite("drop_notify", "put", 0)
        )
        assert yields_of(method(mutated, "put")) == ["Wait"]

    def test_drop_notify_sole_statement_becomes_pass(self):
        source = textwrap.dedent(
            """\
            class Pinger(MonitorComponent):
                @synchronized
                def ping(self):
                    yield NotifyAll()
            """
        )
        node = ast.parse(source).body[0]
        mutated = apply_site(node, MutationSite("drop_notify", "ping", 0))
        body = method(mutated, "ping").body
        assert len(body) == 1 and isinstance(body[0], ast.Pass)

    def test_dup_notify_duplicates(self):
        mutated = apply_site(
            class_ast(BoundedBuffer), MutationSite("dup_notify", "put", 0)
        )
        assert yields_of(method(mutated, "put")) == ["NotifyAll", "NotifyAll", "Wait"]

    def test_unsync_swaps_decorator_on_syscall_free_method(self):
        mutated = apply_site(
            class_ast(BoundedBuffer), MutationSite("unsync", "size", 0)
        )
        deco = method(mutated, "size").decorator_list[0]
        assert isinstance(deco, ast.Name) and deco.id == "unsynchronized"

    def test_unsync_refuses_methods_with_syscalls(self):
        with pytest.raises(MutationError, match="does not exist"):
            apply_site(class_ast(BoundedBuffer), MutationSite("unsync", "put", 0))

    def test_over_sync_grafts_probe_once(self):
        node = class_ast(BoundedBuffer)
        mutated = apply_site(node, MutationSite("over_sync", "cls", 0))
        names = [
            n.name for n in mutated.body if isinstance(n, ast.FunctionDef)
        ]
        assert "corpus_probe" in names
        with pytest.raises(MutationError):
            apply_site(mutated, MutationSite("over_sync", "cls", 0))

    def test_lock_shuffle_drops_the_ordering(self):
        mutated = apply_site(
            class_ast(OrderedPair), MutationSite("lock_shuffle", "transfer", 0)
        )
        assert "sorted" not in ast.unparse(method(mutated, "transfer"))

    def test_drop_release_deletes_a_release(self):
        node = class_ast(OrderedPair)
        before = yields_of(method(node, "transfer")).count("Release")
        mutated = apply_site(node, MutationSite("drop_release", "transfer", 0))
        after = yields_of(method(mutated, "transfer")).count("Release")
        assert after == before - 1 == 1

    def test_drop_wait_deletes_the_loop(self):
        node = class_ast(BoundedBuffer)
        mutated = apply_site(node, MutationSite("drop_wait", "get", 0))
        get = method(mutated, "get")
        assert not any(isinstance(n, ast.While) for n in ast.walk(get))
        assert yields_of(get) == ["NotifyAll"]
        assert yields_of(method(mutated, "put")) == ["NotifyAll", "Wait"]

    def test_drop_wait_sole_statement_becomes_pass(self):
        source = textwrap.dedent(
            """\
            class Gate(MonitorComponent):
                @synchronized
                def pass_through(self):
                    while self.closed:
                        yield Wait()
            """
        )
        node = ast.parse(source).body[0]
        mutated = apply_site(node, MutationSite("drop_wait", "pass_through", 0))
        body = method(mutated, "pass_through").body
        assert len(body) == 1 and isinstance(body[0], ast.Pass)

    def test_wait_spin_turns_the_wait_into_a_yield(self):
        mutated = apply_site(
            class_ast(BoundedBuffer), MutationSite("wait_spin", "put", 0)
        )
        put = method(mutated, "put")
        loop = next(n for n in ast.walk(put) if isinstance(n, ast.While))
        assert yields_of(loop) == ["Yield"]
        assert yields_of(put) == ["NotifyAll", "Yield"]
        assert yields_of(method(mutated, "get")) == ["NotifyAll", "Wait"]

    def test_extra_wait_inserts_before_the_last_statement(self):
        mutated = apply_site(
            class_ast(BoundedBuffer), MutationSite("extra_wait", "get", 0)
        )
        body = method(mutated, "get").body
        assert yields_of(body[-2]) == ["Wait"]
        assert isinstance(body[-1], ast.Return)
        assert yields_of(method(mutated, "get")) == ["NotifyAll", "Wait", "Wait"]

    def test_extra_wait_only_on_synchronized_methods(self):
        labels = {s.label for s in discover_sites(class_ast(BoundedBuffer))}
        assert {"extra_wait@put#0", "extra_wait@get#0", "extra_wait@size#0"} <= labels
        assert "extra_wait@__init__#0" not in labels
        with pytest.raises(MutationError, match="does not exist"):
            apply_site(
                class_ast(BoundedBuffer), MutationSite("extra_wait", "put", 1)
            )

    def test_sem_release_drop_site_on_native_semaphore(self):
        from repro.components import NativeSemaphore

        labels = {s.label for s in discover_sites(class_ast(NativeSemaphore))}
        assert "sem_release_drop@release#0" in labels

    def test_sem_release_drop_leaks_permit_but_stays_generator(self):
        from repro.components import NativeSemaphore

        node = class_ast(NativeSemaphore)
        mutated = apply_site(
            node, MutationSite("sem_release_drop", "release", 0)
        )
        release = method(mutated, "release")
        # the SemRelease syscall is gone...
        assert "SemRelease" not in yields_of(release)
        # ...but a (dead) yield keeps the method a generator, so the
        # `yield from` call protocol survives — the LostPermitSemaphore shape
        assert any(isinstance(n, ast.Yield) for n in ast.walk(release))
        assert any(isinstance(n, ast.Return) for n in ast.walk(release))


class TestErrors:
    def test_unknown_operator(self):
        with pytest.raises(MutationError, match="unknown mutation operator"):
            apply_site(class_ast(BoundedBuffer), MutationSite("nonsense", "put", 0))

    def test_out_of_range_index(self):
        with pytest.raises(MutationError, match="does not exist"):
            apply_site(class_ast(BoundedBuffer), MutationSite("wait_if", "put", 5))

    def test_class_level_site_must_be_cls_0(self):
        node = class_ast(BoundedBuffer)
        for site in (
            MutationSite("over_sync", "put", 3),
            MutationSite("over_sync", "cls", 1),
        ):
            with pytest.raises(MutationError, match="does not exist"):
                apply_site(node, site)

    def test_missing_method(self):
        with pytest.raises(MutationError, match="does not exist"):
            apply_site(
                class_ast(BoundedBuffer), MutationSite("wait_if", "push", 0)
            )
