"""Tests for corpus generation, manifests, and variant loading."""

import dataclasses
import hashlib
import inspect
import json

import pytest

from repro.analysis import check_component
from repro.corpus import (
    CORPUS_DRIVERS,
    CorpusError,
    MutationError,
    compile_variant,
    generate_corpus,
    load_corpus,
    mutant,
    mutation_sites,
    read_manifest,
    resolve_component_name,
    write_manifest,
)
from repro.run.registry import COMPONENTS, WORKLOADS, load_builtins
from repro.vm.scheduler import RandomScheduler


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(["bounded_buffer", "readers_writers"])


class TestGenerate:
    def test_acceptance_floor(self, corpus):
        """The issue's bar: >= 50 distinct labeled variants."""
        assert len(corpus) >= 50
        ids = [r.variant_id for r in corpus]
        assert len(ids) == len(set(ids))
        digests = [r.digest for r in corpus]
        assert len(digests) == len(set(digests))

    def test_baseline_controls_present(self, corpus):
        baselines = [r for r in corpus if r.variant_id.endswith("~baseline")]
        assert {r.parent for r in baselines} == {"BoundedBuffer", "ReadersWriters"}
        assert all(r.is_control and not r.operators for r in baselines)

    def test_faulty_variants_carry_labels(self, corpus):
        faulty = [r for r in corpus if not r.is_control]
        assert len(faulty) >= 40
        assert all(r.expected for r in faulty)
        # dup_notify-only variants are controls, never labeled faulty
        for r in corpus:
            if r.operators and all(
                label.startswith("dup_notify") for label in r.operators
            ):
                assert r.is_control

    def test_deterministic(self, corpus):
        assert generate_corpus(["bounded_buffer", "readers_writers"]) == corpus

    def test_full_corpus_is_pinned(self, tmp_path):
        """The corpus the ``corpus-sweep`` workload sweeps, byte for byte:
        an operator leaking into it (or a changed rewrite) moves this."""
        records = generate_corpus(list(CORPUS_DRIVERS))
        path = tmp_path / "corpus.jsonl"
        write_manifest(records, str(path))
        assert len(records) == 94
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "85afebea6409b7cd423149e41b7e98601d8a9054c68231ba1efc1c951dc90bee"
        )

    def test_static_verdicts_are_pinned(self):
        """``check_component`` on every variant the ``corpus-sweep``
        workload sweeps, line for line: a changed source path or static
        check moves this."""
        records = generate_corpus(list(CORPUS_DRIVERS))
        loaded = load_corpus(records, register=False)
        lines = sorted(
            str(finding)
            for record in records
            for finding in check_component(loaded[record.variant_id])
        )
        assert len(lines) == 11
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "5e273f1d6a44ff4fa274ffdf9e20db3bd0556a335ee8bace546fa03536a56a14"
        )

    def test_pair_cap_respected(self):
        capped = generate_corpus(["bounded_buffer"], pair_cap=2)
        pairs = [r for r in capped if len(r.operators) == 2]
        assert len(pairs) == 2

    def test_unknown_component_suggests(self):
        with pytest.raises(CorpusError, match="did you mean"):
            generate_corpus(["BoundedBufer"])

    def test_component_without_driver_rejected(self):
        with pytest.raises(CorpusError, match="no sweep workload"):
            generate_corpus(["Account"])

    def test_empty_request_rejected(self):
        with pytest.raises(CorpusError, match="nothing to generate"):
            generate_corpus([])


class TestResolveName:
    def test_snake_case(self):
        assert resolve_component_name("bounded_buffer") == "BoundedBuffer"
        assert resolve_component_name("readers_writers") == "ReadersWriters"

    def test_exact_name_passes_through(self):
        assert resolve_component_name("BoundedBuffer") == "BoundedBuffer"

    def test_unknown_name_lists_suggestions(self):
        with pytest.raises(CorpusError, match="did you mean.*BoundedBuffer"):
            resolve_component_name("BoundedBufferr")


class TestManifest:
    def test_roundtrip(self, corpus, tmp_path):
        path = str(tmp_path / "corpus.jsonl")
        write_manifest(corpus, path)
        assert read_manifest(path) == corpus
        header = json.loads(open(path).readline())
        assert header["schema"] == "repro-corpus-manifest"
        assert header["version"] == 1
        assert header["variants"] == len(corpus)
        assert header["components"] == ["BoundedBuffer", "ReadersWriters"]

    def test_byte_identical_across_runs(self, corpus, tmp_path):
        a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        write_manifest(corpus, a)
        write_manifest(generate_corpus(["bounded_buffer", "readers_writers"]), b)
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "bogus.jsonl"
        path.write_text(json.dumps({"schema": "something-else"}) + "\n")
        with pytest.raises(CorpusError, match="not a corpus manifest"):
            read_manifest(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(CorpusError, match="empty"):
            read_manifest(str(path))

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(
            json.dumps({"schema": "repro-corpus-manifest", "version": 99}) + "\n"
        )
        with pytest.raises(CorpusError, match="newer"):
            read_manifest(str(path))

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "short.jsonl"
        path.write_text(
            json.dumps({"schema": "repro-corpus-manifest", "version": 1})
            + "\n"
            + json.dumps({"variant_id": "X~baseline"})
            + "\n"
        )
        with pytest.raises(CorpusError, match="missing field"):
            read_manifest(str(path))


class TestLoad:
    def test_digest_mismatch_rejected(self, corpus):
        load_builtins()
        record = next(r for r in corpus if r.operators)
        tampered = dataclasses.replace(record, digest="0" * 64)
        with pytest.raises(CorpusError, match="regenerate the manifest"):
            compile_variant(COMPONENTS.get(record.parent), tampered)

    def test_load_registers_and_variant_runs(self, corpus):
        record = next(
            r for r in corpus if r.operators == ("wait_if@put#0",)
        )
        loaded = load_corpus([record])
        cls = loaded[record.variant_id]
        assert COMPONENTS.get(record.variant_id) is cls
        assert cls.__name__ == record.class_name
        assert cls.__corpus_variant__ == record.variant_id
        factory = WORKLOADS.get(record.workload)(cls)
        result = factory(RandomScheduler(0)).run()
        assert result.steps > 0

    def test_static_checks_read_variant_source(self, corpus):
        """unsync variants must be visible to the T1 static analysis —
        the linecache plumbing behind exec'd classes."""
        record = next(
            r for r in corpus if r.operators == ("unsync@size#0",)
        )
        loaded = load_corpus([record], register=False)
        codes = {
            f.failure_class.code for f in check_component(loaded[record.variant_id])
        }
        assert "FF-T1" in codes


class TestMutant:
    def test_matches_the_corpus_variant(self, corpus):
        record = next(r for r in corpus if r.operators == ("wait_if@put#0",))
        parent = COMPONENTS.get(record.parent)
        built = mutant(parent, *record.operators)
        assert built.__name__ == record.class_name
        assert built.__corpus_variant__ == record.variant_id
        assert not issubclass(built, parent)  # recompiled, not subclassed
        compiled = compile_variant(parent, record)
        assert inspect.getsource(built.put) == inspect.getsource(compiled.put)

    def test_labels_apply_in_order(self):
        from repro.components import BoundedBuffer

        built = mutant(BoundedBuffer, "drop_notify@put#0", "wait_spin@get#0")
        assert "NotifyAll" not in inspect.getsource(built.put)
        assert "yield Yield()" in inspect.getsource(built.get)

    def test_bad_labels_rejected(self):
        from repro.components import BoundedBuffer

        with pytest.raises(CorpusError, match="malformed"):
            mutant(BoundedBuffer, "wait_if")
        with pytest.raises(MutationError, match="does not exist"):
            mutant(BoundedBuffer, "over_sync@put#3")

    def test_mutation_sites_lists_unswept_operators(self):
        from repro.components import BoundedBuffer

        labels = {s.label for s in mutation_sites(BoundedBuffer)}
        assert {"wait_if@put#0", "drop_wait@put#0", "extra_wait@size#0"} <= labels
