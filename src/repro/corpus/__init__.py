"""Mutation-based component corpus: generation, sweeps, detection rates.

The paper classifies concurrency failures over a handful of hand-written
components; this package mechanizes that ground truth at corpus scale.
:mod:`~repro.corpus.operators` rewrites correct components at the AST
level to inject known Table-1 failure classes (the package's one mutation
engine: :func:`mutant` builds a single mutant class from site labels for
tests and examples); :mod:`~repro.corpus.generate`
turns operator applications into a labeled, digest-verified JSONL
manifest of loadable variants; :mod:`~repro.corpus.sweep` fans the
corpus through the campaign engine (one resumable campaign per
variant); :mod:`~repro.corpus.report` joins detections against labels
into per-class precision/recall and a confusion table.

CLI: ``repro corpus generate | sweep | report`` (see the README
quickstart and ``docs/architecture.md``).
"""

from .generate import (
    CORPUS_DRIVERS,
    CorpusError,
    VariantRecord,
    compile_variant,
    generate_corpus,
    load_corpus,
    mutant,
    mutation_sites,
    read_manifest,
    resolve_component_name,
    write_manifest,
)
from .operators import (
    OPERATORS,
    MutationError,
    MutationOperator,
    MutationSite,
    apply_site,
    discover_sites,
)
from .report import ClassStats, CorpusReport, build_report
from .sweep import (
    SWEEP_DETECTORS,
    SweepResult,
    read_results,
    sweep_corpus,
    write_results,
)

__all__ = [
    "CORPUS_DRIVERS",
    "ClassStats",
    "CorpusError",
    "CorpusReport",
    "MutationError",
    "MutationOperator",
    "MutationSite",
    "OPERATORS",
    "SWEEP_DETECTORS",
    "SweepResult",
    "VariantRecord",
    "apply_site",
    "build_report",
    "compile_variant",
    "discover_sites",
    "generate_corpus",
    "load_corpus",
    "mutant",
    "mutation_sites",
    "read_manifest",
    "read_results",
    "resolve_component_name",
    "sweep_corpus",
    "write_manifest",
    "write_results",
]
