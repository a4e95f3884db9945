"""Deterministic testing harness (the ConAn method, refs [19, 20]).

Public API::

    from repro.testing import (
        TestSequence, TestCall,                     # clocked sequences
        SequenceRunner, run_sequence,               # the driver
        generate_covering_sequence, CallTemplate,   # CoFG-driven generation
        annotate_expectations,                      # golden-run oracles
        explore_systematic, explore_random,         # schedule exploration
        explore_pct, RunSummary, wilson_interval,   # shared with repro.engine
    )

Mutants to test against come from :func:`repro.corpus.mutant`.
"""

from .driver import SequenceOutcome, SequenceRunner, run_sequence
from .explorer import (
    ExplorationResult,
    ExplorationRun,
    RunSummary,
    explore_for_coverage,
    explore_pct,
    explore_random,
    explore_systematic,
    wilson_interval,
)
from .generator import (
    CallTemplate,
    GenerationResult,
    annotate_expectations,
    generate_covering_sequence,
)
from .regression import RegressionSuite, SuiteReport
from .script import ParsedScript, ScriptError, parse_script, render_script, run_script
from .sequence import TestCall, TestSequence

__all__ = [
    "CallTemplate",
    "ExplorationResult",
    "ExplorationRun",
    "GenerationResult",
    "ParsedScript",
    "RegressionSuite",
    "RunSummary",
    "ScriptError",
    "SequenceOutcome",
    "SequenceRunner",
    "SuiteReport",
    "TestCall",
    "TestSequence",
    "annotate_expectations",
    "explore_for_coverage",
    "explore_pct",
    "explore_random",
    "explore_systematic",
    "wilson_interval",
    "generate_covering_sequence",
    "parse_script",
    "render_script",
    "run_sequence",
    "run_script",
]
