"""Dynamic concurrency-failure detectors.

Public API::

    from repro.detect import (
        detect_races, LocksetDetector,            # FF-T1
        detect_lock_cycles, build_lock_graph,     # FF-T2/FF-T4 potential
        find_deadlock_cycle, reconstruct_final_state,  # actual deadlock
        analyze_starvation,                       # FF-T2/FF-T5 fairness
        Expectation, check_completion_times,      # the Table-1 oracle
        analyze_run, DetectionReport,             # the six at once
        DetectorPipeline,                         # streaming (online) form
        profile_contention,                       # a measurement, opt-in
    )

Every batch ``detect_*`` entry point above is a thin wrapper that replays
the trace through the corresponding ``Online*`` detector, and
:func:`analyze_run` replays it through a pipeline of the six default
detectors.  Contention is a measurement, not a failure: a pipeline runs
:class:`OnlineContentionProfiler` only where it names it.  Attach a
:class:`DetectorPipeline` to a kernel (``DetectorPipeline().attach(kernel)``,
or let :class:`repro.run.RunExecutor` do it per run) to run the same
analyses while the run executes, with no stored trace at all under
``trace_mode="none"``.
"""

from .online import (
    DetectionSummary,
    DetectorPipeline,
    OnlineDetector,
    default_detectors,
    replay,
)
from .contention import (
    ContentionReport,
    MonitorProfile,
    OnlineContentionProfiler,
    profile_contention,
)
from .completion import (
    Expectation,
    OnlineCompletionChecker,
    Violation,
    check_completion_times,
)
from .eraser import (
    FieldState,
    LocksetDetector,
    OnlineLocksetDetector,
    RaceReport,
    detect_races,
)
from .lockgraph import (
    LockOrderEdge,
    OnlineLockGraphDetector,
    PotentialDeadlock,
    build_lock_graph,
    detect_lock_cycles,
)
from .reentry import OnlineReentryDetector, ReentryFinding, detect_reentry
from .report import DetectionReport, analyze_run, assemble_report, dedupe_hb_races
from .starvation import OnlineStarvationDetector, StarvationReport, analyze_starvation
from .vectorclock import HbRace, OnlineHbDetector, VectorClock, detect_races_hb
from .waitgraph import (
    OnlineWaitGraphDetector,
    WaitForState,
    find_deadlock_cycle,
    reconstruct_final_state,
)

__all__ = [
    "ContentionReport",
    "MonitorProfile",
    "DetectionReport",
    "DetectionSummary",
    "DetectorPipeline",
    "Expectation",
    "FieldState",
    "HbRace",
    "LockOrderEdge",
    "LocksetDetector",
    "OnlineCompletionChecker",
    "OnlineContentionProfiler",
    "OnlineDetector",
    "OnlineHbDetector",
    "OnlineLockGraphDetector",
    "OnlineLocksetDetector",
    "OnlineReentryDetector",
    "OnlineStarvationDetector",
    "OnlineWaitGraphDetector",
    "PotentialDeadlock",
    "RaceReport",
    "ReentryFinding",
    "StarvationReport",
    "VectorClock",
    "Violation",
    "WaitForState",
    "analyze_run",
    "analyze_starvation",
    "assemble_report",
    "build_lock_graph",
    "check_completion_times",
    "dedupe_hb_races",
    "default_detectors",
    "detect_lock_cycles",
    "detect_races",
    "detect_races_hb",
    "detect_reentry",
    "profile_contention",
    "find_deadlock_cycle",
    "reconstruct_final_state",
    "replay",
]
