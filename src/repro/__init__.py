"""Reproduction of "A Classification of Concurrency Failures in Java
Components" (Brad Long & Paul Strooper, IPPS 2003).

Subpackages:

* :mod:`repro.petri` -- Petri-net engine and the Figure-1 concurrency model.
* :mod:`repro.vm` -- deterministic monitor virtual machine (the substrate
  standing in for JVM threads and ``synchronized``/``wait``/``notify``).
* :mod:`repro.analysis` -- static analysis building Concurrency Flow Graphs
  (CoFGs, Figure 3) from component source.
* :mod:`repro.classify` -- the Table-1 failure taxonomy, the HAZOP engine
  that derives it, and the trace classifier.
* :mod:`repro.detect` -- dynamic detectors (lockset races, lock-order and
  wait-for deadlocks, starvation, completion times, lost notifies).
* :mod:`repro.coverage` -- CoFG arc coverage measurement over VM traces.
* :mod:`repro.testing` -- deterministic test harness (ConAn-style clocked
  sequences), CoFG-driven sequence generation, schedule exploration.
* :mod:`repro.corpus` -- the mutation engine: AST operators seeding
  Table-1 failure classes, single mutants for tests, and the labeled
  variant corpus with its detection-rate sweeps.
* :mod:`repro.components` -- example monitor components, correct and faulty.
* :mod:`repro.report` -- emitters regenerating the paper's tables/figures.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
