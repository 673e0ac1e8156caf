"""Ahead-of-time static analysis over decoded Alpha programs.

The subsystem PCC itself does not need — validation alone admits — but
which closes the two gaps the paper leaves open ahead of time, in the
same no-run-time-checks spirit:

* :mod:`repro.analysis.cfg` — basic-block CFG recovery (leaders, edges,
  reachability, dominators, natural loops);
* :mod:`repro.analysis.intervals` — a sound interval abstract
  interpreter over 64-bit words with widening, classifying every
  LDQ/STQ against the policy's memory regions;
* :mod:`repro.analysis.wcet` — worst-case cycle bounds from the CFG and
  the cost model (exact for loop-free filters; the source of
  ``cycle_budget="auto"``);
* :mod:`repro.analysis.lint` — advisory diagnostics with a stable
  report structure;
* :mod:`repro.analysis.prescreen` — the loader's opt-in sound
  fast-reject path, plus :func:`analyze_program` bundling every pass.
"""

from repro.analysis.cfg import build_cfg
from repro.analysis.intervals import (
    AnalysisContext,
    analyze_intervals,
    checksum_context,
    context_for_policy,
    packet_filter_context,
)
from repro.analysis.lint import lint_program
from repro.analysis.prescreen import analyze_program, prescreen_blob
from repro.analysis.wcet import estimate_wcet

__all__ = [
    "AnalysisContext",
    "analyze_intervals",
    "analyze_program",
    "build_cfg",
    "checksum_context",
    "context_for_policy",
    "estimate_wcet",
    "lint_program",
    "packet_filter_context",
    "prescreen_blob",
]
