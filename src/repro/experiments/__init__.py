"""Experiment harness: one module per figure/table of the paper.

Every registry module exposes ``run(scale, seeds=...)`` returning
result rows, ``TABLES``, the titles and columns the CLI
(:mod:`repro.experiments.runner`) prints them under, and ``CLAIMS``, the
paper's claims about those rows, which the CLI checks after the run;
``tlt-experiment all`` regenerates the evaluation.
"""

from repro.experiments.scenarios import ScenarioConfig, ScenarioResult, run_scenario
from repro.experiments.scale import SCALES, Scale
from repro.experiments.parallel import (
    ExecutionContext,
    Job,
    JobResult,
    configure,
    execution,
    get_context,
    run_jobs,
)

__all__ = [
    "ScenarioConfig", "ScenarioResult", "run_scenario", "SCALES", "Scale",
    "ExecutionContext", "Job", "JobResult", "configure", "execution",
    "get_context", "run_jobs",
]
