"""Verification harness: configs, suites, inequality runners, reports, CLI."""

from .config import INEQUALITY_CATALOG, ConfigError, ExperimentConfig, default_config
from .inequalities import (MedianDecay, median_decay_check, reevaluate_witness,
                           refinement_study, run_inequality, witness_diagnostics)
from .report import SCHEMA_VERSION, GridRecord, Report
from .suite import draw_suite_params, generate_suite, realize
