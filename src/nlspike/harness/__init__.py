"""Experiment harness: configs, sweep runners, CSV/JSON/SVG artifacts, CLI."""

from .config import ExperimentConfig, load_config, parse_config
from .sweeps import run_esd, run_experiment, run_predict, run_sweep
from .analysis import fit_transition_midpoint, load_table
from .svgplot import emit_plot
