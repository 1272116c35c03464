"""Coupled kinetic-fluid solver on a periodic box, with a verification harness."""

from . import diagnostics, driver, fluid, initial, io, oracle, particles
from .diagnostics import (
    SeriesRecorder,
    fit_decay_exponent,
    verify_timeseries,
)
from .domain import (
    BoxSpec,
    ConfigError,
    InitSpec,
    KernelSpec,
    OutputSpec,
    SimConfig,
    eval_phi,
    validate_config,
)
from .driver import SimState, SimulationUnstable, resume_run, run
from .io import parse_config, read_snapshot, read_timeseries, serialize_config

__version__ = "0.1.0"
