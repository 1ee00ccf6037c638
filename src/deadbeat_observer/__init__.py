"""Hybrid dead-beat observers for systems linear in the unmeasured states."""

from .errors import (
    DeadbeatError,
    DimensionMismatch,
    DomainExit,
    KappaVanished,
    NonFiniteState,
    NonNegativeZ2,
    NotPositiveDefinite,
)
from .model import SystemSpec, make_lti, sampled_input
from .numerics import Grid, cumulative_trapezoid, integrate_rk4, spd_solve, trapezoid
from .observer import (
    EstimateTrace,
    ObserverConfig,
    ObserverSnapshot,
    observer_init,
    observer_step,
    run_observer,
)
from .plant import SensorModel, SimConfig, Trace, corrupt, simulate_plant
from .window import (
    Degenerate,
    Example26Spec,
    GramSummary,
    IoWindow,
    StronglyObservableOnWindow,
    WindowComputation,
    apply_P,
    compute_window,
    gram,
    indistinguishing_input,
    observability_certificate,
    reconstruct_initial,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
