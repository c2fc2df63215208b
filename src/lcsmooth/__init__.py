"""Loop-closure smoothing for black-box dead-reckoned subsea trajectories."""

from .factors import LoopClosureMeasurement
from .solver import FactorGraph, SolveReport, SolverConfig, build_graph, solve
from .trajectory import Trajectory
from .wnoa import WnoaPsd

__version__ = "0.1.0"

__all__ = [
    "FactorGraph",
    "LoopClosureMeasurement",
    "SolveReport",
    "SolverConfig",
    "Trajectory",
    "WnoaPsd",
    "build_graph",
    "solve",
    "__version__",
]
