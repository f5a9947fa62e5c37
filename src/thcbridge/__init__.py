"""Most-likely transition pathways of bistable 1D diffusions.

The package solves the forward density equation and the backward hitting
equation of an additive-noise SDE on a fixed grid, multiplies two density
surfaces into a pathway density (see :mod:`thcbridge.bridge`), and tracks
its per-slice argmax to locate the abrupt switch between metastable states.
The built-in drift is the reduced salinity dynamics of a two-box ocean
circulation model.
"""

from .model import (
    CessiReduced,
    DimensionalParams,
    DoubleWell,
    DriftModel,
    Equilibrium,
    LinearOU,
    ModelError,
    NondimensionalParams,
    ZeroDrift,
    find_equilibria,
    nondimensionalize,
)
from .fpe import (
    DensitySurface,
    GridError,
    NoiseIntensity,
    SolverError,
    SpatialGrid,
    TimeGrid,
    delta_init,
    hitting_probability,
    mass,
    solve_backward,
    solve_endpoint_conditioned,
    solve_forward,
    stationary_density,
)
from .bridge import (
    BridgeSpec,
    JumpEvent,
    MLPath,
    SweepRecord,
    bridge_density,
    detect_jump,
    ml_path,
    solve_bridge,
    solve_path,
    sweep_noise,
)
from .montecarlo import (
    EnsembleConfig,
    HistogramSurface,
    HittingEstimate,
    estimate_hitting_probability,
    euler_maruyama_ensemble,
    l1_distance,
)

__version__ = "0.1.0"
