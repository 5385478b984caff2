"""Separation and imaging of stationary and moving point scatterers.

The package simulates synthetic-aperture echo traces for mixed scenes,
separates the moving targets from the stationary background by
annihilation filtering, removal of located stationary echoes and
windowed low-rank/sparse decomposition,
estimates mover velocities, forms motion-compensated backprojection
images, and studies the rank structure of the trace covariance.
"""

from .annihil import (
    AnnihilationPlan,
    AnnihilationStage,
    annihilate,
    energy_ratio_db,
    locate_stationary,
    predict_annihilation_factor,
    remove_stationary,
    slow_diff,
    tt_forward,
    tt_inverse,
)
from .geom import (
    C_LIGHT,
    Aperture,
    CircularTrajectory,
    LinearTrajectory,
    ViewFrame,
    compose_velocity,
    decompose_velocity,
    delta_tau,
    delta_tau_moving,
    make_frame,
    travel_time,
)
from .imaging import (
    ImageGrid,
    SarImage,
    half_power_width,
    image,
    image_compensated,
    image_points,
    peak_extract,
    profile,
)
from .io import read_trace, scene_from_dict, scene_to_dict, write_pgm, write_trace
from .motion import (
    MoverSeparation,
    VelocityEstimate,
    estimate_cross_speed,
    estimate_location,
    estimate_motion,
    estimate_range_speed,
    g_curve,
    g_perp_curve,
    separate_movers,
    trial_velocity,
)
from .presets import list_presets, load_preset, preset_scene
from .ranklab import (
    RankReport,
    analyze,
    build_structured,
    covariance,
    numeric_rank,
    rank_study,
    szego_fraction,
    theoretical_covariance,
)
from .rpca import (
    PcpSolution,
    SeparationResult,
    WindowLayout,
    choose_window,
    pcp_solve,
    separate_windowed,
)
from .scene import Radar, SceneSpec, Target, simulate, simulate_split
from .signal import (
    FastTimeAxis,
    TraceMatrix,
    crop_gate,
    make_gate,
    pulse,
    range_compress,
    range_expand,
)

__version__ = "0.1.0"
