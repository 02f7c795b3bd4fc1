"""Parameter-free multi-level spherical LSH for near-neighbor range reporting.

Point sets are normalized onto the unit sphere, a hash family is calibrated
by Monte Carlo at the target radius, the index is sized from the measured
collision probabilities, and each query adaptively picks how deep to look
and how many buckets to probe.
"""

# the package re-exports these names
from .calibration import (
    CalibrationError,
    CollisionEstimate,
    FamilyCalibration,
    calibrate,
    edge_probabilities,
    estimate_collision_prob,
    rho,
    theoretical_rho,
)
from .families import (
    CodeEnumerator,
    FamilyParams,
    hash_batch,
    probe_sequence,
)
from .geometry import (
    Dataset,
    PlantedInstance,
    generate_planted_instance,
    map_query,
    normalize_dataset,
)
from .index import (
    IndexFormatError,
    MultiLevelIndex,
    build_index,
    compute_k,
    compute_numreps,
    load_index,
    reps,
)
from .query import (
    ExaminedSetting,
    QueryReport,
    adaptive_multiprobe,
    brute_force_range,
    fixed_level_query,
    single_probe_adaptive,
)

__version__ = "0.1.0"

__all__ = [
    "CalibrationError",
    "CodeEnumerator",
    "CollisionEstimate",
    "Dataset",
    "ExaminedSetting",
    "FamilyCalibration",
    "FamilyParams",
    "IndexFormatError",
    "MultiLevelIndex",
    "PlantedInstance",
    "QueryReport",
    "adaptive_multiprobe",
    "brute_force_range",
    "build_index",
    "calibrate",
    "compute_k",
    "compute_numreps",
    "edge_probabilities",
    "estimate_collision_prob",
    "fixed_level_query",
    "generate_planted_instance",
    "hash_batch",
    "load_index",
    "map_query",
    "normalize_dataset",
    "probe_sequence",
    "reps",
    "rho",
    "single_probe_adaptive",
    "theoretical_rho",
]
