"""Local cluster statistics of Delone point sets and certificates of the
global structure they imply: regular-system and crystal criteria, local
antipodality, reconstruction from a single 2R-cluster, and decomposition
into lattice cosets.
"""

from types import ModuleType as _ModuleType

from .scalars import QuadExt, Radical, quadext
from .geometry import (ConvergenceError, Isometry, Lattice, Tolerance, apply,
                       compose, point_inversion, points_equal, identity,
                       translation)
from .sets import (Chain, Cluster, DeloneParams, DistanceSpectrum,
                   PointSetHandle, TruncationError, WindowTooSmallError,
                   build_periodic, build_window, cluster, covering_radius,
                   crop_to_window, delone_params, distance_spectrum,
                   packing_radius, two_r_chain)
from .classify import (ClusterClass, ClusterGroup, ClusterPartition,
                       Fingerprint, InfiniteGroupError, NRhoProfile,
                       classify, cluster_group, cluster_group_of,
                       clusters_equivalent, fingerprint,
                       group_orders_by_class, n_profile)
from .criteria import (AntipodalReport, CosetDecomposition, CriterionReport,
                       DecompositionError, NotAntipodalError,
                       ReconstructionError,
                       antipodal_lattice_decomposition, certify_auto,
                       check_crystal_criterion, check_global_antipodality,
                       check_regular_criterion, is_locally_antipodal,
                       reconstruct_from_2R_cluster)
from .fileio import read_point_set, write_point_set

__version__ = "0.1.0"

# Fixture generators and SVG output load on first use: most commands need
# neither.  The core layers above stay eager, so ``delone.classify`` is the
# function rather than its submodule.
_LAZY = dict.fromkeys(("CrystalSpec", "ShiftSequence", "ShiftedRowSpec",
                       "gen_coset_union", "gen_crystal", "gen_lattice",
                       "gen_shifted_rows", "honeycomb", "square_lattice",
                       "three_coset_fixture", "triangular_lattice"), "generators")
_LAZY["render_svg"] = "svg"

# A star import copies only the names listed here; the lazy ones among them
# it fetches through ``__getattr__``.
__all__ = sorted([n for n, v in globals().items() if not n.startswith("_")
                  and not isinstance(v, _ModuleType)] + [*_LAZY])


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted([*globals(), *_LAZY])
