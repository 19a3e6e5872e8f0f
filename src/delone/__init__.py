"""Local cluster statistics of Delone point sets and certificates of the
global structure they imply: regular-system and crystal criteria, local
antipodality, reconstruction from a single 2R-cluster, and decomposition
into lattice cosets.
"""

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
from .generators import (CrystalSpec, ShiftSequence, ShiftedRowSpec,
                         gen_coset_union, gen_crystal, gen_lattice,
                         gen_shifted_rows, honeycomb, square_lattice,
                         three_coset_fixture, triangular_lattice)
from .fileio import read_point_set, write_point_set
from .svg import render_svg

__version__ = "0.1.0"
