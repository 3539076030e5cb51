"""Circle patterns, osculating Moebius transformations, and discrete
CMC-1 surfaces in hyperbolic 3-space."""

from .cmc1 import (
    HorosphericalNet,
    build_cmc1,
    dual_surface,
    extract_patterns,
    flat_patch_net,
    measure_net,
    parallel_area_derivative,
    parallel_net,
)
from .equidistant import (
    EquidistantNet,
    build_equidistant,
    extract_equidistant_patterns,
    verify_equidistant,
)
from .mesh import (
    LatticePatch,
    LatticeSpec,
    TriangulatedDisk,
    build_disk,
    interior_star,
    lattice_subcomplex,
)
from .minimal import (
    MoebiusVectorFrame,
    minimal_surface,
    osculating_vector_field,
    smooth_vector_osculating,
)
from .moebius import HermitianPoint, hyperbolic_distance
from .osculating import MoebiusFrame, coherent_lift, osculating_frame
from .pattern import (
    CirclePattern,
    CrossRatioSystem,
    angle_match,
    cross_ratios_of,
    develop,
    shear_match,
    verify_closure,
)
from .toda import (
    CellDecomposition,
    Labeling,
    cmc1_from_toda,
    equidistant_from_toda,
    family_xt,
    labeling_from,
    square_grid,
    square_grid_toda,
    tangent_check,
    triangulate,
    verify_toda,
)

__version__ = "0.1.0"
