"""Perfect and spherical bitrades in Hamming graphs.

Constructions (permutation parity, MDS code differences and cosets,
tensor combination, the perfect lift), independent verification against
the equivalent characterizations, and exhaustive or local search for
minimum-volume bitrades.
"""

from types import ModuleType as _ModuleType

from .construct import (
    KINDS,
    PERFECT,
    SPHERICAL,
    Bitrade,
    alt_bitrade,
    lift_to_perfect,
    mds_bitrade,
    tensor_combine,
    tensor_power,
)
from .fields import FieldTable, build_field
from .hamming import (
    Code,
    HammingParams,
    Word,
    code_distance,
    hamming_distance,
    min_distance,
)
from .linear import ParityCheckCode, coset, rs_mds_code, sum_zero_code, verify_mds
from .search import (
    SearchConfig,
    SearchResult,
    find_spherical,
    min_perfect_volume,
)
from .serialize import (
    FORMAT_VERSION,
    dumps_json,
    dumps_text,
    from_document,
    load_bitrade,
    loads_json,
    loads_text,
    save_bitrade,
    to_document,
)
from .verify import (
    CHECKS,
    SignedFunction,
    VerificationReport,
    check_bitrade,
    definition_check,
    delsarte_face_check,
    delsarte_order,
    dist2_count_check,
    dist2_pair_check,
    eigen_check,
)

__version__ = "0.1.0"

# the names imported above and the version, not the submodules those imports bind
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + ["__version__"]
