"""Exact binary-code and lattice arithmetic behind the bound of 16
disjoint nodal curves on a complex K3 surface, plus a du Val
singularity-configuration checker.

The package is pure standard-library Python: GF(2) vectors are
bit-packed integers, lattice arithmetic is exact over the integers and
rationals, and every verification emits a deterministic certificate.
"""

from .gf2 import Gf2Matrix, RrefResult, kernel, rref
from .codes import (
    BeauvilleReport,
    ExtensionCertificate,
    ExtensionWitness,
    LinearCode,
    ResourceLimitError,
    WeightDistribution,
    code_d,
    dual,
    from_generators,
    gaussian_binomial,
    is_isomorphic_to_d,
    is_isotropic,
    permutation_equivalent,
    reed_muller,
    reed_muller_generators,
    verify_beauville,
    verify_no_extension,
    weight_distribution,
)
from .lattice import (
    CodeLattice,
    DiscriminantGroup,
    basis_determinant,
    determinant,
    discriminant_group,
    even_eight_lattice,
    gamma_from_code,
    is_even,
    is_integral,
    is_negative_definite,
    kummer_lattice,
    leading_principal_minors,
)
from .duval import (
    AdmissibilityReport,
    CoverVerdict,
    DuValConfig,
    EvenSetClass,
    NodalCodeConstraints,
    SuiteReport,
    TheoremCertificate,
    classify_even_set,
    code_dim_lower_bound,
    verify_all,
    verify_max_sixteen,
)

__version__ = "0.1.0"

# the import blocks above are the one list of public names, so __all__
# cannot drift from them: every public object they bind, in binding order
__all__ = [
    name for name, value in vars().items()
    if not name.startswith("_") and getattr(value, "__module__", "").startswith("k3nodal.")
]
