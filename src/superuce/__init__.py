"""Exact universal central extensions of Lie superalgebras over Q.

The package constructs, from rational structure constants:

* the universal central extension of a Lie superalgebra as the quotient
  of the tensor square by the standard relation space, together with
  the canonical map back to the algebra and its kernel (second homology);
* first cyclic homology of an associative superalgebra via the quotient
  pairing and the commutator map;
* the classical matrix families gl, sl, osp, p, sq over builtin
  coefficient superalgebras, the supertrace cocycle on sl, and the
  Steinberg presentation checks inside the extension;
* finite directed systems, their colimits, and exact verification that
  universal central extensions commute with direct limits.

All arithmetic is exact: a rational is an int when integral and a
fractions.Fraction otherwise, and the elimination and validation kernels
run on ints; every result is deterministic bit for bit.  The `superuce`
console script exposes the same computations as subcommands emitting
JSON or text reports.
"""

from .linalg import (
    Echelon,
    QuotientPresentation,
    SparseMatrix,
    kernel_basis,
    quotient_space,
)
from .algebra import (
    AssocSuperalgebra,
    CertificateError,
    GradedBasis,
    GradedLinearMap,
    InvalidAlgebraError,
    LieSuperalgebra,
    Subspace,
    ValidationReport,
    centre,
    check_morphism,
    derived_subalgebra,
    is_perfect,
    lie_from_assoc,
    quotient_by_central,
    subalgebra_from_vectors,
    validate_assoc,
    validate_lie,
)
from .cyclic import CyclicPairs, cyclic_pairs, hc1
from .uce import (
    CentralExtension,
    Cocycle2,
    UceAlgebra,
    build_uce,
    extension_from_cocycle,
    h2,
    h2_cohomology_oracle,
    is_centrally_closed,
    uce_of_morphism,
    validate_cocycle,
)
from .matrices import (
    MatrixFamily,
    build_family,
    coefficient_algebra,
    corner_embedding,
    h_iso_check,
    steinberg_check,
    supertrace,
    tau_cocycle,
)
from .limits import (
    Colimit,
    DirectedPoset,
    DirectedSystem,
    InvalidSystemError,
    chain_system,
    colimit,
    factor_through,
    induced_colimit_map,
    limit_u,
    theorem_verify,
    uce_system,
    validate_system,
)

__version__ = "0.1.0"

__all__ = [
    "AssocSuperalgebra",
    "CentralExtension",
    "CertificateError",
    "Cocycle2",
    "Colimit",
    "CyclicPairs",
    "DirectedPoset",
    "DirectedSystem",
    "Echelon",
    "GradedBasis",
    "GradedLinearMap",
    "InvalidAlgebraError",
    "InvalidSystemError",
    "LieSuperalgebra",
    "MatrixFamily",
    "QuotientPresentation",
    "SparseMatrix",
    "Subspace",
    "UceAlgebra",
    "ValidationReport",
    "build_family",
    "build_uce",
    "centre",
    "chain_system",
    "check_morphism",
    "coefficient_algebra",
    "colimit",
    "corner_embedding",
    "cyclic_pairs",
    "derived_subalgebra",
    "extension_from_cocycle",
    "factor_through",
    "h2",
    "h2_cohomology_oracle",
    "h_iso_check",
    "hc1",
    "induced_colimit_map",
    "is_centrally_closed",
    "is_perfect",
    "kernel_basis",
    "lie_from_assoc",
    "limit_u",
    "quotient_by_central",
    "quotient_space",
    "steinberg_check",
    "subalgebra_from_vectors",
    "supertrace",
    "tau_cocycle",
    "theorem_verify",
    "uce_of_morphism",
    "uce_system",
    "validate_assoc",
    "validate_cocycle",
    "validate_lie",
    "validate_system",
]
