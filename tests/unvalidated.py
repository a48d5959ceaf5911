"""Algebras built without validation, for the tests that need an object
the public constructors refuse or should not re-check: a corrupted table
for a certificate test, a random table for a validator checked against
its reference.  The table and the unit are cleaned as the constructors
clean them, by algebra._clean_table and linalg._clean_vector; only the
validation is left out, through the package's own _derived path.
"""

from superuce.algebra import AssocSuperalgebra, LieSuperalgebra, _clean_table
from superuce.linalg import _clean_vector


def lie(basis, table) -> LieSuperalgebra:
    return LieSuperalgebra._derived(basis, _clean_table(basis, table))


def assoc(basis, table, unit) -> AssocSuperalgebra:
    return AssocSuperalgebra._derived(basis, _clean_table(basis, table),
                                      _clean_vector(unit, len(basis), "unit"))
