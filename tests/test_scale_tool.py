"""The work counters of tools/scale.py repeat exactly from run to run.

Times move with the host; the counters (the pairs each derived Lie table
visits, the extension's on its first access, the torus systems solved,
the weight-0 relation rows generated and the rows the presentation
stores) do not, so two runs on the
smallest size must print the same ones, and the package functions they
wrap are restored.
"""

import importlib.util
from pathlib import Path

from superuce import algebra, uce

PATH = Path(__file__).resolve().parent.parent / "tools" / "scale.py"
spec = importlib.util.spec_from_file_location("scale", PATH)
scale = importlib.util.module_from_spec(spec)
spec.loader.exec_module(scale)


def test_the_counters_repeat_on_the_smallest_size():
    before = (algebra._lie_from_pairs, uce._lie_from_pairs, algebra._bilinear, algebra.kernel_basis,
              uce._tensor_relations)
    m, coeff = scale.SIZES[0]
    first = scale.counters(scale.member_job(m, coeff))
    assert first == scale.counters(scale.member_job(m, coeff))
    assert first == ({
        "pairs visited by UceAlgebra.lie": 2010,
        "pairs visited by lie_from_assoc": 4854,
        "pairs visited by subalgebra_from_vectors": 2010,
        "weight-0 relation rows generated": 611,  # of 1,474 weight-0 rows
    }, 300)  # and 300 stored RREF rows
    assert (algebra._lie_from_pairs, uce._lie_from_pairs, algebra._bilinear,
            algebra.kernel_basis, uce._tensor_relations) == before
