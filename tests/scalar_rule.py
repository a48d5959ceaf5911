"""The scalar rule of the package: a rational is an int when it is
integral and a Fraction only where a denominator exists; no value is a
float.

scalar_faults walks an object the package built (tables, vectors, map
columns, presentations, reports) and returns every value that breaks the
rule.
"""

from fractions import Fraction


def scalar_faults(obj, path="obj", skip=()) -> list:
    """(path, value) of each float and each Fraction with denominator 1
    in obj.

    Dicts (keys and values), lists, tuples and sets are walked, and so is
    every attribute (slot or instance field) of an object of a superuce
    class; every object is visited once.  The objects in skip (a caller's
    own inputs, say) are not walked.
    """
    faults: list = []
    seen: set = {id(x) for x in skip}
    stack = [(obj, path)]
    while stack:
        x, where = stack.pop()
        if isinstance(x, (float, Fraction)):
            if isinstance(x, float) or x.denominator == 1:
                faults.append((where, x))
            continue
        if isinstance(x, (int, str)) or x is None or id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, dict):
            for k, v in x.items():
                stack.append((k, f"{where} key"))
                stack.append((v, f"{where}[{k!r}]"))
        elif isinstance(x, (list, tuple, set, frozenset)):
            stack.extend((v, f"{where}[{i}]") for i, v in enumerate(x))
        elif type(x).__module__.startswith("superuce."):
            names = {n for cls in type(x).__mro__ for n in getattr(cls, "__slots__", ())}
            names |= set(getattr(x, "__dict__", {}))
            stack.extend((getattr(x, n), f"{where}.{n}") for n in sorted(names)
                         if hasattr(x, n))
    return faults
