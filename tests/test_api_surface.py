"""The public API has one argument shape per computation.

Every parameter with a default in the functions and classes of
superuce.__all__ (and in cli.parse_algebra) is listed here on purpose.
A function takes the object it works on and builds what it derives from
it; a parameter that lets a caller pass in a second copy of a derived
object, or one nobody passes, is a knob this test refuses until it is
added to ALLOWED deliberately.
"""

import inspect

import superuce
from superuce import cli

ALLOWED = {
    "Echelon.__init__:track",
    "Echelon.insert:tag",
    "steinberg_check:seed",
}


def _public_callables():
    """(qualified name, function) for every public function and every
    __init__ or public method of a public class."""
    out = [("cli.parse_algebra", cli.parse_algebra)]
    for name in superuce.__all__:
        obj = getattr(superuce, name)
        if inspect.isfunction(obj):
            out.append((name, obj))
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if attr.startswith("_") and attr != "__init__":
                    continue
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                if inspect.isfunction(member):
                    out.append((f"{name}.{attr}", member))
    return out


def _parameters(fn):
    return inspect.signature(fn).parameters.values()


def test_every_defaulted_parameter_is_on_the_allowlist():
    found = {f"{qual}:{p.name}"
             for qual, fn in _public_callables()
             for p in _parameters(fn) if p.default is not inspect.Parameter.empty}
    assert found == ALLOWED


def test_no_public_extension_cache():
    assert "UceMemo" not in superuce.__all__
    assert not hasattr(superuce, "UceMemo")
    assert not hasattr(superuce.uce, "UceMemo")


def test_each_check_takes_the_object_it_works_on():
    names = {qual: [p.name for p in _parameters(fn)] for qual, fn in _public_callables()}
    assert names["tau_cocycle"] == ["fam"]
    assert names["h_iso_check"] == ["fam"]
    assert names["steinberg_check"] == ["fam", "seed"]
    assert names["hc1"] == ["A"]
    assert names["validate_cocycle"] == ["tau"]
    assert names["extension_from_cocycle"] == ["tau"]
    for qual in ("uce_system", "limit_u", "theorem_verify"):
        assert names[qual] == ["system"], qual
    for qual, params in names.items():
        assert "memo" not in params and "pairs" not in params, qual
