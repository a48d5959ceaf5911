"""End-to-end command line tests, run in-process through main() and, for the
declared console script, in a child interpreter."""

import importlib.util
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import superuce
from superuce import build_family, cli, coefficient_algebra
from superuce.cli import (
    algebra_to_json,
    main,
    parse_algebra,
    rational_from_json,
    rational_to_json,
    run,
)

from test_weight_blocks import corrupt_a_stored_row

QT2_FILE = {
    "kind": "assoc",
    "basis": [{"name": "1", "parity": "even"}, {"name": "t", "parity": "even"}],
    "products": [
        {"left": "1", "right": "1", "result": [{"basis": "1", "num": "1", "den": "1"}]},
        {"left": "1", "right": "t", "result": [{"basis": "t", "num": "1", "den": "1"}]},
        {"left": "t", "right": "1", "result": [{"basis": "t", "num": "1", "den": "1"}]},
    ],
    "unit": [{"basis": "1", "num": "1", "den": "1"}],
}

SL2_FILE = {
    "kind": "lie",
    "basis": [{"name": "e", "parity": "even"},
              {"name": "h", "parity": "even"},
              {"name": "f", "parity": "even"}],
    "products": [
        {"left": "h", "right": "e", "result": [{"basis": "e", "num": "2", "den": "1"}]},
        {"left": "e", "right": "h", "result": [{"basis": "e", "num": "-2", "den": "1"}]},
        {"left": "h", "right": "f", "result": [{"basis": "f", "num": "-2", "den": "1"}]},
        {"left": "f", "right": "h", "result": [{"basis": "f", "num": "2", "den": "1"}]},
        {"left": "e", "right": "f", "result": [{"basis": "h", "num": "1", "den": "1"}]},
        {"left": "f", "right": "e", "result": [{"basis": "h", "num": "-1", "den": "1"}]},
    ],
}


def run_json(argv, capsys):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, json.loads(out.out)


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# ------------------------------------------------------------------- rationals

def test_rational_round_trip():
    for x in (Fraction(0), Fraction(2), Fraction(-7, 3), Fraction(10**40, 9)):
        assert rational_from_json(rational_to_json(x)) == x


def test_a_string_part_is_an_ascii_decimal(tmp_path, capsys):
    """A string num or den is [+-]?[0-9]+ in ASCII digits.  int() also
    reads an underscore, surrounding whitespace and other scripts'
    digits; each is an input error here, also in a file that would
    otherwise be sl(2)."""
    assert rational_from_json({"num": "+12", "den": "-03"}) == -4
    for text in ("1_000", " 7 ", "7\n", "\u0661", "", "+", "--1", "0x10", "1.0"):
        for obj in ({"num": text, "den": "1"}, {"num": "1", "den": text}):
            with pytest.raises(cli.InputError):
                rational_from_json(obj)
    for n, (num, neg) in enumerate([("\u0661", "-\u0661"), (" 1 ", "-1"), ("0_1", "-1")]):
        data = json.loads(json.dumps(SL2_FILE))
        for entry in data["products"]:
            if {entry["left"], entry["right"]} == {"e", "f"}:
                entry["result"][0]["num"] = num if entry["left"] == "e" else neg
        assert main(["uce", "--file", write(tmp_path, f"sl2_{n}.json", data)]) == 2
        assert capsys.readouterr().err.startswith("error: bad rational")


# --------------------------------------------------------------- algebra files

def test_parse_truncated_polynomials(tmp_path):
    alg = parse_algebra(QT2_FILE)
    assert alg.dim == 2
    assert alg.is_supercommutative()


def test_parse_round_trip():
    alg = parse_algebra(QT2_FILE)
    again = parse_algebra(algebra_to_json(alg))
    assert again.table == alg.table and again.unit == alg.unit


def test_duplicate_basis_names_rejected(tmp_path, capsys):
    data = dict(QT2_FILE, basis=[{"name": "t", "parity": "even"},
                                 {"name": "t", "parity": "even"}])
    path = write(tmp_path, "dup.json", data)
    assert main(["validate", "--file", path]) == 2
    assert "duplicate" in capsys.readouterr().err


# basis names with a comma: the pairs (p,q ; q) and (p ; q,q) both read p,q,q
COMMA_NAMES = ["q", "p,q", "q,q", "p"]
COMMA_LIE = {"kind": "lie", "basis": [{"name": x, "parity": "even"} for x in COMMA_NAMES],
             "products": []}
COMMA_ASSOC = {
    "kind": "assoc",
    "basis": [{"name": x, "parity": "even"} for x in [*COMMA_NAMES, "1"]],
    "products": [{"left": left, "right": right, "result": [{"basis": x, "num": "1", "den": "1"}]}
                 for left, right, x in [("1", "1", "1"), *[(a, b, x) for x in COMMA_NAMES
                                                           for a, b in (("1", x), (x, "1"))]]],
    "unit": [{"basis": "1", "num": "1", "den": "1"}],
}


@pytest.mark.parametrize("command, data, key", [
    ("uce", COMMA_LIE, "basis"), ("h2", COMMA_LIE, "vectors"), ("hc1", COMMA_ASSOC, "vectors"),
])
def test_pair_labels_stay_distinct_when_basis_names_have_commas(tmp_path, capsys, command, data, key):
    """A label that two free pairs share is primed on its later pair, in
    column order; every other pair keeps its plain label."""
    code, report = run_json([command, "--file", write(tmp_path, "comma.json", data)], capsys)
    labels = report["results"][key]
    if key == "vectors":
        labels = [term["basis"] for vec in labels for term in vec]
    left, right = ("<<", ">>") if command == "hc1" else ("<", ">")
    plain = ["p,q,q", "q,q,q", "q,q,p,q", "p,q", "p,p,q"]
    assert code == 0
    assert labels == [f"{left}{x}{right}" for x in plain] + [f"{left}p,q,q{right}'"]


def test_a_product_pair_listed_twice_is_an_input_error(tmp_path, capsys):
    """A second entry for (h, e) is refused, not written over the first."""
    once = {"left": "h", "right": "e", "result": [{"basis": "e", "num": "1", "den": "1"}]}
    path = write(tmp_path, "twice.json", dict(SL2_FILE, products=[once, *SL2_FILE["products"]]))
    assert main(["validate", "--file", path]) == 2
    assert capsys.readouterr().err == "error: product (h, e) is listed twice\n"


def test_unit_terms_are_summed_like_product_terms(tmp_path, capsys):
    """Two halves of 1 read as 1 in the unit, as they already did in a
    product result."""
    half = {"basis": "1", "num": "1", "den": "2"}
    data = dict(QT2_FILE, unit=[half, half])
    products = json.loads(json.dumps(QT2_FILE["products"]))
    products[0]["result"] = [half, half]
    data["products"] = products
    alg = parse_algebra(data)
    assert alg.unit == {0: 1} and alg.table[0][0] == {0: 1}
    assert main(["validate", "--file", write(tmp_path, "halves.json", data)]) == 0


def test_broken_jacobi_reported(tmp_path, capsys):
    data = json.loads(json.dumps(SL2_FILE))
    # corrupt [h,e] = 2e into [h,e] = e (skew kept, Jacobi broken)
    for entry in data["products"]:
        if {entry["left"], entry["right"]} == {"h", "e"}:
            entry["result"][0]["num"] = "1" if entry["left"] == "h" else "-1"
    path = write(tmp_path, "broken.json", data)
    code, report = run_json(["validate", "--file", path], capsys)
    assert code == 1
    laws = {v["law"] for v in report["results"]["violations"]}
    assert "jacobi" in laws
    # a computing subcommand refuses the same file outright
    assert main(["h2", "--file", path]) == 1
    assert "invalid algebra" in capsys.readouterr().err


LIE_ONCE, ASSOC_ONCE = {"validate_lie": 1, "validate_assoc": 0}, {"validate_lie": 0, "validate_assoc": 1}


@pytest.mark.parametrize("argv, code, calls", [
    (["--file", SL2_FILE], 0, LIE_ONCE),
    (["--file", QT2_FILE], 0, ASSOC_ONCE),
    # [h,e] = 0 leaves sl(2) skew but breaks Jacobi at (h, e, f)
    (["--file", dict(SL2_FILE, products=SL2_FILE["products"][2:])], 1, LIE_ONCE),
    (["--file", dict(QT2_FILE, unit=[])], 1, ASSOC_ONCE),
    # the coefficient algebra Q is validated where it enters, by its constructor
    (["--family", "sl", "--m", "2"], 0, {"validate_lie": 1, "validate_assoc": 1}),
])
def test_validate_checks_the_input_once(monkeypatch, tmp_path, capsys, argv, code, calls):
    """A file is validated as parse_algebra builds it, and an invalid one's
    violations are read off InvalidAlgebraError; a family is validated by
    the command itself.  No validator runs twice, and nothing is cached
    between runs: a second run in the same process validates as much."""
    argv = [write(tmp_path, "doc.json", x) if isinstance(x, dict) else x for x in argv]
    counts = _count_where_bound(monkeypatch, ("validate_lie", "validate_assoc"))
    for _ in range(2):
        counts.update(dict.fromkeys(counts, 0))
        code_got, report = run_json(["validate", *argv], capsys)
        assert code_got == code and report["results"]["valid"] == (code == 0)
        assert counts == calls


def test_a_nonzero_even_diagonal_is_reported_once(tmp_path, capsys):
    """[h,h] = e for even h breaks skew-symmetry at one pair, (h, h), and
    is one violation worded for the diagonal."""
    data = {"kind": "lie", "basis": [{"name": "h", "parity": "even"}, {"name": "e", "parity": "even"}],
            "products": [{"left": "h", "right": "h", "result": [{"basis": "e", "num": "1", "den": "1"}]}]}
    code, report = run_json(["validate", "--file", write(tmp_path, "hh.json", data)], capsys)
    assert code == 1
    assert report["results"]["violations"] == [
        {"law": "skew", "where": ["h", "h"], "detail": "[x,x] != 0 for even x"}]


def test_lie_file_through_uce(tmp_path, capsys):
    path = write(tmp_path, "sl2.json", SL2_FILE)
    code, report = run_json(["uce", "--file", path, "--table"], capsys)
    assert code == 0
    res = report["results"]
    assert res["dim_input"] == 3 and res["dim_uce"] == 3
    assert res["perfect"] and res["centrally_closed"]
    # structure constants are reported over the extension's own basis
    assert res["table"]
    assert all(row["left"] in res["basis"] and row["right"] in res["basis"]
               for row in res["table"])


# ------------------------------------------------------------ frozen examples

def test_h2_of_sl5(capsys):
    code, report = run_json(
        ["h2", "--family", "sl", "--m", "5", "--n", "0", "--coeff", "Q"], capsys)
    assert code == 0
    assert report["results"]["dim_h2"] == 0


def test_hc1_of_square_zero_plane(capsys):
    code, report = run_json(["hc1", "--coeff", "Q[x,y]/(x,y)^2"], capsys)
    assert code == 0
    assert report["results"]["dim_hc1"] == 1


@pytest.mark.slow
def test_limit_check_truncated_chain(capsys):
    code, report = run_json(
        ["limit-check", "--family", "sl", "--coeff", "Q[t]/(t^2)",
         "--chain", "5..7"], capsys)
    assert code == 0
    res = report["results"]
    assert res["phi_bijective"] is True
    assert res["h2_dims"] == [0, 0, 0]
    assert res["ok"] is True


def test_limit_check_small_chain_and_system_file(tmp_path, capsys):
    code, r1 = run_json(["limit-check", "--chain", "sl:3..4:Q"], capsys)
    assert code == 0 and r1["results"]["ok"]
    data = {"kind": "sl", "coeff": "Q",
            "members": [[3, 0], [4, 0]], "relation": [[0, 1]]}
    path = write(tmp_path, "system.json", data)
    code, r2 = run_json(["limit-check", "--system", path], capsys)
    assert code == 0
    assert r2["results"] == r1["results"]


def test_only_an_absent_relation_makes_a_chain(tmp_path, capsys):
    """Without "relation" the members form a chain in file order; an
    empty relation is used as given, and two unrelated members are not
    directed."""
    data = {"kind": "sl", "coeff": "Q", "members": [[2, 0], [3, 0]]}
    code, chain = run_json(["limit-check", "--chain", "sl:2..3:Q"], capsys)
    code, absent = run_json(["limit-check", "--system", write(tmp_path, "absent.json", data)],
                            capsys)
    assert code == 0 and absent["results"] == chain["results"]
    path = write(tmp_path, "empty.json", {**data, "relation": []})
    assert main(["limit-check", "--system", path]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "error: no upper bound for 0, 1: poset is not directed\n")


def test_limit_check_echoes_only_the_arguments_it_used(capsys):
    """A full chain names its own family and coefficients, so none is
    echoed; a bare span echoes the coefficients it was built over, Q
    when --coeff is absent, and hashes the same chain text."""
    code, full = run_json(["limit-check", "--chain", "sl:2..3:Q"], capsys)
    assert code == 0 and full["arguments"] == {"chain": "sl:2..3:Q"}
    code, bare = run_json(["limit-check", "--chain", "2..3", "--family", "sl"], capsys)
    assert code == 0
    assert bare["arguments"] == {"chain": "2..3", "coeff": "Q", "family": "sl"}
    assert (bare["input_digest"], bare["results"]) == (full["input_digest"], full["results"])
    code, grass = run_json(["limit-check", "--chain", "2,1..3,1", "--family", "sl",
                            "--coeff", "Grassmann(1)"], capsys)
    assert code == 0 and grass["arguments"]["coeff"] == "Grassmann(1)"
    code, named = run_json(["limit-check", "--chain", "sl:2,1..3,1:Grassmann(1)"], capsys)
    assert (grass["input_digest"], grass["results"]) == (named["input_digest"], named["results"])


def test_limit_check_refuses_family_or_coeff_it_would_ignore(tmp_path, capsys):
    path = write(tmp_path, "system.json",
                 {"kind": "sl", "coeff": "Q", "members": [[2, 0], [3, 0]]})
    message = ("error: --family and --coeff apply to a bare-span --chain only; "
               "a full --chain or a --system names its own\n")
    for source in (["--chain", "sl:2..3:Q"], ["--system", path]):
        for extra in (["--family", "gl"], ["--family", "sl"], ["--coeff", "Q"],
                      ["--coeff", "Grassmann(1)"]):
            argv = ["limit-check", *source, *extra]
            assert main(argv) == 2, argv
            out = capsys.readouterr()
            assert (out.out, out.err) == ("", message), argv


# ------------------------------------------------------------------- verdicts

def test_perfect_exit_codes(capsys):
    assert main(["perfect", "--family", "sl", "--m", "3"]) == 0
    capsys.readouterr()
    code, report = run_json(["perfect", "--family", "gl", "--m", "2"], capsys)
    assert code == 1
    assert report["results"]["perfect"] is False


def test_centre_of_gl2(capsys):
    code, report = run_json(["centre", "--family", "gl", "--m", "2"], capsys)
    assert code == 0
    assert report["results"]["dim_centre"] == 1


def test_h2_warns_on_non_perfect(capsys):
    code, report = run_json(["h2", "--family", "gl", "--m", "2"], capsys)
    assert code == 0
    assert "warning" in report["results"]


def test_family_checks(capsys):
    code, report = run_json(
        ["cocycle-check", "--family", "sl", "--m", "3", "--coeff", "Grassmann(1)"],
        capsys)
    assert code == 0 and report["results"]["valid"]
    code, report = run_json(
        ["steinberg-check", "--family", "sl", "--m", "2", "--n", "1"], capsys)
    assert code == 0 and report["results"]["ok"]
    code, report = run_json(
        ["h-iso-check", "--family", "sl", "--m", "5", "--coeff", "Q[t]/(t^2)"],
        capsys)
    assert code == 0
    res = report["results"]
    assert res["bijective"] and res["dim_h2"] == res["dim_hc1"] == 0


def test_construct_feeds_back_into_validate(tmp_path, capsys):
    code, report = run_json(
        ["construct", "--family", "osp", "--m", "1", "--n", "2"], capsys)
    assert code == 0
    assert report["results"]["dim"] == 5
    path = write(tmp_path, "osp.json", report["results"]["algebra"])
    code, report = run_json(["validate", "--file", path], capsys)
    assert code == 0 and report["results"]["valid"]


# ---------------------------------------------------------------- usage errors

def test_usage_errors(tmp_path, capsys):
    bad = [
        ["h2", "--family", "sl"],                                  # missing --m
        ["h2", "--family", "sl", "--m", "3", "--coeff", "nope"],   # unknown coeff
        ["h2"],                                                    # no input at all
        ["hc1"],                                                   # neither flag
        ["hc1", "--coeff", "Q", "--file", "x.json"],               # both flags
        ["h2", "--file", "/nonexistent.json"],                     # unreadable
        ["steinberg-check", "--family", "gl", "--m", "3"],         # sl only
        ["steinberg-check", "--family", "sl", "--m", "1", "--n", "1"],
        ["h-iso-check", "--family", "sl", "--m", "2"],             # m + n < 5
        ["construct", "--family", "osp", "--m", "1", "--n", "1"],  # odd osp block
        ["limit-check"],                                           # no system
        ["limit-check", "--chain", "5..7"],                        # span, no family
        ["limit-check", "--chain", "sl:7..5:Q"],                   # decreasing
        ["limit-check", "--chain", "garbage"],
    ]
    one_basis = [{"name": "a", "parity": "even"}]
    for name, products in [
        ("products5.json", 5),                                     # products not a list
        ("result5.json", [{"left": "a", "right": "a", "result": 5}]),  # result not a list
    ]:
        path = write(tmp_path, name, {"kind": "lie", "basis": one_basis, "products": products})
        bad.append(["validate", "--file", path])
    for name, num, den in [
        ("float_num.json", 1.5, "1"),                              # not an exact integer
        ("bool_den.json", "0", True),                              # a boolean is no integer
        ("null_num.json", None, "1"),
    ]:
        term = {"basis": "a", "num": num, "den": den}
        products = [{"left": "a", "right": "a", "result": [term]}]
        path = write(tmp_path, name, {"kind": "lie", "basis": one_basis, "products": products})
        bad.append(["validate", "--file", path])
    for name, field, value in [
        ("coeff5.json", "coeff", 5),                               # coefficient name not a string
        ("relation_list.json", "relation", [[[0], 1]]),            # unhashable member index
        ("no_members.json", "members", []),                        # empty poset
    ]:
        data = {"kind": "sl", "coeff": "Q", "members": [[2, 0], [3, 0]], field: value}
        bad.append(["limit-check", "--system", write(tmp_path, name, data)])
    for argv in bad:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:"), (argv, err)


def _json_paths(doc, prefix=()):
    """Every key path below the root of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _json_paths(value, prefix + (key,))


def _replaced(doc, path, value):
    out = json.loads(json.dumps(doc))
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


SL_SYSTEM = {"kind": "sl", "coeff": "Q", "members": [[2, 0], [3, 0]], "relation": [[0, 1]]}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3)
    | st.floats(-3, 3, allow_nan=False)
    | st.sampled_from(["", "0", "1", "-2", "1.5", "e", "h", "f", "even", "odd",
                       "lie", "assoc", "sl", "gl", "Q"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["kind", "basis", "name", "parity", "left", "right",
                         "result", "num", "den", "unit"]), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_cli_is_total_on_mutated_documents(tmp_path_factory, data):
    # one field of a valid algebra or system document becomes any JSON value
    doc, argv = data.draw(st.sampled_from([
        (SL2_FILE, ["h2", "--file"]),
        (QT2_FILE, ["hc1", "--file"]),
        (SL_SYSTEM, ["limit-check", "--system"]),
    ]))
    path = data.draw(st.sampled_from(list(_json_paths(doc))))
    mutated = _replaced(doc, path, data.draw(json_values))
    target = tmp_path_factory.mktemp("fuzz") / "doc.json"
    target.write_text(json.dumps(mutated))
    code = main([*argv, str(target)])
    assert code in (0, 1, 2), (mutated, code)


def test_limit_check_builds_each_colimit_once(monkeypatch):
    counts = {}

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return inner(*args, **kwargs)
        return wrapper

    names = ("colimit", "uce_system", "validate_system", "factor_through",
             "build_uce", "uce_of_morphism")
    for name in names:
        monkeypatch.setattr(superuce.limits, name, counted(superuce.limits, name))
    centre_calls = _count_where_bound(monkeypatch, ("centre",))
    k = 3
    _, code = run(["limit-check", "--chain", "sl:2..4:Q"])
    assert code == 0
    # one extension per member; the colimit is the top member, so none more;
    # one lift per covering pair, the other transitions being composites,
    # which theorem_verify reuses; no centre, as build_uce has certified
    # the kernel central
    assert {**counts, **centre_calls} == {
        "colimit": 2, "uce_system": 1, "validate_system": 2,
        "factor_through": 2, "centre": 0, "build_uce": k,
        "uce_of_morphism": k - 1}


DIAMOND = {"kind": "sl", "coeff": "Q", "members": [[2, 0], [3, 0], [3, 0], [4, 0]],
           "relation": [[0, 1], [0, 2], [1, 3], [2, 3], [0, 3]]}


@pytest.mark.parametrize("chain,covers", [
    ("sl:2..14:Q", 12),  # 13 members, 78 strictly related pairs
    (None, 4),           # DIAMOND: 5 strictly related pairs, 0 <= 3 no cover
])
def test_limit_check_checks_each_cover_map_once_per_system(monkeypatch, tmp_path, chain, covers):
    """validate_system runs check_morphism on the covers only, for the
    system and for its system of extensions: 2 * covers calls."""
    calls = []
    inner = superuce.limits.check_morphism
    monkeypatch.setattr(superuce.limits, "check_morphism",
                        lambda *args: calls.append(args) or inner(*args))
    source = ["--chain", chain] if chain else ["--system", write(tmp_path, "d.json", DIAMOND)]
    _, code = run(["limit-check", *source])
    assert code == 0
    assert len(calls) == 2 * covers


def _count_where_bound(monkeypatch, names):
    """Count calls of each name in every superuce module that binds it."""
    counts = dict.fromkeys(names, 0)
    modules = (superuce.algebra, superuce.cyclic, superuce.uce, superuce.matrices,
               superuce.limits, superuce.cli)
    for module in modules:
        for name in names:
            inner = getattr(module, name, None)
            if inner is None:
                continue

            def wrapper(*args, _inner=inner, _name=name, **kwargs):
                counts[_name] += 1
                return _inner(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)
    return counts


@pytest.mark.parametrize("command,pairs_built", [("h-iso-check", 1), ("steinberg-check", 0)])
def test_sl_checks_build_each_object_once(monkeypatch, command, pairs_built):
    counts = _count_where_bound(monkeypatch, ("build_family", "build_uce", "cyclic_pairs"))
    _, code = run([command, "--family", "sl", "--m", "3", "--n", "2", "--coeff", "Grassmann(1)"])
    assert code == 0
    assert counts == {"build_family": 1, "build_uce": 1, "cyclic_pairs": pairs_built}


def test_h_iso_check_refuses_coefficients_before_building(monkeypatch, capsys):
    counts = _count_where_bound(monkeypatch, ("build_uce",))
    assert main(["h-iso-check", "--family", "sl", "--m", "5", "--coeff", "Mat(2,0;Q)"]) == 2
    assert "supercommutative" in capsys.readouterr().err
    assert counts == {"build_uce": 0}


@pytest.mark.parametrize("argv, cells", [
    (["h2"], 0),
    (["uce"], 0),
    (["uce", "--table"], 2010),
], ids=["h2", "uce", "uce --table"])
def test_only_uce_table_projects_extension_cells(monkeypatch, argv, cells):
    """h2 and uce without --table read the extension basis off u and
    never build the extension table; uce --table projects its 2,010
    reachable cells on sl(7;Q[t]/(t^2)), once each."""
    calls = []
    project = superuce.uce.QuotientPresentation.project
    monkeypatch.setattr(superuce.uce.QuotientPresentation, "project",
                        lambda self, v: calls.append(v) or project(self, v))
    _, code = run([*argv, "--family", "sl", "--m", "7", "--coeff", "Q[t]/(t^2)"])
    assert code == 0
    assert len(calls) == cells


def test_certificate_failure_exits_1(monkeypatch, capsys):
    # a failed certificate is a mathematical failure, not a usage error
    corrupt_a_stored_row(monkeypatch, build_family("sl", 3, 0, coefficient_algebra("Q")).algebra)
    assert main(["h2", "--family", "sl", "--m", "3", "--coeff", "Q"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("certificate failed: canonical map u:"), err


def test_both_file_and_family_rejected(tmp_path, capsys):
    path = write(tmp_path, "a.json", QT2_FILE)
    assert main(["validate", "--file", path, "--family", "sl", "--m", "3"]) == 2


def test_hc1_rejects_lie_file(tmp_path, capsys):
    path = write(tmp_path, "sl2.json", SL2_FILE)
    assert main(["hc1", "--file", path]) == 2


def test_malformed_json_rejected(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    assert main(["validate", "--file", str(path)]) == 2


def test_zero_denominator_rejected(tmp_path, capsys):
    data = json.loads(json.dumps(QT2_FILE))
    data["products"][0]["result"][0]["den"] = "0"
    path = write(tmp_path, "zero.json", data)
    assert main(["validate", "--file", str(path)]) == 2


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["h2", "--family", "sl", "--m", "3", "--frobs", "4"])
    assert exc.value.code == 2


# -------------------------------------------------------------------- reports

def test_report_key_order(capsys):
    _, report = run_json(["centre", "--family", "sl", "--m", "2"], capsys)
    assert list(report.keys()) == [
        "command", "version", "arguments",
        "input_digest", "results", "timing",
    ]


def test_report_deterministic(capsys):
    argv = ["h2", "--family", "sl", "--m", "3", "--n", "2", "--coeff", "Grassmann(1)"]
    _, first = run_json(argv, capsys)
    _, second = run_json(argv, capsys)
    first.pop("timing")
    second.pop("timing")
    assert json.dumps(first, indent=2) == json.dumps(second, indent=2)


def test_argument_echo_keeps_zero_values(capsys):
    _, report = run_json(["h2", "--family", "sl", "--m", "3", "--n", "0"], capsys)
    assert report["arguments"]["n"] == 0


def test_text_format(capsys):
    code = main(["h2", "--family", "sl", "--m", "3", "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "command: h2"
    assert "dim_h2: 0" in lines
    assert lines[-1].startswith("elapsed:")


@pytest.mark.parametrize("flag", [["--form", "text"], ["--format=text"]])
def test_text_format_read_from_the_parsed_arguments(capsys, flag):
    # argparse accepts a unique prefix of --format, and its value is the one emitted
    code = main(["perfect", "--family", "sl", "--m", "2", *flag])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[0] == "command: perfect"
    assert "perfect: True" in lines


def test_console_script():
    # Launch the [project.scripts] entry point the way pip's generated
    # wrapper does, so the test needs no installed `superuce` executable.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["superuce"]
    module, attr = entry.split(":")
    launcher = ("import sys, importlib; sys.argv[0] = 'superuce'; "
                f"sys.exit(getattr(importlib.import_module({module!r}), {attr!r})())")
    src = str(Path(superuce.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", launcher,
         "h2", "--family", "sl", "--m", "3", "--n", "0"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"]["dim_h2"] == 0


def test_python_m_runs_the_cli(tmp_path):
    """`python -m superuce.cli` runs the command line from a source tree
    on PYTHONPATH, with its exit codes."""
    src = str(Path(superuce.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)

    def run_module(*argv):
        return subprocess.run([sys.executable, "-m", "superuce.cli", *argv],
                              capture_output=True, text=True, env=env, cwd=tmp_path,
                              timeout=120)

    proc = run_module("h2", "--family", "sl", "--m", "2")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["results"]["dim_h2"] == 0
    proc = run_module("limit-check")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: pass exactly one of --chain or --system\n"


def test_a_closed_stdout_ends_quietly_with_the_exit_code():
    """A reader that takes one byte and closes the pipe leaves no
    traceback: the report is larger than a pipe buffer, so the write
    fails, and the command still exits 0 with nothing on stderr."""
    src = str(Path(superuce.__file__).resolve().parent.parent)
    proc = subprocess.Popen(
        [sys.executable, "-m", "superuce.cli", "uce", "--family", "sl", "--m", "4",
         "--coeff", "Q[t]/(t^2)", "--table"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), err) == (0, b"")


def test_same_output_usage_needs_no_tree(tmp_path):
    """tools/same_output.py prints its usage line for -h or --help, and
    to stderr with exit code 2 for another option or a tree without
    src/superuce, before it runs any invocation."""
    tool = Path(__file__).resolve().parent.parent / "tools" / "same_output.py"
    usage = "usage: python tools/same_output.py PARENT_TREE [CHANGE_TREE]\n"
    for args, code, out, err in [(["--help"], 0, usage, ""), (["-h"], 0, usage, ""),
                                 (["--tree"], 2, "", usage), ([str(tmp_path)], 2, "", usage)]:
        proc = subprocess.run([sys.executable, str(tool), *args], capture_output=True, text=True,
                              timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err), args


def test_every_same_output_invocation_parses():
    """tools/same_output.py compares a fixed list of invocations on two
    trees; each must still be a valid command line, and each file it
    names must exist, so the list cannot rot."""
    path = Path(__file__).resolve().parent.parent / "tools" / "same_output.py"
    spec = importlib.util.spec_from_file_location("same_output", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert len(tool.INVOCATIONS) == len({tuple(argv) for argv in tool.INVOCATIONS})
    for argv in tool.INVOCATIONS:
        args = cli._parser().parse_args(argv)
        for path in (getattr(args, "file", None), getattr(args, "system", None)):
            assert path in (None, *tool.DOCUMENTS) or Path(path).is_file(), argv
