"""Golden outputs of the command line: one small fixed invocation of every
subcommand, compared by the sha256 of its input digest and results.

Reports are byte-identical across versions apart from the timing block,
so any change to these digests is an output change and must be listed
in CHANGES.md.  Run this file as a script to print the current digests.
"""

import hashlib
import json

import pytest

from superuce import cli

BROKEN_JACOBI = json.dumps({
    "kind": "lie",
    "basis": [{"name": "x", "parity": "even"}, {"name": "y", "parity": "even"},
              {"name": "z", "parity": "even"}],
    "products": [
        {"left": "x", "right": "y", "result": [{"basis": "z", "num": "1", "den": "1"}]},
        {"left": "y", "right": "x", "result": [{"basis": "z", "num": "-1", "den": "1"}]},
        {"left": "x", "right": "z", "result": [{"basis": "x", "num": "1", "den": "2"}]},
        {"left": "z", "right": "x", "result": [{"basis": "x", "num": "-1", "den": "2"}]},
    ],
})

SL21_G1 = ["--family", "sl", "--m", "2", "--n", "1", "--coeff", "Grassmann(1)"]

# name: (argv, exit code, sha256 of [input_digest, results]); "{broken}" is
# replaced by the path of a file holding BROKEN_JACOBI
GOLDEN = {
    "validate": (["validate", *SL21_G1], 0,
                 "27edef938c790d8be1adc901f84653291b511930605a5d62514a1727a7ae81a6"),
    "validate-file": (["validate", "--file", "{broken}"], 1,
                      "4183b87e97dbacfbb3b3753275ae0cee62c26f560ff477f17bf9724a8bfb1107"),
    "uce": (["uce", "--family", "sl", "--m", "3", "--coeff", "Q[t]/(t^2)"], 0,
            "158a66fa822145cc769a6f2286c66262f9247ed627057e2a000e561bd6151f5e"),
    "uce-table": (["uce", *SL21_G1, "--table"], 0,
                  "008cab9272b9c2876e25473d74ad5a2fb8896e983a593781b6b1a63db67b6eb7"),
    "h2": (["h2", *SL21_G1], 0,
           "99e102ac56b01f958da758cdd7b7835855799c204239f890556d8bc766bfcf44"),
    "hc1": (["hc1", "--coeff", "Grassmann(2)"], 0,
            "273b5ae4bc4b6e10532deefc30521c09ba9ad5398fabbec999523d46791e7a8c"),
    "centre": (["centre", "--family", "gl", "--m", "2", "--n", "1"], 0,
               "2134b3dbdc578732fe4b0f897ce01ca96fb77809efc91e4878c2bb7eadb75ff4"),
    "perfect": (["perfect", "--family", "osp", "--m", "1", "--n", "2"], 0,
                "c16c7c6f99f2552559063c84e074446df7b7fdd9808e5f9bbdf7fcc77f90fad9"),
    "construct": (["construct", "--family", "sq", "--m", "2", "--n", "2"], 0,
                  "33966d8caca97b4e63cf89cf45a3e98a5c61afcf380694d1c09f0fb67d0bf82d"),
    "cocycle-check": (["cocycle-check", *SL21_G1], 0,
                      "687ae329191ead39aea85ce426523156cdd1c1d0bc0598d7dfc24f5c080a5c3c"),
    "steinberg-check": (["steinberg-check", "--family", "sl", "--m", "3",
                         "--coeff", "Q[t]/(t^2)", "--seed", "3"], 0,
                        "26df21f0496f03e79ca10815a4d22dcb5a016aa3f9b0e050d1a32b6ed80a06ae"),
    "h-iso-check": (["h-iso-check", "--family", "sl", "--m", "4", "--n", "1"], 0,
                    "63fcca5924cab85f722f9c79ea51bf6511452fafdd3469625b762a9cb260346c"),
    "limit-check": (["limit-check", "--chain", "sl:2..4:Q"], 0,
                    "b24b9d534a874532c82d65264a6fccb18e76e3fc0ecadeaf7c8a0b279ca5a592"),
}


def digest(argv, broken_path):
    argv = [broken_path if tok == "{broken}" else tok for tok in argv]
    report, code = cli.run(argv)
    body = json.dumps([report["input_digest"], report["results"]], indent=2)
    return code, hashlib.sha256(body.encode()).hexdigest()


@pytest.fixture(scope="module")
def broken_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "broken.json"
    path.write_text(BROKEN_JACOBI)
    return str(path)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_report(name, broken_path):
    argv, want_code, want = GOLDEN[name]
    assert digest(argv, broken_path) == (want_code, want)


def test_every_subcommand_covered():
    assert {argv[0] for argv, _, _ in GOLDEN.values()} == set(cli._COMMANDS)


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "broken.json"
        path.write_text(BROKEN_JACOBI)
        for name, (argv, _, _) in GOLDEN.items():
            print(name, *digest(argv, str(path)))
