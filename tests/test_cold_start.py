"""What importing the program and starting a command cost.

A CLI user pays the import of superuce and superuce.cli on every
invocation.  The package writes its records as plain classes, so that
import loads none of the modules behind `dataclasses`; it still loads
every module of the package, so no command compiles one inside its own
time.  In one process the argument parser is built once: a later
command parses with the same parser and reports the same results.
"""

import argparse
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import superuce
from superuce import cli

PACKAGE = Path(superuce.__file__).resolve().parent

PROBE = ("import json, sys; before = set(sys.modules); import superuce, superuce.cli; "
         "print(json.dumps(sorted(set(sys.modules) - before)))")


def test_import_loads_the_whole_package_and_no_dataclass_machinery():
    # the snapshot before the import keeps what site preloads out of the count
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize"}
    package = {"superuce"} | {f"superuce.{p.stem}" for p in PACKAGE.glob("*.py")
                              if p.stem != "__init__"}
    assert {m for m in loaded if m.split(".")[0] == "superuce"} == package


def _without_timing(report: dict) -> str:
    out = io.StringIO()
    cli.emit_report({k: v for k, v in report.items() if k != "timing"}, "json", out)
    return out.getvalue()


def test_commands_in_one_process_share_one_parser(monkeypatch, capsys):
    argv = ["h2", "--family", "sl", "--m", "2", "--coeff", "Q[t]/(t^2)"]
    first, code = cli.run(argv)
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    second, second_code = cli.run(argv)
    assert cli.main(argv) == code == second_code == 0
    assert built == []
    printed = json.loads(capsys.readouterr().out)
    assert _without_timing(second) == _without_timing(first) == _without_timing(printed)
