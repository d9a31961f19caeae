"""Golden outputs: every subcommand's JSON report on every fixture, and the
polyhedral subcommands on one input per polyhedral family, ``cox-full`` on
one larger cyclic input and on one with a large exponent, and both Cox-ring subcommands on one cyclic input
with non-real, non-integral points; and every subcommand's pretty report on
every fixture (``<cmd>.<fixture>.pretty.out``).

Each case runs ``sl2cox.cli.main`` in process from the repository root (so the
report's input path is ``fixtures/<name>.json`` or
``tests/golden/inputs/<name>.json``) and compares its exit code and stdout
byte for byte with ``tests/golden``.  Regenerate the files, only when an
output change is intended, with::

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import os

import pytest

from sl2cox import cli
from sl2cox.cli import main

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
FIXTURES = ("affine_mu5", "mu3", "sl2_trivial_4pts", "tetrahedral")
COMMANDS = {
    "validate": [],
    "classgroup": [],
    "cox-u": ["--verify", "--special-fiber"],
    "cox-full": ["--verify"],
    "diagnose": [],
    "iterate": [],
    "batyrev-haddad": [],
}
# one input per polyhedral family not covered by the fixtures, each with
# divisors over xv, xe, xf and one extra point; dihedral(3) has lambda = 4i
POLYHEDRAL = ("dihedral3", "dihedral4", "octahedral", "icosahedral")
POLYHEDRAL_COMMANDS = ("cox-u", "classgroup", "diagnose", "iterate")
# mu_12 with two extra points and (1, -1) over every point: n-bar = 6, so the
# self-products of the section modules and the cross products both carry
# several Clebsch-Gordan components
CYCLIC = ("cyclic12",)
# mu_6 with extra points [1/2 + i : 3] and [2/3 : i] and l = -1/2 over x0: the
# relations carry coefficients such as 1/2 + i, 3 - i/2 and 2i/3
GAUSS = ("cyclic6_gauss",)
# mu_9 with extra point [1:1], (1, -1) and (1, -9) over x0 and (1, -1) over
# xinf and x1: one relation needs the r-exponent 137, past any small cap
DEEP = ("cyclic9_deep",)
CASES = ([(cmd, fx) for cmd in COMMANDS for fx in FIXTURES]
         + [(cmd, fx) for cmd in POLYHEDRAL_COMMANDS for fx in POLYHEDRAL]
         + [("cox-full", fx) for fx in CYCLIC + DEEP]
         + [(cmd, fx) for cmd in ("cox-full", "cox-u") for fx in GAUSS])
PRETTY_CASES = [(cmd, fx) for cmd in COMMANDS for fx in FIXTURES]


def _argv(cmd: str, fx: str, fmt: str = "json") -> list[str]:
    path = f"fixtures/{fx}.json" if fx in FIXTURES else f"tests/golden/inputs/{fx}.json"
    return [cmd, *COMMANDS[cmd], path, "--format", fmt]


def _out_path(cmd: str, fx: str, fmt: str = "json") -> str:
    suffix = ".pretty" if fmt == "pretty" else ""
    return os.path.join(GOLDEN, f"{cmd}.{fx}{suffix}.out")


def _code_key(cmd: str, fx: str, fmt: str = "json") -> str:
    return f"{cmd} {fx}" + (" pretty" if fmt == "pretty" else "")


def _exit_codes() -> dict:
    with open(os.path.join(GOLDEN, "exit_codes.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _check(cmd, fx, fmt, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    rc = main(_argv(cmd, fx, fmt))
    out = capsys.readouterr().out
    with open(_out_path(cmd, fx, fmt), "rb") as fh:
        expected = fh.read()
    assert rc == _exit_codes()[_code_key(cmd, fx, fmt)]
    assert out.encode("utf-8") == expected


@pytest.mark.parametrize("cmd,fx", CASES)
def test_golden_output(cmd, fx, capsys, monkeypatch):
    _check(cmd, fx, "json", capsys, monkeypatch)


@pytest.mark.parametrize("cmd,fx", PRETTY_CASES)
def test_golden_pretty_output(cmd, fx, capsys, monkeypatch):
    _check(cmd, fx, "pretty", capsys, monkeypatch)


def test_every_subcommand_has_goldens():
    assert set(cli.COMMANDS) == set(COMMANDS)


def _regenerate() -> None:
    import contextlib
    import io

    os.makedirs(GOLDEN, exist_ok=True)
    os.chdir(ROOT)
    codes = {}
    cases = [(*c, "json") for c in CASES] + [(*c, "pretty") for c in PRETTY_CASES]
    for cmd, fx, fmt in cases:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            codes[_code_key(cmd, fx, fmt)] = main(_argv(cmd, fx, fmt))
        with open(_out_path(cmd, fx, fmt), "wb") as fh:
            fh.write(buf.getvalue().encode("utf-8"))
    with open(os.path.join(GOLDEN, "exit_codes.json"), "w", encoding="utf-8") as fh:
        json.dump(codes, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    _regenerate()
