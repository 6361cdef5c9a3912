"""Start-up cost: the modules each command-line call loads, the parser's
literal choices, and the lazy package namespace behind them."""

import argparse
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_api import PUBLIC

import treespace
from treespace import cli, verify
from treespace.generators import TreeFamily
from treespace.rearrange import OpKind

# Runs cli.main in a fresh interpreter and writes the modules it loaded,
# beyond those the interpreter started with, one per line to argv[1].
PROBE = """
import sys

before = set(sys.modules)
from treespace import cli

try:
    code = cli.main(sys.argv[2:])
except SystemExit as exc:
    code = exc.code
with open(sys.argv[1], "w") as out:
    out.write("\\n".join(sorted(set(sys.modules) - before)))
sys.exit(code)
"""

BASE = {"treespace", "treespace.cli", "treespace.errors"}
READ = BASE | {"treespace.tree_core", "treespace.newick_io"}
ALL = READ | {f"treespace.{m}" for m in ("metrics", "rearrange", "generators", "extremal", "verify")}
VERIFY = BASE | {"treespace.tree_core", "treespace.metrics", "treespace.verify"}  # what every suite loads


def loaded_modules(tmp_path: Path, *argv: str) -> set[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(treespace.__file__).parents[1])
    listing = tmp_path / "modules.txt"
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(listing), *argv],
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return set(listing.read_text().split())


@pytest.fixture(scope="module")
def tree_file(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("startup") / "tree.nwk"
    path.write_text("((1,2),(3,4),(5,(6,7)));\n")
    return str(path)


CALLS = {
    "version": (("--version",), BASE),
    "info": (("info", "{tree}"), READ | {"treespace.metrics", "treespace.extremal"}),
    "neighbourhood": (("neighbourhood", "{tree}", "--op", "tbr", "--multiplicities"), READ | {"treespace.rearrange"}),
    "emit-trees": (("neighbourhood", "{tree}", "--op", "spr", "--emit-trees"), READ | {"treespace.rearrange"}),
    "generate": (
        ("generate", "--family", "random", "--n", "9", "--seed", "1"),
        READ | {"treespace.metrics", "treespace.generators"},
    ),
    "table": (
        ("table", "--what", "tbr-size", "--family", "perfect", "--n-max", "64"),
        BASE | {"treespace.tree_core", "treespace.metrics"},
    ),
    # One thread, so that the surveys run in this process whatever the CPU
    # count.  extremal is not loaded: the workers are forked by generators.
    "formulas": (("verify", "--suite", "formulas", "--n-max", "4", "--threads", "1"), ALL - {"treespace.extremal"}),
    "redundancy": (("verify", "--suite", "redundancy", "--n-max", "4", "--threads", "1"), ALL - {"treespace.extremal"}),
    # Two threads: the surveys run in the forked workers, so this process
    # loads neither rearrange nor newick_io.
    "formulas-threads": (
        ("verify", "--suite", "formulas", "--n-max", "5", "--threads", "2"),
        VERIFY | {"treespace.generators"},
    ),
    "extremal": (
        ("verify", "--suite", "extremal", "--n-max", "4"),
        VERIFY | {"treespace.generators", "treespace.extremal"},
    ),
    "asymptotic": (("verify", "--suite", "asymptotic"), VERIFY),
}


@pytest.mark.parametrize("call", CALLS)
def test_import_budget(tmp_path, tree_file, call):
    """Each call loads exactly the treespace modules its subcommand runs,
    never dataclasses, and numpy only for the asymptotic sweep.  inspect
    arrives only with numpy, which imports it itself.  Workers are forked
    directly, without concurrent.futures or multiprocessing."""
    argv, modules = CALLS[call]
    loaded = loaded_modules(tmp_path, *(arg.format(tree=tree_file) for arg in argv))
    assert {m for m in loaded if m.split(".")[0] == "treespace"} == modules
    assert "dataclasses" not in loaded
    assert not {m for m in loaded if m.split(".")[0] in ("concurrent", "multiprocessing")}
    assert ("numpy" in loaded) == (call == "asymptotic")
    assert ("inspect" in loaded) <= ("numpy" in loaded)


def test_import_treespace_loads_no_submodule():
    """A plain ``import treespace`` loads nothing more, and each submodule
    then loads as an attribute of the package when first read."""
    env = dict(os.environ, PYTHONPATH=str(Path(treespace.__file__).parents[1]))
    code = (
        "import sys, treespace\n"
        "print(sorted(m for m in sys.modules if m.startswith('treespace')))\n"
        "print([getattr(treespace, m).__name__ for m in sorted(treespace._EXPORTS)])\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    modules = sorted(treespace._EXPORTS)
    assert out.splitlines() == ["['treespace']", repr([f"treespace.{m}" for m in modules])]


def parser_choices(command: str, dest: str) -> list[str]:
    (subparsers,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    (action,) = [a for a in subparsers.choices[command]._actions if a.dest == dest]
    return list(action.choices)


def test_parser_choices_match_their_sources():
    """The literal choices, which spare the parser three imports, list the
    enums in their order and the verify.<suite>_suite functions by name."""
    assert parser_choices("neighbourhood", "op") == [k.value for k in OpKind]
    assert parser_choices("generate", "family") == [f.value for f in TreeFamily]
    suites = sorted(name[: -len("_suite")] for name in vars(verify) if name.endswith("_suite"))
    assert parser_choices("verify", "suite") == suites


def test_suites_resolve_by_name():
    """cmd_verify calls verify.<suite>_suite for each choice; each is a function of verify's own."""
    for name in parser_choices("verify", "suite"):
        suite = getattr(verify, f"{name}_suite")
        assert inspect.isfunction(suite) and suite.__module__ == verify.__name__, name


class TestLazyNamespace:
    def test_every_public_name_resolves(self):
        for name in PUBLIC:
            value = getattr(treespace, name)
            if name in treespace._EXPORTS:
                assert value is sys.modules[f"treespace.{name}"]
            else:
                assert value is getattr(sys.modules[f"treespace.{treespace._MODULE_OF[name]}"], name)

    def test_star_import(self):
        namespace: dict = {}
        exec("from treespace import *", namespace)
        assert PUBLIC <= namespace.keys()
        for name in PUBLIC:
            assert namespace[name] is getattr(treespace, name)

    def test_dir_lists_every_public_name(self):
        assert PUBLIC <= set(dir(treespace))
        assert "__version__" in dir(treespace)

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            treespace.no_such_name
        assert not hasattr(treespace, "verify_suites")
