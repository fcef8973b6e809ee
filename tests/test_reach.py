"""Command reach: every function in src/venturebank is called by a CLI
command, or is listed in tests/unreached.txt with the reason it stays.

The map calls `cli.main` in-process for every command on every committed
config and on the default config, then runs `audit` on a registry with
one detached live note, recording each function called through
`sys.setprofile`.  The acceptance suite is not rerun: a function that
only an acceptance criterion reaches is listed under that criterion.

A function is keyed by (file, first line, name): the line of its first
decorator, else of its `def`, which is the line its code object reports.
`co_qualname` would say more, but Python 3.10 does not have it.
"""
import ast
import contextlib
import io
import json
import os
import re
import sys
from pathlib import Path

import pytest

import venturebank
from venturebank import cli, money

PACKAGE = Path(venturebank.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent
UNREACHED = Path(__file__).with_name("unreached.txt")
COMMANDS = ("kraken", "simulate", "sweep", "audit")
# A listed function stays for one of these: the acceptance criterion that
# reaches it, the ROADMAP item that gives it a command or justifies it, or
# a refusal that no committed config makes.
REASON = re.compile(r"(criterion \d+|item \d+|refusal)\b")


def definitions() -> dict[tuple[str, int, str], str]:
    """Every def in the package, keyed as its code object is, to its
    dotted name (`module.Class.method`, `module.function.inner`)."""
    found = {}

    def walk(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(str(path), first, child.name)] = f"{prefix}.{child.name}"
                walk(child, f"{prefix}.{child.name}", path)
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}.{child.name}", path)
            else:
                walk(child, prefix, path)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path.stem, path)
    return found


def listed() -> dict[str, str]:
    """unreached.txt: one function per line, its dotted name then its
    reason; blank lines and lines starting with # are skipped."""
    entries = {}
    for line in UNREACHED.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            name, _, reason = line.partition(" ")
            assert name not in entries, f"{name} is listed twice"
            entries[name] = reason.strip()
    return entries


def run_commands(out: Path) -> list[tuple[str, str, int]]:
    """Every command on every committed config and on the default config,
    then audit on a registry whose one detached live note it voids."""
    configs = [str(p) for p in sorted((ROOT / "configs").glob("*.json"))] + [None]
    registry = out / "detached.jsonl"
    registry.write_text("".join(json.dumps(dict(
        din_id=din_id, kind="primary", underwriter_id="uw", bank_id="b",
        investment_id=f"i-{din_id}", principal="1", sector="s", vintage_year=2024,
        attached=attached)) + "\n" for din_id, attached in (("a", True), ("d", False))),
        encoding="utf-8")
    detached = out / "detached.json"
    detached.write_text(json.dumps(
        {"schema_version": 1, "audit": {"registry_path": str(registry)}}), encoding="utf-8")
    runs = [(command, config) for command in COMMANDS for config in configs]
    runs.append(("audit", str(detached)))
    codes = []
    for number, (command, config) in enumerate(runs):
        argv = [command, "--out", str(out / str(number))]
        if config is not None:
            argv += ["--config", config]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            codes.append((command, config, cli.main(argv)))
    return codes


@pytest.fixture(scope="module")
def reach(tmp_path_factory):
    """(the dotted name of every def, the names of those the commands reach)."""
    codes = set()

    def record(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    out = tmp_path_factory.mktemp("reach")
    # A cached function runs only on its first call: an earlier test may
    # have made that call already.
    money._growth.cache_clear()
    with pytest.MonkeyPatch.context() as patch:
        # configs/audit.json names its registry relative to the repository.
        patch.chdir(ROOT)
        previous = sys.getprofile()
        sys.setprofile(record)
        try:
            exits = run_commands(out)
        finally:
            sys.setprofile(previous)
    # Every command writes its outputs on its own config, and every other
    # run ends in a typed refusal, never a traceback.
    assert all(code in (0, 1) for _, _, code in exits), exits
    assert {command for command, _, code in exits if code == 0} == set(COMMANDS)
    defined = definitions()
    names = set(defined.values())
    assert len(names) == len(defined), "two defs share a dotted name"
    called = {defined.get((os.path.realpath(c.co_filename), c.co_firstlineno, c.co_name))
              for c in codes}
    # A def nested in another runs only after its enclosing def has run:
    # in_money_context, say, is called at import, before the map starts,
    # and the wrapper it returns is called by every command.
    reached = {prefix for name in called - {None}
               for prefix in _prefixes(name) if prefix in names}
    return names, reached


def _prefixes(name: str) -> list[str]:
    parts = name.split(".")
    return [".".join(parts[:end]) for end in range(2, len(parts) + 1)]


def test_every_def_is_reached_or_listed(reach):
    names, reached = reach
    missing = sorted(names - reached - set(listed()))
    assert not missing, (
        f"no command reaches {missing}: delete them, or list them in "
        f"{UNREACHED.name} with their reason")


def test_every_listed_def_exists_and_is_unreached(reach):
    names, reached = reach
    for name, reason in listed().items():
        assert REASON.match(reason), f"{name}: {reason!r} gives no reason"
        assert name in names, f"{name} is listed but not defined"
        assert name not in reached, f"{name} is listed but a command reaches it"
