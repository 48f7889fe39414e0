"""Reach: the functions of src/rookpaths that the golden command lines enter.

Code that no command reaches is deleted.  `reach_allow.txt` lists each function
that the golden command lines (`tests/golden.py`) do not enter, one a line,
with the reason it stays:

    rookpaths.walks:count_paths  test oracle: the brute-force walk counts

`test_golden.py` fails when a function is neither entered nor listed, when a
listed function is entered or no longer exists, and when an entry gives no
reason.  After adding or deleting a function, or changing what calls it, run

    python tests/reach.py    # print the unlisted and the stale names

and delete the function, or add or remove its line in `reach_allow.txt`.
"""

from __future__ import annotations

import inspect
import sys
import tempfile
import types
from pathlib import Path

import golden
import rookpaths.cli  # imported before any trace: what runs only at import is never counted

PACKAGE = Path(rookpaths.cli.__file__).resolve().parent
ALLOW = Path(__file__).with_name("reach_allow.txt")


def _key(code: types.CodeType) -> tuple[str, int, str]:
    return str(Path(code.co_filename).resolve()), code.co_firstlineno, code.co_name


def _functions(code: types.CodeType, prefix: str):
    """(code, qualified name) for each named function and method in compiled code, at any depth."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):
            name = prefix + const.co_name
            if const.co_flags & inspect.CO_NEWLOCALS:  # a function, not a class body
                yield const, name
                name += ".<locals>"
            yield from _functions(const, name + ".")


def defined() -> dict[tuple[str, int, str], str]:
    """Every named function of the package, as {code key: "module:qualname"}."""
    names = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)
        for code, name in _functions(compile(path.read_text(), str(path), "exec"), ""):
            names[_key(code)] = f"{module}:{name}"
    return names


def run_traced(root: Path) -> tuple[dict[str, dict], set[str]]:
    """golden.run_all(root) and the names of the package functions it entered.

    The hook records the code object of each call and returns None, so no line
    is traced and nothing the commands print or write changes."""
    entered: set[types.CodeType] = set()

    def hook(frame, event, arg):
        entered.add(frame.f_code)

    previous = sys.gettrace()
    sys.settrace(hook)
    try:
        manifest = golden.run_all(root)
    finally:
        sys.settrace(previous)
    names = defined()
    return manifest, {names[k] for k in map(_key, entered) if k in names}


def allowed() -> dict[str, str]:
    """reach_allow.txt as {name: reason}; blank lines and lines starting with # are skipped."""
    entries = {}
    for line in ALLOW.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            name, _, reason = line.partition(" ")
            entries[name] = reason.strip()
    return entries


def check(entered: set[str]) -> tuple[list[str], list[str]]:
    """(functions neither entered nor listed, listed functions that were entered or no longer exist)."""
    allow, names = allowed(), set(defined().values())
    return sorted(names - entered - set(allow)), sorted(set(allow) & entered | set(allow) - names)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        _, entered = run_traced(Path(tmp))
    unlisted, stale = check(entered)
    for name in unlisted:
        print(f"unlisted: {name}")
    for name in stale:
        print(f"stale: {name}")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
