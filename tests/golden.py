"""The golden output manifest: every command's exit status, stdout, stderr and artifacts.

`golden.json` records, for each command line in COMMANDS, the exit status and
the sha256 of stdout, of stderr and of every file the command writes.  The command lines
are all 18 commands at their defaults (`guess-rec` and `rec-unroll` with the
flags they need, `verify-cert` on the certificate that `telescope` writes), the
flag variants whose outputs earlier changes checked by hand, the `telescope`
lines that stop after stage A or B or find no telescoper at order 2, and one
`--input` line per file reader.  In a command line, {line} stands for the
directory that the earlier command line `line` wrote; a file the reader refuses
still records its exit status, stdout and the refusal on stderr.

    python tests/golden.py            # regenerate golden.json, print what changed
    python tests/golden.py --print    # print this interpreter's manifest as JSON

Regenerate only when an output is meant to change, and say which one changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

MANIFEST = Path(__file__).with_name("golden.json")

COMMANDS = [
    "rook-terms", "queen-terms", "diag", "step-gf",
    "guess-rec --order 3 --degree 4", "rec-unroll --n 300", "ode-to-rec",
    "telescope", "verify-cert", "prove-rec-reduction", "closed-form-check",
    "pullback-search", "local-exponents", "identity-checks", "asymptotics",
    "lipshitz-bounds", "queens-root", "prove-all",
    "prove-all --truncation 100", "pullback-search --max-degree 8",
    "pullback-search --max-degree 16", "asymptotics --n 5000",
    "identity-checks --order 100", "closed-form-check --n 60",
    "telescope --stage A", "telescope --stage B", "telescope --degree 2",
    "telescope --stage B --degree 2",
    "guess-rec --order 3 --degree 4 --input {rec-unroll --n 300}/unrolled.json",
    "rec-unroll --n 40 --input {ode-to-rec}/recurrence.json --initial {rook-terms}/rook-terms.json",
    "ode-to-rec --input {telescope}/stage-b-P.json",
    "local-exponents --input {telescope}/stage-b-P.json",
]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_all(root: Path) -> dict[str, dict]:
    """Run every command line in this interpreter, each into its own directory under root."""
    from rookpaths.cli import main
    manifest = {}
    for i, line in enumerate(COMMANDS):
        out = root / f"{i:02d}"
        args = re.sub(r"\{([^}]*)\}", lambda m: str(root / f"{COMMANDS.index(m[1]):02d}"), line).split()
        if args == ["verify-cert"]:
            args += ["--input", str(root / f"{COMMANDS.index('telescope'):02d}" / "certificate.json")]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["--out", str(out)] + args)
        manifest[line] = {
            "exit": code,
            "stdout": _digest(stdout.getvalue().encode()),
            "stderr": _digest(stderr.getvalue().encode()),
            "artifacts": {p.name: _digest(p.read_bytes()) for p in sorted(out.iterdir())},
        }
    return manifest


def diff(old: dict, new: dict) -> list[str]:
    """One line per command line, field or artifact that differs."""
    lines = []
    for line in COMMANDS + sorted(set(old) - set(COMMANDS)):
        a, b = old.get(line), new.get(line)
        if a is None or b is None:
            lines.append(f"{line}: {'added' if a is None else 'removed'}")
            continue
        for field in ("exit", "stdout", "stderr"):
            if a.get(field) != b.get(field):
                lines.append(f"{line}: {field} {a.get(field)} -> {b.get(field)}")
        for name in sorted(set(a["artifacts"]) | set(b["artifacts"])):
            x, y = a["artifacts"].get(name), b["artifacts"].get(name)
            if x != y:
                lines.append(f"{line}: {name} {x} -> {y}")
    return lines


def main(argv: list[str]) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        manifest = run_all(Path(tmp))
    if argv == ["--print"]:
        print(json.dumps(manifest, sort_keys=True))
        return 0
    old = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}
    changes = diff(old, manifest)
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print("\n".join(changes) if changes else "no change")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
