"""Record the answers the benchmark's gates compare against.

Run once from the repository root, at a commit whose outputs are trusted:

    PYTHONPATH=src python3 perfbench/capture.py

It writes perfbench/data/pinned.json: the prove-all check count and the
sha256 of its certificate.json, the pullback candidates per triple as text,
the two stage-A operators the refute workload starts from, the DP terms and
digests of the unrolled order-3 recurrence over the series workload's size
band.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def main() -> None:
    from rookpaths import cli, hypergeom, rookdata
    from rookpaths.ore import rec_unroll
    from rookpaths.telescope import Ansatz, stage_a_search
    from rookpaths.walks import QUEEN, ROOK, SeqTable, diagonal_sequence

    with tempfile.TemporaryDirectory() as tmp:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["--out", tmp, "prove-all"])
        if rc != 0:
            raise SystemExit(f"prove-all failed:\n{buf.getvalue()}")
        cert = (Path(tmp) / "certificate.json").read_bytes()

    F = rookdata.embedded_f()
    stage_a = stage_a_search(F, 1) + stage_a_search(F, 2, Ansatz(support=((0, 0), (1, 0), (2, 0))))

    rook = diagonal_sequence(ROOK, 40).terms
    top = workloads.UNROLL_BASE + workloads.UNROLL_BAND - 1
    unrolled = rec_unroll(rookdata.recurrence_order3(), SeqTable("rook", rook[:3], "dp"), top).terms

    pinned = {
        "prove_checks": buf.getvalue().count("[PASS]"),
        "certificate_sha256": hashlib.sha256(cert).hexdigest(),
        "pullback": {workloads.triple_key(t): workloads.candidate_rows(
            hypergeom.pullback_search(hypergeom.SING_POINTS, t, 6))
            for t in hypergeom.TRIED_TRIPLES},
        "stage_a_operators": [c.operator.to_json_dict() for c in stage_a],
        "rook_terms": rook,
        "queen_terms": diagonal_sequence(QUEEN, 12).terms,
        "rec_unroll_sha256": {str(n): workloads.terms_digest(unrolled[:n + 1])
                              for n in range(workloads.UNROLL_BASE, top + 1)},
    }
    workloads.DATA.parent.mkdir(exist_ok=True)
    workloads.DATA.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.DATA}")


if __name__ == "__main__":
    main()
