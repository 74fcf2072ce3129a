"""Record the reference outputs that bench/tasks.py compares cli-tables results with.

Run from the repository root:  python3 bench/make_golden.py

It runs every catalogue entry of tasks.py through `stardeform.cli.main` and
writes bench/golden.json.  Exact outputs (hermite, legendre tables) are kept
as sha256 digests; float outputs are kept as values at the largest grid of
each configuration, which every drawn grid is a sub-grid of.  Re-recording
is a deliberate act: it redefines what a correct output is.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import tasks as T  # noqa: E402
from stardeform import cli  # noqa: E402


def run(argv: list) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"reference run failed (exit {rc}): {argv}")
    return buf.getvalue()


def csv_pairs(out: str) -> list:
    return [[float(x) for x in row.split(",")[1:3]] for row in out.strip().splitlines()[1:]]


def main() -> None:
    golden = {"sha256": {}, "theta": {}, "dist": {}, "residue": {}}
    for fam, ns, taus in (("hermite", T.HERMITE_N, T.HERMITE_TAU),
                          ("legendre", T.LEGENDRE_N, T.LEGENDRE_TAU)):
        for n in ns:
            for tau in taus:
                argv = ["table", fam, str(n), f"--tau={tau}"]
                out = run(argv)
                golden["sha256"][" ".join(argv)] = hashlib.sha256(out.encode()).hexdigest()
    for kind in T.THETA_KINDS:
        for tau in T.THETA_TAU:
            out = run(["theta", "--kind", str(kind), f"--tau={tau}",
                       f"--w-grid=-1,1,{max(T.THETA_POINTS)}"])
            golden["theta"][T.theta_key(kind, tau)] = csv_pairs(out)
    for side in T.DIST_SIDES:
        for a in (T.DIST_A[:1] if side == "pv" else T.DIST_A):
            for tau in T.DIST_TAU:
                out = run(["dist", f"--a={a}", "--side", side, f"--tau={tau}",
                           f"--w-grid=-3,3,{max(T.DIST_POINTS)}"])
                golden["dist"][T.dist_key(side, a, tau)] = csv_pairs(out)
    for k in T.RESIDUE_K:
        for nu in T.RESIDUE_NU:
            for tau in T.RESIDUE_TAU:
                rep = json.loads(run(["residue", "--k", str(k), f"--nu={nu}", f"--tau={tau}"]))
                golden["residue"][T.residue_key(k, nu, tau)] = {
                    f: [float(x) for x in rep[f]] for f in ("closed", "contour")}
    with open(T.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
