#!/usr/bin/env python3
"""Check the `smem serve` smoke-run output.

Usage: serve_smoke.py REQS RESPONSES GOLDEN [SMEM]

REQS is the request file produced by `smem api corpus-requests`;
RESPONSES is the server's output for that file concatenated with
itself (a cold pass followed by a warm pass over one process).
Asserts that

  - every request got exactly one successful response, in order;
  - the warm pass computed nothing: every cell came from the cache;
  - warm verdicts are identical to cold verdicts;
  - the cold verdicts reproduce test/golden/verdicts.expected exactly; and
  - models that can tell renamed histories apart (partition
    consistency) are cached per history as written: two such pairs,
    sent in both orders to one `SMEM serve` process each, get exactly
    the verdicts of an uncached `SMEM serve --cache 0`.

SMEM defaults to the dune-built _build/default/bin/smem.exe.
"""

import json
import os
import subprocess
import sys

# Each pair is one canonical class that the model splits: a row swap
# under the mod-2 location partition, a location renaming under the
# named partition.  Whichever member arrived first used to set the
# cached verdict of the other.
PC_PART_PAIRS = [
    ("pc-part(blocks=2)",
     "p0: w x 1 ; w y 1 ; w z 1\np1: r z 1 ; r x 0\n",
     "p0: r z 1 ; r x 0\np1: w x 1 ; w y 1 ; w z 1\n"),
    ("pc-part(partition=x.y)",
     "p0: w x 1 ; w y 1\np1: r y 1 ; r x 0\n",
     "p0: w a 1 ; w b 1\np1: r b 1 ; r a 0\n"),
]


def fail(msg):
    print(f"serve-smoke: {msg}", file=sys.stderr)
    sys.exit(1)


def serve(exe, cells, extra=()):
    """Send one check request per (model, rows) cell to one `serve`
    process; return each cell's status and cached flag."""
    lines = [
        json.dumps({
            "schema": "smem-api/1", "id": i, "kind": "check",
            "test": {"litmus": f'test t{i} "pc-part pair"\n{rows}'},
            "models": [model],
        })
        for i, (model, rows) in enumerate(cells)
    ]
    out = subprocess.run([exe, "serve", *extra],
                         input="\n".join(lines) + "\n",
                         capture_output=True, text=True, check=True).stdout
    resps = [json.loads(line) for line in out.splitlines() if line.strip()]
    if len(resps) != len(cells):
        fail(f"pc-part: {len(resps)} responses for {len(cells)} requests")
    got = []
    for i, r in enumerate(resps):
        if not r.get("ok") or r.get("id") != i:
            fail(f"pc-part: response {i}: {json.dumps(r)}")
        (v,) = r["payload"]["verdicts"]
        got.append((v["status"], v["cached"]))
    return got


def check_pc_part_pairs(exe):
    cells = [(m, rows) for (m, a, b) in PC_PART_PAIRS for rows in (a, b)]
    fresh = dict(zip(cells, (st for st, _ in serve(exe, cells, ["--cache", "0"]))))
    for (m, a, b) in PC_PART_PAIRS:
        if fresh[(m, a)] == fresh[(m, b)]:
            fail(f"pc-part: {m} no longer separates its pair")
    for order in ("forward", "reverse"):
        sent = [(m, rows)
                for (m, a, b) in PC_PART_PAIRS
                for rows in ((a, b) if order == "forward" else (b, a))]
        # Two passes over one process: the second is all cache hits.
        got = serve(exe, sent + sent)
        for i, (cell, (status, cached)) in enumerate(zip(sent + sent, got)):
            if status != fresh[cell]:
                fail(f"pc-part {order}: {cell[0]} request {i} answered "
                     f"{status}, uncached verdict {fresh[cell]}")
            if cached != (i >= len(sent)):
                fail(f"pc-part {order}: request {i} cached={cached}")
    return len(cells)


def main():
    if len(sys.argv) not in (4, 5):
        fail(f"usage: {sys.argv[0]} REQS RESPONSES GOLDEN [SMEM]")
    reqs_path, resp_path, golden_path = sys.argv[1:4]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    exe = (sys.argv[4] if len(sys.argv) == 5
           else os.path.join(root, "_build", "default", "bin", "smem.exe"))

    with open(reqs_path) as f:
        reqs = [json.loads(line) for line in f if line.strip()]
    with open(resp_path) as f:
        resps = [json.loads(line) for line in f if line.strip()]

    n = len(reqs)
    if n == 0:
        fail("no requests generated")
    if len(resps) != 2 * n:
        fail(f"expected {2 * n} responses for two passes, got {len(resps)}")

    for i, r in enumerate(resps):
        # The server answers in the client's protocol version.
        want_schema = reqs[i % n].get("schema", "smem-api/1")
        if r.get("schema") != want_schema:
            fail(f"response {i}: schema {r.get('schema')!r}, "
                 f"request spoke {want_schema!r}")
        if not r.get("ok"):
            fail(f"response {i}: not ok: {json.dumps(r.get('payload'))}")

    cold, warm = resps[:n], resps[n:]

    def cells(r):
        return [
            (v["subject"], v["authority"], v["status"])
            for v in r["payload"]["verdicts"]
        ]

    computed_warm = sum(r["computed"] for r in warm)
    if computed_warm != 0:
        fail(f"warm pass computed {computed_warm} cells; expected all cache hits")
    for i, (c, w) in enumerate(zip(cold, warm)):
        if w["cached"] != len(cells(w)):
            fail(f"warm response {i}: only {w['cached']} of "
                 f"{len(cells(w))} cells marked cached")
        if cells(c) != cells(w):
            fail(f"response {i}: warm verdicts differ from cold verdicts")

    # The cold pass must reproduce the golden conformance suite.
    got = [
        f"{s:<18} {a:<12} {st}"
        for r in cold
        for (s, a, st) in cells(r)
    ]
    with open(golden_path) as f:
        want = [line.rstrip("\n") for line in f if line.strip()]
    if got != want:
        for i, (g, w) in enumerate(zip(got, want)):
            if g != w:
                fail(f"golden mismatch at line {i + 1}: got {g!r}, want {w!r}")
        fail(f"golden length mismatch: got {len(got)} lines, want {len(want)}")

    hits = sum(r["cached"] for r in warm)
    pairs = check_pc_part_pairs(exe)
    print(f"serve-smoke: ok — {n} requests/pass, {hits} warm cells all cached, "
          f"verdicts match golden; {pairs} pc-part cells match uncached "
          f"verdicts in both orders")


if __name__ == "__main__":
    main()
