#!/usr/bin/env python3
"""Derive the attribute-space traffic mix from the pilot's own traffic.

From the repository root::

    python3 perfbench/traffic.py [--jobs 64] [--seed 1]

runs ``--jobs`` monitored ``foo`` jobs of the ``pilot`` workload, records
every request the attribute-space server dispatches (put values inside
batches included), and writes ``perfbench/traffic.json``:

* ``put_value_bytes``: how many puts carried a value of each length;
* ``attributes_per_context``: distinct attributes a job's context holds
  (median over jobs);
* ``calls_per_session``: requests one session sends between its attach
  and its detach, the attach and detach included (median over sessions);
* ``requests_per_job``: request frames of each kind per job (a batch
  is one frame).

``rpc_tcp`` and ``fed_relay`` take their value sizes, working set and
session length from that file, so their traffic is the shape of the
program's own, not a guess.  The file is committed; rerun this script
when the pilot's traffic changes.
"""

from __future__ import annotations

import argparse
import collections
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "traffic.json"


def record(jobs: int, seed: int) -> list[tuple[int, str, str, list[str], list[int]]]:
    """Per request frame: connection, context, op, attributes, put value lengths.

    A batch is one frame; its sub-ops' attributes and put values count.
    """
    from repro.attrspace import server

    seen: list[tuple[int, str, str, list[str], list[int]]] = []
    dispatch = server.AttributeSpaceServer._dispatch

    def recording(self, conn, request):
        op = str(request.get("op"))
        subs = request.get("ops") if op == "batch" else [request]
        subs = [sub for sub in subs if isinstance(sub, dict)] if isinstance(subs, list) else []
        seen.append((
            id(conn), str(request.get("context", "")), op,
            [str(sub["attribute"]) for sub in subs
             if sub.get("op") == "put" and "attribute" in sub],
            [len(sub["value"]) for sub in subs if isinstance(sub.get("value"), str)],
        ))
        return dispatch(self, conn, request)

    server.AttributeSpaceServer._dispatch = recording
    try:
        import workloads

        pilot = workloads.Pilot(seed)
        pilot.build()
        del seen[:]  # the warm-up job
        sample = workloads.Sample()
        while len(sample.latencies) < jobs:
            pilot.run_round(sample)
        found = pilot.problems()
        pilot.teardown()
    finally:
        server.AttributeSpaceServer._dispatch = dispatch
    if found:
        raise SystemExit(f"pilot checks failed: {found[:3]}")
    return seen


def summarise(seen, jobs: int) -> dict:
    sizes: collections.Counter[int] = collections.Counter()
    per_context: dict[str, set[str]] = collections.defaultdict(set)
    per_session: collections.Counter[int] = collections.Counter()
    ops: collections.Counter[str] = collections.Counter()
    last_op: dict[int, str] = {}
    for conn, context, op, attributes, lengths in seen:
        sizes.update(lengths)
        per_context[context].update(attributes)
        per_session[conn] += 1
        ops[op] += 1
        last_op[conn] = op
    # only sessions seen from attach to detach
    whole = [n for conn, n in per_session.items() if last_op[conn] == "detach"]
    return {
        "source": f"pilot workload, {jobs} monitored foo jobs (perfbench/traffic.py)",
        "put_value_bytes": {str(k): v for k, v in sorted(sizes.items())},
        "attributes_per_context": statistics.median_low(
            len(a) for c, a in per_context.items() if c),
        "calls_per_session": statistics.median_low(whole),
        "requests_per_job": {k: round(v / jobs, 2) for k, v in sorted(ops.items())},
    }


def load() -> dict:
    with open(OUT, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--jobs", type=int, default=64)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(HERE.parent / "src"))
    mix = summarise(record(args.jobs, args.seed), args.jobs)
    OUT.write_text(json.dumps(mix, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(mix, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
