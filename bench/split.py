"""Self-time split of one span's subtree, from a traced run's spans file.

A traced run (``run.py --trace 1``) leaves the spans of its last traced
invocation in ``.bench_out/<workload>/spans.json``.  For example, the split
of one p = 800 replicate of spectral-grid (the last cell, 25 replicates)::

    python3 bench/split.py .bench_out/spectral-grid/spans.json \\
        risk.run_risk_cell --index -1 --per 25

prints each call path below the chosen span with its calls and self time in
milliseconds, both divided by ``--per``.
"""

from __future__ import annotations

import argparse
import json
from collections import defaultdict

from tracer import union_length


def split(spans, name: str, index: int) -> tuple[float, dict]:
    """Wall time of the chosen span and {call path: [calls, self seconds]}."""
    spans = sorted(spans, key=lambda s: s[3])
    root = [s for s in spans if s[2] == name][index]
    children = defaultdict(list)
    for span in spans:
        children[span[1]].append(span)
    paths: dict[str, list] = defaultdict(lambda: [0, 0.0])
    todo = [(root, root[2])]
    while todo:
        (sid, _, _, start, end, _), path = todo.pop()
        kids = children[sid]
        entry = paths[path]
        entry[0] += 1
        entry[1] += (end - start) - union_length([(k[3], k[4]) for k in kids], start, end)
        todo += [(kid, f"{path} > {kid[2]}") for kid in kids]
    return root[4] - root[3], dict(paths)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("spans")
    parser.add_argument("name", help="span name, such as risk.run_risk_cell")
    parser.add_argument("--index", type=int, default=0, help="which span of that name, by start")
    parser.add_argument("--per", type=float, default=1.0, help="divide calls and times by this")
    args = parser.parse_args(argv)
    with open(args.spans) as fh:
        wall, paths = split(json.load(fh), args.name, args.index)
    print(f"{args.name}[{args.index}] wall {1e3 * wall / args.per:.2f} ms per {args.per:g}")
    for path, (calls, self_s) in sorted(paths.items(), key=lambda kv: -kv[1][1]):
        print(f"{1e3 * self_s / args.per:9.2f} ms  {calls / args.per:7.2f} calls  {path}")


if __name__ == "__main__":
    main()
