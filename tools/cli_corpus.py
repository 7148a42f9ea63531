"""Run a fixed corpus of `tensorbit` CLI calls in process and print one
SHA-256 over every call's (argv, exit code, stdout, stderr, warnings).

    python3 tools/cli_corpus.py [--src DIR] [--limit N] [--dump FILE]
    python3 tools/cli_corpus.py --compare OLD.jsonl NEW.jsonl

Two source trees that print the same digest give byte-identical output on
the corpus.  ``--src`` names the directory that holds the `tensorbit`
package (default: this checkout's ``src``), ``--limit`` runs the first N
calls only, and ``--dump`` writes one JSON record per call.  ``--compare``
reads two dumps of the same corpus and prints how many calls differ, by
command and by command and document kind, how many of them differ in more
than their floats (an orbit, a rank, an exit code or a message) with the
argv of the first 50 of those, and the largest relative difference of a
float.

The corpus covers the seven single-tensor request kinds (classify, rank1
and deflate of full222 and sym222 documents, and decompose) on Gaussian
entries at unit scale and at 2^600 and 2^-600, and on small integers; the
canonical orbit forms; the zero tensors; pxpx2 documents and HOPM; the
four experiment kinds; and the error exits.  Warnings are recorded by
category and message, without the file and line that raised them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import re
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
PER_VARIANT = 36        # tensors of each request kind per entry variant
MAX_LISTED = 50         # calls that differ beyond their floats listed by --compare
SCALES = (1.0, 2.0 ** 600, 2.0 ** -600)
REQUEST_KINDS = (("classify", 8), ("classify", 4), ("rank1", 8), ("rank1", 4),
                 ("deflate", 8), ("deflate", 4), ("decompose", 4))
# the canonical forms of the eight orbits, slab-major
CANONICAL = ((1, 0, 0, 0, 0, 0, 0, 0), (1, 0, 0, 1, 0, 0, 0, 0), (1, 0, 0, 0, 0, 1, 0, 0),
             (1, 0, 0, 0, 0, 0, 1, 0), (1, 0, 0, 0, 0, 0, 0, 1), (0, 1, 1, 0, 1, 0, 0, 0),
             (-1, 0, 0, 1, 0, 1, 1, 0))
SYM_SPECIAL = ((1, 0, 0, 0), (0, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 1),
               (1, 0, 0, 1), (0, 1, 1, 0), (1, 0, -1, 0), (8, 4, 2, 1))
FLOAT = re.compile(r"-?\d+\.\d*(?:e[-+]?\d+)?|-?\d+e[-+]?\d+")


def _data(values) -> str:
    return "--data=" + ",".join(repr(float(v)) for v in values)


def _request(cmd: str, values) -> list:
    argv = [cmd, _data(values)]
    if cmd == "rank1":
        argv.append("--json")
    if cmd == "deflate":
        argv += ["--steps", "2"]
    return argv


def corpus() -> list:
    """The argv of every call, in a fixed order."""
    rng = np.random.default_rng(2027)
    calls = []
    for scale in SCALES:
        for cmd, size in REQUEST_KINDS:
            calls += [_request(cmd, scale * rng.standard_normal(size)) for _ in range(PER_VARIANT)]
    for cmd, size in REQUEST_KINDS:
        calls += [_request(cmd, rng.integers(-3, 4, size)) for _ in range(PER_VARIANT)]
    for form in CANONICAL:
        calls += [_request(cmd, form) for cmd in ("classify", "rank1", "deflate")]
        calls.append(["rank1", _data(form)])
    for form in SYM_SPECIAL:
        calls += [_request(cmd, form) for cmd in ("classify", "rank1", "deflate", "decompose")]
    for cmd, size in REQUEST_KINDS:
        calls.append(_request(cmd, np.zeros(size)))
    for p in (2, 3, 4):
        for _ in range(3):
            data = [p, *rng.standard_normal(2 * p * p)]
            calls += [_request("rank1", data), ["rank1", _data(data)],
                      ["rank1", _data(data), "--method", "hopm", "--seed", "3", "--json"]]
    calls += [["rank1", _data(rng.standard_normal(8)), "--method", "hopm", "--json"]
              for _ in range(3)]
    for seed in ("0", "7"):
        for kind in ("generic", "symmetric", "d3"):
            calls.append(["experiment", kind, "--trials", "12", "--seed", seed])
        calls += [["experiment", "pxp2", "--p", p, "--trials", "8", "--seed", seed]
                  for p in ("2", "3")]
    calls += [
        ["classify", "--data=1,2,3"],
        ["classify", "--data=1,2,3,4,5,6,7,nan"],
        ["classify", "--data=1,2,3,4,5,6,7,inf"],
        ["classify", _data([2, *range(8)])],
        ["classify", "--data=1,2,3,4,5,6,7,8", "--tol", "0"],
        ["classify", "--data=1,2,3,4", "--kind", "full222"],
        ["classify", "--data=1,2,3,4", "--kind", "nope"],
        ["classify"],
        ["classify", "no-such-document.json"],
        ["rank1", "--data=1,2,3,4", "--method", "hopm"],
        ["rank1", "--data=1,2,3,4,5"],
        ["deflate", "--data=1,2,3,4,5,6,7,8", "--steps", "0"],
        ["deflate", "--data=1,2,3,4,5,6,7,8", "--tol", "-1"],
        ["deflate", _data([2, *range(8)])],
        ["decompose", "--data=1,2,3,4,5,6,7,8"],
        ["decompose", "--data=0,1,1,0", "--rank", "2"],
        ["decompose", "--data=0,1,1,0", "--rank", "1"],
        ["decompose", "--data=1,0,0,1", "--rank", "3"],
        ["experiment", "generic", "--trials", "0", "--seed", "0"],
        ["experiment", "pxp2", "--p", "9", "--trials", "2", "--seed", "0"],
        ["experiment", "nope"],
        ["nope"],
        [],
    ]
    return calls


def run(calls) -> list:
    """One record [argv, exit code, stdout, stderr, warnings] per call."""
    from tensorbit import cli
    records = []
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = cli.main(list(argv))
        records.append([argv, code, out.getvalue(), err.getvalue(),
                        [f"{w.category.__name__}: {w.message}" for w in caught]])
    return records


def digest(records) -> str:
    h = hashlib.sha256()
    for record in records:
        h.update(json.dumps(record).encode() + b"\n")
    return h.hexdigest()


def _values(text: str) -> list:
    """The JSON values of each line of a call's stdout, or the line itself."""
    out = []
    for line in text.splitlines():
        try:
            out.append(json.loads(line))
        except ValueError:
            out.append(FLOAT.sub("#", line))
    return out


def _float_gap(a, b):
    """The largest relative difference of the floats in a and b, or None
    where they differ in anything but a float: an int, a string, a key or a
    length."""
    if isinstance(a, float) or isinstance(b, float):
        if isinstance(a, (int, float)) and isinstance(b, (int, float)):
            return abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0
        return None
    if isinstance(a, dict) and isinstance(b, dict) and list(a) == list(b):
        gaps = [_float_gap(a[k], b[k]) for k in a]
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        gaps = [_float_gap(x, y) for x, y in zip(a, b)]
    else:
        return 0.0 if a == b else None
    return None if None in gaps else max(gaps, default=0.0)


def _kind(argv) -> str:
    """The document kind of a call: its --kind, else the one its --data
    count implies (4 sym222, 8 full222, 1 + 2 p^2 pxpx2), else the
    experiment kind, else ""."""
    if "--kind" in argv[:-1]:
        return argv[argv.index("--kind") + 1]
    data = [arg for arg in argv if arg.startswith("--data=")]
    if data:
        n = len(data[0].split(","))
        p = math.isqrt(max(n - 1, 0) // 2)
        return {4: "sym222", 8: "full222"}.get(n, "pxpx2" if p >= 2 and 1 + 2 * p * p == n else "")
    return argv[1] if argv[:1] == ["experiment"] and len(argv) > 1 else ""


def compare(old, new) -> dict:
    """Which records of two runs of one corpus differ, and by how much: by
    command and by command and document kind, with the argv of the first
    MAX_LISTED calls that differ in more than their floats."""
    if [r[0] for r in old] != [r[0] for r in new]:
        raise ValueError("the dumps hold different corpora")
    differ, by_kind, beyond_floats, largest = Counter(), Counter(), [], 0.0
    for a, b in zip(old, new):
        if a == b:
            continue
        command = a[0][0] if a[0] else ""
        differ[command] += 1
        by_kind[" ".join(filter(None, (command, _kind(a[0]))))] += 1
        gap = _float_gap([a[1], _values(a[2]), a[3], a[4]], [b[1], _values(b[2]), b[3], b[4]])
        if gap is None:
            beyond_floats.append(a[0])
        else:
            largest = max(largest, gap)
    return {"calls": len(old), "differ": sum(differ.values()), "by_command": dict(differ),
            "by_kind": dict(by_kind), "beyond_floats": len(beyond_floats),
            "beyond_floats_argv": beyond_floats[:MAX_LISTED],
            "largest_relative_difference": largest}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--limit", type=int)
    parser.add_argument("--dump")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        old, new = ([json.loads(line) for line in open(path)] for path in args.compare)
        print(json.dumps(compare(old, new)))
        return 0
    sys.path.insert(0, args.src)
    records = run(corpus()[:args.limit])
    if args.dump:
        with open(args.dump, "w") as fh:
            fh.writelines(json.dumps(r) + "\n" for r in records)
    print(f"{digest(records)}  {len(records)} calls")
    return 0


if __name__ == "__main__":
    sys.exit(main())
