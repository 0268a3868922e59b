#!/usr/bin/env python3
"""Attribute end-to-end deltas to layers.

    python3 perfbench/attribute.py BASE.jsonl CURRENT.jsonl

Each file holds the lines `run.py --out FILE` appends, one per run.  Per
workload this prints the end-to-end metrics (median over the --trace 0
runs) of both files with their relative change, then the per-layer metrics
(median over the --trace 1 runs): self times sorted by the size of their
change in seconds, next to the sum of those changes, then every other
per-layer metric that moved, sorted by the size of its relative change.
Self times are scaled to the reference pace by their run's host.slowdown,
as wall_s and setup_s already are, so a slow phase of the host does not
show as a change.
"""

import json
import statistics
import sys


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                m = rec["manifest"]
                runs.setdefault(m["workload"], {0: [], 1: []})[m["trace"]].append(rec)
    return runs


def medians(recs, paced=False):
    vals, units = {}, {}
    for r in recs:
        metrics = r["result"]["metrics"]
        slowdown = metrics.get("host.slowdown", {}).get("value") if paced else None
        for k, v in metrics.items():
            x = v["value"]
            if slowdown and v["unit"] == "s":
                x /= slowdown
            vals.setdefault(k, []).append(x)
            units[k] = v["unit"]
    return {k: (statistics.median(v), units[k]) for k, v in vals.items()}


def rel(b, c):
    if b == 0:
        return "" if c == 0 else "new"
    return "%+.1f%%" % (100.0 * (c - b) / abs(b))


def manifest_line(recs):
    if not recs:
        return "no runs"
    m = recs[0]["manifest"]
    seeds = sorted({r["manifest"]["seed"] for r in recs})
    return "%d run(s), seeds %s, rev %s%s, nproc %s, OCaml %s" % (
        len(recs), ",".join(map(str, seeds)), (m.get("git_rev") or "unknown")[:12],
        " (dirty)" if m.get("git_dirty") else "", m.get("nproc"), m.get("ocaml_version"))


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, cur = load(sys.argv[1]), load(sys.argv[2])
    for w in sorted(set(base) | set(cur)):
        b_runs = base.get(w, {0: [], 1: []})
        c_runs = cur.get(w, {0: [], 1: []})
        print("== %s" % w)
        for t in (0, 1):
            print("   base    trace %d: %s" % (t, manifest_line(b_runs[t])))
            print("   current trace %d: %s" % (t, manifest_line(c_runs[t])))
        e_b, e_c = medians(b_runs[0]), medians(c_runs[0])
        if set(e_b) & set(e_c):
            print("  end-to-end %22s %16s %9s" % ("base", "current", "change"))
        for k in sorted(set(e_b) & set(e_c)):
            (vb, u), (vc, _) = e_b[k], e_c[k]
            print("    %-18s %-5s %14.6g %16.6g %9s" % (k, u, vb, vc, rel(vb, vc)))
        l_b, l_c = medians(b_runs[1], paced=True), medians(c_runs[1], paced=True)
        common = sorted(set(l_b) & set(l_c))
        times = [k for k in common if l_b[k][1] == "s" and k != "trace.overhead_s"
                 and not k.startswith("task.")]
        if times:
            print("  self time, largest change first %6s %16s %9s" % ("base", "current", "change"))
            for k in sorted(times, key=lambda k: -abs(l_c[k][0] - l_b[k][0])):
                (vb, _), (vc, _) = l_b[k], l_c[k]
                if vb or vc:
                    print("    %-28s %10.4f %16.4f %+9.4f" % (k, vb, vc, vc - vb))
            total = sum(l_c[k][0] - l_b[k][0] for k in times)
            print("    %-28s %27s %+9.4f" % ("sum of self-time changes", "", total))
            if "wall_s" in e_b and "wall_s" in e_c:
                print("    %-28s %27s %+9.4f" % ("wall_s change (trace 0)", "",
                                               e_c["wall_s"][0] - e_b["wall_s"][0]))
        rest = [k for k in common if k not in times and l_b[k][0] != l_c[k][0]]
        if rest:
            print("  other per-layer metrics that moved, largest relative change first")

            def size(k):
                b, c = l_b[k][0], l_c[k][0]
                return abs(c - b) / abs(b) if b else float("inf")

            for k in sorted(rest, key=lambda k: -size(k)):
                (vb, u), (vc, _) = l_b[k], l_c[k]
                print("    %-32s %-6s %14.6g %14.6g %9s" % (k, u, vb, vc, rel(vb, vc)))


if __name__ == "__main__":
    main()
