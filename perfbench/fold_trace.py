"""Fold a span file written by perfbench_run into per-layer self time.

A span line is: id, parent, request, name, start_ns, end_ns, weight.  The
layer is the part of the name before the first dot.  A span's self time is
its duration minus the part of it its children cover; a sampled request span
stands for `weight` requests, so its self time counts `weight` times and its
parent gives up that much more of its own.

    python3 fold_trace.py SPANS_FILE      # prints the folded table as JSON
"""

import json
import sys
from collections import defaultdict

# Every layer a span may name, in report order.  `bench` is the benchmark's
# own time: phases, set-up glue, the loopback echo, and open-loop idling.
LAYERS = ["graph", "rt", "rtz", "core", "io", "net", "serve", "server", "bench"]
SETUP_SPAN = "bench.setup"


def read_spans(path):
    spans = {}
    with open(path) as f:
        for line in f:
            sid, parent, request, name, start, end, weight = line.rstrip("\n").split("\t")
            spans[int(sid)] = {
                "parent": int(parent),
                "request": int(request),
                "name": name,
                "start": int(start),
                "end": int(end),
                "weight": float(weight),
            }
    return spans


def covered_ns(intervals):
    """Length of the union of [start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Weighted self time (ns) of every span."""
    children = defaultdict(list)
    for sid, s in spans.items():
        if s["parent"] in spans:
            children[s["parent"]].append(sid)
    out = {}
    for sid, s in spans.items():
        kids = [spans[k] for k in children[sid]]
        own = (s["end"] - s["start"]) - covered_ns([(k["start"], k["end"]) for k in kids])
        # Unsampled siblings of a sampled child ran inside this span too.
        own -= sum((k["weight"] - 1.0) * (k["end"] - k["start"]) for k in kids)
        out[sid] = max(0.0, own) * s["weight"]
    return out


def under(spans, sid, ancestor_name):
    """Whether span `sid` lies in a subtree rooted at a span named so."""
    while sid in spans:
        if spans[sid]["name"] == ancestor_name:
            return True
        sid = spans[sid]["parent"]
    return False


def fold(path):
    """Per-layer metrics: self_ms.<layer> over the run, and setup_pct.<layer>,
    the layer's share of the self time inside the set-up spans."""
    spans = read_spans(path)
    own = self_times(spans)
    total = defaultdict(float)
    setup = defaultdict(float)
    for sid, s in spans.items():
        layer = s["name"].split(".", 1)[0]
        if layer not in LAYERS:
            raise ValueError(f"span {s['name']!r} names no known layer")
        total[layer] += own[sid]
        if under(spans, sid, SETUP_SPAN):
            setup[layer] += own[sid]
    setup_all = sum(setup.values())
    metrics = {"trace.spans": (float(len(spans)), "count")}
    for layer in LAYERS:
        metrics[f"self_ms.{layer}"] = (total[layer] / 1e6, "ms")
        share = 100.0 * setup[layer] / setup_all if setup_all > 0 else 0.0
        metrics[f"setup_pct.{layer}"] = (share, "%")
    return metrics


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    print(json.dumps({k: v[0] for k, v in fold(sys.argv[1]).items()}, indent=2))
