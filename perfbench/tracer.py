"""Spans around the stagemallows layer boundaries, recorded from outside.

``install`` replaces each traced callable with a timing wrapper at the place
its caller looks it up: ``cli`` imports ``read_dataset``, ``generate`` and
``mcmc_fit`` by name, ``synth`` imports ``sample`` by name, and the chain
reaches ``log_psi`` and ``histogram`` through ``PartitionCache``. Private
helpers stay unwrapped, so the chain's O(l^n) center draw, its per-center
distance vectors and ``center_stats`` count as ``inference`` self time.

Spans stay in memory; ``summarize`` turns them into per-layer sums when the
command has finished. A span's self time is its duration minus the
durations of its direct children (calls on one thread nest, so children
never overlap).
"""

from __future__ import annotations

import functools
import time

LAYERS = ("cli", "io", "synth", "inference", "mallows")


class Tracer:
    """Records one span per wrapped call: name, start, end, parent, note."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, note=None):
        spans, open_spans, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1,
                    note(*args, **kwargs) if note else None]
            open_spans.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_spans.pop()

        return traced


def _patch(tracer: Tracer, owner, attr: str, name: str, note=None) -> None:
    setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), note))


def install() -> Tracer:
    """Wrap the layer boundaries of the imported package; return the tracer."""
    from stagemallows import cli, io, mallows, synth

    tracer = Tracer()
    for command in ("simulate", "fit"):
        _patch(tracer, cli.cli.commands[command], "callback", f"cli.{command}")
    for attr in ("read_ranking_file", "write_raw_dataset", "write_json",
                 "write_fit_report", "write_trace", "write_heatmap_svg"):
        _patch(tracer, cli, attr, f"io.{attr}")
    _patch(tracer, cli, "read_dataset", "io.read_dataset",
           lambda path: str(path))
    # write_raw_dataset and write_fit_report call write_json inside io.
    _patch(tracer, io, "write_json", "io.write_json")
    _patch(tracer, cli, "generate", "synth.generate")
    _patch(tracer, cli, "mcmc_fit", "inference.mcmc_fit",
           lambda data, domain, prior, mcmc, *a, **k: (data[0].n, domain.l,
                                                       mcmc.iterations))
    _patch(tracer, synth, "sample", "mallows.sample",
           lambda params, *a, **k: (params.n, params.l))
    _patch(tracer, mallows.PartitionCache, "log_psi", "mallows.log_psi")
    _patch(tracer, mallows.PartitionCache, "histogram", "mallows.histogram",
           lambda cache, n, l, class_key, *a, **k: (n, l, class_key))
    return tracer


def wrapper_cost_s(calls: int = 20000) -> float:
    """Seconds one wrapped call adds over a bare call, with log_psi's arity."""

    def noop(*args, **kwargs):
        return None

    traced = Tracer().wrap("mallows.noop", noop)
    args = (None, 10, 4, (), 0.5, 1.0)
    clock = time.perf_counter
    began = clock()
    for _ in range(calls):
        traced(*args)
    wrapped = clock() - began
    began = clock()
    for _ in range(calls):
        noop(*args)
    bare = clock() - began
    return max(wrapped - bare, 0.0) / calls


def summarize(spans: list[list]) -> dict:
    """Per-layer sums of one process's spans; every value adds across processes."""
    child_s = [0.0] * len(spans)
    hist_children: set[int] = set()
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
            if name == "mallows.histogram":
                hist_children.add(parent)

    out = {f"self_s.{layer}": 0.0 for layer in LAYERS}
    out.update(dict.fromkeys((
        "histogram_builds", "histogram_build_s", "histogram_points",
        "sample_s", "sample_points", "log_psi_calls", "log_psi_misses",
        "log_psi_self_s", "log_psi_hit_s", "log_psi_miss_self_s",
        "fit_s", "fit_iterations", "read_s", "write_s", "generate_s"), 0))
    read_paths = []
    built = set()
    tables = set()
    for index, (name, start, end, parent, note) in enumerate(spans):
        layer, call = name.split(".", 1)
        duration = end - start
        self_s = duration - child_s[index]
        out[f"self_s.{layer}"] += self_s
        top_of_layer = parent < 0 or not spans[parent][0].startswith(layer + ".")
        if layer == "io" and top_of_layer:
            out["read_s" if call.startswith("read_") else "write_s"] += duration
            if call == "read_dataset":
                read_paths.append(note)
        elif name == "synth.generate":
            out["generate_s"] += duration
        elif name == "inference.mcmc_fit":
            n, l, iterations = note
            out["fit_s"] += duration
            out["fit_iterations"] += iterations
            tables.add((n, l))
        elif name == "mallows.sample":
            n, l = note
            out["sample_s"] += duration
            out["sample_points"] += l**n
            tables.add((n, l))
        elif name == "mallows.log_psi":
            out["log_psi_calls"] += 1
            out["log_psi_self_s"] += self_s
            if index in hist_children:
                out["log_psi_misses"] += 1
                out["log_psi_miss_self_s"] += self_s
            else:
                out["log_psi_hit_s"] += duration
        elif name == "mallows.histogram" and note not in built:
            # The first call for a key builds it; later calls are dict hits.
            n, l, _ = note
            built.add(note)
            out["histogram_builds"] += 1
            out["histogram_build_s"] += duration
            out["histogram_points"] += l**n
            tables.add((n, l))
    # The package keeps one int8 sign table of l^n rows by n(n-1)/2 item
    # pairs per (n, l) it enumerates; computed from the sizes, not measured.
    out["sign_table_bytes"] = sum(l**n * n * (n - 1) // 2 for n, l in tables)
    out["read_paths"] = read_paths
    return out
