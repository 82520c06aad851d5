"""Outside-in span tracer for the ecnn layers.

The tracer replaces functions in the namespaces their callers look them
up in (``from x import f`` binds ``f`` in the importing module, so the
defining module is the wrong place to patch).  Each call becomes a span:
name, start, end, parent span and run id, plus counts taken from the
call's arguments and result.  Spans stay in memory until the benchmark
writes them out; self times are derived from them afterwards.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass, field

LAYERS = ("cli", "data_io", "domain", "evolve", "fitting", "cascade", "model_io")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _file_size(key):
    def note(args, kwargs, result):
        return {key: os.path.getsize(args[0])}

    return note


def _fit_steps(args, kwargs, result):
    config = next(a for a in args if type(a).__name__ == "TrainConfig")
    return {
        "steps": result.steps_taken,
        "cap_hits": int(result.steps_taken == config.max_fit_steps),
    }


def _restart_outcome(args, kwargs, result):
    _, trace = result
    return {"accepted": len(trace.accepted), "rejected": len(trace.rejected)}


def _rows_of_matrix(args, kwargs, result):
    return {"rows": len(args[1])}


def _rows_of_dataset(args, kwargs, result):
    return {"rows": args[1].n}


def patch_points(cli_module, evolve_module):
    """(namespace, attribute, span name, count extractor) for every
    function the tracer wraps.  ``fit_neuron_from_init`` as seen from the
    evolve module is only the ranking pass; ``fit_neuron`` is growth."""
    return (
        (cli_module, "load_csv", "data_io.load_csv", _file_size("bytes_read")),
        (cli_module, "load_matrix_csv", "data_io.load_csv", _file_size("bytes_read")),
        (cli_module, "write_csv", "data_io.write_csv", _file_size("bytes_written")),
        (cli_module, "normalize", "data_io.normalize", None),
        (cli_module, "require_valid_dataset", "domain.validate", None),
        (cli_module, "multi_run", "evolve.multi_run", None),
        (cli_module, "forward_batch", "cascade.forward", _rows_of_matrix),
        (cli_module, "save_model", "model_io.save", None),
        (cli_module, "load_model", "model_io.load", None),
        (evolve_module, "evolve", "evolve.restart", _restart_outcome),
        (evolve_module, "fit_neuron_from_init", "fitting.rank_fit", _fit_steps),
        (evolve_module, "fit_neuron", "fitting.grow_fit", _fit_steps),
        (evolve_module, "error_rate", "cascade.forward", _rows_of_dataset),
    )


class Tracer:
    """Records nested spans on one thread while installed."""

    def __init__(self, points):
        self.points = points
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._originals: list[tuple] = []
        self.run = ""

    def call(self, name, fn, *args, note=None, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, 0.0, 0.0, parent, self.run)
        self.spans.append(span)
        self._stack.append(index)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if note is not None:
            span.counts = note(args, kwargs, result)
        return result

    def _wrapper(self, name, fn, note):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, note=note, **kwargs)

        return traced

    def install(self) -> None:
        for namespace, attr, name, note in self.points:
            original = getattr(namespace, attr)
            self._originals.append((namespace, attr, original))
            setattr(namespace, attr, self._wrapper(name, original, note))

    def remove(self) -> None:
        for namespace, attr, original in reversed(self._originals):
            setattr(namespace, attr, original)
        self._originals.clear()

    def since(self, first: int) -> list[Span]:
        """Copies of the spans recorded from index ``first`` on, with
        parent indices relative to that index."""
        return [
            Span(s.name, s.start, s.end,
                 None if s.parent is None else s.parent - first, s.run, s.counts)
            for s in self.spans[first:]
        ]

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans nest strictly on one thread, so children never overlap and
    their durations can simply be subtracted."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def command_profile(spans: list[Span]) -> dict:
    """Times (seconds) and counts for the spans of one traced command.

    ``spans`` must be exactly one command's spans, root ``cli.run``
    first, with parent indices relative to this list."""
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name):
        return sum(s.duration for s in by_name.get(name, ()))

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in by_name.get(name, ()))

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s, t in zip(spans, own):
        layer_self[s.layer] += t
    restarts = [s.duration for s in by_name.get("evolve.restart", ())]
    return {
        "self_total": sum(own),
        "cli_self_s": layer_self["cli"],
        "evolve_self_s": layer_self["evolve"],
        "rank_s": total("fitting.rank_fit"),
        "grow_s": total("fitting.grow_fit"),
        "restart_s": statistics.median(restarts) if restarts else 0.0,
        "load_csv_s": total("data_io.load_csv"),
        "normalize_s": total("data_io.normalize"),
        "forward_s": total("cascade.forward"),
        "validate_s": total("domain.validate"),
        "save_s": total("model_io.save"),
        "load_s": total("model_io.load"),
        # counts
        "grow_steps": count("fitting.grow_fit", "steps"),
        "rank_steps": count("fitting.rank_fit", "steps"),
        "cap_hits": count("fitting.grow_fit", "cap_hits"),
        "grow_fits": len(by_name.get("fitting.grow_fit", ())),
        "decided_fits": count("evolve.restart", "accepted")
        + count("evolve.restart", "rejected"),
        "accepted": count("evolve.restart", "accepted"),
        "restarts": len(restarts),
        "rows_scored": count("cascade.forward", "rows"),
        "bytes_read": count("data_io.load_csv", "bytes_read"),
    }
