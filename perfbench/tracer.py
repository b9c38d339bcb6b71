"""Span tracing around prevmap's public names, installed from outside.

``Tracer.install`` replaces each traced name with a wrapper that records a
span (name, start, end, parent) in memory, plus counters read from the
call's arguments and result; ``Tracer.restore`` puts every original back.
Spans are reduced to per-layer metrics once the run has ended.

Traced names:

* the functions bound in ``prevmap.cli`` that do a layer's work
  (``sample_survey``, ``load_*``, ``read_*``, ``write_*``, ``export_*``,
  ``render_*``, ``validate_dataset``, ``drop_unlinked``, ``estimate_all``,
  ``build_adjacency``, ``icar_precision``, ``gibbs_fit``), the ``cmd_*``
  entry points and ``main``;
* ``Scenario.realize``;
* ``prevmap.bym.rhat``, ``ess``, ``summarize`` and ``diagnostics``, which
  ``gibbs_fit`` calls through its module globals.

A span's layer is the prevmap module that defines the function, except
``main`` and ``cmd_*``, which belong to ``cli``.
"""

from __future__ import annotations

import functools
import re
import time
from collections import defaultdict
from typing import Callable

LAYERS = ("cli", "synthetic", "data_model", "direct", "graph", "bym", "render")
CLI_TRACED = re.compile(
    r"^(main|cmd_\w+|sample_survey|load_\w+|read_\w+|write_\w+|export_\w+|render_\w+"
    r"|validate_dataset|drop_unlinked|estimate_all|build_adjacency|icar_precision|gibbs_fit)$"
)
BYM_DIAGNOSTICS = ("rhat", "ess", "summarize", "diagnostics")


def _n_segments(result, args, kwargs) -> dict[str, float]:
    boundaries = args[0] if args else kwargs["boundaries"]
    segs = sum(len(ring) - 1 for b in boundaries for poly in b.geometry for ring in poly)
    return {"graph.segments": segs, "graph.edges": len(result.edges)}


def _fit_counts(result, args, kwargs) -> dict[str, float]:
    spec, config = args[0], args[1]
    kept = len(range(config.burn_in, config.iterations, config.thin))
    # theta and S draws: 2 arrays x chains x kept draws x regions x 8 B
    return {
        "bym.sweeps": config.chains * config.iterations,
        "bym.draw_bytes": 2 * config.chains * kept * len(spec.estimates) * 8,
    }


COUNTERS: dict[str, Callable] = {
    "sample_survey": lambda res, a, k: {"synthetic.records": len(res.records)},
    "load_records": lambda res, a, k: {"data_model.records_loaded": len(res)},
    "drop_unlinked": lambda res, a, k: {"data_model.records_dropped": res[1].n_dropped},
    "estimate_all": lambda res, a, k: {
        "direct.records": len(a[0].records),
        "direct.degenerate_regions": sum(e.degenerate != "none" for e in res),
    },
    "build_adjacency": _n_segments,
    "gibbs_fit": _fit_counts,
    "render_choropleth": lambda res, a, k: {"render.svg_bytes": len(res.encode())},
    "render_map_row": lambda res, a, k: {"render.svg_bytes": len(res.encode())},
    "render_country_panels": lambda res, a, k: {"render.svg_bytes": len(res.encode())},
    "render_comparison": lambda res, a, k: {"render.svg_bytes": len(res.encode())},
}


class Tracer:
    """Records spans and counters while installed; restores names on exit."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, layer, start, end, parent]
        self.counts: dict[str, float] = defaultdict(float)
        self.problems: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, layer: str, fn: Callable) -> Callable:
        counter = COUNTERS.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, layer, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][3] = time.perf_counter()
                stack.pop()
            if counter is not None:
                try:
                    for key, value in counter(result, args, kwargs).items():
                        counts[key] += value
                except (AttributeError, IndexError, KeyError, TypeError) as exc:
                    self.problems.append(f"counter for {name} failed: {exc!r}")
            return result

        return traced

    def _patch(self, owner: object, attr: str, name: str, layer: str) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, layer, original))

    def install(self) -> None:
        import prevmap.bym
        import prevmap.cli
        import prevmap.synthetic

        for attr, obj in sorted(vars(prevmap.cli).items()):
            module = getattr(obj, "__module__", None) or ""
            if callable(obj) and CLI_TRACED.match(attr) and module.startswith("prevmap"):
                cli_entry = attr == "main" or attr.startswith("cmd_")
                self._patch(prevmap.cli, attr, attr, "cli" if cli_entry else module.split(".")[-1])
        self._patch(prevmap.synthetic.Scenario, "realize", "realize", "synthetic")
        for attr in BYM_DIAGNOSTICS:
            self._patch(prevmap.bym, attr, attr, "bym")

    def restore(self) -> list[str]:
        """Put every original back; return the names that did not restore."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        broken = [f"{getattr(owner, '__name__', owner)}.{attr}"
                  for owner, attr, original in self._patched if getattr(owner, attr) is not original]
        self._patched.clear()
        return broken

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.problems.clear()

    # -- reduction ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover."""
        own = [end - start for _, _, start, end, _ in self.spans]
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def inclusive(self, names) -> float:
        """Wall time inside any span named in ``names``, nested calls counted once."""
        names = set(names)
        total = 0.0
        for name, _, start, end, parent in self.spans:
            if name not in names:
                continue
            p = parent
            while p >= 0 and self.spans[p][0] not in names:
                p = self.spans[p][4]
            if p < 0:
                total += end - start
        return total

    def calls(self, names) -> int:
        names = set(names)
        return sum(1 for s in self.spans if s[0] in names)

    def open_spans(self) -> int:
        return sum(1 for s in self.spans if s[3] is None) + len(self._stack)
