"""One benchmark worker: runs a workload's CLI steps in-process and checks them.

Started by ``run.py`` as a fresh interpreter with BLAS pinned to one thread.
It calls ``prevmap.cli.main([...])`` exactly as the command line would,
repeats the operation until the time budget is spent, checks every
operation's outputs, and with tracing on repeats the operation under the
span tracer. The result goes to the JSON file named in the spec.

    python3 perfbench/worker.py SPEC.json
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import re
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import hostspeed
import mcmc
import oracles
from tracer import BYM_DIAGNOSTICS, LAYERS, Tracer

import prevmap.cli

SAMPLE_INTERVAL_S = 0.1


def run_op(steps: list[list[str]], out: Path, traced: bool = False) -> dict:
    """One operation: every step in order, timed as a whole.

    An untraced operation is timed under a host-speed ``Sampler``: ``wall``
    is its time at the reference speed, ``raw_wall`` the time it took.
    A traced one is timed plainly, so that no sample lands inside a span.
    """
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    argvs = [[a.replace("{out}", str(out)) for a in argv] for argv in steps]
    gc.collect()
    stdout, stderr = io.StringIO(), io.StringIO()
    codes = []
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        with contextlib.nullcontext() if traced else hostspeed.Sampler(SAMPLE_INTERVAL_S) as host:
            for argv in argvs:
                codes.append(prevmap.cli.main(argv))
                if codes[-1] != 0:
                    break
        wall = time.perf_counter() - start
    problems = [f"{argv[0]} exited {code}: {stderr.getvalue().strip()[-300:]}"
                for argv, code in zip(argvs, codes) if code != 0]
    op = {"wall": wall, "problems": problems, "stdout": stdout.getvalue()}
    if not traced:
        op.update(wall=host.corrected, raw_wall=host.wall, slowdown=host.slowdown)
    return op


class Checker:
    """Checks each operation's artifacts; the first good one is the reference."""

    def __init__(self, spec: dict, out: Path) -> None:
        self.spec, self.out = spec, out
        self.reference: dict[str, str] | None = None
        self.facts: dict[str, float] = {}
        self.oracle = oracles.direct_oracle(Path(spec["oracle"])) if spec.get("oracle") else None

    def check(self, op: dict) -> None:
        if op["problems"]:
            return
        found = oracles.digests(self.out)
        if self.reference is not None:
            op["problems"] += oracles.check_same_artifacts(self.reference, found)
            return
        op["problems"] += self._first(op["stdout"])
        if not op["problems"]:
            self.reference = found

    def _first(self, stdout: str) -> list[str]:
        spec, out = self.spec, self.out
        rows, cols = spec["grid"]
        problems = oracles.check_grid_edges(out / "graph.txt", rows, cols)
        if spec["fit"]:
            ids = [f"R_{r}_{c}" for r in range(rows) for c in range(cols)]
            problems += oracles.check_posterior(out / "posterior.csv", ids)
            traces = mcmc.read_trace(out / "trace.csv")
            variances = [traces["sigma2_eps"], traces["sigma2_sp"]]
            posterior = oracles.read_csv(out / "posterior.csv")
            self.facts.update({
                "records": float(re.search(r"simulated (\d+) records", stdout).group(1)),
                "bym.hyper_min_ess": min(mcmc.ess(x) for x in variances),
                "bym.rhat_max": max(mcmc.rhat(x) for x in variances),
                "bym.theta_min_ess": min(float(r["ess_theta"]) for r in posterior),
                "smooth_rmse_ratio": oracles.rmse_ratio(
                    out / "truth.csv", out / "direct.csv", out / "posterior.csv"
                ),
            })
        else:
            problems += oracles.check_direct(out / "direct.csv", self.oracle)
            dropped = re.search(r"dropped (\d+) of (\d+) records", stdout)
            if dropped is None or int(dropped.group(1)) != spec["unlinked"]:
                problems.append(f"dropped-record report {dropped and dropped.group(0)!r}, "
                                f"generator wrote {spec['unlinked']} unlinked records")
            svg = next(out.glob("*.svg"), None)
            if svg is None or not svg.read_bytes().startswith(b"<?xml"):
                problems.append("render wrote no SVG document")
            self.facts["records"] = float(spec["records"])
        return problems


def loop(spec: dict, checker: Checker, out: Path, seconds: float, min_ops: int,
         traced: bool = False, on_op=None) -> list[dict]:
    ops: list[dict] = []
    start = time.perf_counter()
    while len(ops) < min_ops or time.perf_counter() - start < seconds:
        op = run_op(spec["steps"], out, traced)
        checker.check(op)
        if on_op is not None:
            on_op(op)
        del op["stdout"]
        ops.append(op)
    return ops


def layer_metrics(tr: Tracer, wall: float) -> dict[str, float]:
    """Per-layer figures of one traced operation."""
    own = tr.self_times()
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for span, o in zip(tr.spans, own):
        layer_self[span[1]] += o
    inc, c = tr.inclusive, tr.counts
    fit_self = sum(o for span, o in zip(tr.spans, own) if span[0] == "gibbs_fit")
    m = {f"{layer}.self_s": t for layer, t in layer_self.items()}
    m.update({
        "cli.simulate_self_s": sum(o for span, o in zip(tr.spans, own) if span[0] == "cmd_simulate"),
        "synthetic.realize_s": inc(["realize"]),
        "synthetic.sample_survey_s": inc(["sample_survey"]),
        "synthetic.records": c["synthetic.records"],
        "data_model.write_records_s": inc(["write_records_csv"]),
        "data_model.load_records_s": inc(["load_records"]),
        "data_model.validate_s": inc(["validate_dataset"]),
        "data_model.drop_unlinked_s": inc(["drop_unlinked"]),
        "data_model.load_boundaries_s": inc(["load_boundaries"]),
        "data_model.records_dropped": c["data_model.records_dropped"],
        "direct.estimate_all_s": inc(["estimate_all"]),
        "direct.degenerate_regions": c["direct.degenerate_regions"],
        "graph.build_adjacency_s": inc(["build_adjacency"]),
        "graph.segments": c["graph.segments"],
        "graph.edges": c["graph.edges"],
        "bym.sample_s": fit_self,
        "bym.fit_s": inc(["gibbs_fit"]),
        "bym.sweeps": c["bym.sweeps"],
        "bym.us_per_sweep": 1e6 * fit_self / c["bym.sweeps"] if c["bym.sweeps"] else 0.0,
        "bym.diagnose_s": inc(BYM_DIAGNOSTICS),
        "bym.diag_calls": tr.calls(BYM_DIAGNOSTICS),
        "bym.draw_bytes": c["bym.draw_bytes"],
        "render.svg_s": inc([s[0] for s in tr.spans if s[1] == "render"]),
        "render.svg_bytes": c["render.svg_bytes"],
        "trace.wall_s": wall,
        "trace.coverage": sum(own) / wall,
    })
    for rate, count, seconds in (
        ("data_model.load_records_per_s", "data_model.records_loaded", "data_model.load_records_s"),
        ("direct.records_per_s", "direct.records", "direct.estimate_all_s"),
    ):
        m[rate] = c[count] / m[seconds] if m[seconds] else 0.0
    return m


def traced_run(spec: dict, checker: Checker, out: Path) -> tuple[list[dict], dict[str, float]]:
    tracer = Tracer()
    per_op: list[dict[str, float]] = []

    def reduce(op: dict) -> None:
        if tracer.open_spans():
            op["problems"].append(f"{tracer.open_spans()} spans left open")
        m = layer_metrics(tracer, op["wall"])
        if abs(m["trace.coverage"] - 1.0) > 0.05:
            op["problems"].append(
                f"layer self times cover {m['trace.coverage']:.3f} of the traced wall time")
        op["problems"] += tracer.problems
        per_op.append(m)
        tracer.reset()

    tracer.install()
    try:
        ops = loop(spec, checker, out, spec["seconds"] / 2, min_ops=1, traced=True,
                   on_op=reduce)
    finally:
        broken = tracer.restore()
    if broken:
        ops[-1]["problems"].append(f"names not restored: {', '.join(broken)}")
    return ops, {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    out = Path(spec["out"])
    checker = Checker(spec, out)
    ops = loop(spec, checker, out, spec["seconds"], min_ops=spec["min_ops"])
    result = {
        "ops": ops,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "facts": checker.facts,
        "numpy": np.__version__,
    }
    if spec["trace"]:
        result["traced_ops"], result["layers"] = traced_run(spec, checker, out)
    shutil.rmtree(out, ignore_errors=True)
    Path(spec["result"]).write_text(json.dumps(result, allow_nan=True))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
