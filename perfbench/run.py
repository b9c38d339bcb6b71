"""prevmap benchmark: end-to-end and per-layer figures for one workload.

    python3 perfbench/run.py --workload demo --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; nothing needs installing, the worker
imports ``prevmap`` from ``src/``. Inputs are made from ``--seed`` before any
timing starts. Then:

1. ``setup_s``: the median wall time of ``import prevmap.cli`` over several
   fresh interpreters (after one untimed import that writes bytecode).
2. One worker process, BLAS pinned to one thread, calls
   ``prevmap.cli.main([...])`` for the workload's steps, repeating the
   operation until ``--seconds`` are spent (at least twice, so that reruns at
   one seed can be compared byte for byte). Every operation's outputs are
   checked; an operation fails on a non-zero exit code or a failed check.
   ``wall_s`` is the median operation's wall time.
3. With ``--trace 1`` the worker then repeats the operation for half of
   ``--seconds`` (at least once) with every traced name wrapped in a span
   recorder (see ``tracer.py``), and the run reports per-layer figures and
   the tracing overhead instead of the end-to-end figures. A layer the
   workload never calls reports 0 (``bym`` and ``synthetic`` on ``ingest1m``).

Both ``setup_s`` and ``wall_s`` are corrected for the host's speed while they
were timed (``hostspeed.py``): each import and each untraced operation runs
under a sampler that times a fixed kernel every few milliseconds, and its
wall time is scaled to the kernel's reference speed. On a shared 2-vCPU VM
the raw times of one seed's runs spread by 15-30% between minutes; the
corrected ones by about 4%. The table also prints the raw median and the
mean slowdown.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit). The lines above it give
the same figures as a table, with the workload's size and the figures that
are not bounded in ``BENCHMARK.json`` (``records_per_s``, ``ops_failed``,
and on fit workloads ``hyper_ess_per_s`` and ``smooth_rmse_ratio``).

Workloads:

* ``demo``: the shipped ``demo.cfg`` through ``pipeline --traces`` at the
  default MCMC settings; bound by the sampler.
* ``ingest1m``: generated survey files (``ingest.py``) through ``direct``,
  ``adjacency`` and ``render --column n``; no fit.
* ``sparse2000``: a 40x50 grid with 1-8 clusters per region through
  ``pipeline --traces`` at 4 x 3000 iterations. Not in ``BENCHMARK.json``:
  on many seeds ``direct`` keeps a region whose design variance is exactly 0
  and ``smooth`` then rejects it, so the operation fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import ingest

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
CACHE = ROOT / ".bench_cache"
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_IMPORTS = 7
SETUP_SAMPLE_INTERVAL_S = 0.02
WORKER_TIMEOUT_S = 170

SPARSE2000_CFG = """\
rows = 40
cols = 50
group_breaks = 16,33
base_logit = -2.4
spatial_sd = 0.45
clusters_per_region = 1:8
households_per_cluster = 22
weight_dispersion = 2.0
seed = 7
"""

# Bounded in BENCHMARK.json: defined and never 0 on every workload, and not set by the seed's data.
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.self_s": "s", "cli.simulate_self_s": "s",
    "synthetic.self_s": "s", "synthetic.realize_s": "s", "synthetic.sample_survey_s": "s",
    "synthetic.records": "count",
    "data_model.self_s": "s", "data_model.write_records_s": "s", "data_model.load_records_s": "s",
    "data_model.load_records_per_s": "rec/s", "data_model.validate_s": "s",
    "data_model.drop_unlinked_s": "s", "data_model.load_boundaries_s": "s",
    "data_model.records_dropped": "count",
    "direct.self_s": "s", "direct.estimate_all_s": "s", "direct.records_per_s": "rec/s",
    "direct.degenerate_regions": "count",
    "graph.self_s": "s", "graph.build_adjacency_s": "s", "graph.segments": "count",
    "graph.edges": "count",
    "bym.self_s": "s", "bym.fit_s": "s", "bym.sample_s": "s", "bym.us_per_sweep": "us",
    "bym.sweeps": "count", "bym.hyper_min_ess": "draws", "bym.hyper_ess_per_fit_s": "1/s",
    "bym.rhat_max": "ratio", "bym.diagnose_s": "s", "bym.diag_calls": "count",
    "bym.theta_min_ess": "draws", "bym.draw_bytes": "B",
    "render.self_s": "s", "render.svg_s": "s", "render.svg_bytes": "B",
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.coverage": "ratio",
    "hyper_ess_per_s": "1/s", "smooth_rmse_ratio": "ratio",
}


def _grid(cfg_text: str) -> tuple[int, int]:
    pairs = (ln.split("=", 1) for ln in cfg_text.splitlines() if "=" in ln and not ln.startswith("#"))
    kv = {k.strip(): v.strip() for k, v in pairs}
    return int(kv["rows"]), int(kv["cols"])


def prepare(workload: str, seed: int) -> dict:
    """Inputs and steps of one workload; nothing here is timed."""
    s = str(seed)
    if workload in ("demo", "sparse2000"):
        if workload == "demo":
            cfg, mcmc_args = ROOT / "demo.cfg", []
        else:
            cfg = WORK / "sparse2000.cfg"
            cfg.write_text(SPARSE2000_CFG)
            mcmc_args = ["--chains", "4", "--iterations", "3000", "--burn-in", "1500"]
        rows, cols = _grid(cfg.read_text())
        return {
            "fit": True,
            "grid": [rows, cols],
            "steps": [["pipeline", "--config", str(cfg), "--traces", *mcmc_args,
                       "--seed", s, "--out", "{out}"]],
            "size": f"{rows * cols} regions, MCMC {' '.join(mcmc_args) or 'defaults'}",
        }
    if workload == "ingest1m":
        params = ingest.IngestParams()
        data = ingest.cached_inputs(params, seed, CACHE)
        with np.load(data / "oracle.npz") as o:
            n_records, n_unlinked = int(o["n_records"]), int(o["n_unlinked"])
        rec, geo = str(data / "records.csv"), str(data / "boundaries.geojson")
        common = ["--seed", s, "--out", "{out}"]
        return {
            "fit": False,
            "grid": [params.rows, params.cols],
            "oracle": str(data / "oracle.npz"),
            "records": n_records,
            "unlinked": n_unlinked,
            "steps": [
                ["direct", "--records", rec, "--boundaries", geo, *common],
                ["adjacency", "--boundaries", geo, *common],
                ["render", "--boundaries", geo, "--values", "{out}/direct.csv",
                 "--column", "n", *common],
            ],
            "size": f"{params.regions} regions, {n_records} records ({n_unlinked} unlinked), "
                    f"{4 * params.segments_per_side} vertices per ring",
        }
    raise SystemExit(f"unknown workload {workload!r}")


def measure_setup(env: dict) -> tuple[float, float]:
    """Median corrected and raw time of ``import prevmap.cli`` in a fresh interpreter."""
    code = (f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); import hostspeed; "
            "sys.path.pop(0)\n"
            f"with hostspeed.Sampler({SETUP_SAMPLE_INTERVAL_S}) as host:\n"
            "    import prevmap.cli\n"
            "print(host.corrected, host.wall)")
    times = []
    for k in range(SETUP_IMPORTS + 1):
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True,
                              text=True, check=True, timeout=60)
        if k:  # the first import writes bytecode
            times.append([float(x) for x in done.stdout.split()])
    return statistics.median(t[0] for t in times), statistics.median(t[1] for t in times)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["demo", "ingest1m", "sparse2000"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "prevmap" / "cli.py").is_file():
        print(f"error: no prevmap sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    spec = prepare(args.workload, args.seed)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **BLAS_PIN)
    setup_s, raw_setup_s = measure_setup(env)

    run_dir = WORK / f"{args.workload}-{os.getpid()}"
    spec.update(seconds=args.seconds, trace=bool(args.trace), min_ops=2,
                out=str(run_dir / "out"), result=str(run_dir / "result.json"))
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        (run_dir / "spec.json").write_text(json.dumps(spec))
        worker = [sys.executable, str(Path(__file__).with_name("worker.py")), str(run_dir / "spec.json")]
        subprocess.run(worker, env=env, cwd=ROOT, check=True, timeout=WORKER_TIMEOUT_S)
        res = json.loads((run_dir / "result.json").read_text())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    ops = res["ops"] + res.get("traced_ops", [])
    failed = [op for op in ops if op["problems"]]
    good_ops = [op for op in res["ops"] if not op["problems"]]
    good = [op["wall"] for op in good_ops]
    if not good:
        for op in failed[:3]:
            print("failed:", "; ".join(op["problems"]), file=sys.stderr)
        return 1
    facts = res["facts"]
    wall_s = statistics.median(good)
    raw_wall_s = statistics.median(op["raw_wall"] for op in good_ops)
    e2e = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": res["peak_rss_kb"] / 1024.0}
    # printed only: records_per_s moves with the seed's sample size on demo, the
    # fit figures do not exist on ingest1m, and ops_failed is the JSON failed/attempted
    quality = {
        "records_per_s": (facts["records"] / wall_s, "rec/s"),
        "ops_failed": (len(failed) / len(ops), "fraction"),
    }
    if spec["fit"]:
        quality["hyper_ess_per_s"] = (facts["bym.hyper_min_ess"] / wall_s, "1/s")
        quality["smooth_rmse_ratio"] = (facts["smooth_rmse_ratio"], "ratio")

    print(f"workload {args.workload} seed {args.seed}: {spec['size']}")
    print(f"numpy {res['numpy']}, BLAS pinned: {' '.join(f'{k}={v}' for k, v in BLAS_PIN.items())}")
    print(f"operations: {len(res['ops'])} timed, wall times {[round(w, 3) for w in good]} s")
    print(f"raw (uncorrected) medians: wall {raw_wall_s:.4f} s, setup {raw_setup_s:.4f} s; "
          f"mean host slowdown {statistics.mean(op['slowdown'] for op in good_ops):.3f}")
    for op in failed[:3]:
        print("failed:", "; ".join(op["problems"]))

    if args.trace:
        layers = dict(res["layers"])
        for key in ("bym.hyper_min_ess", "bym.rhat_max", "bym.theta_min_ess", "smooth_rmse_ratio"):
            layers[key] = facts.get(key, 0.0)
        ess_min = facts.get("bym.hyper_min_ess", 0.0)
        fit_s = layers["bym.fit_s"]
        layers["bym.hyper_ess_per_fit_s"] = ess_min / fit_s if fit_s else 0.0
        layers["hyper_ess_per_s"] = ess_min / wall_s
        # traced operations are not sampled, so compare raw with raw
        layers["trace.overhead_s"] = layers["trace.wall_s"] - raw_wall_s
        metrics = {k: {"value": layers[k], "unit": unit} for k, unit in PER_LAYER.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
        for k, (v, unit) in quality.items():
            print(f"  {k:<28} {v:>14.6g} {unit}")
    for k, m in metrics.items():
        print(f"  {k:<28} {m['value']:>14.6g} {m['unit']}")
    result = {"correct": not failed, "attempted": len(ops), "failed": len(failed), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
