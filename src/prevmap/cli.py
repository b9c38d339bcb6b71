"""Command-line pipeline: simulate, estimate, smooth, and render.

Every artifact is written with a metadata header (tool version, seed, config
hash) and is byte-deterministic for fixed inputs, so the `pipeline`
subcommand produces exactly the same files as running the individual steps
in sequence. Exit codes: 0 success, 2 validation/usage error, 3 when
`--strict` is set and the fit did not converge.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
from itertools import chain
from pathlib import Path
from typing import Sequence

from . import __version__
from .bym import (
    BymModelSpec,
    Hyperpriors,
    McmcConfig,
    exact_fit,
    read_posterior_csv,
    write_posterior_csv,
    write_trace_csv,
)
from .data_model import (
    artifact_file,
    drop_unlinked,
    load_boundaries,
    load_records,
    read_input,
    read_table,
    validate_dataset,
    write_boundaries_geojson,
    write_records_csv,
)
from .direct import estimate_all, read_direct_csv, write_direct_csv
from .errors import PrevmapError, SchemaError
from .graph import build_adjacency, export_graph, icar_precision, load_graph
from .render import (
    ChoroplethSpec,
    render_comparison,
    render_country_panels,
    render_map_row,
)
from .synthetic import load_scenario, sample_survey, write_truth_csv

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NOT_CONVERGED = 3


def _config_hash(paths: Sequence[str | Path], *texts: str) -> str:
    """The config-sha256 of a step: its input files' bytes, then its settings.

    Each file's bytes and each UTF-8 text is followed by one NUL byte. Each
    file is read whole, as its loader reads it next.
    """
    h = hashlib.sha256()
    for part in chain(map(read_input, paths), map(str.encode, texts)):
        h.update(part)
        h.update(b"\x00")
    return h.hexdigest()[:16]


def _meta(config_hash: str, seed: int | None = None) -> dict[str, str]:
    meta = {"prevmap-version": __version__}
    if seed is not None:
        meta["seed"] = str(seed)
    meta["config-sha256"] = config_hash
    return meta


def _read_values(path: str | Path, columns: Sequence[str]) -> dict[str, dict[str, float]]:
    """Per column, region_id -> float value from any CSV artifact with a header row."""
    rows = read_table(path, {"region_id": str, **dict.fromkeys(columns, float)})
    return {col: {r["region_id"]: r[col] for r in rows} for col in columns}


def _out_dir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise SchemaError(f"cannot write {out}: {exc.strerror}") from None
    return out


def _wrote(path: Path) -> None:
    print(f"wrote {path}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.config)
    seed = args.seed if args.seed is not None else scenario.seed
    meta = _meta(_config_hash([args.config], str(seed)), seed)
    truth = scenario.realize(seed)
    dataset = sample_survey(truth)
    out = _out_dir(args)
    write_records_csv(dataset.records, out / "records.csv", meta)
    write_boundaries_geojson(dataset.regions, out / "boundaries.geojson", meta)
    write_truth_csv(truth.true_prevalence, out / "truth.csv", meta)
    counts = dataset.records.region_counts()
    sizes = [counts.get(rid, 0) for rid in dataset.region_ids()]
    print(
        f"simulated {len(dataset.records)} records in {len(dataset.regions)} regions "
        f"(region n: min {min(sizes)}, max {max(sizes)})"
    )
    for name in ("records.csv", "boundaries.geojson", "truth.csv"):
        _wrote(out / name)
    return EXIT_OK


def cmd_direct(args) -> int:
    meta = _meta(_config_hash([args.records, args.boundaries]), args.seed)
    records = load_records(args.records)
    boundaries = load_boundaries(args.boundaries)
    dataset, report = drop_unlinked(records, boundaries)
    validate_dataset(dataset)
    if report.n_dropped:
        print(
            f"dropped {report.n_dropped} of {report.n_input} records without a boundary "
            f"(retained fraction {report.retained_fraction:.3f})"
        )
    estimates = estimate_all(dataset)
    flagged = [e for e in estimates if e.degenerate != "none"]
    if flagged:
        print(
            "degenerate regions: "
            + ", ".join(f"{e.region_id}({e.degenerate})" for e in flagged)
        )
    out = _out_dir(args)
    write_direct_csv(estimates, out / "direct.csv", meta)
    _wrote(out / "direct.csv")
    return EXIT_OK


def cmd_adjacency(args) -> int:
    meta = _meta(
        _config_hash([args.boundaries], f"tolerance={args.tolerance!r} style={args.style}"),
        args.seed,
    )
    boundaries = load_boundaries(args.boundaries)
    graph = build_adjacency(boundaries, tolerance=args.tolerance, style=args.style)
    out = _out_dir(args)
    export_graph(graph, out / "graph.txt", meta)
    print(
        f"adjacency: {len(graph.node_ids)} regions, {len(graph.edges)} edges, "
        f"{graph.n_components()} component(s)"
    )
    _wrote(out / "graph.txt")
    return EXIT_OK


def cmd_smooth(args) -> int:
    priors = Hyperpriors(args.prior_a_eps, args.prior_b_eps, args.prior_a_sp, args.prior_b_sp)
    seed = args.seed if args.seed is not None else 0
    mcmc_desc = (
        f"chains={args.chains} iterations={args.iterations} "
        f"burn_in={args.burn_in} thin={args.thin} priors={priors.describe()}"
    )
    meta = _meta(_config_hash([args.direct, args.graph], mcmc_desc, str(seed)), seed)
    estimates = sorted(read_direct_csv(args.direct), key=lambda e: e.region_id)
    graph = load_graph(args.graph)
    precision = icar_precision(graph)
    spec = BymModelSpec(estimates=estimates, precision=precision, priors=priors)
    config = McmcConfig(
        chains=args.chains,
        iterations=args.iterations,
        burn_in=args.burn_in,
        thin=args.thin,
        seed=seed,
    )
    posterior = exact_fit(spec, config)
    meta.update({k: v for k, v in posterior.meta.items() if k != "seed"})
    out = _out_dir(args)
    write_posterior_csv(posterior.rows(estimates), out / "posterior.csv", meta)
    _wrote(out / "posterior.csv")
    if args.traces:
        write_trace_csv(posterior, out / "trace.csv", meta)
        _wrote(out / "trace.csv")
    for note in posterior.report.notes:
        print(f"note: {note}", file=sys.stderr)
    if not posterior.converged:
        failing = ", ".join(posterior.report.failing()[:8])
        print(f"WARNING: fit not converged (failing scalars: {failing})", file=sys.stderr)
        if args.strict:
            return EXIT_NOT_CONVERGED
    return EXIT_OK


def _choropleth_spec(args) -> ChoroplethSpec:
    ramp = tuple(args.ramp.split(",")) if args.ramp else None
    return ChoroplethSpec(
        strategy=args.breaks,
        bins=args.bins,
        scope=args.scope,
        ramp=ramp,
    )


def cmd_render(args) -> int:
    columns = args.column or ["prev_mean"]
    if args.title is not None and (len(columns) != 1 or args.zoom_per_country):
        raise SchemaError("--title takes exactly one --column and no --zoom-per-country")
    desc = (
        f"columns={','.join(columns)} bins={args.bins} breaks={args.breaks} "
        f"scope={args.scope} ramp={args.ramp or 'default'} zoom={args.zoom_per_country}"
    )
    if args.title:
        desc += f" title={args.title}"
    meta = _meta(_config_hash([args.boundaries, args.values], desc), args.seed)
    boundaries = load_boundaries(args.boundaries)
    spec = _choropleth_spec(args)
    if args.zoom_per_country and len(columns) != 1:
        raise SchemaError("--zoom-per-country takes exactly one --column")
    values = _read_values(args.values, columns)
    if args.zoom_per_country:
        svg = render_country_panels(boundaries, values[columns[0]], spec, columns[0], meta)
    else:
        # a title comes with one column, as checked above
        panels = [(args.title or col, col, values[col]) for col in columns]
        svg = render_map_row(boundaries, panels, spec, meta)
    out = _out_dir(args)
    name = args.output_name or f"map_{'_'.join(columns)}.svg"
    with artifact_file(out / name) as fh:
        fh.write(svg)
    _wrote(out / name)
    return EXIT_OK


def cmd_compare(args) -> int:
    meta = _meta(_config_hash([args.direct, args.posterior]), args.seed)
    estimates = read_direct_csv(args.direct)
    rows = read_posterior_csv(args.posterior)
    svg = render_comparison(estimates, rows, meta)
    out = _out_dir(args)
    name = args.output_name or "comparison.svg"
    with artifact_file(out / name) as fh:
        fh.write(svg)
    _wrote(out / name)
    return EXIT_OK


def cmd_pipeline(args) -> int:
    scenario = load_scenario(args.config)
    seed = args.seed if args.seed is not None else scenario.seed
    out = str(args.out)
    common = ["--seed", str(seed), "--out", out]
    mcmc = [
        "--chains", str(args.chains),
        "--iterations", str(args.iterations),
        "--burn-in", str(args.burn_in),
        "--thin", str(args.thin),
    ]
    steps: list[list[str]] = [
        ["simulate", "--config", args.config] + common,
        ["direct", "--records", f"{out}/records.csv",
         "--boundaries", f"{out}/boundaries.geojson"] + common,
        ["adjacency", "--boundaries", f"{out}/boundaries.geojson",
         "--style", args.style] + common,
        ["smooth", "--direct", f"{out}/direct.csv", "--graph", f"{out}/graph.txt"]
        + mcmc + (["--strict"] if args.strict else [])
        + (["--traces"] if args.traces else []) + common,
        ["render", "--boundaries", f"{out}/boundaries.geojson",
         "--values", f"{out}/direct.csv", "--column", "n",
         "--title", "Sample size by region",
         "--output-name", "fig1_sample_size.svg"] + common,
        ["render", "--boundaries", f"{out}/boundaries.geojson",
         "--values", f"{out}/posterior.csv",
         "--column", "prev_mean", "--column", "prev_q025", "--column", "prev_q975",
         "--output-name", "fig2_smoothed_ci.svg"] + common,
        ["render", "--boundaries", f"{out}/boundaries.geojson",
         "--values", f"{out}/posterior.csv", "--column", "prev_mean",
         "--zoom-per-country", "--output-name", "fig3_country_zoom.svg"] + common,
        ["compare", "--direct", f"{out}/direct.csv",
         "--posterior", f"{out}/posterior.csv",
         "--output-name", "fig4_comparison.svg"] + common,
    ]
    worst = EXIT_OK
    for argv in steps:
        code = main(argv)
        if code == EXIT_VALIDATION:
            return code
        worst = max(worst, code)
    return worst


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None, help="random seed")
    p.add_argument("--out", default=".", help="output directory")

def _add_mcmc(p: argparse.ArgumentParser) -> None:
    p.add_argument("--chains", type=int, default=4)
    p.add_argument("--iterations", type=int, default=10_000)
    p.add_argument("--burn-in", dest="burn_in", type=int, default=5_000)
    p.add_argument("--thin", type=int, default=1)
    p.add_argument("--strict", action="store_true",
                   help="exit 3 when diagnostics flag non-convergence")
    p.add_argument("--traces", action="store_true", help="also write trace.csv")


def _add_render_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bins", type=int, default=5)
    p.add_argument("--breaks", choices=["quantile", "equal_interval"], default="quantile")
    p.add_argument("--scope", choices=["global", "per_group"], default="global")
    p.add_argument("--ramp", default=None, help="comma-separated hex colors, one per bin")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prevmap",
        description="survey prevalence estimation with spatial smoothing",
    )
    parser.add_argument("--version", action="version", version=f"prevmap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic survey from a scenario")
    p.add_argument("--config", required=True, help="scenario config file")
    _add_common(p)

    p = sub.add_parser("direct", help="design-based per-region estimates")
    p.add_argument("--records", required=True)
    p.add_argument("--boundaries", required=True)
    _add_common(p)

    p = sub.add_parser("adjacency", help="build the region contiguity graph")
    p.add_argument("--boundaries", required=True)
    p.add_argument("--tolerance", type=float, default=1e-6)
    p.add_argument("--style", choices=["B", "W"], default="B")
    _add_common(p)

    p = sub.add_parser("smooth", help="fit the spatial smoothing model")
    p.add_argument("--direct", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--prior-a-eps", type=float, default=0.5)
    p.add_argument("--prior-b-eps", type=float, default=0.0005)
    p.add_argument("--prior-a-sp", type=float, default=0.5)
    p.add_argument("--prior-b-sp", type=float, default=0.0005)
    _add_mcmc(p)
    _add_common(p)

    p = sub.add_parser("render", help="choropleth map(s) from a values CSV")
    p.add_argument("--boundaries", required=True)
    p.add_argument("--values", required=True)
    p.add_argument("--column", action="append")
    p.add_argument("--title", default=None)
    p.add_argument("--zoom-per-country", action="store_true")
    p.add_argument("--output-name", default=None)
    _add_render_flags(p)
    _add_common(p)

    p = sub.add_parser("compare", help="direct-vs-smoothed comparison figure")
    p.add_argument("--direct", required=True)
    p.add_argument("--posterior", required=True)
    p.add_argument("--output-name", default=None)
    _add_common(p)

    p = sub.add_parser("pipeline", help="run all steps from a scenario config")
    p.add_argument("--style", choices=["B", "W"], default="B")
    _add_mcmc(p)
    p.add_argument("--config", required=True, help="scenario config file")
    _add_common(p)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: ``pipeline`` calls ``main`` for every step."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # looked up at each call: the cached parser must not pin the cmd_* it first saw
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except PrevmapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
