"""Survey-shaped inputs for the ``ingest1m`` workload, written without prevmap.

The generator stands in for a user's real survey export: a 15 x 30 grid of
regions whose shared borders are jagged polylines (about 400 vertices per
ring), about a million records with an urban/rural ``stratum`` column, about
1% of records whose ``region_id`` has no boundary, and a few planted
single-cluster and all-zero regions. Every array the oracle needs is saved
next to the CSV, so the benchmark checks ``direct.csv`` against the
generator's own values rather than against anything prevmap parsed.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

FORMAT_VERSION = 1


@dataclass(frozen=True)
class IngestParams:
    rows: int = 15
    cols: int = 30
    segments_per_side: int = 100  # 4 sides -> 400 vertices per ring
    jag: float = 0.05  # peak border offset, in cell widths
    clusters: tuple[int, int] = (70, 130)  # inclusive, per region
    households: tuple[int, int] = (15, 29)  # inclusive, per cluster
    unlinked_regions: int = 5
    unlinked_share: float = 0.01
    single_cluster_regions: int = 3
    all_zero_regions: int = 3
    base_logit: float = -2.2

    def key(self, seed: int) -> str:
        text = json.dumps({"v": FORMAT_VERSION, "seed": seed, **asdict(self)}, sort_keys=True)
        return f"ingest1m-{seed}-{hashlib.sha256(text.encode()).hexdigest()[:12]}"

    @property
    def regions(self) -> int:
        return self.rows * self.cols


def _border(rng: np.random.Generator, n: int, jag: float) -> np.ndarray:
    """Perpendicular offsets of one shared border, zero at both corners.

    The sine taper keeps offsets below the distance to the perpendicular
    borders that meet at each corner, so rings stay simple.
    """
    k = np.arange(n + 1)
    return jag * np.sin(np.pi * k / n) * rng.uniform(-1.0, 1.0, n + 1)


def _rings(p: IngestParams, rng: np.random.Generator) -> dict[str, list[list[float]]]:
    n = p.segments_per_side
    t = np.arange(n + 1) / n
    # horizontal border at y = r, cell column c; vertical border at x = c, cell row r
    horiz = [[_border(rng, n, p.jag) for _ in range(p.cols)] for _ in range(p.rows + 1)]
    vert = [[_border(rng, n, p.jag) for _ in range(p.rows)] for _ in range(p.cols + 1)]
    rings = {}
    for r in range(p.rows):
        for c in range(p.cols):
            bottom = np.column_stack([c + t, r + horiz[r][c]])
            right = np.column_stack([c + 1 + vert[c + 1][r], r + t])
            top = np.column_stack([c + t, r + 1 + horiz[r + 1][c]])[::-1]
            left = np.column_stack([c + vert[c][r], r + t])[::-1]
            ring = np.vstack([bottom[:-1], right[:-1], top[:-1], left])
            rings[f"R_{r}_{c}"] = np.round(ring, 9).tolist()
    return rings


def generate(p: IngestParams, seed: int, out: Path) -> None:
    """Write records.csv, boundaries.geojson and oracle.npz into ``out``."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 1_000_003])))
    rings = _rings(p, rng)
    region_ids = sorted(rings)
    countries = {rid: f"C{1 + int(rid.split('_')[2]) * 3 // p.cols}" for rid in region_ids}

    linked = np.arange(len(region_ids))
    special = rng.choice(linked, p.single_cluster_regions + p.all_zero_regions, replace=False)
    single = set(special[: p.single_cluster_regions].tolist())
    all_zero = set(special[p.single_cluster_regions :].tolist())

    # a smooth truth surface over the grid, then a logit-normal cluster effect
    rc = np.array([[int(x) for x in rid.split("_")[1:]] for rid in region_ids], dtype=float)
    surface = 0.6 * np.sin(rc[:, 0] / 3.0) * np.cos(rc[:, 1] / 5.0)
    region_logit = p.base_logit + surface + rng.normal(0.0, 0.25, len(region_ids))

    m = rng.integers(p.clusters[0], p.clusters[1] + 1, len(region_ids))
    m[list(single)] = 1
    cl_region = np.repeat(linked, m)
    n_cl = len(cl_region)
    cl_local = np.concatenate([np.arange(k) for k in m])
    # each stratum of a mixed region holds at least two clusters
    urban_share = rng.uniform(0.2, 0.6, len(m))
    urban_count = np.where(m >= 4, np.clip((m * urban_share).astype(int), 2, m - 2), 0)
    cl_urban = cl_local < urban_count[cl_region]
    cl_size = rng.integers(p.households[0], p.households[1] + 1, n_cl)
    cl_logit = region_logit[cl_region] + 0.3 * cl_urban + rng.normal(0.0, 0.3, n_cl)
    cl_p = 1.0 / (1.0 + np.exp(-cl_logit))

    rec_cluster = np.repeat(np.arange(n_cl), cl_size)
    n_linked = len(rec_cluster)
    outcome = (rng.random(n_linked) < cl_p[rec_cluster]).astype(np.int8)
    outcome[np.isin(cl_region[rec_cluster], list(all_zero))] = 0
    # design weights in thousandths: the printed decimal is exactly the double
    weight_milli = rng.integers(300, 4000, n_linked)

    # records of regions without a boundary, in clusters of their own
    n_unlinked = int(round(p.unlinked_share * n_linked))
    un_region = rng.integers(0, p.unlinked_regions, n_unlinked)
    un_cluster = rng.integers(0, 40, n_unlinked)
    un_outcome = (rng.random(n_unlinked) < 0.1).astype(np.int8)
    un_weight = rng.integers(300, 4000, n_unlinked)
    # unlinked rows sit at random places in the file, as in a real export
    slots = np.sort(rng.choice(n_linked + n_unlinked, n_unlinked, replace=False))
    is_unlinked = np.zeros(n_linked + n_unlinked, dtype=bool)
    is_unlinked[slots] = True

    out.mkdir(parents=True, exist_ok=True)
    cluster_names = [f"{region_ids[r]}-c{j:03d}" for r, j in zip(cl_region, cl_local)]
    strata = np.where(cl_urban, "urban", "rural")
    lines = ["region_id,cluster_id,weight,outcome,stratum"]
    li = ui = 0
    for unlinked_row in is_unlinked.tolist():
        if unlinked_row:
            k = un_weight[ui]
            lines.append(
                f"Z_{un_region[ui]},Z_{un_region[ui]}-c{un_cluster[ui]:03d},"
                f"{k // 1000}.{k % 1000:03d},{un_outcome[ui]},rural"
            )
            ui += 1
        else:
            c = rec_cluster[li]
            k = weight_milli[li]
            lines.append(
                f"{region_ids[cl_region[c]]},{cluster_names[c]},"
                f"{k // 1000}.{k % 1000:03d},{outcome[li]},{strata[c]}"
            )
            li += 1
    (out / "records.csv").write_text("\n".join(lines) + "\n")

    features = [
        {
            "type": "Feature",
            "properties": {"region_id": rid, "country": countries[rid]},
            "geometry": {"type": "Polygon", "coordinates": [rings[rid]]},
        }
        for rid in region_ids
    ]
    doc = {"type": "FeatureCollection", "features": features}
    (out / "boundaries.geojson").write_text(json.dumps(doc, separators=(",", ":")) + "\n")

    np.savez(
        out / "oracle.npz",
        region_ids=np.array(region_ids),
        cluster_region=cl_region,
        cluster_urban=cl_urban,
        record_cluster=rec_cluster,
        weight=weight_milli / 1000.0,
        outcome=outcome,
        n_unlinked=n_unlinked,
        n_records=n_linked + n_unlinked,
    )


def cached_inputs(p: IngestParams, seed: int, cache: Path, keep: int = 3) -> Path:
    """Inputs for (params, seed), generated once; older entries are evicted."""
    target = cache / p.key(seed)
    if not (target / "oracle.npz").exists():
        tmp = cache / (target.name + ".tmp")
        shutil.rmtree(tmp, ignore_errors=True)
        generate(p, seed, tmp)
        shutil.rmtree(target, ignore_errors=True)
        tmp.rename(target)
    entries = sorted(
        (d for d in cache.glob("ingest1m-*") if d != target and not d.name.endswith(".tmp")),
        key=lambda d: d.stat().st_mtime,
    )
    for old in entries[: max(0, len(entries) - (keep - 1))]:
        shutil.rmtree(old, ignore_errors=True)
    target.touch()
    return target
