import contextlib
import hashlib
import importlib.machinery
import io
import json
import os
import re
import shlex
import subprocess
import sys
import weakref
from collections import Counter
from dataclasses import replace
from itertools import chain
from pathlib import Path
from unittest import mock
from xml.etree import ElementTree

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prevmap.bym
import prevmap.cli
import prevmap.data_model
import prevmap.exact
import prevmap.render
from prevmap.cli import _config_hash, _hashed, _read_values, main
from prevmap.data_model import (
    IndividualRecord,
    SurveyTable,
    load_boundaries,
    load_records,
    write_boundaries_geojson,
    write_records_csv,
)
from prevmap.direct import read_direct_csv, write_direct_csv
from prevmap.bym import read_posterior_csv
from prevmap.errors import ConsistencyError, SchemaError
from prevmap.graph import AdjacencyGraph, export_graph, load_graph
from prevmap.synthetic import make_grid_regions, read_truth_csv
from conftest import haswell_sha256
from test_exact_engine import mixed_spec
from test_records_property import damaged_records

SCENARIO = (
    "rows = 2\n"
    "cols = 3\n"
    "group_breaks = 1\n"
    "base_logit = -1.6\n"
    "spatial_sd = 0.4\n"
    "clusters_per_region = 3:5\n"
    "households_per_cluster = 8\n"
    "weight_dispersion = 1.5\n"
    "seed = 21\n"
)

MCMC = ["--chains", "2", "--iterations", "1500", "--burn-in", "500"]
REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(SCENARIO)
    return path


def run_stage(argv):
    code = main(argv)
    assert code == 0, f"command failed: {argv}"


@pytest.fixture
def pipeline_dir(tmp_path, scenario_file):
    out = tmp_path / "out"
    run_stage(["pipeline", "--config", str(scenario_file), "--seed", "21",
               "--out", str(out)] + MCMC)
    return out


class TestSubcommands:
    def test_simulate_writes_artifacts(self, tmp_path, scenario_file):
        out = tmp_path / "sim"
        run_stage(["simulate", "--config", str(scenario_file), "--out", str(out)])
        records = load_records(out / "records.csv")
        boundaries = load_boundaries(out / "boundaries.geojson")
        assert len(boundaries) == 6
        assert len(records) > 0
        header = (out / "records.csv").read_text().splitlines()[:3]
        assert header[0].startswith("# prevmap-version:")
        assert header[1] == "# seed: 21"

    def test_simulate_without_config_fails(self, tmp_path):
        assert main(["simulate", "--out", str(tmp_path)]) == 2

    def test_direct_and_adjacency(self, tmp_path, scenario_file):
        out = tmp_path / "o"
        run_stage(["simulate", "--config", str(scenario_file), "--out", str(out)])
        run_stage(["direct", "--records", str(out / "records.csv"),
                   "--boundaries", str(out / "boundaries.geojson"), "--out", str(out)])
        estimates = read_direct_csv(out / "direct.csv")
        assert len(estimates) == 6
        run_stage(["adjacency", "--boundaries", str(out / "boundaries.geojson"),
                   "--out", str(out)])
        text = (out / "graph.txt").read_text()
        assert "style B" in text and "nodes 6" in text

    def test_direct_frees_the_loaded_records_once_filtered(self, tmp_path, scenario_file):
        # the loaded table and its linked copy were both held while the
        # estimates were made: on a million records, a second table
        out = tmp_path / "o"
        run_stage(["simulate", "--config", str(scenario_file), "--out", str(out)])
        five = tmp_path / "five.geojson"  # one region unlinked, so the records are copied
        write_boundaries_geojson(load_boundaries(out / "boundaries.geojson")[1:], five)
        loaded, held = [], []
        drop_unlinked, estimate_all = prevmap.cli.drop_unlinked, prevmap.cli.estimate_all

        def spy_drop(records, boundaries):
            loaded.append(weakref.ref(records))
            return drop_unlinked(records, boundaries)

        def spy_estimate(dataset):
            held.append(loaded[0]() is not None)
            return estimate_all(dataset)

        with mock.patch.object(prevmap.cli, "drop_unlinked", spy_drop), \
                mock.patch.object(prevmap.cli, "estimate_all", spy_estimate):
            run_stage(["direct", "--records", str(out / "records.csv"), "--boundaries", str(five),
                       "--out", str(tmp_path / "d")])
        assert held == [False]
        assert len(read_direct_csv(tmp_path / "d" / "direct.csv")) == 5

    def test_smooth_render_compare(self, pipeline_dir):
        rows = read_posterior_csv(pipeline_dir / "posterior.csv")
        assert len(rows) == 6
        for name in (
            "fig1_sample_size.svg",
            "fig2_smoothed_ci.svg",
            "fig3_country_zoom.svg",
            "fig4_comparison.svg",
        ):
            content = (pipeline_dir / name).read_text()
            assert content.startswith("<?xml")
            assert "<svg" in content

    def test_missing_input_file_exits_2(self, tmp_path):
        code = main(["direct", "--records", str(tmp_path / "none.csv"),
                     "--boundaries", str(tmp_path / "none.geojson"),
                     "--out", str(tmp_path)])
        assert code == 2

    def test_unknown_flag_exits_2(self):
        assert main(["adjacency", "--frobnicate"]) == 2

    @pytest.mark.parametrize("command", ["simulate", "direct", "adjacency", "smooth", "render",
                                         "compare", "pipeline"])
    def test_only_simulate_and_pipeline_take_config(self, command, capsys):
        assert main([command, "--help"]) == 0
        assert ("--config" in capsys.readouterr().out) == (command in ("simulate", "pipeline"))

    def test_missing_subcommand_exits_2(self):
        assert main([]) == 2

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "prevmap" in capsys.readouterr().out

    def test_render_bad_column_exits_2(self, pipeline_dir, tmp_path):
        code = main(["render", "--boundaries", str(pipeline_dir / "boundaries.geojson"),
                     "--values", str(pipeline_dir / "direct.csv"),
                     "--column", "no_such_column", "--out", str(tmp_path)])
        assert code == 2

    def test_render_zoom_per_country(self, pipeline_dir, tmp_path):
        run_stage(["render", "--boundaries", str(pipeline_dir / "boundaries.geojson"),
                   "--values", str(pipeline_dir / "posterior.csv"),
                   "--column", "prev_mean", "--zoom-per-country",
                   "--output-name", "zoom.svg", "--out", str(tmp_path)])
        svg = (tmp_path / "zoom.svg").read_text()
        assert svg.count('<g transform="translate(') == 2  # two country groups

    def test_parsed_state_does_not_leak_between_calls(self, pipeline_dir, tmp_path):
        # main parses every call with one parser; a later render without
        # --column must still fall back to prev_mean
        argv = ["render", "--boundaries", str(pipeline_dir / "boundaries.geojson"),
                "--values", str(pipeline_dir / "posterior.csv"), "--out"]
        run_stage(argv + [str(tmp_path / "two"), "--column", "n", "--column", "prev_mean"])
        run_stage(argv + [str(tmp_path / "default")])
        run_stage(argv + [str(tmp_path / "named"), "--column", "prev_mean"])
        assert os.listdir(tmp_path / "two") == ["map_n_prev_mean.svg"]
        assert os.listdir(tmp_path / "default") == ["map_prev_mean.svg"]
        default = (tmp_path / "default" / "map_prev_mean.svg").read_bytes()
        assert default == (tmp_path / "named" / "map_prev_mean.svg").read_bytes()

    def test_fig2_matches_per_panel_rendering(self, pipeline_dir, tmp_path):
        # the map row projects its boundaries once; drawing each panel on its
        # own, with its own projection, must give the same document
        def per_panel(boundaries, panels, spec, metadata):
            return prevmap.render._panel_row(
                [prevmap.render._choropleth_panel(boundaries, values, spec, title, column)
                 for title, column, values in panels],
                metadata,
            )

        argv = ["render", "--boundaries", str(pipeline_dir / "boundaries.geojson"),
                "--values", str(pipeline_dir / "posterior.csv"),
                "--column", "prev_mean", "--column", "prev_q025", "--column", "prev_q975",
                "--output-name", "fig2_smoothed_ci.svg", "--seed", "21", "--out"]
        spy = mock.patch.object(prevmap.render, "_region_paths",
                                wraps=prevmap.render._region_paths)
        with spy as projected:
            run_stage(argv + [str(tmp_path / "row")])
        assert projected.call_count == 1
        with mock.patch.object(prevmap.cli, "render_map_row", per_panel):
            run_stage(argv + [str(tmp_path / "panels")])
        fig2 = (pipeline_dir / "fig2_smoothed_ci.svg").read_bytes()
        assert (tmp_path / "row" / "fig2_smoothed_ci.svg").read_bytes() == fig2
        assert (tmp_path / "panels" / "fig2_smoothed_ci.svg").read_bytes() == fig2


class TestStrictMode:
    def test_nonconverged_strict_exits_3_but_writes_posterior(
        self, tmp_path, scenario_file, monkeypatch
    ):
        out = tmp_path / "o"
        run_stage(["simulate", "--config", str(scenario_file), "--out", str(out)])
        run_stage(["direct", "--records", str(out / "records.csv"),
                   "--boundaries", str(out / "boundaries.geojson"), "--out", str(out)])
        run_stage(["adjacency", "--boundaries", str(out / "boundaries.geojson"),
                   "--out", str(out)])
        monkeypatch.setattr(prevmap.exact, "GRID_LOG_DROP", 0.5)  # force failure: a narrow grid
        code = main(["smooth", "--direct", str(out / "direct.csv"),
                     "--graph", str(out / "graph.txt"), "--seed", "4",
                     "--strict", "--out", str(out)] + MCMC)
        assert code == 3
        assert (out / "posterior.csv").exists()
        rows = read_posterior_csv(out / "posterior.csv")
        assert len(rows) == 6

    def test_same_fit_without_strict_exits_0(
        self, tmp_path, scenario_file, monkeypatch
    ):
        out = tmp_path / "o"
        run_stage(["simulate", "--config", str(scenario_file), "--out", str(out)])
        run_stage(["direct", "--records", str(out / "records.csv"),
                   "--boundaries", str(out / "boundaries.geojson"), "--out", str(out)])
        run_stage(["adjacency", "--boundaries", str(out / "boundaries.geojson"),
                   "--out", str(out)])
        monkeypatch.setattr(prevmap.exact, "GRID_LOG_DROP", 0.5)
        code = main(["smooth", "--direct", str(out / "direct.csv"),
                     "--graph", str(out / "graph.txt"), "--seed", "4",
                     "--out", str(out)] + MCMC)
        assert code == 0


def test_fit_notes_are_printed_to_stderr(tmp_path, capsys, monkeypatch):
    # a drop of 20 log units grows the variance grid out to sig2_sp ~ 1e19,
    # where the precision matrix of this graph is singular in floating point
    ids = [f"A{k}" for k in range(6)]
    graph = AdjacencyGraph.from_edges(ids, [("A0", "A2"), ("A2", "A4"), ("A0", "A4"), ("A1", "A3")])
    export_graph(graph, tmp_path / "graph.txt")
    write_direct_csv(mixed_spec().estimates, tmp_path / "direct.csv")
    monkeypatch.setattr(prevmap.exact, "GRID_LOG_DROP", 20.0)
    out = tmp_path / "out"
    run_stage(["smooth", "--direct", str(tmp_path / "direct.csv"),
               "--graph", str(tmp_path / "graph.txt"), "--out", str(out)] + MCMC)
    captured = capsys.readouterr()
    notes = [line for line in captured.err.splitlines() if line.startswith("note: ")]
    singular = [note for note in notes if "singular" in note]
    assert len(singular) == 1
    assert re.fullmatch(r"note: variance grid: [1-9]\d* of \d+ points have a precision matrix "
                        r"that is singular in floating point; they count as zero density", singular[0])
    # next to the singular points, rounding can eat a region's variance of
    # theta; such points leave the region summaries, with a note of their own
    for note in notes:
        assert note in singular or re.fullmatch(
            r"note: variance grid: [1-9]\d* of \d+ points lost a region's variance of theta to "
            r"rounding; they are left out of the region summaries", note), note
    assert captured.out == f"wrote {out / 'posterior.csv'}\n"
    assert os.listdir(out) == ["posterior.csv"]
    assert "note" not in (out / "posterior.csv").read_text()


class TestConvergence:
    def test_shipped_demo_converges_at_default_settings(self, tmp_path, capsys):
        code = main(["pipeline", "--config", str(REPO_ROOT / "demo.cfg"), "--strict",
                     "--out", str(tmp_path)])
        assert code == 0
        assert "WARNING" not in capsys.readouterr().err
        meta = dict(line[2:].split(": ", 1) for line in
                    (tmp_path / "posterior.csv").read_text().splitlines() if line.startswith("# "))
        assert float(meta["grid_edge_mass"]) < prevmap.bym.GRID_EDGE_MASS_THRESHOLD

    def test_narrow_grid_records_edge_mass_and_strict_exits_3(
        self, pipeline_dir, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(prevmap.exact, "GRID_LOG_DROP", 0.5)
        code = main(["smooth", "--direct", str(pipeline_dir / "direct.csv"),
                     "--graph", str(pipeline_dir / "graph.txt"), "--strict",
                     "--out", str(tmp_path)] + MCMC)
        assert code == 3
        assert "grid_edge_mass" in capsys.readouterr().err
        edge = next(line for line in (tmp_path / "posterior.csv").read_text().splitlines()
                    if line.startswith("# grid_edge_mass: "))
        assert float(edge.split(": ")[1]) > prevmap.bym.GRID_EDGE_MASS_THRESHOLD


def test_demo_pipeline_svgs_are_well_formed_xml(tmp_path):
    run_stage(["pipeline", "--config", str(REPO_ROOT / "demo.cfg"), "--out", str(tmp_path)])
    svgs = sorted(tmp_path.glob("*.svg"))
    assert len(svgs) == 4
    for path in svgs:
        assert ElementTree.parse(path).getroot().tag == "{http://www.w3.org/2000/svg}svg", path.name


def test_demo_pipeline_bytes_are_pinned(tmp_path):
    # every artifact of the shipped demo: any change to the survey, the
    # estimates, the graph, the fit or the figures moves these bytes
    argv = ["pipeline", "--config", str(REPO_ROOT / "demo.cfg"), "--seed", "7", "--traces",
            "--out", "."]
    script = f"from prevmap.cli import main; raise SystemExit(main({argv!r}))"
    assert haswell_sha256(tmp_path, script) == {
        "boundaries.geojson": "01847b4d3b6f7cc75ce240aee81f4e7a02bbfffc083e3daf2a4b4cccd8db0cee",
        "direct.csv": "bf786ec2e8c8d406e385a318a64dc21f9627b73f904792f57445028e9341ab40",
        "fig1_sample_size.svg": "2767fb7c1f7aec167fdc5531fd175ba499e77f1328245e7a9c387a1672696345",
        "fig2_smoothed_ci.svg": "27e9ff947242aa8433c086ead28cc68b8586b30b12ec92915eb8220a605334df",
        "fig3_country_zoom.svg": "9c878b8aca3839b51d7c9242fb35e117fe06f765fbf97799d2838e3c9afb86ea",
        "fig4_comparison.svg": "c5477ad27f8b5c1611f6c725ec622e98e0db63e67f102eabfe41e9e97cbd017e",
        "graph.txt": "ecce5e1d8e5ee4de1a02907bed5cf066951b7116f5ac474e83ee0db77e0d47f4",
        "posterior.csv": "bc8dc03ceed1762d4dd2ed58df2f65639c46a6e9611f3ec1585a4d413f2546b7",
        "records.csv": "e999af192a8cd6982ceed0af356631e04df2e09bed71f6648b92a799bd573a4d",
        "trace.csv": "d597e73921d029566d50895fc6356663975bbe66c1a73b03f943c3c448ac1660",
        "truth.csv": "39022083d3e7f0515a57cb22fb4d0141bc8495e269495417ade2c307f832b569",
    }


@pytest.mark.parametrize("command, seed_flag, scenario_seed", [
    ("simulate", "-1", "21"),
    ("simulate", None, "-5"),
    ("pipeline", str(2**64), "21"),
])
def test_seed_out_of_range_exits_2_before_writing(tmp_path, capsys, command, seed_flag, scenario_seed):
    # the seed is checked against McmcConfig's bound before simulate writes a file
    config = tmp_path / "scenario.cfg"
    config.write_text(SCENARIO.replace("seed = 21", f"seed = {scenario_seed}"))
    out = tmp_path / "out"
    argv = [command, "--config", str(config), "--out", str(out)] + (MCMC if command == "pipeline" else [])
    code = main(argv + (["--seed", seed_flag] if seed_flag else []))
    assert code == 2
    seed = seed_flag or scenario_seed
    assert capsys.readouterr().err == f"error: seed must be in [0, 2**64), got {seed}\n"
    assert not out.exists()


class TestPipelineEquivalence:
    def test_pipeline_matches_stepwise(self, tmp_path, scenario_file, capsys):
        a = tmp_path / "a"
        b = tmp_path / "b"
        seed = ["--seed", "21"]
        run_stage(["pipeline", "--config", str(scenario_file), "--out", str(a)]
                  + seed + MCMC)
        pipeline_output = capsys.readouterr()
        steps = [
            ["simulate", "--config", str(scenario_file), "--out", str(b)] + seed,
            ["direct", "--records", f"{b}/records.csv",
             "--boundaries", f"{b}/boundaries.geojson", "--out", str(b)] + seed,
            ["adjacency", "--boundaries", f"{b}/boundaries.geojson",
             "--style", "B", "--out", str(b)] + seed,
            ["smooth", "--direct", f"{b}/direct.csv", "--graph", f"{b}/graph.txt",
             "--out", str(b)] + seed + MCMC + ["--thin", "1"],
            ["render", "--boundaries", f"{b}/boundaries.geojson",
             "--values", f"{b}/direct.csv", "--column", "n",
             "--title", "Sample size by region",
             "--output-name", "fig1_sample_size.svg", "--out", str(b)] + seed,
            ["render", "--boundaries", f"{b}/boundaries.geojson",
             "--values", f"{b}/posterior.csv", "--column", "prev_mean",
             "--column", "prev_q025", "--column", "prev_q975",
             "--output-name", "fig2_smoothed_ci.svg", "--out", str(b)] + seed,
            ["render", "--boundaries", f"{b}/boundaries.geojson",
             "--values", f"{b}/posterior.csv", "--column", "prev_mean",
             "--zoom-per-country", "--output-name", "fig3_country_zoom.svg",
             "--out", str(b)] + seed,
            ["compare", "--direct", f"{b}/direct.csv",
             "--posterior", f"{b}/posterior.csv",
             "--output-name", "fig4_comparison.svg", "--out", str(b)] + seed,
        ]
        for argv in steps:
            run_stage(argv)
        files_a = sorted(p.name for p in a.iterdir())
        files_b = sorted(p.name for p in b.iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        # perfbench's checker reads "simulated N records" from the pipeline's stdout
        steps_output = capsys.readouterr()
        assert pipeline_output.out.startswith("simulated ")
        assert pipeline_output.out.replace(str(a), "OUT") == steps_output.out.replace(str(b), "OUT")
        assert pipeline_output.err == steps_output.err

    def test_readme_steps_write_what_pipeline_writes(self, tmp_path):
        # the README's eight commands, run one by one, against its quickstart pipeline
        readme = (REPO_ROOT / "README.md").read_text()
        block = readme.split("`pipeline` is exactly equivalent to:\n\n```sh\n", 1)[1]
        block = block.split("```", 1)[0].replace("\\\n", " ")
        a, b = tmp_path / "pipeline", tmp_path / "steps"

        def local(arg):
            if arg == "demo.cfg":
                return str(REPO_ROOT / arg)
            return f"{b}/{arg.removeprefix('out/')}" if arg.startswith("out/") else arg

        steps = [shlex.split(line) for line in block.splitlines()]
        assert [argv[:2] for argv in steps] == [
            ["prevmap", name] for name in ("simulate", "direct", "adjacency", "smooth",
                                           "render", "render", "render", "compare")]
        run_stage(["pipeline", "--config", str(REPO_ROOT / "demo.cfg"), "--out", str(a)])
        for argv in steps:
            run_stage([local(arg) for arg in argv[1:]])
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_pipeline_rerun_byte_identical(self, tmp_path, scenario_file):
        a = tmp_path / "r1"
        b = tmp_path / "r2"
        for out in (a, b):
            run_stage(["pipeline", "--config", str(scenario_file), "--seed", "5",
                       "--out", str(out)] + MCMC)
        for p in sorted(a.iterdir()):
            assert p.read_bytes() == (b / p.name).read_bytes(), p.name


class TestPipelineControlFlow:
    def test_failing_step_stops_the_pipeline_with_exit_2(self, tmp_path, capsys):
        # one cluster per region: every region is single_cluster, so smooth has nothing to fit
        config = tmp_path / "scenario.cfg"
        config.write_text(SCENARIO.replace("clusters_per_region = 3:5", "clusters_per_region = 1:1"))
        out = tmp_path / "out"
        code = main(["pipeline", "--config", str(config), "--out", str(out)] + MCMC)
        assert code == 2
        assert "need at least 2 non-degenerate regions, have 0" in capsys.readouterr().err
        assert sorted(os.listdir(out)) == ["boundaries.geojson", "direct.csv", "graph.txt",
                                           "records.csv", "truth.csv"]

    def test_strict_pipeline_exits_3_and_still_renders(self, tmp_path, scenario_file, monkeypatch):
        monkeypatch.setattr(prevmap.exact, "GRID_LOG_DROP", 0.5)  # force failure: a narrow grid
        out = tmp_path / "out"
        code = main(["pipeline", "--config", str(scenario_file), "--strict",
                     "--out", str(out)] + MCMC)
        assert code == 3
        for name in ("fig1_sample_size.svg", "fig2_smoothed_ci.svg", "fig3_country_zoom.svg",
                     "fig4_comparison.svg"):
            assert (out / name).read_text().startswith("<?xml"), name


class TestDegenerateAndMalformedInputs:
    @staticmethod
    def zero_variance_inputs(tmp_path):
        """2x2 grid; in R_1_1 both clusters have the same weighted mean."""
        regions = make_grid_regions(2, 2)
        write_boundaries_geojson(regions, tmp_path / "boundaries.geojson")
        rows = []
        for k, rid in enumerate(["R_0_0", "R_0_1", "R_1_0"]):
            for c in range(3):
                rows += [IndividualRecord(rid, f"{rid}-c{c}", 1.0, int(i <= (c + k) % 3))
                         for i in range(5)]
        for c in range(2):
            rows += [IndividualRecord("R_1_1", f"R_1_1-c{c}", 1.0, int(i == 0))
                     for i in range(4)]
        write_records_csv(SurveyTable.from_records(rows), tmp_path / "records.csv")
        return tmp_path

    def test_zero_variance_region_is_predicted_by_smooth(self, tmp_path):
        d = self.zero_variance_inputs(tmp_path)
        run_stage(["direct", "--records", str(d / "records.csv"),
                   "--boundaries", str(d / "boundaries.geojson"), "--out", str(d)])
        flags = {e.region_id: e.degenerate for e in read_direct_csv(d / "direct.csv")}
        assert flags == {"R_0_0": "none", "R_0_1": "none", "R_1_0": "none",
                         "R_1_1": "zero_variance"}
        run_stage(["adjacency", "--boundaries", str(d / "boundaries.geojson"), "--out", str(d)])
        run_stage(["smooth", "--direct", str(d / "direct.csv"), "--graph", str(d / "graph.txt"),
                   "--seed", "3", "--out", str(d)] + MCMC)
        rows = {r.region_id: r for r in read_posterior_csv(d / "posterior.csv")}
        assert rows["R_1_1"].degenerate == "zero_variance"
        assert 0.0 < rows["R_1_1"].prev_q025 < rows["R_1_1"].prev_q975 < 1.0

    @pytest.mark.parametrize("bad_row", ["R9,3\n", "R9,three,1,0.5,0.1,0.0,0.4,none\n"])
    def test_malformed_direct_csv_exits_2(self, pipeline_dir, tmp_path, capsys, bad_row):
        direct = tmp_path / "direct.csv"
        direct.write_text((pipeline_dir / "direct.csv").read_text() + bad_row)
        with pytest.raises(SchemaError, match=r"direct\.csv: row 7"):
            read_direct_csv(direct)
        code = main(["smooth", "--direct", str(direct), "--graph",
                     str(pipeline_dir / "graph.txt"), "--out", str(tmp_path)] + MCMC)
        assert code == 2
        assert "row 7" in capsys.readouterr().err

    @pytest.mark.parametrize("step", ["smooth", "compare"])
    def test_unknown_degenerate_flag_exits_2(self, pipeline_dir, tmp_path, capsys, step):
        # read as "not none", an unknown flag dropped the region's likelihood silently
        lines = (pipeline_dir / "direct.csv").read_text().splitlines(keepends=True)
        first = next(i for i, ln in enumerate(lines) if ln.startswith("region_id,")) + 1
        assert lines[first].endswith(",none\n")
        lines[first] = lines[first].replace(",none\n", ",bogus\n")
        direct = tmp_path / "direct.csv"
        direct.write_text("".join(lines))
        message = f"{direct}: row 1: unknown degenerate flag 'bogus'"
        with pytest.raises(SchemaError, match=re.escape(message)):
            read_direct_csv(direct)
        out = tmp_path / "result"
        argv = {"smooth": ["--graph", str(pipeline_dir / "graph.txt")] + MCMC,
                "compare": ["--posterior", str(pipeline_dir / "posterior.csv")]}[step]
        code = main([step, "--direct", str(direct), "--out", str(out)] + argv)
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not list(out.glob("*"))

    @pytest.mark.parametrize("step", ["smooth", "compare"])
    @pytest.mark.parametrize("p_hat", ["nan", "inf", "-0.25", "1.5"])
    def test_p_hat_outside_0_1_exits_2(self, pipeline_dir, tmp_path, capsys, step, p_hat):
        # compare drew a NaN p_hat at cy="nan", with a direct CI over the whole axis
        lines = (pipeline_dir / "direct.csv").read_text().splitlines(keepends=True)
        first = next(i for i, ln in enumerate(lines) if ln.startswith("region_id,")) + 1
        cells = lines[first].split(",")
        cells[3] = p_hat
        lines[first] = ",".join(cells)
        direct = tmp_path / "direct.csv"
        direct.write_text("".join(lines))
        message = f"{direct}: row 1: p_hat must be in [0, 1], got {float(p_hat)!r}"
        with pytest.raises(SchemaError, match=re.escape(message)):
            read_direct_csv(direct)
        out = tmp_path / "result"
        argv = {"smooth": ["--graph", str(pipeline_dir / "graph.txt")] + MCMC,
                "compare": ["--posterior", str(pipeline_dir / "posterior.csv")]}[step]
        code = main([step, "--direct", str(direct), "--out", str(out)] + argv)
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(out.glob("*"))

    @pytest.mark.parametrize("flag", ["--prior-a-eps", "--prior-b-sp"])
    def test_infinite_hyperprior_exits_2(self, pipeline_dir, tmp_path, capsys, flag):
        # the fit used to fail on it and blame the direct estimates
        code = main(["smooth", "--direct", str(pipeline_dir / "direct.csv"),
                     "--graph", str(pipeline_dir / "graph.txt"), flag, "inf",
                     "--out", str(tmp_path / "result")] + MCMC)
        assert code == 2
        name = flag[len("--prior-"):].replace("-", "_")
        assert capsys.readouterr().err == f"error: hyperprior {name} must be finite and > 0\n"
        assert not list((tmp_path / "result").glob("*"))

    @pytest.mark.parametrize("flags, logit_y, message", [
        (["--thin", "0"], None, "thin must be >= 1"),
        (["--seed", str(2**64)], None, "seed must fit in 64 unsigned bits"),
        ([], "inf", "region 'R_0_0': non-finite logit inputs"),
    ], ids=["thin_0", "seed_2_64", "infinite_logit_y"])
    def test_bad_smooth_input_exits_2(self, pipeline_dir, tmp_path, capsys, flags, logit_y, message):
        direct = pipeline_dir / "direct.csv"
        if logit_y is not None:
            lines = direct.read_text().splitlines(keepends=True)
            first = next(i for i, ln in enumerate(lines) if ln.startswith("region_id,")) + 1
            cells = lines[first].split(",")
            assert cells[0] == "R_0_0" and cells[-1] == "none\n"
            cells[5] = logit_y
            lines[first] = ",".join(cells)
            direct = tmp_path / "direct.csv"
            direct.write_text("".join(lines))
        out = tmp_path / "result"
        code = main(["smooth", "--direct", str(direct), "--graph", str(pipeline_dir / "graph.txt"),
                     "--out", str(out)] + MCMC + flags)
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(out.glob("*"))

    def test_overflowing_estimate_exits_2(self, pipeline_dir, tmp_path, capsys):
        # finite, so it passes the checks on read and BymModelSpec.validate,
        # but its spread overflows float64 in the fit
        estimates = read_direct_csv(pipeline_dir / "direct.csv")
        k = next(i for i, e in enumerate(estimates) if e.likelihood_usable)
        estimates[k] = replace(estimates[k], logit_y=1e300)
        direct = tmp_path / "direct.csv"
        write_direct_csv(estimates, direct)
        assert "1e+300" in direct.read_text()
        code = main(["smooth", "--direct", str(direct), "--graph",
                     str(pipeline_dir / "graph.txt"), "--out", str(tmp_path)] + MCMC)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "not finite" in err
        assert "Traceback" not in err
        assert not (tmp_path / "posterior.csv").exists()

    @pytest.mark.parametrize("bad_row", ["R_0_0\n", "R_0_0,lots\n"])
    def test_malformed_values_csv_exits_2(self, tmp_path, capsys, bad_row):
        regions = make_grid_regions(1, 2)
        write_boundaries_geojson(regions, tmp_path / "boundaries.geojson")
        values = tmp_path / "values.csv"
        values.write_text("# seed: 1\nregion_id,n\nR_0_1,4\n" + bad_row)
        with pytest.raises(SchemaError, match=r"values\.csv: row 2"):
            _read_values(values, ["n"])
        code = main(["render", "--boundaries", str(tmp_path / "boundaries.geojson"),
                     "--values", str(values), "--column", "n", "--out", str(tmp_path)])
        assert code == 2
        assert "row 2" in capsys.readouterr().err

    @pytest.mark.parametrize("fault", ["short_row", "text_field"])
    def test_malformed_posterior_csv_exits_2(self, pipeline_dir, tmp_path, capsys, fault):
        lines = (pipeline_dir / "posterior.csv").read_text().splitlines(keepends=True)
        third = next(i for i, ln in enumerate(lines) if ln.startswith("region_id,")) + 3
        fields = lines[third].rstrip("\n").split(",")
        if fault == "short_row":
            fields = fields[:5]
        else:
            fields[1] = "lots"
        lines[third] = ",".join(fields) + "\n"
        posterior = tmp_path / "posterior.csv"
        posterior.write_text("".join(lines))
        with pytest.raises(SchemaError, match=r"posterior\.csv: row 3"):
            read_posterior_csv(posterior)
        code = main(["compare", "--direct", str(pipeline_dir / "direct.csv"),
                     "--posterior", str(posterior), "--out", str(tmp_path)])
        assert code == 2
        assert "posterior.csv: row 3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda t: t.replace("\nR_0_0 R_0_1\n", "\nR_0_0 R_9_9\n"), "unknown node"),
            (lambda t: re.sub(r"\nnodes \d+\n", "\nnodes\n", t), "'nodes <count>'"),
            (lambda t: re.sub(r"\nedges \d+\n", "\nedges 2.5\n", t), "'edges <count>'"),
            (lambda t: t.replace("\nR_0_0 R_0_1\n", "\nR_0_0\n"), "edge 1: expected two"),
            (lambda t: t.replace("\nstyle B\n", "\nstyle X\n"), "unknown weighting style 'X'"),
            (lambda t: re.sub(r" R_1_2\n$", " R_9_9\n", t), "component names unknown region id 'R_9_9'"),
            (lambda t: re.sub(r" R_1_2\n$", "\n", t), "not one of the components the edges give"),
            (lambda t: t + "this is not a component line\n", "text after the components"),
            (lambda t: t + "edges 999\n", "text after the components"),
        ],
        ids=["unknown_node", "count_without_number", "non_integer_count", "short_edge_line",
             "unknown_style", "component_unknown_id", "component_short", "trailing_text",
             "trailing_edges_line"],
    )
    def test_malformed_graph_exits_2(self, pipeline_dir, tmp_path, capsys, edit, message):
        text = (pipeline_dir / "graph.txt").read_text()
        graph = tmp_path / "graph.txt"
        graph.write_text(edit(text))
        assert graph.read_text() != text
        code = main(["smooth", "--direct", str(pipeline_dir / "direct.csv"),
                     "--graph", str(graph), "--out", str(tmp_path)] + MCMC)
        assert code == 2
        err = capsys.readouterr().err
        assert "graph.txt" in err and message in err

    def test_truncated_geojson_exits_2(self, pipeline_dir, tmp_path, capsys):
        text = (pipeline_dir / "boundaries.geojson").read_text()
        broken = tmp_path / "boundaries.geojson"
        broken.write_text(text[: len(text) // 2])
        with pytest.raises(SchemaError, match=r"boundaries\.geojson: not valid JSON"):
            load_boundaries(broken)
        code = main(["render", "--boundaries", str(broken),
                     "--values", str(pipeline_dir / "direct.csv"), "--column", "n",
                     "--out", str(tmp_path)])
        assert code == 2
        assert "boundaries.geojson: not valid JSON" in capsys.readouterr().err

    def test_geojson_integer_past_the_digit_limit_exits_2(self, tmp_path, capsys):
        path = tmp_path / "boundaries.geojson"
        path.write_text('{"type": "FeatureCollection", "features": [], "n": ' + "7" * 5000 + "}")
        code = main(["adjacency", "--boundaries", str(path), "--out", str(tmp_path / "graph.txt")])
        assert code == 2
        assert "boundaries.geojson: not valid JSON" in capsys.readouterr().err

    def test_geojson_nested_past_the_parser_depth_exits_2(self, tmp_path, capsys):
        path = tmp_path / "boundaries.geojson"
        path.write_text("[" * 100_000)
        code = main(["adjacency", "--boundaries", str(path), "--out", str(tmp_path / "graph.txt")])
        assert code == 2
        assert "boundaries.geojson: not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "case, message",
        [
            ("group_breaks_not_integer", "bad scenario value"),
            ("negative_tolerance", "tolerance must be >= 0"),
            ("one_feature", "need at least 2 boundaries"),
            ("space_in_region_id", "'R 0' contains whitespace"),
            ("overflowing_tolerance", "tolerance 1e-320 is too small"),
            ("infinite_tolerance", "tolerance must be finite, got inf"),
        ],
    )
    def test_bad_input_exits_2_with_message(self, tmp_path, capsys, case, message):
        regions = make_grid_regions(1, 2)
        if case == "one_feature":
            regions = regions[:1]
        elif case == "space_in_region_id":
            regions = [replace(regions[0], region_id="R 0"), regions[1]]
        geojson = tmp_path / "boundaries.geojson"
        write_boundaries_geojson(regions, geojson)
        argv = ["adjacency", "--boundaries", str(geojson), "--out", str(tmp_path)]
        if case == "negative_tolerance":
            argv += ["--tolerance", "-1"]
        elif case == "overflowing_tolerance":
            argv += ["--tolerance", "1e-320"]
        elif case == "infinite_tolerance":
            argv += ["--tolerance", "inf"]
        elif case == "group_breaks_not_integer":
            cfg = tmp_path / "scenario.cfg"
            cfg.write_text(SCENARIO.replace("group_breaks = 1", "group_breaks = a"))
            argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path)]
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("step", ["adjacency", "render"])
    def test_non_finite_coordinate_exits_2(self, tmp_path, capsys, step, literal):
        geojson = tmp_path / "boundaries.geojson"
        write_boundaries_geojson(make_grid_regions(1, 3), geojson)
        text = geojson.read_text()
        ring = '[[1.0,0.0],[2.0,0.0]'  # R_0_1's first two vertices
        assert text.count(ring) == 1
        geojson.write_text(text.replace(ring, f"[[1.0,0.0],[2.0,{literal}]"))
        values = tmp_path / "values.csv"
        values.write_text("region_id,n\nR_0_0,4\nR_0_1,5\nR_0_2,6\n")
        argv = [step, "--boundaries", str(geojson), "--out", str(tmp_path)]
        if step == "render":
            argv += ["--values", str(values), "--column", "n"]
        assert main(argv) == 2
        assert "region 'R_0_1': ring has a non-finite coordinate" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.svg")) and not (tmp_path / "graph.txt").exists()

    @pytest.mark.parametrize("reader", ["records", "boundaries", "data_lines"])
    def test_non_utf8_input_exits_2(self, pipeline_dir, tmp_path, capsys, reader):
        # a Latin-1 export: "Zamb\xe9zia" where UTF-8 has "Zamb\xc3\xa9zia"
        name, argv = {
            "records": ("records.csv", ["direct", "--records", "{}", "--boundaries",
                                        str(pipeline_dir / "boundaries.geojson")]),
            "boundaries": ("boundaries.geojson", ["adjacency", "--boundaries", "{}"]),
            "data_lines": ("graph.txt", ["smooth", "--direct", str(pipeline_dir / "direct.csv"),
                                         "--graph", "{}"] + MCMC),
        }[reader]
        data = (pipeline_dir / name).read_bytes()
        at = data.index(b"R_0_1")  # every one of these files names region R_0_1
        broken = tmp_path / name
        broken.write_bytes(data[:at] + b"Zamb\xe9zia" + data[at:])
        argv = [arg.format(broken) for arg in argv] + ["--out", str(tmp_path / "step")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: {broken}: not UTF-8 text (byte {at + 5})\n"
        assert not (tmp_path / "step").exists()


def test_config_hash_is_sha256_of_files_then_texts(tmp_path):
    first = tmp_path / "records.csv"
    first.write_bytes(bytes(range(256)) * 3)
    second = tmp_path / "boundaries.geojson"
    second.write_bytes(b'{"type": "FeatureCollection"}\r\n')
    texts = ("tolerance=1e-06 style=B", "caf\u00e9", "")
    expected = hashlib.sha256(
        first.read_bytes() + b"\0" + second.read_bytes() + b"\0"
        + b"".join(t.encode() + b"\0" for t in texts)
    ).hexdigest()[:16]
    assert _config_hash(_hashed(str(first), second), *texts) == expected
    assert _config_hash(_hashed(), "x") == hashlib.sha256(b"x\0").hexdigest()[:16]
    with pytest.raises(SchemaError, match="input file not found: .*none.csv"):
        _hashed(first, tmp_path / "none.csv")


def test_directory_as_input_exits_2(tmp_path, capsys):
    code = main(["adjacency", "--boundaries", str(tmp_path), "--out", str(tmp_path)])
    assert code == 2
    assert f"cannot read input file {tmp_path}: Is a directory" in capsys.readouterr().err
    code = main(["simulate", "--config", str(tmp_path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == f"error: cannot read input file {tmp_path}: Is a directory\n"


def test_unwritable_output_exits_2_naming_the_target(tmp_path, capsys):
    boundaries = tmp_path / "boundaries.geojson"
    write_boundaries_geojson(make_grid_regions(1, 2), boundaries)
    values = tmp_path / "values.csv"
    values.write_text("region_id,n\nR_0_0,4\nR_0_1,5\n")
    taken = tmp_path / "taken"
    taken.write_text("x")
    code = main(["adjacency", "--boundaries", str(boundaries), "--out", str(taken)])
    assert code == 2
    assert capsys.readouterr().err == f"error: cannot write {taken}: File exists\n"
    code = main(["render", "--boundaries", str(boundaries), "--values", str(values),
                 "--column", "n", "--output-name", "sub/x.svg", "--out", str(tmp_path)])
    assert code == 2
    target = tmp_path / "sub" / "x.svg"
    assert capsys.readouterr().err == (
        f"error: cannot write {target}: No such file or directory\n")
    assert sorted(os.listdir(tmp_path)) == ["boundaries.geojson", "taken", "values.csv"]


def test_region_ids_starting_with_hash_pass_adjacency_and_smooth(tmp_path):
    # graph.txt's node line '#a' used to be read as a comment
    ids = ["#a", "b", "c"]
    regions = [replace(r, region_id=rid) for r, rid in zip(make_grid_regions(1, 3), ids)]
    write_boundaries_geojson(regions, tmp_path / "boundaries.geojson")
    rows = [IndividualRecord(rid, f"{rid}-c{c}", 1.0, int(i <= (c + k) % 3))
            for k, rid in enumerate(ids) for c in range(3) for i in range(5)]
    write_records_csv(SurveyTable.from_records(rows), tmp_path / "records.csv")
    with contextlib.redirect_stdout(io.StringIO()):
        run_stage(["direct", "--records", str(tmp_path / "records.csv"),
                   "--boundaries", str(tmp_path / "boundaries.geojson"), "--out", str(tmp_path)])
        run_stage(["adjacency", "--boundaries", str(tmp_path / "boundaries.geojson"),
                   "--out", str(tmp_path)])
        assert load_graph(tmp_path / "graph.txt").node_ids == ("#a", "b", "c")
        run_stage(["smooth", "--direct", str(tmp_path / "direct.csv"),
                   "--graph", str(tmp_path / "graph.txt"), "--out", str(tmp_path)] + MCMC)
    assert [r.region_id for r in read_posterior_csv(tmp_path / "posterior.csv")] == ids


# the settings of a locale whose encoding is ASCII, with Python's UTF-8 mode
# and C-locale coercion off (Windows' cp1252 is the common real case)
ASCII_LOCALE = {"LC_ALL": "C", "LANG": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}


def test_inputs_and_artifacts_are_utf8_whatever_the_locale(tmp_path):
    config = tmp_path / "scenario.cfg"
    config.write_bytes(("# Zambézia, Mozambique\n" + SCENARIO).encode())
    regions = make_grid_regions(1, 2)
    boundaries = tmp_path / "boundaries.geojson"
    write_boundaries_geojson([replace(regions[0], region_id="Zambézia"), regions[1]], boundaries)
    env = {**os.environ, **ASCII_LOCALE,
           "PYTHONPATH": str(Path(prevmap.bym.__file__).resolve().parents[1])}
    probe = "import locale; print(locale.getpreferredencoding(False))"
    assert subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True).stdout.strip() != "UTF-8"
    for argv in (["simulate", "--config", str(config)],
                 ["adjacency", "--boundaries", str(boundaries)]):
        ascii_out, default_out = tmp_path / f"{argv[0]}_ascii", tmp_path / f"{argv[0]}_default"
        done = subprocess.run([sys.executable, "-m", "prevmap", *argv, "--out", str(ascii_out)],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        with contextlib.redirect_stdout(io.StringIO()):
            run_stage(argv + ["--out", str(default_out)])
        names = sorted(os.listdir(default_out))
        assert sorted(os.listdir(ascii_out)) == names
        for name in names:
            assert (ascii_out / name).read_bytes() == (default_out / name).read_bytes(), name
    assert "\nZambézia\n" in (tmp_path / "adjacency_ascii" / "graph.txt").read_text("utf-8")


# ---------------------------------------------------------------------------
# Damaged inputs of `smooth`: exit 0, or exit 2 with an error line
# ---------------------------------------------------------------------------

SHORT_FIT = ["--chains", "2", "--iterations", "1000", "--burn-in", "500"]


@pytest.fixture(scope="module")
def smooth_inputs(tmp_path_factory):
    """direct.csv and graph.txt of a 2 x 3 scenario, with region R_1_2 degenerate."""
    out = tmp_path_factory.mktemp("smooth_inputs")
    config = out / "scenario.cfg"
    config.write_text(SCENARIO)
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (
            ["simulate", "--config", str(config)],
            ["direct", "--records", str(out / "records.csv"),
             "--boundaries", str(out / "boundaries.geojson")],
            ["adjacency", "--boundaries", str(out / "boundaries.geojson")],
        ):
            assert main(argv + ["--out", str(out)]) == 0
    direct = out / "direct.csv"
    lines = direct.read_text().splitlines(keepends=True)
    at = next(k for k, line in enumerate(lines) if line.startswith("R_1_2,"))
    lines[at] = "R_1_2,32,4,0.0,0.0,nan,nan,all_zero\n"
    direct.write_text("".join(lines))
    return direct, out / "graph.txt"


def run_step(argv, written):
    """Run one command: exit 0 having written ``written``, or exit 2 with an error line."""
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(argv)
    if code == 0:
        assert written.exists()
    else:
        assert code == 2
        assert stderr.getvalue().startswith("error: ")
    return code


def run_smooth(direct, graph, out):
    return run_step(["smooth", "--direct", str(direct), "--graph", str(graph),
                     "--out", str(out)] + SHORT_FIT, out / "posterior.csv")


@settings(max_examples=40, deadline=None)
@given(case=st.data())
def test_damaged_direct_csv_exits_0_or_2(tmp_path_factory, smooth_inputs, case):
    direct, graph = smooth_inputs
    out = tmp_path_factory.mktemp("damaged_direct")
    damaged = out / "direct.csv"
    damaged.write_bytes(case.draw(damaged_records(direct.read_bytes())))
    run_smooth(damaged, graph, out)


@settings(max_examples=40, deadline=None)
@given(case=st.data())
def test_damaged_graph_exits_0_or_2(tmp_path_factory, smooth_inputs, case):
    direct, graph_path = smooth_inputs
    out = tmp_path_factory.mktemp("damaged_graph")
    damaged = out / "graph.txt"
    data = graph_path.read_bytes()
    lines = data.splitlines(keepends=True)
    body = [k for k, line in enumerate(lines) if not line.startswith(b"#")]
    edge_lines = [k for k in body if len(lines[k].split()) == 2 and not lines[k][:1].islower()]
    kind = case.draw(st.sampled_from(["truncate", "drop_column", "inject", "permute", "drop_edges"]))
    if kind == "drop_edges":
        # a valid file whose graph falls apart: components, isolated nodes,
        # and R_1_2 (degenerate) alone or in a component of its own
        graph = load_graph(graph_path)
        kept = case.draw(st.lists(st.sampled_from(sorted(graph.edges)), unique=True))
        export_graph(AdjacencyGraph.from_edges(graph.node_ids, kept), damaged)
        assert run_smooth(direct, damaged, out) == 0
        return
    if kind == "truncate":
        data = data[:case.draw(st.integers(0, len(data) - 1))]
    elif kind == "permute":
        rows = case.draw(st.permutations([lines[k] for k in body]))
        data = b"".join(lines[:body[0]] + rows)
    elif kind == "drop_column":
        for k in edge_lines:
            lines[k] = lines[k].split()[0] + b"\n"
        data = b"".join(lines)
    else:
        k = case.draw(st.sampled_from(body))
        fields = lines[k].split()
        column = case.draw(st.integers(0, max(len(fields) - 1, 0)))
        fields[column:column + 1] = [case.draw(st.one_of(
            st.text(alphabet="01 _-#xR\u3000\n", max_size=6).map(str.encode),
            st.binary(max_size=4),
        ))]
        lines[k] = b" ".join(fields) + b"\n"
        data = b"".join(lines)
    damaged.write_bytes(data)
    run_smooth(direct, damaged, out)


# ---------------------------------------------------------------------------
# Damaged boundaries, posterior and values files, and truth.csv
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Every artifact of a 2 x 3 pipeline run."""
    out = tmp_path_factory.mktemp("artifacts")
    config = out / "scenario.cfg"
    config.write_text(SCENARIO)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["pipeline", "--config", str(config), "--out", str(out)] + SHORT_FIT) == 0
    return out


@pytest.mark.parametrize("step", ["render", "compare", "smooth", "truth"])
def test_repeated_region_id_exits_2(tmp_path, artifacts, capsys, step):
    # a second R_0_0 row used to win silently in render and compare
    name = "truth.csv" if step == "truth" else "direct.csv"
    text = (artifacts / name).read_text()
    fields = next(ln for ln in text.splitlines() if ln.startswith("R_0_0,")).split(",")
    fields[1] = "99999"
    damaged = tmp_path / name
    damaged.write_text(text + ",".join(fields) + "\n")
    message = f"{damaged}: row 7: duplicate region_id 'R_0_0'"
    if step == "truth":
        with pytest.raises(ConsistencyError) as err:
            read_truth_csv(damaged)
        assert str(err.value) == message
        return
    argv = {
        "render": ["--boundaries", str(artifacts / "boundaries.geojson"),
                   "--values", str(damaged), "--column", "n"],
        "compare": ["--direct", str(damaged), "--posterior", str(artifacts / "posterior.csv")],
        "smooth": ["--direct", str(damaged), "--graph", str(artifacts / "graph.txt")] + SHORT_FIT,
    }[step]
    assert main([step, *argv, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


@pytest.mark.parametrize("layout", [
    ["--column", "prev_mean", "--column", "prev_q025"],
    ["--column", "prev_mean", "--zoom-per-country"],
    ["--zoom-per-country"],
], ids=["two_columns", "zoom", "zoom_default_column"])
def test_render_title_with_several_panels_exits_2(tmp_path, artifacts, capsys, layout):
    # a title names one panel: it used to be dropped without a word here
    argv = ["render", "--boundaries", str(artifacts / "boundaries.geojson"),
            "--values", str(artifacts / "posterior.csv"), "--title", "T", *layout]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "error: --title takes exactly one --column and no --zoom-per-country\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("layout, message", [
    (["--column", "prev_mean", "--column", "prev_q025", "--zoom-per-country"],
     "--zoom-per-country takes exactly one --column"),
    (["--title", "T", "--zoom-per-country"],
     "--title takes exactly one --column and no --zoom-per-country"),
], ids=["zoom_two_columns", "title_zoom"])
def test_render_usage_errors_come_before_any_read(tmp_path, capsys, layout, message):
    argv = ["render", "--boundaries", str(tmp_path / "none.geojson"),
            "--values", str(tmp_path / "none.csv"), *layout, "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_render_title_names_the_one_panel(tmp_path, artifacts):
    argv = ["render", "--boundaries", str(artifacts / "boundaries.geojson"),
            "--values", str(artifacts / "direct.csv"), "--column", "n", "--output-name", "n.svg"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*argv, "--title", "Sample size", "--out", str(tmp_path / "titled")]) == 0
        assert main([*argv, "--out", str(tmp_path / "plain")]) == 0
    heading = '<text x="10" y="20" font-size="13" font-weight="bold">{}</text>'
    assert heading.format("Sample size") in (tmp_path / "titled" / "n.svg").read_text()
    assert heading.format("n") in (tmp_path / "plain" / "n.svg").read_text()



def test_render_title_is_in_the_config_hash(tmp_path, artifacts):
    argv = ["render", "--boundaries", str(artifacts / "boundaries.geojson"),
            "--values", str(artifacts / "direct.csv"), "--column", "n", "--output-name", "n.svg"]
    headers = []
    for title in ("A", "B"):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*argv, "--title", title, "--out", str(tmp_path / title)]) == 0
        svg = (tmp_path / title / "n.svg").read_text()
        headers.append(re.search(r"config-sha256: (\w+)", svg).group(1))
    assert headers[0] != headers[1]


def test_fig2_legends_name_their_columns(tmp_path, artifacts):
    # every panel's legend used to be titled by the first --column
    argv = ["render", "--boundaries", str(artifacts / "boundaries.geojson"),
            "--values", str(artifacts / "posterior.csv"),
            "--column", "prev_mean", "--column", "prev_q025", "--column", "prev_q975",
            "--output-name", "fig2.svg", "--out", str(tmp_path)]
    spy = mock.patch.object(prevmap.cli, "read_table", wraps=prevmap.cli.read_table)
    with spy as read, contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert read.call_count == 1
    for svg in (tmp_path / "fig2.svg", artifacts / "fig2_smoothed_ci.svg"):
        legends = re.findall(r'<text x="324.00" y="[\d.]+" font-size="11" '
                             r'font-weight="bold">([^<]*)</text>', svg.read_text())
        assert legends == ["prev_mean", "prev_q025", "prev_q975"]


def test_render_names_a_missing_column_among_several(tmp_path, artifacts, capsys):
    argv = ["render", "--boundaries", str(artifacts / "boundaries.geojson"),
            "--values", str(artifacts / "posterior.csv"),
            "--column", "prev_mean", "--column", "prev_q99", "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {artifacts / 'posterior.csv'}: missing column(s) 'prev_q99'\n")


# what a fresh interpreter prints last: its scipy modules and the exact engine
LOADED_SCIPY = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m == 'prevmap.exact'))"


def fresh_python(*args):
    """stdout of ``python *args`` in a fresh interpreter that imports this prevmap."""
    env = {**os.environ, "PYTHONPATH": str(Path(prevmap.bym.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          check=True).stdout


def test_cli_import_loads_no_scipy_and_not_the_exact_engine():
    # every command starts without scipy; simulate, smooth and pipeline load
    # the exact engine, and with it two of scipy's compiled modules, on first use
    assert fresh_python("-c", "import sys, prevmap.cli; " + LOADED_SCIPY) == "[]\n"


def test_cli_import_leaves_out_scipy_stats_and_sparse():
    # keeps the start-up cost of every command down
    probe = (
        "import sys, prevmap.cli; "
        "print(sorted(m for m in ('scipy.stats', 'scipy.sparse') if m in sys.modules))"
    )
    assert fresh_python("-c", probe).strip() == "[]"


def test_cli_import_leaves_out_the_exact_engine_and_scipy_linalg():
    # the exact engine loads on first use, and scipy.linalg never in a command;
    # nothing needs scipy.optimize
    probe = (
        "import sys, prevmap.cli; "
        "print(sorted(m for m in sys.modules if m == 'prevmap.exact' or m.split('.')[:2] in "
        "(['scipy', 'linalg'], ['scipy', 'optimize'])))"
    )
    assert fresh_python("-c", probe).strip() == "[]"


def test_commands_that_fit_nothing_load_no_scipy(artifacts, tmp_path):
    boundaries = ["--boundaries", str(artifacts / "boundaries.geojson")]
    direct = str(tmp_path / "direct.csv")
    commands = [
        ["direct", "--records", str(artifacts / "records.csv"), *boundaries],
        ["adjacency", *boundaries],
        ["render", *boundaries, "--values", direct, "--column", "n"],
        ["compare", "--direct", direct, "--posterior", str(artifacts / "posterior.csv")],
    ]
    probe = "import sys\nfrom prevmap.cli import main\n" + "".join(
        f"assert main({argv + ['--out', str(tmp_path)]!r}) == 0\n" for argv in commands
    ) + LOADED_SCIPY
    assert fresh_python("-c", probe).splitlines()[-1] == "[]"
    assert {"direct.csv", "graph.txt", "map_n.svg", "comparison.svg"} <= set(os.listdir(tmp_path))


# the exact engine's two compiled scipy modules, and the packages that export them
SCIPY_EXTENSIONS = [("scipy.linalg._flapack", "scipy.linalg.lapack"),
                    ("scipy.special._special_ufuncs", "scipy.special")]


def pipeline_probe(tmp_path):
    """Python lines that run a short 2 x 3 pipeline into tmp_path."""
    config = tmp_path / "scenario.cfg"
    config.write_text(SCENARIO)
    argv = ["pipeline", "--config", str(config), "--out", str(tmp_path / "out"), *SHORT_FIT]
    return ("import contextlib, io, sys\nfrom prevmap.cli import main\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n    assert main({argv!r}) == 0\n")


def test_a_fit_loads_two_compiled_scipy_modules_that_scipy_then_reuses(tmp_path):
    probe = pipeline_probe(tmp_path) + LOADED_SCIPY + (
        "\nimport prevmap.exact, scipy.linalg.lapack, scipy.special\n"
        "print(prevmap.exact.dpbtrf is scipy.linalg.lapack.dpbtrf, "
        "prevmap.exact.ndtr is scipy.special.ndtr, prevmap.exact.expit is scipy.special.expit)"
    )
    loaded, reused = fresh_python("-c", probe).splitlines()[-2:]
    assert loaded == "['prevmap.exact', 'scipy.linalg._flapack', 'scipy.special._special_ufuncs']"
    assert reused == "True True True"


def test_a_fit_after_scipy_reuses_its_modules(tmp_path):
    probe = (
        "import scipy.linalg.lapack, scipy.special, sys\n"
        f"before = [sys.modules[name] for name, _ in {SCIPY_EXTENSIONS!r}]\n"
        + pipeline_probe(tmp_path)
        + "import prevmap.exact\n"
        f"print([prevmap.exact.scipy_extension(*names) for names in {SCIPY_EXTENSIONS!r}] == before, "
        "prevmap.exact.dpbtrf is scipy.linalg.lapack.dpbtrf, prevmap.exact.ndtr is scipy.special.ndtr)"
    )
    assert fresh_python("-c", probe).splitlines()[-1] == "True True True"


@pytest.mark.parametrize("name, public", SCIPY_EXTENSIONS)
def test_scipy_extension_reuses_a_loaded_module_without_a_search(monkeypatch, name, public):
    importlib.import_module(public)
    monkeypatch.setattr(prevmap.exact, "_extension_spec", lambda _: pytest.fail("searched"))
    assert prevmap.exact.scipy_extension(name, public) is sys.modules[name]


@pytest.mark.parametrize("name, public", SCIPY_EXTENSIONS)
@pytest.mark.parametrize("found", ["missing", "not_loadable"])
def test_scipy_extension_falls_back_to_the_public_module(monkeypatch, tmp_path, name, public, found):
    public_module = importlib.import_module(public)
    junk = tmp_path / "junk.so"
    junk.write_bytes(b"not a shared object")
    spec = {"missing": None,
            "not_loadable": importlib.machinery.ModuleSpec(
                name, importlib.machinery.ExtensionFileLoader(name, str(junk)), origin=str(junk))}[found]
    monkeypatch.setattr(prevmap.exact, "_extension_spec", lambda _: spec)
    monkeypatch.delitem(sys.modules, name)
    assert prevmap.exact.scipy_extension(name, public) is public_module
    assert name not in sys.modules


def test_python_m_prevmap_runs_the_cli():
    assert fresh_python("-m", "prevmap", "--version") == "prevmap 0.1.0\n"


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc["features"].__setitem__(2, 7), "feature 2 must be an object, got a number"),
        (lambda doc: doc.__setitem__("features", {"a": doc["features"][0]}),
         "features must be an array, got an object"),
        (lambda doc: doc["features"][2].__setitem__("properties", ["R_0_2"]),
         "feature 2: properties must be an object, got an array"),
        (lambda doc: doc["features"][2].__setitem__("geometry", "Polygon"),
         "feature 'R_0_2': geometry must be an object, got a string"),
        (lambda doc: doc["features"][2]["geometry"].__setitem__("coordinates", 4),
         "feature 'R_0_2': MultiPolygon coordinates must be nested arrays"),
    ],
    ids=["feature_number", "features_object", "properties_list", "geometry_string",
         "coordinates_number"],
)
def test_misshapen_geojson_exits_2_naming_file_and_feature(artifacts, tmp_path, capsys, edit, message):
    doc = json.loads((artifacts / "boundaries.geojson").read_text())
    edit(doc)
    broken = tmp_path / "boundaries.geojson"
    broken.write_text(json.dumps(doc))
    assert main(["adjacency", "--boundaries", str(broken), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {broken}: {message}\n"


@pytest.mark.parametrize("key", ["region_id", "country"])
@pytest.mark.parametrize("value, kind", [(True, "a boolean"), (1.0, "a number"), ([1], "an array"),
                                         ({"a": 1}, "an object")], ids=["bool", "float", "array", "object"])
def test_geojson_property_without_one_text_form_exits_2(artifacts, tmp_path, capsys, key, value, kind):
    # such ids used to load as Python's str of the value: "True", "1.0", "[1]", "{'a': 1}"
    doc = json.loads((artifacts / "boundaries.geojson").read_text())
    doc["features"][2]["properties"][key] = value
    broken = tmp_path / "boundaries.geojson"
    broken.write_text(json.dumps(doc))
    argv = ["direct", "--records", str(artifacts / "records.csv"), "--boundaries", str(broken),
            "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {broken}: feature 2: properties.{key} must be a string or an integer, got {kind}\n")


@pytest.mark.parametrize("region_id", [0, "0", "R1"])
def test_geojson_string_and_integer_ids_load(tmp_path, region_id):
    regions = make_grid_regions(1, 2)
    boundaries = tmp_path / "boundaries.geojson"
    write_boundaries_geojson(regions, boundaries)
    doc = json.loads(boundaries.read_text())
    doc["features"][0]["properties"].update(region_id=region_id, country=region_id)
    boundaries.write_text(json.dumps(doc))
    ids = [str(region_id), regions[1].region_id]
    rows = [IndividualRecord(rid, f"{rid}-c{c}", 1.0, int(i <= c)) for rid in ids
            for c in range(3) for i in range(4)]
    write_records_csv(SurveyTable.from_records(rows), tmp_path / "records.csv")
    with contextlib.redirect_stdout(io.StringIO()):
        run_stage(["direct", "--records", str(tmp_path / "records.csv"),
                   "--boundaries", str(boundaries), "--out", str(tmp_path)])
    assert sorted(e.region_id for e in read_direct_csv(tmp_path / "direct.csv")) == sorted(ids)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _positions(node):
    """(container, key) of every value inside the parsed JSON ``node``."""
    keys = node.keys() if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
    for key in keys:
        yield node, key
        yield from _positions(node[key])


@st.composite
def damaged_geojson(draw, data):
    """``data`` truncated, with bytes injected, features permuted, or one JSON value replaced or deleted."""
    kind = draw(st.sampled_from(["truncate", "inject", "permute", "replace", "delete"]))
    if kind == "truncate":
        return data[:draw(st.integers(0, len(data) - 1))]
    if kind == "inject":
        at = draw(st.integers(0, len(data)))
        return data[:at] + draw(st.binary(max_size=4)) + data[at:]
    doc = json.loads(data)
    if kind == "permute":
        doc["features"] = draw(st.permutations(doc["features"]))
    else:
        container, key = draw(st.sampled_from(list(_positions(doc))))
        if kind == "replace":
            container[key] = draw(JSON_VALUES)
        else:
            del container[key]
    return json.dumps(doc).encode()


@settings(max_examples=100, deadline=None)
@given(case=st.data())
def test_damaged_boundaries_exit_0_or_2(tmp_path_factory, artifacts, case):
    out = tmp_path_factory.mktemp("damaged_boundaries")
    damaged = out / "boundaries.geojson"
    damaged.write_bytes(case.draw(damaged_geojson((artifacts / "boundaries.geojson").read_bytes())))
    run_step(["adjacency", "--boundaries", str(damaged), "--out", str(out)], out / "graph.txt")


@settings(max_examples=60, deadline=None)
@given(case=st.data())
def test_damaged_posterior_csv_exits_0_or_2(tmp_path_factory, artifacts, case):
    out = tmp_path_factory.mktemp("damaged_posterior")
    damaged = out / "posterior.csv"
    damaged.write_bytes(case.draw(damaged_records((artifacts / "posterior.csv").read_bytes())))
    run_step(["compare", "--direct", str(artifacts / "direct.csv"), "--posterior", str(damaged),
              "--out", str(out)], out / "comparison.svg")


# one map, one panel per country, a row of maps
RENDER_LAYOUTS = {
    "one": ["--column", "prev_mean"],
    "zoom": ["--column", "prev_mean", "--zoom-per-country"],
    "row": ["--column", "prev_mean", "--column", "prev_q025", "--column", "prev_q975"],
}


@settings(max_examples=60, deadline=None)
@given(case=st.data())
def test_damaged_values_csv_exits_0_or_2(tmp_path_factory, artifacts, case):
    out = tmp_path_factory.mktemp("damaged_values")
    damaged = out / "posterior.csv"
    damaged.write_bytes(case.draw(damaged_records((artifacts / "posterior.csv").read_bytes())))
    layout = case.draw(st.sampled_from(list(RENDER_LAYOUTS.values())))
    run_step(["render", "--boundaries", str(artifacts / "boundaries.geojson"),
              "--values", str(damaged), *layout, "--output-name", "map.svg", "--out", str(out)],
             out / "map.svg")


@pytest.mark.parametrize("layout", RENDER_LAYOUTS)
def test_value_for_unknown_region_exits_2(tmp_path, artifacts, capsys, layout):
    # the per-country layout used to drop a value no boundary names without a word
    text = (artifacts / "posterior.csv").read_text()
    row = next(ln for ln in text.splitlines() if ln.startswith("R_0_0,"))
    values = tmp_path / "posterior.csv"
    values.write_text(text + row.replace("R_0_0", "ZZZ", 1) + "\n")
    argv = ["render", "--boundaries", str(artifacts / "boundaries.geojson"),
            "--values", str(values), *RENDER_LAYOUTS[layout], "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: value for unknown region_id 'ZZZ'\n"
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


@pytest.mark.parametrize("layout", RENDER_LAYOUTS)
def test_boundaries_without_features_exit_2(tmp_path, capsys, layout):
    # the per-country layout used to end in a traceback over zero panels
    boundaries = tmp_path / "boundaries.geojson"
    boundaries.write_text('{"type": "FeatureCollection", "features": []}')
    values = tmp_path / "values.csv"
    values.write_text("region_id,prev_mean,prev_q025,prev_q975\n")
    argv = ["render", "--boundaries", str(boundaries), "--values", str(values),
            *RENDER_LAYOUTS[layout], "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: no coordinates to project\n"


@settings(max_examples=60, deadline=None)
@given(case=st.data())
def test_damaged_truth_csv_reads_or_raises_schema_error(tmp_path_factory, artifacts, case):
    damaged = tmp_path_factory.mktemp("damaged_truth") / "truth.csv"
    damaged.write_bytes(case.draw(damaged_records((artifacts / "truth.csv").read_bytes())))
    try:
        truth = read_truth_csv(damaged)
    except (SchemaError, ConsistencyError):  # ConsistencyError: a repeated region_id
        return
    assert all(isinstance(v, float) for v in truth.values())


# ---------------------------------------------------------------------------
# I/O: one read per input file and step; the pipeline parses only its config
# ---------------------------------------------------------------------------

# the loaders the commands call, by their names in prevmap.cli
CLI_LOADERS = ("load_scenario", "load_records", "load_boundaries", "load_graph",
               "read_direct_csv", "read_posterior_csv", "read_table")


@contextlib.contextmanager
def spied_io():
    """Counters, by path, of the files read (``read_input``) and of those parsed
    (a loader call); they are filled when the block ends."""
    reads, parses = Counter(), Counter()
    targets = [(prevmap.data_model, "read_input"), (prevmap.cli, "read_input")]
    targets += [(prevmap.cli, name) for name in CLI_LOADERS]
    with contextlib.ExitStack() as stack, contextlib.redirect_stdout(io.StringIO()):
        spies = [stack.enter_context(mock.patch.object(owner, name, wraps=getattr(owner, name)))
                 for owner, name in targets]
        yield reads, parses
    for (_, name), spy in zip(targets, spies):
        counter = reads if name == "read_input" else parses
        counter.update(Path(call.args[0]) for call in spy.call_args_list)


def test_pipeline_parses_only_its_config(tmp_path, scenario_file):
    with spied_io() as (reads, parses):
        run_stage(["pipeline", "--config", str(scenario_file), "--out", str(tmp_path)] + MCMC)
    assert parses == Counter([scenario_file])
    assert reads[scenario_file] == 1


STEP_INPUTS = {
    "direct": {"--records": "records.csv", "--boundaries": "boundaries.geojson"},
    "adjacency": {"--boundaries": "boundaries.geojson"},
    "smooth": {"--direct": "direct.csv", "--graph": "graph.txt"},
    "render": {"--boundaries": "boundaries.geojson", "--values": "posterior.csv"},
    "compare": {"--direct": "direct.csv", "--posterior": "posterior.csv"},
}


@pytest.mark.parametrize("command", STEP_INPUTS)
def test_each_step_reads_each_input_once(artifacts, tmp_path, command):
    inputs = STEP_INPUTS[command]
    argv = [command, *chain.from_iterable((flag, str(artifacts / name)) for flag, name in inputs.items())]
    with spied_io() as (reads, parses):
        run_stage(argv + (SHORT_FIT if command == "smooth" else []) + ["--out", str(tmp_path)])
    files = Counter(artifacts / name for name in inputs.values())
    assert reads == files
    assert parses == files
