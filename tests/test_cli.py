import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import prevmap.bym
from prevmap.cli import _read_values, main
from prevmap.data_model import (
    IndividualRecord,
    SurveyTable,
    load_boundaries,
    load_records,
    write_boundaries_geojson,
    write_records_csv,
)
from prevmap.direct import read_direct_csv
from prevmap.bym import read_posterior_csv
from prevmap.errors import SchemaError
from prevmap.synthetic import make_grid_regions

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
        monkeypatch.setattr(prevmap.bym, "RHAT_THRESHOLD", 0.5)  # force failure
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
        monkeypatch.setattr(prevmap.bym, "RHAT_THRESHOLD", 0.5)
        code = main(["smooth", "--direct", str(out / "direct.csv"),
                     "--graph", str(out / "graph.txt"), "--seed", "4",
                     "--out", str(out)] + MCMC)
        assert code == 0


class TestPipelineEquivalence:
    def test_pipeline_matches_stepwise(self, tmp_path, scenario_file):
        a = tmp_path / "a"
        b = tmp_path / "b"
        seed = ["--seed", "21"]
        run_stage(["pipeline", "--config", str(scenario_file), "--out", str(a)]
                  + seed + MCMC)
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

    def test_pipeline_rerun_byte_identical(self, tmp_path, scenario_file):
        a = tmp_path / "r1"
        b = tmp_path / "r2"
        for out in (a, b):
            run_stage(["pipeline", "--config", str(scenario_file), "--seed", "5",
                       "--out", str(out)] + MCMC)
        for p in sorted(a.iterdir()):
            assert p.read_bytes() == (b / p.name).read_bytes(), p.name


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

    @pytest.mark.parametrize("bad_row", ["R_0_0\n", "R_0_0,lots\n"])
    def test_malformed_values_csv_exits_2(self, tmp_path, capsys, bad_row):
        regions = make_grid_regions(1, 2)
        write_boundaries_geojson(regions, tmp_path / "boundaries.geojson")
        values = tmp_path / "values.csv"
        values.write_text("# seed: 1\nregion_id,n\nR_0_1,4\n" + bad_row)
        with pytest.raises(SchemaError, match=r"values\.csv: row 2"):
            _read_values(values, "n")
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
        ],
        ids=["unknown_node", "count_without_number", "non_integer_count", "short_edge_line"],
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


def test_cli_import_leaves_out_scipy_stats_and_sparse():
    # keeps the start-up cost of every command down
    src = Path(prevmap.bym.__file__).resolve().parents[1]
    probe = (
        "import sys, prevmap.cli; "
        "print(sorted(m for m in ('scipy.stats', 'scipy.sparse') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
