import hashlib
import math
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import prevmap.render
from conftest import boundary, square
from prevmap.bym import PosteriorRow
from prevmap.data_model import RegionBoundary
from prevmap.direct import ALL_ONE, ALL_ZERO, NONE, SINGLE_CLUSTER, ZERO_VARIANCE, DirectEstimate
from prevmap.errors import PrevmapError
from prevmap.render import (
    ChoroplethSpec,
    assign_bins,
    compute_breaks,
    default_ramp,
    render_comparison,
    render_country_panels,
    render_map_row,
    sig3,
)


def region_paths(svg):
    return re.findall(r'<path d="M [^"]*" fill="([^"]*)" fill-rule="evenodd"', svg)


def posterior_row(rid, prev, sd=0.01, lo=None, hi=None, direct_p=None, degen=NONE, n=50):
    lo = prev - 0.02 if lo is None else lo
    hi = prev + 0.02 if hi is None else hi
    dp = prev if direct_p is None else direct_p
    se = float("nan") if degen != NONE else sd * 1.2
    return PosteriorRow(
        region_id=rid, prev_mean=prev, prev_median=prev, prev_sd=sd,
        prev_q025=lo, prev_q975=hi, theta_mean=0.0, theta_sd=0.1,
        direct_p=dp, direct_se=se, n=n, degenerate=degen,
        rhat_theta=1.0, ess_theta=1000.0,
    )


class TestSig3:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (0.25, "0.25"),
            (0.250, "0.25"),
            (14.23, "14.2"),
            (1936.0, "1940"),
            (0.0, "0"),
            (0.05013, "0.0501"),
            (5.0, "5"),
            (-3.456, "-3.46"),
        ],
    )
    def test_cases(self, value, expected):
        assert sig3(value) == expected

    def test_nan(self):
        assert sig3(float("nan")) == "nan"


class TestBreaks:
    def test_quantile_split_at_quarter(self):
        edges = compute_breaks([0.1, 0.2, 0.3, 0.4], "quantile", 2)
        assert edges == [pytest.approx(0.25)]
        bins = assign_bins([0.1, 0.2, 0.3, 0.4], edges)
        assert bins == [0, 0, 1, 1]

    def test_edge_value_falls_in_lower_bin(self):
        assert assign_bins([0.25], [0.25]) == [0]
        assert assign_bins([0.2500001], [0.25]) == [1]

    def test_equal_interval(self):
        edges = compute_breaks([0.0, 1.0, 2.0, 10.0], "equal_interval", 2)
        assert edges == [pytest.approx(5.0)]

    def test_quantile_five_bins(self):
        vals = list(np.linspace(0, 1, 101))
        edges = compute_breaks(vals, "quantile", 5)
        assert edges == [pytest.approx(q) for q in (0.2, 0.4, 0.6, 0.8)]

    @settings(max_examples=30, deadline=None)
    @given(
        vals=st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=2,
            max_size=40,
        ),
        bins=st.integers(min_value=2, max_value=6),
    )
    def test_bins_monotone_in_value(self, vals, bins):
        edges = compute_breaks(vals, "quantile", bins)
        assigned = assign_bins(sorted(vals), edges)
        assert assigned == sorted(assigned)
        assert all(0 <= b < bins for b in assigned)


class TestChoroplethSpecValidation:
    def test_bad_bins(self):
        with pytest.raises(PrevmapError, match="bin count"):
            ChoroplethSpec(bins=1).validate()

    def test_ramp_length_mismatch(self):
        with pytest.raises(PrevmapError, match="ramp length"):
            ChoroplethSpec(bins=3, ramp=("#000", "#fff")).validate()

    @pytest.mark.parametrize("color", ['#fff" onload="x', "<y>&", "#ffff", "#12345g", "fff", "red", " #fff"])
    def test_ramp_color_not_hex_rejected(self, color):
        # a ramp entry is written into the SVG's fill attribute as it is
        with pytest.raises(PrevmapError, match="ramp color"):
            ChoroplethSpec(bins=2, ramp=("#000", color)).validate()
        ChoroplethSpec(bins=3, ramp=("#000", "#A1b2C3", "#fff")).validate()

    def test_bad_strategy(self):
        with pytest.raises(PrevmapError, match="strategy"):
            ChoroplethSpec(strategy="jenks").validate()

    def test_default_ramp_matches_bins(self):
        for bins in range(2, 8):
            assert len(default_ramp(bins)) == bins


class TestRenderChoropleth:
    @staticmethod
    def two_regions():
        return [boundary("R1", square(0, 0), "A"), boundary("R2", square(1, 0), "B")]

    def test_two_paths_and_two_legend_entries(self):
        spec = ChoroplethSpec(strategy="equal_interval", bins=2)
        svg = render_map_row(self.two_regions(), [("v", "v", {"R1": 0.1, "R2": 0.2})], spec)
        assert len(region_paths(svg)) == 2
        assert svg.count("<rect") >= 2  # legend swatches
        assert "0.1 - 0.15" in svg or "0.1 - 0.2" in svg

    def test_unknown_region_named(self):
        spec = ChoroplethSpec(bins=2)
        with pytest.raises(PrevmapError, match="R9"):
            render_map_row(self.two_regions(), [("v", "v", {"R1": 0.1, "R9": 0.5})], spec)

    def test_missing_region_hatched(self):
        spec = ChoroplethSpec(bins=2)
        svg = render_map_row(self.two_regions(), [("v", "v", {"R1": 0.1})], spec)
        assert "url(#hatch)" in svg

    def test_nan_value_hatched(self):
        spec = ChoroplethSpec(bins=2)
        svg = render_map_row(self.two_regions(), [("v", "v", {"R1": 0.1, "R2": float("nan")})], spec)
        assert "url(#hatch)" in svg

    def test_byte_deterministic(self):
        spec = ChoroplethSpec(bins=3)
        values = {"R1": 0.37, "R2": 0.11}
        a = render_map_row(self.two_regions(), [("v", "v", values)], spec, metadata={"seed": "1"})
        b = render_map_row(self.two_regions(), [("v", "v", values)], spec, metadata={"seed": "1"})
        assert a == b

    def test_legend_matches_break_computation(self):
        rng = np.random.default_rng(3)
        cells = [
            boundary(f"R{k}", square(k % 4, k // 4)) for k in range(12)
        ]
        values = {b.region_id: float(rng.uniform(0, 0.5)) for b in cells}
        spec = ChoroplethSpec(strategy="quantile", bins=4)
        svg = render_map_row(cells, [("v", "v", values)], spec)
        edges = compute_breaks(list(values.values()), "quantile", 4)
        full = [min(values.values())] + edges + [max(values.values())]
        for lo, hi in zip(full, full[1:]):
            assert f"{sig3(lo)} - {sig3(hi)}" in svg

    def test_per_group_scope_uses_group_values_only(self):
        cells = self.two_regions()
        spec = ChoroplethSpec(strategy="equal_interval", bins=2, scope="per_group")
        svg = render_map_row(cells, [("v", "v", {"R1": 0.1, "R2": 100.0})], spec)
        # each single-region group ranges over its own value only
        assert "0.1 - 0.1" in svg
        assert "100 - 100" in svg

    def test_metadata_comment_embedded(self):
        spec = ChoroplethSpec(bins=2)
        svg = render_map_row(
            self.two_regions(), [("v", "v", {"R1": 0.1, "R2": 0.2})], spec,
            metadata={"prevmap-version": "0.1.0", "seed": "7"},
        )
        assert "<!-- prevmap-version: 0.1.0; seed: 7 -->" in svg


class TestRenderRows:
    def test_map_row_has_one_group_per_panel(self):
        cells = TestRenderChoropleth.two_regions()
        spec = ChoroplethSpec(bins=2)
        svg = render_map_row(
            cells,
            [("mean", "v", {"R1": 0.1, "R2": 0.2}), ("upper", "v", {"R1": 0.3, "R2": 0.4})],
            spec,
        )
        assert svg.count('<g transform="translate(') == 2
        assert len(region_paths(svg)) == 4

    def test_country_panels_independent_scales(self):
        cells = [
            boundary("R1", square(0, 0), "A"),
            boundary("R2", square(1, 0), "A"),
            boundary("R3", square(5, 0), "B"),
            boundary("R4", square(6, 0), "B"),
        ]
        spec = ChoroplethSpec(strategy="equal_interval", bins=2)
        svg = render_country_panels(
            cells, {"R1": 0.0, "R2": 1.0, "R3": 100.0, "R4": 200.0}, spec, "v"
        )
        assert svg.count('<g transform="translate(') == 2
        assert "0 - 0.5" in svg      # country A's own scale
        assert "100 - 150" in svg    # country B's own scale


class TestRenderComparison:
    @staticmethod
    def inputs(identical=True):
        rng = np.random.default_rng(1)
        direct, rows = [], []
        for k in range(8):
            rid = f"R{k}"
            p = float(rng.uniform(0.05, 0.3))
            var_p = float(rng.uniform(1e-4, 4e-4))
            d = DirectEstimate(
                rid, p, var_p, math.log(p / (1 - p)),
                var_p / (p * (1 - p)) ** 2, 60, 6, NONE,
            )
            direct.append(d)
            post_p = p if identical else p * 0.7 + 0.05
            rows.append(posterior_row(rid, post_p, sd=math.sqrt(var_p)))
        return direct, rows

    def test_identity_input_points_on_identity_line(self):
        direct, rows = self.inputs(identical=True)
        svg = render_comparison(direct, rows)
        panel_a = svg.split('<g id="panelA">')[1].split('<g id="panelB"')[0]
        circles = re.findall(r'<circle cx="([0-9.]+)" cy="([0-9.]+)"', panel_a)
        assert len(circles) == 8
        # identity in pixel space: cx - x0 == (y0 + h) - cy for square axes
        for cx, cy in circles:
            assert abs((float(cx) - 60.0) - (280.0 - float(cy))) < 0.02

    def test_degenerate_region_marked_open_without_direct_bar(self):
        direct, rows = self.inputs()
        degen = DirectEstimate(
            "R_zero", 0.0, 0.0, float("nan"), float("nan"), 40, 5, ALL_ZERO
        )
        direct.append(degen)
        rows.append(posterior_row("R_zero", 0.04, lo=0.01, hi=0.09, direct_p=0.0,
                                  degen=ALL_ZERO))
        svg = render_comparison(direct, rows)
        panel_c = svg.split('<g id="panelC"')[1]
        assert 'stroke="#c0392b"' in panel_c  # the open diamond marker
        # gray (direct) interval count equals non-degenerate region count
        assert panel_c.count('stroke="#777"') == 8

    def test_region_set_mismatch_rejected(self):
        direct, rows = self.inputs()
        with pytest.raises(PrevmapError, match="differ"):
            render_comparison(direct[:-1], rows)

    def test_deterministic(self):
        direct, rows = self.inputs(identical=False)
        assert render_comparison(direct, rows) == render_comparison(direct, rows)

    def test_degenerate_input_bytes_are_pinned(self):
        # the demo's direct estimates have no degenerate region, so its pinned
        # fig4 never draws a diamond or skips a direct interval; this one does
        def estimate(rid, p, var_p, flag):
            return DirectEstimate(rid, p, var_p, float("nan"), float("nan"), 40, 4, flag)

        direct = [
            estimate("R_none", 0.12, 2e-4, NONE),
            estimate("R_zero", 0.0, 0.0, ALL_ZERO),
            estimate("R_one", 1.0, 0.0, ALL_ONE),
            estimate("R_single", 0.3, float("nan"), SINGLE_CLUSTER),
            estimate("R_flat", 0.25, 0.0, ZERO_VARIANCE),
            estimate("R_nan_se", 0.12, float("nan"), NONE),  # same p_hat as R_none
            estimate("R_wide", 0.45, 9e-3, NONE),
        ]
        rows = [
            posterior_row("R_none", 0.13, sd=0.012),
            posterior_row("R_zero", 0.03, lo=0.004, hi=0.08, degen=ALL_ZERO),
            posterior_row("R_one", 0.91, lo=0.8, hi=0.97, degen=ALL_ONE),
            posterior_row("R_single", 0.28, sd=0.05, lo=0.19, hi=0.38, degen=SINGLE_CLUSTER),
            posterior_row("R_flat", 0.24, sd=0.03, degen=ZERO_VARIANCE),
            posterior_row("R_nan_se", 0.14, sd=0.02),
            posterior_row("R_wide", 0.41, sd=0.06, lo=0.3, hi=0.53),
        ]
        svg = render_comparison(direct, rows, {"seed": "3", "note": "degenerate"})
        # a diamond per degenerate region and panel, but R_single's NaN SE is off panel B
        assert svg.count("<path d=") == 4 + 3 + 4
        assert hashlib.sha256(svg.encode()).hexdigest() == (
            "645ee5d18c9bb4a0c650321ce108aef066635509a4b12cc12bec22ae07f65d06")

    @staticmethod
    def interval_ticks(svg):
        return re.findall(r'text-anchor="end">([^<]*)<', svg.split('<g id="panelC"')[1])

    def test_interval_panel_with_every_top_zero_runs_to_one(self):
        # no direct CI and every posterior interval at 0: the limit would be 0
        direct = [DirectEstimate(f"R{k}", 0.0, 0.0, math.nan, math.nan, 40, 4, ALL_ZERO) for k in range(3)]
        rows = [posterior_row(f"R{k}", 0.0, sd=0.0, lo=0.0, hi=0.0, degen=ALL_ZERO) for k in range(3)]
        assert self.interval_ticks(render_comparison(direct, rows)) == ["0", "0.25", "0.5", "0.75", "1"]

    def test_interval_panel_skips_a_nan_top(self):
        direct, rows = self.inputs()
        first = min(range(len(direct)), key=lambda i: direct[i].p_hat)
        want = self.interval_ticks(render_comparison(direct, rows))
        rows[first] = replace(rows[first], prev_q975=math.nan)
        svg = render_comparison(direct, rows)
        # that region's posterior interval is left out; the axis keeps its values
        assert "nan" not in svg
        assert self.interval_ticks(svg) == want
        assert svg.count('stroke="#2b6cb0"') == len(rows) - 1

    @pytest.mark.parametrize("flag", [NONE, ALL_ZERO])
    def test_interval_panel_skips_a_nan_mean(self, flag):
        # a NaN posterior mean draws no marker, neither a circle nor a diamond
        direct, rows = self.inputs()
        direct[2] = replace(direct[2], degenerate=flag)
        want = render_comparison(direct, rows)
        rows[2] = replace(rows[2], prev_mean=math.nan)
        svg = render_comparison(direct, rows)
        assert "nan" not in svg
        panel_c = svg.split('<g id="panelC"')[1]
        before = want.split('<g id="panelC"')[1]
        assert panel_c.count('fill="#2b6cb0"') == before.count('fill="#2b6cb0"') - (flag == NONE)
        assert panel_c.count('stroke="#c0392b"') == before.count('stroke="#c0392b"') - (flag != NONE)


@pytest.mark.parametrize("figure", ["choropleth", "comparison"])
def test_metadata_comment_escapes_double_dash(figure):
    metadata = {"seed": "7", "argv": "--bins 5"}
    if figure == "choropleth":
        svg = render_map_row(
            TestRenderChoropleth.two_regions(), [("v", "v", {"R1": 0.1, "R2": 0.2})],
            ChoroplethSpec(bins=2), metadata=metadata,
        )
    else:
        svg = render_comparison(*TestRenderComparison.inputs(), metadata)
    assert svg.splitlines()[2] == "<!-- seed: 7; argv: [dash]bins 5 -->"


def reference_region_paths(boundaries, box=prevmap.render.MAP_BOX):
    """The vertex-by-vertex projection and path code on tuple rings that
    ``render._region_paths`` replaced."""
    tuple_rings = [
        [[tuple(pt) for pt in ring.tolist()] for poly in b.geometry for ring in poly]
        for b in boundaries
    ]
    xs = [lon for rings in tuple_rings for ring in rings for lon, _ in ring]
    ys = [lat for rings in tuple_rings for ring in rings for _, lat in ring]
    if not xs:
        raise PrevmapError("no coordinates to project")
    lat_mid = (min(ys) + max(ys)) / 2.0
    kx = math.cos(math.radians(lat_mid))
    u = [x * kx for x in xs]
    umin, umax = min(u), max(u)
    vmin, vmax = min(ys), max(ys)
    du = max(umax - umin, 1e-12)
    dv = max(vmax - vmin, 1e-12)
    bx, by, bw, bh = box
    scale = min(bw / du, bh / dv)
    ox = bx + (bw - du * scale) / 2.0
    oy = by + (bh - dv * scale) / 2.0

    def proj(lon, lat):
        return ox + (lon * kx - umin) * scale, oy + (vmax - lat) * scale

    paths = []
    for rings in tuple_rings:
        parts = []
        for ring in rings:
            pts = [proj(lon, lat) for lon, lat in ring[:-1]]
            coords = " L ".join(f"{x:.2f},{y:.2f}" for x, y in pts)
            parts.append(f"M {coords} Z")
        paths.append(" ".join(parts))
    return paths


@st.composite
def jagged_regions(draw):
    """Rings of 4-40 noisy vertices around grid cells, at some place and scale."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-9, 1e-3, 0.5, 7.0, 90.0]))
    x0 = draw(st.sampled_from([-179.5, -0.0, 0.0, 33.25, 120.0]))
    y0 = draw(st.sampled_from([-60.0, -0.0, 0.0, 12.5, 45.0]))
    regions = []
    for k in range(draw(st.integers(1, 6))):
        polys = []
        for _ in range(draw(st.integers(1, 2))):
            rings = []
            for _ in range(draw(st.integers(1, 2))):  # outer ring, then a hole
                n = int(rng.integers(3, 40))
                pts = np.column_stack([k + rng.random(n), rng.random(n)]) * scale
                pts += (x0, y0)
                rings.append(np.vstack([pts, pts[:1]]))
            polys.append(tuple(rings))
        country = draw(st.sampled_from(["", "X", "Y"]))
        regions.append(RegionBoundary(f"R{k}", tuple(polys), country))
    values = {
        b.region_id: draw(st.sampled_from([0.0, 0.125, 0.3, 17.0, float("nan")]))
        for b in regions
        if draw(st.booleans()) or b.region_id == "R0"
    }
    return regions, values


def half_hundredth_grid():
    """Regions on a 1/64-degree grid in a 37.5-degree square centred on the
    equator: the projection scales by 8 (cos 0 is 1), so a vertex at odd
    multiples of 1/64 lands on x.125, x.375, ..., halves of a hundredth that
    "%.2f" rounds to even."""
    def ring(*corners):
        return np.array(corners + corners[:1]) / 64

    frame = ring((0, -1200), (2400, -1200), (2400, 1200), (0, 1200))
    inner = ring((1, 3), (5, 3), (5, 7), (1, 7))
    hole = ring((2, 4), (3, 4), (3, 5))
    far = ring((2397, -1197), (2399, -1195), (2391, 1199))
    regions = [RegionBoundary("R0", ((frame,),)), RegionBoundary("R1", ((inner, hole), (far,)), "X")]
    return regions, {"R0": 0.125, "R1": 0.3}


@settings(max_examples=60, deadline=None)
@given(case=jagged_regions(), scope=st.sampled_from(["global", "per_group"]))
@example(case=half_hundredth_grid(), scope="global")
@example(case=half_hundredth_grid(), scope="per_group")
def test_maps_match_tuple_ring_reference(case, scope):
    regions, values = case
    spec = ChoroplethSpec(bins=3, scope=scope)
    panels = [("a", "v", values), ("b", "v", {rid: 2.0 * v for rid, v in values.items()})]

    def draw_all():
        return (
            render_map_row(regions, [("t", "v", values)], spec, {"seed": "1"}),
            render_map_row(regions, panels, spec),
            render_country_panels(regions, values, spec, "v"),
        )

    arrays = draw_all()
    with mock.patch.object(prevmap.render, "_region_paths", reference_region_paths):
        tuples = draw_all()
    assert arrays == tuples


# doubles in [0, 1e4): any, exact binary halves of a hundredth, and decimal
# half-hundredths such as 3762.385, whose 100 v rounds onto a half in binary
kernel_values = st.lists(
    st.floats(0.0, 1e4, exclude_max=True)
    | st.integers(0, 8 * 10**4 - 1).map(lambda m: m / 8)
    | st.integers(0, 2 * 10**6 - 1).map(lambda m: (2 * m + 1) / 200),
    min_size=1, max_size=40,
)


@settings(deadline=None)
@given(values=kernel_values)
@example(values=[12.125, 0.005, 1.005, 3762.385, 2032.415, 9.995, 99.995, 0.0, 9999.999])
@example(values=[-0.0, -0.004, math.nan, 999999999.995, 1e9, 1e300, 5.0])
def test_path_text_kernel_prints_as_percent_2f(values):
    values = np.array(values)
    k, widths, texts = prevmap.render._hundredths(values)
    ends = np.cumsum(widths + 1)  # a space before each text
    buf = np.full(int(ends[-1]), ord("_"), dtype=np.uint8)
    buf[ends - widths - 1] = ord(" ")
    prevmap.render._put_hundredths(buf, ends, k, texts)
    assert buf.tobytes().decode() == "".join(" %.2f" % v for v in values.tolist())
