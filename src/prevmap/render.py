"""Deterministic SVG rendering: choropleth maps and estimate-comparison figures.

No plotting library: geometry is simple enough to emit paths directly, and
hand-built documents are byte-stable, so figure output can be diffed in
tests. All numbers are printed to 3 significant figures; coordinates to two
decimals. Maps use a plate carree projection with the longitude axis scaled
by cos(mean latitude).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .bym import PosteriorRow
from .data_model import RegionBoundary
from .direct import DirectEstimate
from .errors import PrevmapError

BREAK_STRATEGIES = ("quantile", "equal_interval")
SCOPES = ("global", "per_group")

MAP_BOX = (10.0, 34.0, 300.0, 300.0)  # x, y, w, h of the map drawing area
PANEL_W = 500.0
LEGEND_X = 324.0
SWATCH = 14.0
# the ones, tens and hundreds digit of m < 1000, as bytes; and the hundredths
# from which a value has one more digit before the dot
DIGIT_ONES = np.tile(np.frombuffer(b"0123456789", dtype=np.uint8), 100)
DIGIT_TENS = np.tile(np.repeat(DIGIT_ONES[:10], 10), 10)
DIGIT_HUNDREDS = np.repeat(DIGIT_ONES[:10], 100)
HUNDREDTHS_TENS = 10 ** np.arange(3, 12)


@dataclass(frozen=True)
class ChoroplethSpec:
    """How to bin and color values on the map: the color scale its panels share."""

    strategy: str = "quantile"
    bins: int = 5
    scope: str = "global"
    ramp: tuple[str, ...] | None = None

    def validate(self) -> None:
        if self.strategy not in BREAK_STRATEGIES:
            raise PrevmapError(f"unknown break strategy {self.strategy!r}")
        if self.scope not in SCOPES:
            raise PrevmapError(f"unknown scale scope {self.scope!r}")
        if self.bins < 2:
            raise PrevmapError("bin count must be >= 2")
        if self.ramp is not None and len(self.ramp) != self.bins:
            raise PrevmapError(
                f"ramp length {len(self.ramp)} must equal bin count {self.bins}"
            )
        for color in self.ramp or ():
            if not re.fullmatch(r"#(?:[0-9a-fA-F]{3}){1,2}", color):
                raise PrevmapError(f"ramp color {color!r} is not #rgb or #rrggbb")

    def colors(self) -> tuple[str, ...]:
        return self.ramp if self.ramp is not None else default_ramp(self.bins)


def default_ramp(bins: int) -> tuple[str, ...]:
    """Light-to-dark blue ramp interpolated in RGB."""
    lo, hi = (0xEF, 0xF3, 0xFF), (0x08, 0x45, 0x94)
    out = []
    for k in range(bins):
        t = k / (bins - 1) if bins > 1 else 0.0
        rgb = tuple(round(a + t * (b - a)) for a, b in zip(lo, hi))
        out.append("#{:02x}{:02x}{:02x}".format(*rgb))
    return tuple(out)


def sig3(x: float) -> str:
    """Three significant figures, plain notation for everyday magnitudes."""
    if not math.isfinite(x):
        return "nan"
    if x == 0:
        return "0"
    exponent = math.floor(math.log10(abs(x)))
    decimals = 2 - exponent
    y = round(x, decimals)
    if -4 <= exponent < 7:
        text = f"{y:.{max(decimals, 0)}f}"
        if "." in text:
            text = text.rstrip("0").rstrip(".")
        return text
    return f"{x:.2e}"


def compute_breaks(values: Sequence[float], strategy: str, bins: int) -> list[float]:
    """Inner bin edges (bins - 1 of them) for the chosen strategy."""
    vals = np.asarray(sorted(values), dtype=float)
    if vals.size == 0:
        raise PrevmapError("no values to bin")
    if strategy == "quantile":
        qs = [k / bins for k in range(1, bins)]
        return [float(np.quantile(vals, q)) for q in qs]
    return [float(e) for e in np.linspace(vals[0], vals[-1], bins + 1)[1:-1]]


def assign_bins(values: Sequence[float], inner_edges: Sequence[float]) -> list[int]:
    """Bin index per value; values equal to an edge fall in the lower bin."""
    return [int(i) for i in np.digitize(values, inner_edges, right=True)]


# ---------------------------------------------------------------------------
# Geometry -> SVG paths
# ---------------------------------------------------------------------------


def _xml_escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _hundredths(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[bytes]]:
    """Each value's integer hundredths, as ``"%.2f"`` rounds them, and the width
    of its ``"%.2f"`` text; -1 where ``"%.2f"`` prints the value itself, with
    those texts listed in order.

    The hundredths are ``rint(100 v)``. Rounding is monotone, so ``100 v``
    lies on the side of a half-hundredth that the exact ``100 v`` does, or on
    it; only there can ``rint``, which rounds half to even in binary, part
    from ``"%.2f"``, which rounds by ``v``'s exact decimal value. Such values
    (taken as those within 1e-6 of a half-hundredth), and those outside
    [0, 1e9) or -0.0, are left to ``"%.2f"``.
    """
    odd = np.signbit(values) | ~(values < 1e9)  # -0.0 prints as "-0.00"
    hundredths = 100.0 * values
    hundredths[odd] = 0.0
    k = np.empty(len(values), dtype=np.int64)
    np.rint(hundredths, out=k, casting="unsafe")
    hundredths -= k
    odd |= np.abs(hundredths, out=hundredths) > 0.5 - 1e-6
    del hundredths
    texts = [("%.2f" % v).encode() for v in values[odd].tolist()]
    k[odd] = -1
    widths = np.full(len(k), 4, dtype=np.int64)  # a digit, ".", two digits
    for tens in HUNDREDTHS_TENS[HUNDREDTHS_TENS <= k.max(initial=0)]:
        widths += k >= tens
    widths[odd] = [len(text) for text in texts]
    return k, widths, texts


def _put_hundredths(buf: np.ndarray, ends: np.ndarray, k: np.ndarray, texts: list[bytes]) -> None:
    """Write the ``_hundredths`` texts into the bytes ``buf``, each stopping before its
    ``ends``; ``ends`` and ``k`` may be overwritten."""
    if texts:
        odd = k < 0
        for at, text in zip(ends[odd].tolist(), texts):
            buf[at - len(text):at] = np.frombuffer(text, dtype=np.uint8)
        ends, k = ends[~odd], k[~odd]
    at = ends
    m = k % 1000  # the cents and the last digit before the dot
    k //= 1000
    at -= 1
    buf[at] = DIGIT_ONES[m]
    at -= 1
    buf[at] = DIGIT_TENS[m]
    at -= 1
    buf[at] = ord(".")
    at -= 1
    buf[at] = DIGIT_HUNDREDS[m]
    live = k > 0
    while live.any():  # the other digits before the dot, from the last
        if not live.all():
            at, k = at[live], k[live]
        m = np.remainder(k, 10, out=m[:len(k)])
        k //= 10
        at -= 1
        buf[at] = DIGIT_ONES[m]
        live = k > 0


def _region_paths(boundaries: Sequence[RegionBoundary], box=MAP_BOX) -> list[str]:
    """SVG path data of each boundary, in order, projected together to fit ``box``.

    A path is ``M x,y L x,y ... Z`` per ring, rings joined by a space, each
    coordinate as ``"%.2f"`` prints it. All paths are written in one array
    pass: the separators and each coordinate's ``_hundredths`` text are
    scattered into one byte buffer at offsets from cumulative widths, which
    is decoded once and sliced per region.
    """
    rings = [ring for b in boundaries for ring in b.rings()]
    lengths = np.array([len(ring) for ring in rings], dtype=np.intp)
    if not lengths.sum():
        raise PrevmapError("no coordinates to project")
    lon, lat = np.concatenate(rings).T
    lat_mid = (float(lat.min()) + float(lat.max())) / 2.0
    kx = math.cos(math.radians(lat_mid))
    u = lon * kx
    umin, umax = float(u.min()), float(u.max())
    vmin, vmax = float(lat.min()), float(lat.max())
    du = max(umax - umin, 1e-12)
    dv = max(vmax - vmin, 1e-12)
    bx, by, bw, bh = box
    scale = min(bw / du, bh / dv)
    ox = bx + (bw - du * scale) / 2.0
    oy = by + (bh - dv * scale) / 2.0
    xy = np.column_stack([ox + (u - umin) * scale, oy + (vmax - lat) * scale])
    # a ring's closing vertex repeats its first; "Z" closes the path instead
    keep = np.ones(len(xy), dtype=bool)
    keep[np.cumsum(lengths)[lengths > 0] - 1] = False
    k, width, texts = _hundredths(xy[keep].ravel())  # x, y, x, y, ...
    del xy, keep

    # a y follows ",", an x " L ", except a ring's first x, which follows the ring's head
    drawn = np.maximum(lengths - 1, 0)
    first = 2 * (np.cumsum(drawn) - drawn)
    width[0::2] += 3
    width[1::2] += 1
    width[first[drawn > 0]] -= 3
    cum = np.zeros(len(width) + 1, dtype=np.int64)
    np.cumsum(width, out=cum[1:])
    del width
    # a ring is its head "M " (" M " after its region's first ring), its coordinates, " Z"
    counts = np.array([len(b.rings()) for b in boundaries], dtype=np.intp)
    region_at = np.concatenate(([0], np.cumsum(counts)))  # each region's first ring
    head = np.full(len(rings), 3, dtype=np.int64)
    head[region_at[:-1][counts > 0]] = 2
    ring_at = np.zeros(len(rings) + 1, dtype=np.int64)  # where each ring's text starts
    np.cumsum(head + cum[first + 2 * drawn] - cum[first] + 2, out=ring_at[1:])
    ends = np.repeat(ring_at[:-1] + head - cum[first], 2 * drawn)  # where each text stops
    ends += cum[1:]
    del cum

    buf = np.full(int(ring_at[-1]), ord(" "), dtype=np.uint8)
    buf[ring_at[:-1] + head - 2] = ord("M")
    buf[ends[0::2]] = ord(",")
    buf[ends[1::2] + 1] = ord("L")
    buf[ring_at[1:] - 1] = ord("Z")  # over the "L" after a ring's last y
    _put_hundredths(buf, ends, k, texts)
    text = buf.tobytes().decode("ascii")
    bounds = ring_at[region_at].tolist()
    return [text[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


# ---------------------------------------------------------------------------
# Choropleth panels
# ---------------------------------------------------------------------------


def _legend_block(x, y, title, edges, colors):
    lines = [f'<text x="{x:.2f}" y="{y:.2f}" font-size="11" font-weight="bold">{_xml_escape(title)}</text>']
    for k, color in enumerate(colors):
        yy = y + 8 + k * (SWATCH + 4)
        label = f"{sig3(edges[k])} - {sig3(edges[k + 1])}"
        lines.append(
            f'<rect x="{x:.2f}" y="{yy:.2f}" width="{SWATCH}" height="{SWATCH}" '
            f'fill="{color}" stroke="#444" stroke-width="0.5"/>'
        )
        lines.append(
            f'<text x="{x + SWATCH + 5:.2f}" y="{yy + SWATCH - 3:.2f}" font-size="11">{label}</text>'
        )
    return lines, y + 8 + len(colors) * (SWATCH + 4)


def _check_values(
    boundaries: Sequence[RegionBoundary], values: Mapping[str, float], spec: ChoroplethSpec
) -> None:
    spec.validate()
    known = {b.region_id for b in boundaries}
    for rid in values:
        if rid not in known:
            raise PrevmapError(f"value for unknown region_id {rid!r}")


def _choropleth_panel(
    boundaries: Sequence[RegionBoundary],
    values: Mapping[str, float],
    spec: ChoroplethSpec,
    title: str,
    column: str,
    paths: list[str] | None = None,
) -> tuple[str, float]:
    """Inner SVG fragment (no outer tag) and the height it needs.

    ``values`` name only ``boundaries``' regions, as ``_check_values`` checks.
    The legend is titled ``column``, or under per_group scope each group's
    legend by its country. ``paths``, when given, are the boundaries' ``_region_paths`` in
    region_id order, for panels that draw the same boundaries.
    """
    boundaries = sorted(boundaries, key=lambda b: b.region_id)
    colors = spec.colors()

    # group -> (inner_edges, legend_edges), in group order; global scope uses one group
    per_group = spec.scope == "per_group"
    group_of = {b.region_id: b.country if per_group else "" for b in boundaries}
    edges_by_group: dict[str, tuple[list[float], list[float]]] = {}
    for g in sorted(set(group_of.values())):
        vals = [v for rid, v in values.items() if group_of[rid] == g and math.isfinite(v)]
        if vals:
            inner = compute_breaks(vals, spec.strategy, spec.bins)
            edges_by_group[g] = (inner, [min(vals)] + inner + [max(vals)])

    body = [f'<text x="10" y="20" font-size="13" font-weight="bold">{_xml_escape(title)}</text>']
    for b, d in zip(boundaries, _region_paths(boundaries) if paths is None else paths):
        v = values.get(b.region_id)
        if v is None or not math.isfinite(v):  # a finite value gives its group edges
            fill = "url(#hatch)"
            label = "missing"
        else:
            inner, _ = edges_by_group[group_of[b.region_id]]
            fill = colors[assign_bins([v], inner)[0]]
            label = sig3(v)
        body.append(
            f'<path d="{d}" fill="{fill}" fill-rule="evenodd" stroke="#333" '
            f'stroke-width="0.6"><title>{_xml_escape(b.region_id)}: {label}</title></path>'
        )

    y_cursor = 40.0
    for g, (_, legend_edges) in edges_by_group.items():
        lines, y_cursor = _legend_block(LEGEND_X, y_cursor, g or column, legend_edges, colors)
        body.extend(lines)
        y_cursor += 14
    height = max(MAP_BOX[1] + MAP_BOX[3] + 10, y_cursor + 10)
    return "\n".join(body), height


HATCH_DEFS = (
    '<defs><pattern id="hatch" width="5" height="5" patternUnits="userSpaceOnUse">'
    '<rect width="5" height="5" fill="#f4f4f4"/>'
    '<path d="M0,5 l5,-5" stroke="#999" stroke-width="0.8"/></pattern></defs>'
)


def _document(
    width: float,
    height: float,
    groups: Sequence[tuple[str, str]],
    metadata: Mapping[str, str] | None = None,
    defs: str = "",
) -> str:
    """An SVG document holding one ``<g attributes>`` per (attributes, content).

    The metadata becomes one comment after the ``<svg>`` tag, with ``--``
    (which may not appear in an XML comment) written as ``[dash]``.
    """
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" font-family="sans-serif">',
    ]
    if metadata:
        pairs = "; ".join(f"{k}: {v}" for k, v in metadata.items())
        lines.append(f"<!-- {pairs.replace('--', '[dash]')} -->")
    if defs:
        lines.append(defs)
    for attributes, content in groups:
        lines += [f"<g {attributes}>", content, "</g>"]
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _panel_row(
    panels: Sequence[tuple[str, float]], metadata: Mapping[str, str] | None
) -> str:
    """Choropleth panels side by side, PANEL_W apart, as one document."""
    groups = [
        (f'transform="translate({k * PANEL_W:.0f},0)"', content)
        for k, (content, _) in enumerate(panels)
    ]
    height = max(h for _, h in panels)
    return _document(PANEL_W * len(panels), height, groups, metadata, HATCH_DEFS)


def render_map_row(
    boundaries: Sequence[RegionBoundary],
    panels: Sequence[tuple[str, str, Mapping[str, float]]],
    spec: ChoroplethSpec,
    metadata: Mapping[str, str] | None = None,
) -> str:
    """Several value maps of the same boundary set, side by side, projected once.

    Each panel is (title, column, values).
    """
    for _, _, values in panels:  # value errors come before projection's
        _check_values(boundaries, values, spec)
    paths = _region_paths(sorted(boundaries, key=lambda b: b.region_id))
    rendered = [
        _choropleth_panel(boundaries, values, spec, title, column, paths)
        for title, column, values in panels
    ]
    return _panel_row(rendered, metadata)


def render_country_panels(
    boundaries: Sequence[RegionBoundary],
    values: Mapping[str, float],
    spec: ChoroplethSpec,
    column: str,
    metadata: Mapping[str, str] | None = None,
) -> str:
    """One zoomed panel per country, each with its own extent and color scale."""
    _check_values(boundaries, values, spec)
    if not boundaries:  # no country, so no panel
        raise PrevmapError("no coordinates to project")
    rendered = []
    for country in sorted({b.country for b in boundaries}):
        subset = [b for b in boundaries if b.country == country]
        ids = {b.region_id for b in subset}
        sub_values = {rid: v for rid, v in values.items() if rid in ids}
        rendered.append(_choropleth_panel(subset, sub_values, spec, country or column, column))
    return _panel_row(rendered, metadata)


# ---------------------------------------------------------------------------
# Comparison figure: direct vs smoothed
# ---------------------------------------------------------------------------

SCATTER_BOX = (60.0, 40.0, 240.0, 240.0)


def _frame(box, title):
    """A panel's bold title and the outline of its plot box."""
    bx, by, bw, bh = box
    return [
        f'<text x="{bx:.2f}" y="20" font-size="13" font-weight="bold">{_xml_escape(title)}</text>',
        f'<rect x="{bx:.2f}" y="{by:.2f}" width="{bw:.2f}" height="{bh:.2f}" '
        'fill="none" stroke="#888" stroke-width="0.8"/>',
    ]


def _y_tick_label(bx, y, t):
    return f'<text x="{bx - 7:.2f}" y="{y + 3:.2f}" font-size="9" text-anchor="end">{sig3(float(t))}</text>'


def _diamond(cx, cy, r):
    """The open marker of a degenerate region."""
    d = f"M {cx:.2f},{cy - r:.2f} L {cx + r:.2f},{cy:.2f} L {cx:.2f},{cy + r:.2f} L {cx - r:.2f},{cy:.2f} Z"
    return f'<path d="{d}" fill="none" stroke="#c0392b" stroke-width="1.2"/>'


def _interval(x, y1, y2, color):
    return f'<line x1="{x:.2f}" y1="{y1:.2f}" x2="{x:.2f}" y2="{y2:.2f}" stroke="{color}" stroke-width="1.4"/>'


def _axis_limit(values) -> float:
    """A panel's axis limit: 8% above the largest finite value, or 1 where that is not positive."""
    hi = max((v for v in values if math.isfinite(v)), default=1.0) * 1.08
    return hi if hi > 0 else 1.0


def _scatter_panel(title, pairs, degenerate_mask, x_label, y_label):
    """Square scatter with identity line; both axes run from 0 to the same limit."""
    finite = [
        (x, y, degen)
        for (x, y), degen in zip(pairs, degenerate_mask)
        if math.isfinite(x) and math.isfinite(y)
    ]
    hi = _axis_limit(max(x, y) for x, y, _ in finite)
    bx, by, bw, bh = SCATTER_BOX

    def fx(v):
        return bx + v / hi * bw

    def fy(v):
        return by + bh - v / hi * bh

    lines = _frame(SCATTER_BOX, title)
    for t in np.linspace(0.0, hi, 5):
        lines += [
            f'<line x1="{fx(t):.2f}" y1="{by + bh:.2f}" x2="{fx(t):.2f}" y2="{by + bh + 4:.2f}" stroke="#888"/>',
            f'<text x="{fx(t):.2f}" y="{by + bh + 15:.2f}" font-size="9" '
            f'text-anchor="middle">{sig3(float(t))}</text>',
            f'<line x1="{bx - 4:.2f}" y1="{fy(t):.2f}" x2="{bx:.2f}" y2="{fy(t):.2f}" stroke="#888"/>',
            _y_tick_label(bx, fy(t), t),
        ]
    lines += [
        f'<text x="{bx + bw / 2:.2f}" y="{by + bh + 30:.2f}" font-size="11" '
        f'text-anchor="middle">{_xml_escape(x_label)}</text>',
        f'<text x="{bx - 40:.2f}" y="{by + bh / 2:.2f}" font-size="11" text-anchor="middle" '
        f'transform="rotate(-90 {bx - 40:.2f} {by + bh / 2:.2f})">{_xml_escape(y_label)}</text>',
        f'<line x1="{fx(0.0):.2f}" y1="{fy(0.0):.2f}" x2="{fx(hi):.2f}" y2="{fy(hi):.2f}" '
        'stroke="#bbb" stroke-dasharray="4,3"/>',
    ]
    for x, y, degen in finite:
        if degen:
            lines.append(_diamond(fx(x), fy(y), 4))
        else:
            lines.append(
                f'<circle cx="{fx(x):.2f}" cy="{fy(y):.2f}" r="3" fill="#2b6cb0" fill-opacity="0.75"/>'
            )
    return "\n".join(lines)


def render_comparison(
    direct: Sequence[DirectEstimate],
    posterior: Sequence[PosteriorRow],
    metadata: Mapping[str, str] | None = None,
) -> str:
    """Direct vs smoothed: scatter of estimates, scatter of SEs, paired intervals.

    Regions are matched by id; the interval panel sorts regions by their
    direct estimate and draws the direct 95% CI next to the posterior 95%
    credible interval. Degenerate regions carry a distinct open marker and
    show the posterior interval only.
    """
    post_by_id = {r.region_id: r for r in posterior}
    if set(post_by_id) != {e.region_id for e in direct}:
        raise PrevmapError("direct and posterior region sets differ")
    direct = sorted(direct, key=lambda e: e.region_id)
    rows = [post_by_id[e.region_id] for e in direct]
    degen = [not e.likelihood_usable for e in direct]

    panel_a = _scatter_panel(
        "Prevalence: direct vs smoothed",
        [(e.p_hat, r.prev_mean) for e, r in zip(direct, rows)],
        degen,
        "direct estimate",
        "smoothed posterior mean",
    )
    panel_b = _scatter_panel(
        "Standard errors",
        [(e.se_p, r.prev_sd) for e, r in zip(direct, rows)],
        degen,
        "direct SE",
        "posterior SD",
    )

    # interval panel: direct 95% CI vs posterior 95% CrI, sorted by direct p
    order = sorted(range(len(direct)), key=lambda i: (direct[i].p_hat, direct[i].region_id))
    n = len(order)
    slot = max(12.0, 560.0 / max(n, 1))
    c_box = (60.0, 40.0, slot * n, 240.0)
    cis, tops = {}, []  # each region's direct CI, where it has one; the panel's tops
    for i in order:
        e = direct[i]
        tops.append(rows[i].prev_q975)
        if not degen[i] and math.isfinite(e.se_p):
            cis[i] = (max(0.0, e.p_hat - 1.96 * e.se_p), min(1.0, e.p_hat + 1.96 * e.se_p))
            tops.append(cis[i][1])
    hi = _axis_limit(tops)
    bx, by, bw, bh = c_box

    def fy(v):
        return by + bh - v / hi * bh

    panel_c = _frame(c_box, "Per-region 95% intervals (direct vs smoothed)")
    panel_c += [_y_tick_label(bx, fy(float(t)), t) for t in np.linspace(0, hi, 5)]
    for slot_idx, i in enumerate(order):
        e, r = direct[i], rows[i]
        xc = bx + (slot_idx + 0.5) * slot
        if i in cis:
            panel_c.append(_interval(xc - 2.5, fy(cis[i][0]), fy(cis[i][1]), "#777"))
            panel_c.append(f'<circle cx="{xc - 2.5:.2f}" cy="{fy(e.p_hat):.2f}" r="2" fill="#777"/>')
        if math.isfinite(r.prev_q025) and math.isfinite(r.prev_q975):
            panel_c.append(_interval(xc + 2.5, fy(r.prev_q025), fy(r.prev_q975), "#2b6cb0"))
        if not math.isfinite(r.prev_mean):  # no marker, as the scatters skip such points
            continue
        if degen[i]:
            panel_c.append(_diamond(xc + 2.5, fy(r.prev_mean), 3.5))
        else:
            panel_c.append(f'<circle cx="{xc + 2.5:.2f}" cy="{fy(r.prev_mean):.2f}" r="2" fill="#2b6cb0"/>')
    panel_c.append(
        f'<text x="{bx + bw / 2:.2f}" y="{by + bh + 18:.2f}" font-size="10" '
        'text-anchor="middle">regions sorted by direct estimate; '
        "gray = direct, blue = smoothed, open = degenerate</text>"
    )

    groups = [
        ('id="panelA"', panel_a),
        ('id="panelB" transform="translate(340,0)"', panel_b),
        ('id="panelC" transform="translate(0,320)"', "\n".join(panel_c)),
    ]
    return _document(max(2 * 340.0, slot * n + 80), 320.0 + 320.0, groups, metadata)
