#!/usr/bin/env python3
"""Render the paper-reproduction figures as SVG.

Pure standard library — no matplotlib required. Reads the output of
`bench_runner --table`, which prints a CSV block after each figure's aligned
table.

Usage:
    build/bench/bench_runner --table=all > bench_output.txt
    python3 tools/plot_figures.py bench_output.txt --outdir figures
"""

from __future__ import annotations

import argparse
import html
import math
import os
import re
import sys
from collections import defaultdict

# ----------------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------------


def parse_blocks(text: str) -> dict[str, list[list[str]]]:
    """Returns {table title: rows (first row = header)} from bench output."""
    blocks: dict[str, list[list[str]]] = {}
    title = None
    lines = text.splitlines()
    for i, line in enumerate(lines):
        m = re.match(r"^== (.+) ==$", line)
        if m:
            title = m.group(1)
            continue
        if line.strip() == "CSV:" and title is not None:
            rows = []
            for j in range(i + 1, len(lines)):
                if "," not in lines[j]:
                    break
                rows.append([c.strip() for c in lines[j].split(",")])
            if rows:
                blocks[title] = rows
            title = None
    return blocks


def numeric(cell: str) -> float:
    return float(cell.rstrip("%"))


# ----------------------------------------------------------------------------
# Tiny SVG chart writer
# ----------------------------------------------------------------------------

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e"]
W, H = 640, 420
ML, MR, MT, MB = 80, 20, 50, 60  # margins


def nice_ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1
    raw = (hi - lo) / n
    mag = 10 ** math.floor(math.log10(raw))
    for mult in (1, 2, 5, 10):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.floor(lo / step) * step
    ticks = []
    t = start
    while t <= hi + step * 0.5:
        ticks.append(round(t, 10))
        t += step
    return ticks


class Chart:
    """A log-x / linear-y (or linear-x) line chart with markers."""

    def __init__(self, title: str, xlabel: str, ylabel: str, logx: bool = False):
        self.title, self.xlabel, self.ylabel, self.logx = title, xlabel, ylabel, logx
        self.series: list[tuple[str, list[tuple[float, float]]]] = []

    def add(self, name: str, points: list[tuple[float, float]]):
        self.series.append((name, sorted(points)))

    def _xt(self, x: float) -> float:
        return math.log10(x) if self.logx else x

    def render(self) -> str:
        xs = [self._xt(x) for _, pts in self.series for x, _ in pts]
        ys = [y for _, pts in self.series for _, y in pts]
        xlo, xhi = min(xs), max(xs)
        ylo, yhi = min(0.0, min(ys)), max(ys) * 1.08 + 1e-12
        if xhi == xlo:
            xhi = xlo + 1

        def px(x: float) -> float:
            return ML + (self._xt(x) - xlo) / (xhi - xlo) * (W - ML - MR)

        def py(y: float) -> float:
            return H - MB - (y - ylo) / (yhi - ylo) * (H - MT - MB)

        out = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
            f'viewBox="0 0 {W} {H}" font-family="sans-serif" font-size="12">',
            f'<rect width="{W}" height="{H}" fill="white"/>',
            f'<text x="{W / 2}" y="24" text-anchor="middle" font-size="14" '
            f'font-weight="bold">{html.escape(self.title)}</text>',
        ]
        # Axes frame.
        out.append(
            f'<rect x="{ML}" y="{MT}" width="{W - ML - MR}" height="{H - MT - MB}" '
            f'fill="none" stroke="#888"/>'
        )
        # Y ticks + gridlines.
        for t in nice_ticks(ylo, yhi):
            if not (ylo <= t <= yhi):
                continue
            y = py(t)
            out.append(f'<line x1="{ML}" y1="{y}" x2="{W - MR}" y2="{y}" '
                       f'stroke="#ddd" stroke-dasharray="3,3"/>')
            label = f"{t:g}"
            out.append(f'<text x="{ML - 6}" y="{y + 4}" text-anchor="end">{label}</text>')
        # X ticks.
        xticks = (
            [10 ** e for e in range(math.floor(xlo), math.ceil(xhi) + 1)]
            if self.logx
            else nice_ticks(xlo, xhi)
        )
        for t in xticks:
            xt = self._xt(t) if self.logx else t
            if not (xlo - 1e-9 <= xt <= xhi + 1e-9):
                continue
            x = ML + (xt - xlo) / (xhi - xlo) * (W - ML - MR)
            out.append(f'<line x1="{x}" y1="{H - MB}" x2="{x}" y2="{H - MB + 4}" '
                       f'stroke="#888"/>')
            out.append(f'<text x="{x}" y="{H - MB + 18}" text-anchor="middle">{t:g}</text>')
        # Axis labels.
        out.append(f'<text x="{W / 2}" y="{H - 14}" text-anchor="middle">'
                   f'{html.escape(self.xlabel)}</text>')
        out.append(f'<text x="18" y="{H / 2}" text-anchor="middle" '
                   f'transform="rotate(-90 18 {H / 2})">{html.escape(self.ylabel)}</text>')
        # Series.
        for i, (name, pts) in enumerate(self.series):
            color = PALETTE[i % len(PALETTE)]
            path = " ".join(f"{'M' if j == 0 else 'L'}{px(x):.1f},{py(y):.1f}"
                            for j, (x, y) in enumerate(pts))
            out.append(f'<path d="{path}" fill="none" stroke="{color}" stroke-width="2"/>')
            for x, y in pts:
                out.append(f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" r="3.5" '
                           f'fill="{color}"/>')
            # Legend.
            lx, ly = ML + 12, MT + 16 + 18 * i
            out.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 22}" y2="{ly}" '
                       f'stroke="{color}" stroke-width="2"/>')
            out.append(f'<text x="{lx + 28}" y="{ly + 4}">{html.escape(name)}</text>')
        out.append("</svg>")
        return "\n".join(out)


# ----------------------------------------------------------------------------
# Figure specifications: (title regex, output file, builder)
# ----------------------------------------------------------------------------


def two_series(rows, ycol_a, ycol_b, name_a, name_b, **kw):
    chart = Chart(**kw)
    header, data = rows[0], rows[1:]
    chart.add(name_a, [(numeric(r[0]), numeric(r[ycol_a])) for r in data])
    chart.add(name_b, [(numeric(r[0]), numeric(r[ycol_b])) for r in data])
    return chart


def one_series(rows, ycol, name, **kw):
    chart = Chart(**kw)
    chart.add(name, [(numeric(r[0]), numeric(r[ycol])) for r in rows[1:]])
    return chart


def tail_chart(rows):
    """fig_tail rows are variant-keyed: one amplification series per variant,
    x = injected loss %, y = p99.9 delivery-latency amplification (x1 at 0%)."""
    chart = Chart(title="fig_tail — p99.9 delivery-latency amplification vs fault rate",
                  xlabel="injected packet loss (%)",
                  ylabel="p99.9 amplification (relative to 0% loss)")
    per_variant: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for r in rows[1:]:
        per_variant[r[0]].append((numeric(r[1]), numeric(r[4])))
    for variant in sorted(per_variant):
        chart.add(variant, per_variant[variant])
    return chart


FIGURES = [
    (r"Fig\. 4", "fig4_raid_gvt.svg",
     lambda rows: two_series(rows, 1, 2, "WARPED", "NIC GVT", logx=True,
                             title="Fig. 4 — RAID execution time vs GVT period",
                             xlabel="GVT period (events)", ylabel="simulated seconds")),
    (r"Fig\. 5a", "fig5a_police_gvt.svg",
     lambda rows: two_series(rows, 1, 2, "WARPED", "NIC GVT", logx=True,
                             title="Fig. 5a — POLICE execution time vs GVT period",
                             xlabel="GVT period (events)", ylabel="simulated seconds")),
    (r"Fig\. 5b", "fig5b_police_rounds.svg",
     lambda rows: two_series(rows, 1, 2, "WARPED", "NIC GVT", logx=True,
                             title="Fig. 5b — GVT rounds vs GVT period",
                             xlabel="GVT period (events)", ylabel="rounds")),
    (r"Fig\. 6a", "fig6a_raid_cancel.svg",
     lambda rows: one_series(rows, 3, "% improvement",
                             title="Fig. 6a — RAID improvement from cancellation",
                             xlabel="disk requests", ylabel="% improvement")),
    (r"Fig\. 6b", "fig6b_raid_msgs.svg",
     lambda rows: two_series(rows, 1, 2, "WARPED", "Direct cancellation",
                             title="Fig. 6b — RAID messages sent",
                             xlabel="disk requests", ylabel="messages")),
    (r"Fig\. 7a", "fig7a_police_cancel.svg",
     lambda rows: one_series(rows, 3, "% improvement",
                             title="Fig. 7a — POLICE improvement from cancellation",
                             xlabel="police stations", ylabel="% improvement")),
    (r"Fig\. 7b", "fig7b_police_dropped.svg",
     lambda rows: one_series(rows, 4, "% dropped by NIC",
                             title="Fig. 7b — cancelled messages dropped by NIC",
                             xlabel="police stations", ylabel="% dropped")),
    (r"Fig\. 8", "fig8_police_msgcount.svg",
     lambda rows: two_series(rows, 1, 2, "WARPED", "Direct cancellation",
                             title="Fig. 8 — POLICE overall messages generated",
                             xlabel="police stations", ylabel="messages")),
    (r"fig_tail", "fig_tail_amplification.svg", tail_chart),
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("input", help="bench_output.txt (bench_runner --table output)")
    ap.add_argument("--outdir", default="figures")
    args = ap.parse_args()

    with open(args.input, encoding="utf-8") as f:
        blocks = parse_blocks(f.read())
    if not blocks:
        print("no CSV blocks found — is this really bench output?", file=sys.stderr)
        return 1

    os.makedirs(args.outdir, exist_ok=True)
    written = 0
    for pattern, fname, build in FIGURES:
        for title, rows in blocks.items():
            if re.search(pattern, title):
                svg = build(rows).render()
                path = os.path.join(args.outdir, fname)
                with open(path, "w", encoding="utf-8") as f:
                    f.write(svg)
                print(f"wrote {path}")
                written += 1
                break
    print(f"{written}/{len(FIGURES)} figures rendered")
    return 0 if written else 1


if __name__ == "__main__":
    raise SystemExit(main())
