"""Standalone SVG figures rendered by direct markup generation.

Two figure kinds over an experiment report, named in :data:`CHARTS`:
quantile bands of the headline metric versus horizon (median line, shaded
band up to the (1-delta) quantile), and the log-log rate view with fitted
slopes annotated.  Both place the cells :func:`_series` picks, those with
a positive median.  No plotting dependency; output is diff-able text.
"""

from __future__ import annotations

import math
from html import escape

from .errors import MalformedReport

WIDTH, HEIGHT = 720, 460
MARGIN = {"left": 70, "right": 160, "top": 40, "bottom": 55}
PALETTE = ["#0d6efd", "#dc3545", "#198754", "#fd7e14", "#6f42c1", "#20c997", "#6c757d"]
FONT = "font-family=\"Helvetica, Arial, sans-serif\""


def _header(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2}" y="24" text-anchor="middle" font-size="16" {FONT}>'
        f'{escape(title)}</text>',
    ]


def _axes(x_label: str, y_label: str) -> list[str]:
    x0, x1 = MARGIN["left"], WIDTH - MARGIN["right"]
    y0, y1 = HEIGHT - MARGIN["bottom"], MARGIN["top"]
    return [
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="#212529"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="#212529"/>',
        f'<text x="{(x0 + x1) / 2}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-size="13" {FONT}>{escape(x_label)}</text>',
        f'<text x="16" y="{(y0 + y1) / 2}" text-anchor="middle" font-size="13" {FONT} '
        f'transform="rotate(-90 16 {(y0 + y1) / 2})">{escape(y_label)}</text>',
    ]


def _log_ticks(lo: float, hi: float) -> list[float]:
    first = math.floor(math.log10(lo))
    last = math.ceil(math.log10(hi))
    return [10.0 ** e for e in range(first, last + 1)]


class _LogLogFrame:
    """Maps (T, metric) to pixel coordinates on decade-ticked log axes."""

    def __init__(self, xs: list[float], ys: list[float]):
        self.x_lo, self.x_hi = min(xs) / 1.2, max(xs) * 1.2
        self.y_lo, self.y_hi = min(ys) / 1.5, max(ys) * 1.5

    def px(self, x: float) -> float:
        span = math.log10(self.x_hi) - math.log10(self.x_lo)
        frac = (math.log10(x) - math.log10(self.x_lo)) / span
        return MARGIN["left"] + frac * (WIDTH - MARGIN["left"] - MARGIN["right"])

    def py(self, y: float) -> float:
        span = math.log10(self.y_hi) - math.log10(self.y_lo)
        frac = (math.log10(y) - math.log10(self.y_lo)) / span
        return HEIGHT - MARGIN["bottom"] - frac * (HEIGHT - MARGIN["top"] - MARGIN["bottom"])

    def grid(self) -> list[str]:
        out = []
        y0, y1 = HEIGHT - MARGIN["bottom"], MARGIN["top"]
        for tx in _log_ticks(self.x_lo, self.x_hi):
            if not (self.x_lo <= tx <= self.x_hi):
                continue
            px = self.px(tx)
            out.append(f'<line x1="{px:.1f}" y1="{y0}" x2="{px:.1f}" y2="{y1}" '
                       f'stroke="#e9ecef"/>')
            out.append(f'<text x="{px:.1f}" y="{y0 + 18}" text-anchor="middle" '
                       f'font-size="11" {FONT}>1e{int(round(math.log10(tx)))}</text>')
        x0, x1 = MARGIN["left"], WIDTH - MARGIN["right"]
        for ty in _log_ticks(self.y_lo, self.y_hi):
            if not (self.y_lo <= ty <= self.y_hi):
                continue
            py = self.py(ty)
            out.append(f'<line x1="{x0}" y1="{py:.1f}" x2="{x1}" y2="{py:.1f}" '
                       f'stroke="#e9ecef"/>')
            out.append(f'<text x="{x0 - 6}" y="{py + 4:.1f}" text-anchor="end" '
                       f'font-size="11" {FONT}>1e{int(round(math.log10(ty)))}</text>')
        return out


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _series(report_doc: dict) -> dict[str, list[dict]]:
    """Each optimizer's cells, validated, that a log axis can place: those
    whose median is positive, in T order (none for some optimizers)."""
    try:
        cells = report_doc["cells"]
        by_opt: dict[str, list[dict]] = {}
        for cell in cells:
            T, qs = cell["T"], cell["quantiles"]
            if not (_is_number(T) and T > 0):
                raise MalformedReport(f"a cell's T must be a positive number, got {T!r}")
            if not (isinstance(qs, dict)
                    and all(q is None or (_is_number(q) and q >= 0) for q in qs.values())):
                raise MalformedReport(f"a cell's quantiles must be non-negative numbers "
                                      f"or null, got {qs!r}")
            rows = by_opt.setdefault(cell["optimizer"], [])
            if qs.get("0.5") and qs["0.5"] > 0:
                rows.append(cell)
        for rows in by_opt.values():
            rows.sort(key=lambda c: c["T"])
        return by_opt
    except (KeyError, TypeError) as exc:
        raise MalformedReport(f"report lacks a well-formed 'cells' list: {exc}")


def _legend(entries: list[tuple[str, str]]) -> list[str]:
    out = []
    lx = WIDTH - MARGIN["right"] + 12
    for i, (color, label) in enumerate(entries):
        ly = MARGIN["top"] + 16 + 20 * i
        out.append(f'<rect x="{lx}" y="{ly - 9}" width="12" height="12" fill="{color}"/>')
        out.append(f'<text x="{lx + 18}" y="{ly + 2}" font-size="12" {FONT}>'
                   f'{escape(label)}</text>')
    return out


def _no_data(parts: list[str], note: str) -> str:
    parts.append(f'<text x="{WIDTH / 2}" y="{HEIGHT / 2}" text-anchor="middle" '
                 f'font-size="14" fill="#6c757d" {FONT}>{escape(note)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def convergence_bands_svg(report_doc: dict) -> str:
    """Median line with a shaded band up to the (1-delta) quantile, per optimizer."""
    by_opt = _series(report_doc)
    parts = _header("headline metric vs horizon (median, band to (1-delta) quantile)")
    pts = []
    for rows in by_opt.values():
        for c in rows:
            q = c["quantiles"]
            pts.append((c["T"], q["0.5"], q.get("1-delta") or q["0.5"]))
    if not pts:
        return _no_data(parts, "no data")
    frame = _LogLogFrame([p[0] for p in pts], [v for p in pts for v in p[1:]])
    parts += frame.grid() + _axes("T", "min_t ||grad F(x_t)||_1")
    legend = []
    for i, (opt, valid) in enumerate(by_opt.items()):
        color = PALETTE[i % len(PALETTE)]
        if not valid:
            legend.append((color, f"{opt} (no data)"))
            continue
        med = [(frame.px(c["T"]), frame.py(c["quantiles"]["0.5"])) for c in valid]
        hi = [(frame.px(c["T"]),
               frame.py(c["quantiles"].get("1-delta") or c["quantiles"]["0.5"]))
              for c in valid]
        band = " ".join(f"{x:.1f},{y:.1f}" for x, y in med + hi[::-1])
        parts.append(f'<polygon points="{band}" fill="{color}" opacity="0.15"/>')
        line = " ".join(f"{x:.1f},{y:.1f}" for x, y in med)
        parts.append(f'<polyline points="{line}" fill="none" stroke="{color}" '
                     f'stroke-width="2"/>')
        for x, y in med:
            parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="3" fill="{color}"/>')
        legend.append((color, opt))
    parts += _legend(legend)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _fitted(fit: dict, T: float, opt: str) -> float:
    """exp(intercept + slope log T), where the log axis can place it."""
    try:
        y = math.exp(fit["intercept"] + fit["slope"] * math.log(T))
    except OverflowError:
        y = math.inf
    if not 0.0 < y < math.inf:
        raise MalformedReport(f"the rate fit of {opt} leaves the float range at T = {T}")
    return y


def rate_fit_svg(report_doc: dict) -> str:
    """Log-log medians with the fitted power-law lines and slopes annotated."""
    by_opt = _series(report_doc)
    fits = report_doc.get("rate_fits", {})
    if not (isinstance(fits, dict) and all(
            isinstance(fit, dict) and _is_number(fit.get("slope"))
            and _is_number(fit.get("intercept")) for fit in fits.values())):
        raise MalformedReport("rate_fits must map each optimizer to a numeric "
                              "slope and intercept")
    parts = _header("log-log rate fit of the median headline metric")
    pts = []
    for rows in by_opt.values():
        for c in rows:
            pts.append((c["T"], c["quantiles"]["0.5"]))
    if not pts:
        return _no_data(parts, "no data")
    frame = _LogLogFrame([p[0] for p in pts], [p[1] for p in pts])
    parts += frame.grid() + _axes("T", "median min_t ||grad F(x_t)||_1")
    legend = []
    for i, (opt, rows) in enumerate(by_opt.items()):
        color = PALETTE[i % len(PALETTE)]
        valid = [(c["T"], c["quantiles"]["0.5"]) for c in rows]
        if not valid:
            legend.append((color, f"{opt} (no data)"))
            continue
        for T, mval in valid:
            parts.append(f'<circle cx="{frame.px(T):.1f}" cy="{frame.py(mval):.1f}" '
                         f'r="4" fill="{color}"/>')
        fit = fits.get(opt)
        if fit:
            T_lo, T_hi = valid[0][0], valid[-1][0]
            y_lo, y_hi = _fitted(fit, T_lo, opt), _fitted(fit, T_hi, opt)
            parts.append(f'<line x1="{frame.px(T_lo):.1f}" y1="{frame.py(y_lo):.1f}" '
                         f'x2="{frame.px(T_hi):.1f}" y2="{frame.py(y_hi):.1f}" '
                         f'stroke="{color}" stroke-width="1.5" stroke-dasharray="5,3"/>')
            legend.append((color, f"{opt} (slope {fit['slope']:.3f})"))
        else:
            legend.append((color, opt))
    parts += _legend(legend)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# chart name -> renderer: the charts `run` writes, and `report --chart`'s choices
CHARTS = {"convergence_bands": convergence_bands_svg, "rate_fit": rate_fit_svg}
