"""Result emission: CSV/JSON/Markdown writers, a dependency-free SVG
line plot, and the run manifest every command writes next to its
outputs.

Result files carry a `manifest=<ref>` comment tying them to the
manifest that produced them; the ref is a stable hash of the command's
configuration, so re-running the same command yields byte-identical
result files while the manifest records wall-clock timings.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path, header, rows, manifest_ref: str = None) -> None:
    lines = []
    if manifest_ref:
        lines.append(f"# manifest={manifest_ref}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_json(path, payload: dict, manifest_ref: str = None) -> None:
    payload = dict(payload)
    if manifest_ref:
        payload["manifest"] = manifest_ref
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def write_markdown_table(path, header, rows, manifest_ref: str = None,
                         title: str = None) -> None:
    lines = []
    if manifest_ref:
        lines.append(f"<!-- manifest={manifest_ref} -->")
    if title:
        lines.append(f"# {title}")
        lines.append("")
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "|".join(" --- " for _ in header) + "|")
    for row in rows:
        lines.append("| " + " | ".join(str(v) for v in row) + " |")
    Path(path).write_text("\n".join(lines) + "\n")


def svg_line_plot(path, series, *, title: str, x_label: str, y_label: str,
                  manifest_ref: str = None) -> None:
    """Multi-series line plot of scores as a standalone 640 x 420 SVG file.

    `series` is a list of (label, xs, ys) with equal-length coordinate
    lists; axes are linear with five ticks per side, x spanning the data
    and y spanning [0, 1].
    """
    width, height = 640, 420
    left, right, top, bottom = 58, 18, 40, 48
    plot_w = width - left - right
    plot_h = height - top - bottom
    xs_all = [x for _, xs, _ in series for x in xs]
    x_lo, x_hi = min(xs_all), max(xs_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0

    def px(x):
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return top + plot_h - y * plot_h

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
             f'viewBox="0 0 {width} {height}" font-family="sans-serif">']
    if manifest_ref:
        parts.append(f"<!-- manifest={manifest_ref} -->")
    parts.append(f'<rect width="{width}" height="{height}" fill="white"/>')
    parts.append(f'<text x="{width / 2:.1f}" y="22" text-anchor="middle" font-size="14">'
                 f"{title}</text>")
    for i in range(5):
        tx = x_lo + (x_hi - x_lo) * i / 4
        ty = i / 4
        gx, gy = px(tx), py(ty)
        parts.append(f'<line x1="{gx:.1f}" y1="{top}" x2="{gx:.1f}" y2="{top + plot_h}" '
                     f'stroke="#dddddd"/>')
        parts.append(f'<line x1="{left}" y1="{gy:.1f}" x2="{left + plot_w}" y2="{gy:.1f}" '
                     f'stroke="#dddddd"/>')
        parts.append(f'<text x="{gx:.1f}" y="{top + plot_h + 18}" text-anchor="middle" '
                     f'font-size="11">{tx:.2f}</text>')
        parts.append(f'<text x="{left - 8}" y="{gy + 4:.1f}" text-anchor="end" '
                     f'font-size="11">{ty:.2f}</text>')
    parts.append(f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
                 f'fill="none" stroke="#333333"/>')
    parts.append(f'<text x="{left + plot_w / 2:.1f}" y="{height - 10}" text-anchor="middle" '
                 f'font-size="12">{x_label}</text>')
    parts.append(f'<text x="16" y="{top + plot_h / 2:.1f}" text-anchor="middle" font-size="12" '
                 f'transform="rotate(-90 16 {top + plot_h / 2:.1f})">{y_label}</text>')
    for i, (label, xs, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        ly = top + 14 + 16 * i
        parts.append(f'<line x1="{left + plot_w - 130}" y1="{ly - 4}" x2="{left + plot_w - 106}" '
                     f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{left + plot_w - 100}" y="{ly}" font-size="11">{label}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# Manifest

def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass(frozen=True)
class RunManifest:
    command: str
    config_hash: str
    seeds: dict
    module_versions: dict
    input_digests: dict
    stage_seconds: dict = field(default_factory=dict)

    @property
    def ref(self) -> str:
        """Short stable reference embedded in every result file."""
        return self.config_hash[:12]


def build_manifest(command: str, seed: int, config_payload: dict,
                   input_paths: dict = None) -> RunManifest:
    """The manifest of one run, before any stage is timed; a verb adds
    its `stage_seconds` with dataclasses.replace."""
    from . import __version__

    digests = {name: file_digest(p) for name, p in sorted((input_paths or {}).items())}
    seeds = {"command": seed}
    canonical = json.dumps({"command": command, "config": config_payload,
                            "inputs": digests, "seeds": seeds}, sort_keys=True)
    return RunManifest(
        command=command,
        config_hash=hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        seeds=seeds,
        module_versions={"latetrack": __version__},
        input_digests=digests,
    )


def write_manifest(manifest: RunManifest, out_dir) -> Path:
    out = Path(out_dir) / "manifest.json"
    payload = asdict(manifest)
    payload["ref"] = manifest.ref
    out.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return out


class StageTimer:
    """Wall-clock accumulator for the manifest's per-stage timings."""

    def __init__(self):
        self.stages = {}

    @contextmanager
    def stage(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.stages[name] = self.stages.get(name, 0.0) + time.perf_counter() - t0
