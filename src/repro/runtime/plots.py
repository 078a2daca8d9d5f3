"""Terminal plotting for benchmark output.

The benches print their numbers as tables; these helpers add compact
ASCII renderings (scatter for latency/throughput curves, bars for
throughput comparisons) so a headless benchmark run still communicates
the *shape* of each figure.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple


def bar_chart(items: Sequence[Tuple[str, float]], width: int = 50, unit: str = "") -> List[str]:
    """Horizontal bars, scaled to the largest value."""
    if not items:
        return []
    peak = max(value for _, value in items) or 1.0
    label_width = max(len(label) for label, _ in items)
    lines = []
    for label, value in items:
        bar = "#" * max(1, int(round(width * value / peak)))
        lines.append(f"{label.ljust(label_width)} |{bar.ljust(width)} {value:,.1f}{unit}")
    return lines


def scatter(
    points: Sequence[Tuple[float, float]],
    width: int = 60,
    height: int = 16,
    x_label: str = "x",
    y_label: str = "y",
) -> List[str]:
    """A crude log-free scatter plot of (x, y) points."""
    if not points:
        return []
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for x, y in points:
        col = min(width - 1, int((x - x_min) / x_span * (width - 1)))
        row = min(height - 1, int((y - y_min) / y_span * (height - 1)))
        grid[height - 1 - row][col] = "*"
    lines = [f"{y_label} ({y_min:,.0f} .. {y_max:,.0f})"]
    lines.extend("|" + "".join(row) for row in grid)
    lines.append("+" + "-" * width)
    lines.append(f" {x_label} ({x_min:,.0f} .. {x_max:,.0f})")
    return lines
