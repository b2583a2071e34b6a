"""Flamegraph rendering for folded sample profiles.

Turns a :class:`~repro.obs.live.sampler.Profile` into:

* :func:`render_flame_html` — a self-contained HTML page embedding an
  SVG flamegraph (width ∝ samples, one row per stack depth), the
  per-task-type self/cumulative hotspot tables, and a state/task sample
  breakdown.  Inline CSS + SVG only, no JavaScript, same visual language
  (CSS custom properties, ``prefers-color-scheme`` dark mode) as
  :mod:`repro.obs.report`.
* :func:`render_hotspots_text` — a deterministic terminal summary built
  on :class:`repro.util.tables.Table` for ``python -m repro flame``.

Everything here is a pure function of the profile: same folded counts
in, same bytes out.  Frame colors hash through ``zlib.crc32`` (not
``hash()``, which is salted per process) so even the fill attributes are
reproducible, which is what lets the test suite pin rendering on
injected synthetic samples.
"""

from __future__ import annotations

import html
import zlib
from dataclasses import dataclass, field

from repro.obs.live.sampler import Profile
from repro.obs.report import _page
from repro.util.tables import Table

__all__ = ["FlameNode", "build_tree", "render_flame_svg", "render_flame_html", "render_hotspots_text"]

#: Hotspot tables show at most this many frames per task type.
MAX_HOTSPOT_ROWS = 20

#: Frames narrower than this many pixels are drawn but unlabeled.
MIN_LABEL_WIDTH = 40

_ROW_H = 17
_CHAR_W = 6.4  # ~11px monospace advance; labels are clipped to frame width


@dataclass
class FlameNode:
    """One merged frame in the flame tree.

    ``value`` counts every sample passing through this frame;
    ``self_value`` counts samples that *end* here (the frame was on top).
    Children merge by frame name, preserving the collapsed-stack
    semantics: a node's value equals its self value plus its children's.
    """

    name: str
    value: int = 0
    self_value: int = 0
    children: dict[str, "FlameNode"] = field(default_factory=dict)

    def child(self, name: str) -> "FlameNode":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = FlameNode(name)
        return node

    def depth(self) -> int:
        """Rows needed to draw this subtree (0 for a childless root)."""
        if not self.children:
            return 0
        return 1 + max(c.depth() for c in self.children.values())


def build_tree(profile: Profile, attribution: bool = True) -> FlameNode:
    """Merge a profile's folded stacks into a flame tree rooted at ``all``.

    With ``attribution`` (matching :meth:`Profile.collapsed`), stacks
    gain synthetic ``state:`` / ``task:`` root frames so the graph
    groups by live state then task type before real code frames.
    """
    root = FlameNode("all")
    for (state, task, stack), count in profile.stacks().items():
        frames = (f"state:{state}", f"task:{task}") + stack if attribution else stack
        root.value += count
        node = root
        for frame in frames:
            node = node.child(frame)
            node.value += count
        node.self_value += count
    return root


def _frame_color(name: str) -> str:
    """Deterministic warm hue per frame name (crc32, not salted hash).

    Synthetic attribution frames get fixed cool hues so the state/task
    rows read as chrome, not code.
    """
    if name.startswith("state:"):
        return "hsl(210, 42%, 52%)"
    if name.startswith("task:"):
        return "hsl(174, 38%, 44%)"
    h = zlib.crc32(name.encode("utf-8", "replace"))
    hue = h % 50  # 0..49: red through orange — the classic flame palette
    sat = 62 + (h >> 8) % 21  # 62..82%
    lum = 52 + (h >> 16) % 11  # 52..62%
    return f"hsl({hue}, {sat}%, {lum}%)"


def render_flame_svg(root: FlameNode, width: int = 960) -> str:
    """The flamegraph itself: one inline SVG, root row at the top.

    Frame width is proportional to sample count; children sit below
    their parent, sorted by name so layout is deterministic.  Hovering a
    frame shows name, samples, and share in a ``<title>`` tooltip.
    """
    if root.value <= 0:
        return '<p class="note">no samples collected.</p>'
    depth = root.depth()
    height = (depth + 1) * _ROW_H + 4
    total = root.value
    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="100%" role="img" '
        f'aria-label="Flamegraph of {total} stack samples" '
        f'xmlns="http://www.w3.org/2000/svg">'
    ]

    def emit(node: FlameNode, x: float, y: int, w: float) -> None:
        share = node.value / total
        tip = f"{node.name}\n{node.value} samples ({share:.1%})"
        label = ""
        if w >= MIN_LABEL_WIDTH:
            text = node.name
            max_chars = int((w - 6) / _CHAR_W)
            if len(text) > max_chars:
                text = text[: max(max_chars - 1, 1)] + "…"
            label = (
                f'<text x="{x + 3:.2f}" y="{y + _ROW_H - 5}" font-size="11" '
                f'fill="#1a1a19">{html.escape(text)}</text>'
            )
        parts.append(
            f'<g><rect x="{x:.2f}" y="{y}" width="{max(w, 0.5):.2f}" height="{_ROW_H - 1}" '
            f'rx="1" fill="{_frame_color(node.name)}">'
            f"<title>{html.escape(tip)}</title></rect>{label}</g>"
        )
        cx = x
        for name in sorted(node.children):
            child = node.children[name]
            cw = w * child.value / node.value
            emit(child, cx, y + _ROW_H, cw)
            cx += cw

    emit(root, 0.0, 2, float(width))
    parts.append("</svg>")
    return f'<div class="panel">{"".join(parts)}</div>'


def _hotspot_html_rows(profile: Profile) -> list[str]:
    """Per-task-type hotspot tables as HTML sections."""
    total = max(profile.total_samples, 1)
    sections = []
    for task, rows in profile.task_hotspots().items():
        shown = rows[:MAX_HOTSPOT_ROWS]
        body = "".join(
            "<tr>"
            f"<td>{html.escape(r.frame)}</td>"
            f'<td class="num">{r.self_samples}</td>'
            f'<td class="num">{r.self_samples / total:.1%}</td>'
            f'<td class="num">{r.cum_samples}</td>'
            f'<td class="num">{r.cum_samples / total:.1%}</td>'
            "</tr>"
            for r in shown
        )
        note = ""
        if len(rows) > len(shown):
            note = f'<p class="note">showing the top {len(shown)} of {len(rows)} frames.</p>'
        sections.append(
            f"<h2>Hotspots — task {html.escape(task)}</h2>"
            '<div class="panel"><table><thead><tr><th>frame</th>'
            '<th class="num">self</th><th class="num">self %</th>'
            '<th class="num">cum</th><th class="num">cum %</th></tr></thead>'
            f"<tbody>{body}</tbody></table></div>{note}"
        )
    return sections


def render_flame_html(profile: Profile, title: str = "flamegraph") -> str:
    """Self-contained flamegraph page: tiles, the SVG, hotspot tables."""
    total = profile.total_samples
    by_state = profile.by_state()
    tiles = [
        f'<div class="tile"><div class="v">{total}</div><div class="k">samples</div></div>',
        f'<div class="tile"><div class="v">{len(profile.stacks())}</div>'
        '<div class="k">distinct stacks</div></div>',
    ]
    for state in ("running", "idle", "blocked"):
        n = by_state.get(state, 0)
        if n:
            share = n / max(total, 1)
            tiles.append(
                f'<div class="tile"><div class="v">{share:.0%}</div>'
                f'<div class="k">{html.escape(state)} ({n})</div></div>'
            )

    sections = [f'<section class="tiles">{"".join(tiles)}</section>']
    sections.append("<h2>Flamegraph</h2>" + render_flame_svg(build_tree(profile)))

    by_task = profile.by_task()
    if by_task:
        body = "".join(
            f'<tr><td>{html.escape(task)}</td><td class="num">{n}</td>'
            f'<td class="num">{n / max(total, 1):.1%}</td></tr>'
            for task, n in sorted(by_task.items(), key=lambda kv: (-kv[1], kv[0]))
        )
        sections.append(
            "<h2>Samples by task</h2>"
            '<div class="panel"><table><thead><tr><th>task</th>'
            '<th class="num">samples</th><th class="num">share</th></tr></thead>'
            f"<tbody>{body}</tbody></table></div>"
        )
    sections.extend(_hotspot_html_rows(profile))

    subtitle = f"{total} samples · {len(profile.stacks())} distinct stacks"
    return _page(title, subtitle, sections)


def render_hotspots_text(profile: Profile) -> str:
    """Deterministic terminal summary: sample breakdown plus per-task
    hotspot tables (the ``python -m repro flame`` stdout)."""
    out = [
        f"profile: {profile.total_samples} samples, {len(profile.stacks())} distinct stacks"
    ]
    by_state = profile.by_state()
    if by_state:
        out.append(
            "states: " + ", ".join(f"{s} {n}" for s, n in by_state.items())
        )
    by_task = profile.by_task()
    if by_task:
        t = Table(["task", "samples", "share"], title="samples by task", precision=3)
        total = max(profile.total_samples, 1)
        for task, n in sorted(by_task.items(), key=lambda kv: (-kv[1], kv[0])):
            t.add_row([task, n, round(n / total, 3)])
        out.append("")
        out.append(t.render())
    for task, rows in profile.task_hotspots().items():
        t = Table(["frame", "self", "cum"], title=f"hotspots: {task}")
        for r in rows[:MAX_HOTSPOT_ROWS]:
            t.add_row([r.frame, r.self_samples, r.cum_samples])
        out.append("")
        out.append(t.render())
    return "\n".join(out).rstrip() + "\n"
