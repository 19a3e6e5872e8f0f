"""Deterministic SVG 1.1 rendering of 2-d point sets.

Three highlight modes: color points by cluster class, overlay a 2R-chain
between two points, or outline one rho-cluster.  Output is a pure function
of the inputs (fixed palette, fixed float formatting), so plots can be
compared byte-for-byte in tests.
"""

from .classify import classify
from .sets import cluster, crop_to_window, delone_params, two_r_chain

__all__ = ["render_svg"]

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#e377c2", "#17becf", "#bcbd22", "#7f7f7f")
SIZE = 640  # pixels along the longer side of the view


def _fmt(v):
    return f"{v:.4f}"


def _window_view(handle, extent):
    if handle.mode == "window":
        return handle
    w = extent if extent is not None else 4
    lo = tuple(-w for _ in range(handle.dim))
    hi = tuple(w for _ in range(handle.dim))
    return crop_to_window(handle, lo, hi)


def render_svg(handle, highlight="classes", rho=None, chain_ends=None,
               center=None, extent=None):
    """Render a 2-d set to an SVG string.

    highlight="classes" colors points by their rho-cluster class (rho
    defaults to 2R); "chains" overlays the 2R-chain between chain_ends;
    "clusters" outlines the rho-cluster around ``center``.
    """
    if handle.dim != 2:
        raise ValueError("plots are 2-d only")
    view = _window_view(handle, extent)
    lo, hi = view.bounds
    x0, y0, x1, y1 = (float(lo[0]), float(lo[1]), float(hi[0]), float(hi[1]))
    span = max(x1 - x0, y1 - y0) or 1.0
    pad = 0.04 * span
    scale = SIZE / (span + 2 * pad)

    def sx(v):
        return (float(v) - x0 + pad) * scale

    def sy(v):
        return (y1 - float(v) + pad) * scale  # flip y for screen coords

    width = (x1 - x0 + 2 * pad) * scale
    height = (y1 - y0 + 2 * pad) * scale
    dot = max(2.0, 0.04 * scale)
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
           f'width="{_fmt(width)}" height="{_fmt(height)}" '
           f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
           f'<rect width="{_fmt(width)}" height="{_fmt(height)}" fill="white"/>']

    if handle.mode == "periodic":
        def key_of(p):
            return handle.lattice.reduce_point(p)
    else:
        def key_of(p):
            return p

    color_of = {}
    legend = []
    if highlight == "classes":
        rho_eff = rho if rho is not None else _default_rho(handle)
        part = classify(handle if handle.mode == "periodic" else view, rho_eff)
        for i, cl in enumerate(part.classes):
            color = PALETTE[i % len(PALETTE)]
            legend.append((f"class {i + 1} ({len(cl.members)} pts)", color))
            for m in cl.members:
                color_of[key_of(m)] = color

    for p in view.points:
        color = color_of.get(key_of(p), "#444444")
        out.append(f'<circle cx="{_fmt(sx(p[0]))}" cy="{_fmt(sy(p[1]))}" '
                   f'r="{_fmt(dot)}" fill="{color}"/>')

    if highlight == "chains":
        if chain_ends is None:
            raise ValueError("chains mode needs chain_ends=(start, goal)")
        ch = two_r_chain(handle, chain_ends[0], chain_ends[1])
        pts = " ".join(f"{_fmt(sx(v[0]))},{_fmt(sy(v[1]))}" for v in ch.vertices)
        out.append(f'<polyline points="{pts}" fill="none" stroke="#d62728" '
                   f'stroke-width="{_fmt(dot / 2)}"/>')
        two_r = 2 * float(delone_params(handle).R)
        for a, b, g2 in zip(ch.vertices, ch.vertices[1:], ch.gaps_sq()):
            mx, my = sx((float(a[0]) + float(b[0])) / 2), sy((float(a[1]) + float(b[1])) / 2)
            out.append(f'<text x="{_fmt(mx)}" y="{_fmt(my)}" font-size="{_fmt(3 * dot)}" '
                       f'fill="#d62728">{float(g2) ** 0.5:.3f}&lt;{two_r:.3f}</text>')

    if highlight == "clusters":
        if center is None:
            raise ValueError("clusters mode needs a center")
        rho_eff = rho if rho is not None else _default_rho(handle)
        c = cluster(handle, center, rho_eff)
        out.append(f'<circle cx="{_fmt(sx(c.center[0]))}" cy="{_fmt(sy(c.center[1]))}" '
                   f'r="{_fmt(float(c.radius) * scale)}" fill="none" '
                   f'stroke="#2ca02c" stroke-width="{_fmt(dot / 2)}"/>')
        for p in c.points:
            out.append(f'<circle cx="{_fmt(sx(p[0]))}" cy="{_fmt(sy(p[1]))}" '
                       f'r="{_fmt(dot * 1.2)}" fill="none" stroke="#2ca02c" '
                       f'stroke-width="{_fmt(dot / 3)}"/>')

    for i, (label, color) in enumerate(legend):
        yy = 16 + 18 * i
        out.append(f'<rect x="8" y="{yy - 10}" width="10" height="10" fill="{color}"/>')
        out.append(f'<text x="24" y="{yy}" font-size="12" fill="#222222">{label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _default_rho(handle):
    return delone_params(handle).R * 2
