"""Point-set files and report files.

Point sets are stored as UTF-8 key/value text with sections::

    # delone point set v1
    dim = 2
    mode = periodic            (or window)
    numeric = exact            (or float)
    [basis]                    (periodic: d rows of d scalars)
    1 0
    1/2 1/2*sqrt(3)
    [motif]
    0 0
    ...                        (window instead has margin, [bounds], [points])

Exact scalars round-trip as ``p/q`` rationals, optionally with one
``r/s*sqrt(D)`` term for quadratic-field coordinates; floats use shortest
round-trip decimals.  Writes are atomic (temp file + rename), and reports
are deterministic byte-for-byte for identical inputs and flags.
"""

import hashlib
import os
import re
import tempfile
from fractions import Fraction

from .geometry import Lattice, Tolerance
from .scalars import Radical, format_scalar, quadext
from .sets import build_periodic, build_window

__all__ = [
    "PointSetFormatError",
    "write_point_set",
    "read_point_set",
    "format_scalar",
    "parse_scalar",
    "Report",
    "atomic_write",
    "file_sha256",
]


class PointSetFormatError(Exception):
    """The point-set file cannot be parsed."""


_SQRT_RE = re.compile(r"^(?:(?P<coef>-?\d+(?:/\d+)?)\*)?sqrt\((?P<rad>\d+)\)$")
_RAT_RE = re.compile(r"^-?\d+(?:/\d+)?$")


def _rational(text, token):
    """Fraction(text); a zero denominator is a format error in ``token``."""
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise PointSetFormatError(f"zero denominator in {token!r}") from exc


def parse_scalar(token, exact):
    token = token.strip()
    if not exact:
        try:
            return float(token)
        except ValueError as exc:
            raise PointSetFormatError(f"bad float token {token!r}") from exc
    rat = Fraction(0)
    quad = None
    for t in _split_terms(token):
        if _RAT_RE.match(t):
            rat += _rational(t, token)
            continue
        m = _SQRT_RE.match(t)
        if not m:
            raise PointSetFormatError(f"bad exact scalar token {token!r}")
        coef = _rational(m.group("coef"), token) if m.group("coef") else Fraction(1)
        d = int(m.group("rad"))
        if quad is not None and quad[1] != d:
            raise PointSetFormatError(f"mixed radicands in token {token!r}")
        quad = ((quad[0] if quad else Fraction(0)) + coef, d)
    if quad is None:
        return rat
    return quadext(rat, quad[0], quad[1])


def _split_terms(token):
    terms = []
    buf = ""
    for i, ch in enumerate(token):
        if ch == "+" and buf:
            terms.append(buf)
            buf = ""
        elif ch == "-" and buf and token[i - 1] not in "+-*/(":
            terms.append(buf)
            buf = "-"
        else:
            buf += ch
    if buf:
        terms.append(buf)
    return [t.strip() for t in terms if t.strip()]


_RAD_TERM_RE = re.compile(
    r"^(?:(?P<coef>-?\d+(?:/\d+)?)\*)?sqrt\((?P<rad>\d+(?:/\d+)?)\)$")


def parse_radius(token, exact):
    """Radii accept the rational grammar plus sqrt(p/q) terms; they must
    be nonnegative."""
    token = token.strip()
    if not exact:
        try:
            out = float(token)
        except ValueError as exc:
            raise PointSetFormatError(f"bad radius token {token!r}") from exc
        if not out >= 0:
            raise PointSetFormatError(f"radius {token!r} must be nonnegative")
        return out
    out = Radical.of(0)
    for term in _split_terms(token):
        m = _RAD_TERM_RE.match(term)
        if m:
            coef = _rational(m.group("coef"), token) if m.group("coef") else Fraction(1)
            out = out + Radical(0, ((coef, _rational(m.group("rad"), token)),))
        elif _RAT_RE.match(term):
            out = out + Radical.of(_rational(term, token))
        else:
            raise PointSetFormatError(f"bad radius token {token!r}")
    if out.sign() < 0:
        raise PointSetFormatError(f"radius {token!r} must be nonnegative")
    return out


def _format_point(p, exact):
    return " ".join(format_scalar(c, exact) for c in p)


def write_point_set(handle, path):
    lines = ["# delone point set v1",
             f"dim = {handle.dim}",
             f"mode = {handle.mode}",
             f"numeric = {'exact' if handle.tol.exact else 'float'}"]
    exact = handle.tol.exact
    if not exact:
        lines.append(f"eps_abs = {handle.tol.eps_abs!r}")
    if handle.mode == "periodic":
        lines.append("[basis]")
        for row in handle.lattice.basis:
            lines.append(_format_point(row, exact))
        lines.append("[motif]")
        for m in handle.motif:
            lines.append(_format_point(m, exact))
    else:
        lines.append(f"margin = {format_scalar(handle.margin, exact)}")
        lines.append("[bounds]")
        lines.append(_format_point(handle.bounds[0], exact))
        lines.append(_format_point(handle.bounds[1], exact))
        lines.append("[points]")
        for p in handle.points:
            lines.append(_format_point(p, exact))
    atomic_write(path, "\n".join(lines) + "\n")


def read_point_set(path, eps_abs=None):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise PointSetFormatError(f"cannot read {path}: {exc}") from exc
    kv = {}
    sections = {}
    current = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            sections[current] = []
            continue
        if "=" in line and current is None:
            k, _, v = line.partition("=")
            kv[k.strip()] = v.strip()
            continue
        if current is None:
            raise PointSetFormatError(f"stray line outside any section: {raw!r}")
        sections[current].append(line)
    try:
        dim = int(kv["dim"])
        mode = kv["mode"]
        numeric = kv["numeric"]
    except KeyError as exc:
        raise PointSetFormatError(f"missing header field {exc}") from exc
    if mode not in ("periodic", "window"):
        raise PointSetFormatError(f"unknown mode {mode!r}")
    if numeric not in ("exact", "float"):
        raise PointSetFormatError(f"unknown numeric mode {numeric!r}")
    exact = numeric == "exact"
    if exact:
        tol = Tolerance.exact_mode()
    else:
        tol = Tolerance.floating(eps_abs if eps_abs is not None
                                 else float(kv.get("eps_abs", 1e-9)))

    def rows(name):
        if name not in sections:
            raise PointSetFormatError(f"missing [{name}] section")
        out = []
        for line in sections[name]:
            cells = line.split()
            if len(cells) != dim:
                raise PointSetFormatError(
                    f"row {line!r} has {len(cells)} cells, expected {dim}")
            out.append(tuple(parse_scalar(c, exact) for c in cells))
        return out

    try:
        if mode == "periodic":
            return build_periodic(Lattice(rows("basis")), rows("motif"), tol=tol)
        margin = parse_scalar(kv.get("margin", "0"), exact)
        bounds = rows("bounds")
        if len(bounds) != 2:
            raise PointSetFormatError("[bounds] must have exactly two rows")
        return build_window(rows("points"), (bounds[0], bounds[1]),
                            margin=margin, tol=tol)
    except ValueError as exc:
        raise PointSetFormatError(str(exc)) from exc


def atomic_write(path, text):
    """Write text to path through a temporary file and a rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".delone-tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


class Report:
    """Deterministic structured-text report builder.

    Lines are emitted in insertion order; identical inputs and flags give
    byte-identical files (wall time is only included on request).
    """

    def __init__(self, command):
        self.lines = ["# delone report v1", f"command = {command}"]

    def kv(self, key, value):
        self.lines.append(f"{key} = {value}")
        return self

    def scalar(self, key, value, exact):
        self.kv(key, format_scalar(value, exact))
        self.kv(f"{key}_float", f"{float(value):.9g}")
        return self

    def section(self, name):
        self.lines.append(f"[{name}]")
        return self

    def row(self, *cells):
        self.lines.append(" ".join(str(c) for c in cells))
        return self

    def render(self):
        return "\n".join(self.lines) + "\n"

    def write(self, path):
        atomic_write(path, self.render())
