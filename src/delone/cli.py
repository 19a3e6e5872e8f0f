"""Command-line surface: generate | analyze | certify | decompose |
reconstruct | plot.

Exit codes: 0 success, 2 usage or parse errors, 3 inconclusive (window or
scan cap), 4 precondition violated (e.g. a non-antipodal input where
antipodality is required, an input a command does not support, a radius
whose clusters have an infinite symmetry group, a radical comparison the
exact kernel cannot decide, an antipodal set with no lattice-coset
decomposition, a reconstruction that outgrows its point cap, or values
too large for the float filters).
"""

import argparse
import math
import sys
from fractions import Fraction

from .classify import (InfiniteGroupError, classify, group_orders_by_class,
                       n_profile)
from .criteria import (DecompositionError, NotAntipodalError,
                       ReconstructionError,
                       antipodal_lattice_decomposition,
                       certify_auto, check_crystal_criterion,
                       check_regular_criterion, reconstruct_from_2R_cluster)
from .fileio import (PointSetFormatError, Report, atomic_write, file_sha256,
                     format_scalar, parse_radius, parse_scalar,
                     read_point_set, write_point_set)
from .geometry import ConvergenceError, Isometry, Lattice, Tolerance
from .scalars import ExactComparisonError, quadext
from .sets import (TruncationError, WindowTooSmallError, as_radius, build_window,
                   cluster, delone_params)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3
EXIT_PRECONDITION = 4


def _parse_vector(text, exact):
    return tuple(parse_scalar(c, exact) for c in text.split(","))


def _parse_rows(text, exact):
    return tuple(_parse_vector(row, exact) for row in text.split(";") if row.strip())


def _rotation_generator(n, exact):
    if n not in (1, 2, 3, 4, 6):
        raise ValueError(f"unsupported rotation order {n}; use 1,2,3,4,6")
    if not exact:
        a = 2 * math.pi / n
        return Isometry(((math.cos(a), -math.sin(a)), (math.sin(a), math.cos(a))),
                        (0.0, 0.0))
    half = Fraction(1, 2)
    zero, one = Fraction(0), Fraction(1)
    mats = {
        1: ((one, zero), (zero, one)),
        2: ((-one, zero), (zero, -one)),
        4: ((zero, -one), (one, zero)),
        3: ((-half, -quadext(0, half, 3)), (quadext(0, half, 3), -half)),
        6: ((half, -quadext(0, half, 3)), (quadext(0, half, 3), half)),
    }
    return Isometry(mats[n], (zero, zero))


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _emit(report, out_path):
    if out_path:
        report.write(out_path)
    else:
        sys.stdout.write(report.render())


def _eps(args):
    """--tolerance, which counts only with --numeric-mode float; None if unset."""
    return args.tolerance if args.numeric_mode == "float" else None


def _load(args):
    return read_point_set(args.input, eps_abs=_eps(args))


def _start_report(cmd, handle, input_path):
    # the file's numeric header, not --numeric-mode, decides the arithmetic
    rep = Report(cmd)
    rep.kv("input", input_path)
    rep.kv("input_sha256", file_sha256(input_path))
    rep.kv("numeric_mode", handle.tol.mode)
    return rep


# ---------------------------------------------------------------------------
# subcommands

def cmd_generate(args):
    from .generators import (CrystalSpec, ShiftSequence, ShiftedRowSpec,
                             gen_coset_union, gen_crystal, gen_lattice,
                             gen_shifted_rows)
    exact = args.numeric_mode == "exact"
    needs = {"lattice": ("basis",), "coset-union": ("basis", "half_vectors"),
             "crystal": ("basis", "motif"), "shifted-rows": ("seq",)}[args.family]
    if any(getattr(args, flag) is None for flag in needs):
        raise ValueError(f"generate {args.family} needs --"
                         + " and --".join(needs).replace("_", "-"))
    if args.family == "shifted-rows" and not exact:
        raise ValueError("shifted-rows generation is exact-only; for float rows pass the points "
                         "of gen_shifted_rows to build_window(..., tol=Tolerance.floating())")
    eps = _eps(args)
    tol = Tolerance(args.numeric_mode, 1e-9 if eps is None else eps)
    extent = parse_scalar(args.extent, exact) if args.extent else None
    if args.family == "lattice":
        handle = gen_lattice(Lattice(_parse_rows(args.basis, exact)),
                             extent=extent, tol=tol)
    elif args.family == "coset-union":
        handle = gen_coset_union(Lattice(_parse_rows(args.basis, exact)),
                                 _parse_rows(args.half_vectors, exact),
                                 extent=extent, tol=tol)
    elif args.family == "crystal":
        gens = []
        if args.rotation != 1:
            gens.append(_rotation_generator(args.rotation, exact))
        if args.mirror:
            gens.append(Isometry(((1, 0), (0, -1)), (0, 0)))
        spec = CrystalSpec(lattice=Lattice(_parse_rows(args.basis, exact)),
                           generators=tuple(gens),
                           motif=_parse_rows(args.motif, exact))
        handle = gen_crystal(spec, extent=extent, tol=tol)
    else:  # shifted-rows
        spec = ShiftedRowSpec(
            a=parse_scalar(args.a, True), b=parse_scalar(args.b, True),
            c=parse_scalar(args.c, True),
            sequence=ShiftSequence.parse(args.seq),
            extent=parse_scalar(args.extent or "3", True))
        handle = gen_shifted_rows(spec)
    write_point_set(handle, args.out)
    sys.stdout.write(f"wrote {args.out} ({handle.mode}, d={handle.dim})\n")
    return EXIT_OK


def cmd_analyze(args):
    handle = _load(args)
    rep = _start_report("analyze", handle, args.input)
    exact = handle.tol.exact
    try:
        params = delone_params(handle)
    except WindowTooSmallError as exc:
        rep.kv("warning", f"window too small, partial report: {exc}")
        _emit(rep, args.out)
        return EXIT_OK
    rep.scalar("r", params.r, exact)
    rep.kv("r_exactness", params.r_exactness)
    rep.scalar("R", params.R, exact)
    rep.kv("R_exactness", params.R_exactness)
    warning = None
    last_rho = None
    try:
        if args.rho:
            radii = [parse_radius(tok, exact) for tok in args.rho.split(",")]
            rep.section("n_table")
            rep.row("rho", "rho_float", "N")
            for rho in radii:
                part = classify(handle, rho)
                rep.row(format_scalar(rho, exact), f"{float(rho):.9g}", part.n)
            last_rho = radii[-1]
        else:
            rho_max = parse_radius(args.rho_max, exact) if args.rho_max \
                else params.R * 4
            capacity = handle.capacity()
            if capacity is not None:
                cap_r = as_radius(capacity, handle.tol)
                if rho_max > cap_r:
                    rho_max = cap_r
                    warning = "window limits the profile to rho <= capacity"
            prof = n_profile(handle, rho_max)
            rep.section("n_profile")
            rep.row("rho", "rho_float", "N")
            for b, v in zip(prof.breakpoints, prof.values):
                rep.row(format_scalar(b, exact), f"{float(b):.9g}", v)
            last_rho = rho_max
        part = classify(handle, last_rho)
        rep.section("classes")
        rep.row("class", "members", "M")
        for (idx, order) in group_orders_by_class(part):
            rep.row(idx + 1, len(part.classes[idx].members), order)
    except WindowTooSmallError as exc:
        warning = f"window too small, partial report: {exc}"
    if warning:
        rep.kv("warning", warning)
    _emit(rep, args.out)
    return EXIT_OK


def cmd_certify(args):
    handle = _load(args)
    rep = _start_report("certify", handle, args.input)
    exact = handle.tol.exact
    rep.kv("criterion", args.criterion)
    if args.rho0:
        rho0 = parse_radius(args.rho0, exact)
        if args.criterion == "regular":
            result = check_regular_criterion(handle, rho0)
        else:
            result = check_crystal_criterion(handle, rho0, group_mode=args.group_mode)
    else:
        result = certify_auto(handle, args.criterion, cap_mult=args.rho_cap,
                              group_mode=args.group_mode)
    verdict = result.verdict
    if result.window_limited and verdict == "satisfied":
        rep.kv("verdict", "satisfied-on-window")
    else:
        rep.kv("verdict", verdict)
    rep.scalar("rho0", result.rho0, exact)
    if result.n_at_rho0 is not None:
        rep.kv("n_at_rho0", result.n_at_rho0)
    if result.n_at_rho0_plus_2r is not None:
        rep.kv("n_at_rho0_plus_2R", result.n_at_rho0_plus_2r)
    if result.m is not None:
        rep.kv("m", result.m)
    if result.group_check:
        rep.section("group_check")
        rep.row("class", "M_rho0", "M_rho0_plus_2R", "equal")
        for idx, m_lo, m_hi, eq in result.group_check:
            rep.row(idx + 1, "inf" if m_lo is None else m_lo,
                    "inf" if m_hi is None else m_hi, "yes" if eq else "no")
    if result.witnesses:
        rep.section("witness_classes")
        for w in result.witnesses:
            rep.row(*(format_scalar(c, exact) for c in w))
    for note in result.notes:
        rep.kv("note", note)
    _emit(rep, args.out)
    return EXIT_INCONCLUSIVE if verdict == "inconclusive-window" else EXIT_OK


def cmd_decompose(args):
    handle = _load(args)
    rep = _start_report("decompose", handle, args.input)
    exact = handle.tol.exact
    dec = antipodal_lattice_decomposition(handle)
    rep.kv("n", dec.n)
    rep.kv("window_limited", "yes" if dec.window_limited else "no")
    rep.section("lattice_basis")
    for row in dec.lattice.reduced:
        rep.row(*(format_scalar(c, exact) for c in row))
    rep.section("half_vectors")
    for v in dec.half_vectors:
        rep.row(*(format_scalar(c, exact) for c in v))
    _emit(rep, args.out)
    return EXIT_OK


def cmd_reconstruct(args):
    handle = _load(args)
    rep = _start_report("reconstruct", handle, args.input)
    exact = handle.tol.exact
    center = _parse_vector(args.center, exact)
    params = delone_params(handle)
    seed_rho = parse_radius(args.seed_rho, exact) if args.seed_rho \
        else params.R * 2
    rho_max = parse_radius(args.rho_max, exact)
    seed = cluster(handle, center, seed_rho)
    pts = reconstruct_from_2R_cluster(seed, rho_max, tol=handle.tol,
                                      max_points=args.seed_cap)
    rep.kv("seed_points", seed.size)
    rep.scalar("seed_rho", seed_rho, exact)
    rep.scalar("rho_max", rho_max, exact)
    rep.kv("reconstructed_points", len(pts))
    if args.points_out:
        bounds = _ball_bbox(center, rho_max, exact)
        out_handle = build_window(pts, bounds, tol=handle.tol)
        write_point_set(out_handle, args.points_out)
        rep.kv("points_out", args.points_out)
    if args.compare:
        other = read_point_set(args.compare)
        truth = [p for _, p in other.points_in_ball(center, rho_max)]
        found = handle.tol.point_set(truth)
        match = len(truth) == len(pts) and all(p in found for p in pts)
        rep.kv("compare", args.compare)
        rep.kv("match", "true" if match else "false")
    _emit(rep, args.out)
    return EXIT_OK


def _ball_bbox(center, rho, exact):
    if exact:
        r_up = Fraction(math.ceil(float(rho) * 10**6), 10**6)  # rational cover of rho
        return (tuple(c - r_up for c in center), tuple(c + r_up for c in center))
    return (tuple(c - rho for c in center), tuple(c + rho for c in center))


def cmd_plot(args):
    from .svg import render_svg
    handle = _load(args)
    if handle.dim != 2:
        raise ValueError("plot requires a 2-d point set")
    exact = handle.tol.exact
    rho = parse_radius(args.rho, exact) if args.rho else None
    chain_ends = None
    if args.chain_from or args.chain_to:
        if not (args.chain_from and args.chain_to):
            raise ValueError("chains mode needs both --chain-from and --chain-to")
        chain_ends = (_parse_vector(args.chain_from, exact),
                      _parse_vector(args.chain_to, exact))
    center = _parse_vector(args.center, exact) if args.center else None
    extent = parse_scalar(args.extent, exact) if args.extent else None
    svg = render_svg(handle, highlight=args.highlight, rho=rho,
                     chain_ends=chain_ends, center=center, extent=extent)
    atomic_write(args.out, svg)
    sys.stdout.write(f"wrote {args.out}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(
        prog="delone",
        description="Local cluster statistics and global-structure certificates "
                    "for Delone point sets.")
    p.add_argument("--numeric-mode", choices=("exact", "float"), default="exact")
    p.add_argument("--tolerance", type=float, default=None,
                   help="absolute tolerance for float mode (default 1e-9)")
    p.add_argument("--seed-cap", type=_positive_int, default=None,
                   help="max points a reconstruction may generate")
    p.add_argument("--rho-cap", type=_positive_int, default=6,
                   help="auto certify scans rho0 up to rho-cap * R")
    sub = p.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("generate", help="write a fixture point-set file")
    g.add_argument("family", choices=("lattice", "coset-union", "crystal", "shifted-rows"))
    g.add_argument("--basis", help="basis rows, e.g. '1,0;0,1'")
    g.add_argument("--half-vectors", help="lattice vectors, e.g. '0,0;1,0;0,1'")
    g.add_argument("--motif", help="motif points, e.g. '3/10,1/10'")
    g.add_argument("--rotation", type=int, default=1, help="point-group rotation order")
    g.add_argument("--mirror", action="store_true", help="add the x-axis mirror")
    g.add_argument("--a", default="1/5")
    g.add_argument("--b", default="1")
    g.add_argument("--c", default="1/20")
    g.add_argument("--seq", help="shift sequence, e.g. RLLRLR")
    g.add_argument("--extent", help="window half-width (or x half-width for rows)")
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    a = sub.add_parser("analyze", help="r, R, N(rho) table and group orders")
    a.add_argument("input")
    a.add_argument("--rho", help="comma-separated radii; default: spectrum profile")
    a.add_argument("--rho-max", help="profile cutoff (default 4R)")
    a.add_argument("--out")
    a.set_defaults(func=cmd_analyze)

    c = sub.add_parser("certify", help="run the regular-system or crystal criterion")
    c.add_argument("input")
    c.add_argument("--criterion", choices=("regular", "crystal"), required=True)
    c.add_argument("--rho0", help="radius rho0; omit to auto-scan")
    c.add_argument("--group-mode", choices=("representative", "all"),
                   default="representative")
    c.add_argument("--out")
    c.set_defaults(func=cmd_certify)

    d = sub.add_parser("decompose", help="lattice-coset decomposition of an "
                                         "antipodal set")
    d.add_argument("input")
    d.add_argument("--out")
    d.set_defaults(func=cmd_decompose)

    r = sub.add_parser("reconstruct", help="rebuild a set from one 2R-cluster")
    r.add_argument("input")
    r.add_argument("--center", required=True)
    r.add_argument("--rho-max", required=True)
    r.add_argument("--seed-rho", help="seed radius (default 2R)")
    r.add_argument("--compare", help="point-set file to compare against")
    r.add_argument("--points-out", help="write reconstructed points here")
    r.add_argument("--out")
    r.set_defaults(func=cmd_reconstruct)

    pl = sub.add_parser("plot", help="render an SVG figure")
    pl.add_argument("input")
    pl.add_argument("--out", required=True)
    pl.add_argument("--highlight", choices=("classes", "chains", "clusters"),
                    default="classes")
    pl.add_argument("--rho")
    pl.add_argument("--chain-from")
    pl.add_argument("--chain-to")
    pl.add_argument("--center")
    pl.add_argument("--extent")
    pl.set_defaults(func=cmd_plot)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PointSetFormatError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (WindowTooSmallError,) as exc:
        sys.stderr.write(f"inconclusive: {exc}\n")
        return EXIT_INCONCLUSIVE
    except (NotAntipodalError, TruncationError, NotImplementedError,
            InfiniteGroupError, ExactComparisonError, DecompositionError,
            ReconstructionError, ConvergenceError) as exc:
        sys.stderr.write(f"precondition violated: {exc}\n")
        return EXIT_PRECONDITION
    except OverflowError as exc:
        sys.stderr.write(f"precondition violated: a value is out of float range ({exc})\n")
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
