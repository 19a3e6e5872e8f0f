import math
import os
import subprocess
import sys

import pytest

import delone
from delone.cli import main
from delone.fileio import read_point_set


def run(tmp_path, *argv):
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        return main(list(argv))
    finally:
        os.chdir(cwd)


@pytest.fixture()
def z2_file(tmp_path):
    assert run(tmp_path, "generate", "lattice", "--basis", "1,0;0,1",
               "--out", "z2.ps") == 0
    return str(tmp_path / "z2.ps")


def test_generate_families(tmp_path):
    assert run(tmp_path, "generate", "lattice", "--basis", "1,0;1/2,1/2*sqrt(3)",
               "--out", "tri.ps") == 0
    assert run(tmp_path, "generate", "coset-union", "--basis", "1,0;0,1",
               "--half-vectors", "0,0;1,0;0,1", "--out", "fix.ps") == 0
    assert run(tmp_path, "generate", "crystal", "--basis", "1,0;0,1",
               "--motif", "3/10,1/10", "--rotation", "4", "--out", "cr.ps") == 0
    assert run(tmp_path, "generate", "shifted-rows", "--a", "1/5", "--b", "1",
               "--c", "1/20", "--seq", "RLLRL", "--out", "rows.ps") == 0


def test_generate_rejects_full_coset_family(tmp_path):
    rc = run(tmp_path, "generate", "coset-union", "--basis", "1,0;0,1",
             "--half-vectors", "0,0;1,0;0,1;1,1", "--out", "bad.ps")
    assert rc == 2


def test_analyze(tmp_path, z2_file, capsys):
    assert run(tmp_path, "analyze", z2_file, "--rho", "1,sqrt(2),2") == 0
    out = capsys.readouterr().out
    assert "r = 1/2" in out
    assert "R = sqrt(1/2)" in out
    assert "R_exactness = exact" in out
    table = out.split("[n_table]")[1].split("[classes]")[0]
    rows = [l.split() for l in table.strip().splitlines()[1:]]
    assert [r[0] for r in rows] == ["1", "sqrt(2)", "2"]
    assert all(r[-1] == "1" for r in rows)  # N = 1 everywhere


def test_analyze_profile_reports(tmp_path, z2_file, capsys):
    assert run(tmp_path, "analyze", z2_file) == 0
    out = capsys.readouterr().out
    assert "[n_profile]" in out and "[classes]" in out
    assert "1 1 8" in out  # one class, M = 8


def test_certify_regular(tmp_path, z2_file, capsys):
    assert run(tmp_path, "certify", z2_file, "--criterion", "regular") == 0
    out = capsys.readouterr().out
    assert "verdict = satisfied" in out


def test_certify_crystal_rho0_given(tmp_path, z2_file, capsys):
    assert run(tmp_path, "certify", z2_file, "--criterion", "crystal",
               "--rho0", "1") == 0
    out = capsys.readouterr().out
    assert "verdict = satisfied" in out and "m = 1" in out


def test_certify_inconclusive_window_exit3(tmp_path, capsys):
    assert run(tmp_path, "generate", "lattice", "--basis", "1,0;0,1",
               "--extent", "2", "--out", "tiny.ps") == 0
    rc = run(tmp_path, "certify", str(tmp_path / "tiny.ps"),
             "--criterion", "regular")
    assert rc == 3


def test_decompose_and_exit4(tmp_path, capsys):
    assert run(tmp_path, "generate", "coset-union", "--basis", "1,0;0,1",
               "--half-vectors", "0,0;1,0;0,1", "--out", "fix.ps") == 0
    assert run(tmp_path, "decompose", str(tmp_path / "fix.ps")) == 0
    out = capsys.readouterr().out
    assert "n = 3" in out
    # honeycomb is not locally antipodal: precondition exit code
    assert run(tmp_path, "generate", "lattice", "--basis", "1,0;0,1",
               "--out", "z.ps") == 0
    hc = tmp_path / "hc.ps"
    hc.write_text("\n".join([
        "dim = 2", "mode = periodic", "numeric = exact",
        "[basis]", "3/2 1/2*sqrt(3)", "0 sqrt(3)",
        "[motif]", "0 0", "1 0", ""]))
    assert run(tmp_path, "decompose", str(hc)) == 4


def test_decompose_float_window_exit4(tmp_path, capsys):
    # a float window cannot be decomposed (it needs exact coordinates):
    # a documented exit code and a one-line message, not a traceback
    assert run(tmp_path, "--numeric-mode", "float", "generate", "lattice",
               "--basis", "1,0;0,1", "--extent", "3", "--out", "fw.ps") == 0
    capsys.readouterr()
    assert run(tmp_path, "--numeric-mode", "float", "decompose",
               str(tmp_path / "fw.ps")) == 4
    err = capsys.readouterr().err
    assert err.startswith("precondition violated: ")
    assert "Traceback" not in err


def test_decompose_float_window_is_refused_before_its_translations(tmp_path, capsys):
    # this window is too small to span its invariant translations (exact:
    # exit 3), but a float window is refused for its mode first
    assert run(tmp_path, "--numeric-mode", "float", "generate", "coset-union",
               "--basis", "1,0;0,4", "--half-vectors", "0,0;1,0;0,4", "--extent", "3",
               "--out", "cw.ps") == 0
    capsys.readouterr()
    assert run(tmp_path, "--numeric-mode", "float", "decompose", "cw.ps") == 4
    assert capsys.readouterr().err == ("precondition violated: window decomposition "
                                       "requires exact coordinates\n")


def test_reconstruct_roundtrip(tmp_path, capsys):
    assert run(tmp_path, "generate", "coset-union", "--basis", "1,0;0,1",
               "--half-vectors", "0,0;1,0;0,1", "--out", "fix.ps") == 0
    rc = run(tmp_path, "reconstruct", str(tmp_path / "fix.ps"),
             "--center", "0,0", "--rho-max", "4",
             "--compare", str(tmp_path / "fix.ps"),
             "--points-out", str(tmp_path / "rec.ps"))
    assert rc == 0
    out = capsys.readouterr().out
    assert "match = true" in out
    assert (tmp_path / "rec.ps").exists()


def test_reconstruct_non_dyadic_float_seed(tmp_path, capsys):
    # float tenths: the closure must merge rounded copies of one point
    assert run(tmp_path, "--numeric-mode", "float", "generate", "crystal",
               "--basis", "1,0;0,1", "--motif", "0.1,0.1;0.6,0.1;0.1,0.6",
               "--out", "f.ps") == 0
    capsys.readouterr()
    assert run(tmp_path, "reconstruct", "f.ps", "--center", "0.1,0.1",
               "--rho-max", "3", "--compare", "f.ps") == 0
    out = capsys.readouterr().out
    assert "reconstructed_points = 81\n" in out
    assert "match = true\n" in out


def test_reconstruct_non_antipodal_exit4(tmp_path):
    hc = tmp_path / "hc.ps"
    hc.write_text("\n".join([
        "dim = 2", "mode = periodic", "numeric = exact",
        "[basis]", "3/2 1/2*sqrt(3)", "0 sqrt(3)",
        "[motif]", "0 0", "1 0", ""]))
    assert run(tmp_path, "reconstruct", str(hc), "--center", "0,0",
               "--rho-max", "3") == 4


def test_reconstruct_over_seed_cap_exit4(tmp_path, capsys):
    # a cap below the points a seed rebuilds: exit 4 with the message
    assert run(tmp_path, "generate", "coset-union", "--basis", "1,0;0,1",
               "--half-vectors", "0,0;1,0;0,1", "--out", "fix.ps") == 0
    capsys.readouterr()
    assert run(tmp_path, "--seed-cap", "3", "reconstruct", "fix.ps",
               "--center", "0,0", "--rho-max", "5") == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("precondition violated: reconstruction exceeded its "
                            "cap of 3 points\n")


def test_reconstruct_non_member_center_prints_file_scalars(tmp_path, capsys):
    # the fixture translated by (2/5, 9/10) does not contain the origin
    assert run(tmp_path, "generate", "crystal", "--basis", "1,0;0,1",
               "--motif", "2/5,9/10;9/10,9/10;2/5,7/5", "--out", "tfix.ps") == 0
    capsys.readouterr()
    assert run(tmp_path, "reconstruct", "tfix.ps", "--center", "0,0",
               "--rho-max", "3") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: point (0, 0) is not in the set\n"
    assert run(tmp_path, "reconstruct", "tfix.ps", "--center", "1/2,1/3",
               "--rho-max", "3") == 2
    assert capsys.readouterr().err == "error: point (1/2, 1/3) is not in the set\n"


def test_decompose_non_antipodal_prints_file_scalars(tmp_path, capsys):
    # the honeycomb: a Q(sqrt 3) set whose 2R-clusters are not antipodal
    assert run(tmp_path, "generate", "crystal", "--basis", "1,0;1/2,1/2*sqrt(3)",
               "--motif", "0,0;1/2,1/6*sqrt(3)", "--out", "hc.ps") == 0
    capsys.readouterr()
    assert run(tmp_path, "decompose", "hc.ps") == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("precondition violated: set is not locally "
                            "antipodal at (0, 0)\n")


def test_reconstruct_non_antipodal_seed_prints_file_scalars(tmp_path, capsys):
    # the sixfold orbit of (1/3, 0) mod the triangular lattice: its seed
    # cluster is not antipodal
    assert run(tmp_path, "generate", "crystal", "--basis", "1,0;1/2,1/2*sqrt(3)",
               "--rotation", "6", "--motif", "1/3,0", "--out", "t6.ps") == 0
    capsys.readouterr()
    assert run(tmp_path, "reconstruct", "t6.ps", "--center", "1/3,0",
               "--rho-max", "3") == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "(-2/3, 0)" in captured.err
    assert "Fraction(" not in captured.err


def test_boundary_message_prints_file_scalars(tmp_path, capsys):
    # a center whose 2R-ball leaves the fixture window of extent 4
    assert run(tmp_path, "generate", "coset-union", "--basis", "1,0;0,1",
               "--half-vectors", "0,0;1,0;0,1", "--extent", "4",
               "--out", "fixw4.ps") == 0
    capsys.readouterr()
    assert run(tmp_path, "reconstruct", "fixw4.ps", "--center", "4,7/2",
               "--rho-max", "2") == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("precondition violated: point (4, 7/2) is within 1 "
                            "of the window boundary\n")


def test_decompose_quadratic_field_window_exit4(tmp_path, capsys):
    # a valid Q(sqrt 3) window whose invariant translations are irrational:
    # unsupported (exit 4), not a usage error
    assert run(tmp_path, "generate", "lattice", "--basis", "1,0;1/2,1/2*sqrt(3)",
               "--extent", "3", "--out", "triw3.ps") == 0
    capsys.readouterr()
    assert run(tmp_path, "decompose", "triw3.ps") == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("precondition violated: window decomposition requires "
                            "rational invariant translations\n")


@pytest.mark.parametrize("flag", ["--rho-cap", "--seed-cap"])
@pytest.mark.parametrize("value", ["-1", "0", "1.5", "two"])
def test_caps_must_be_positive_integers(tmp_path, capsys, flag, value):
    assert run(tmp_path, "generate", "coset-union", "--basis", "1,0;0,1",
               "--half-vectors", "0,0;1,0;0,1", "--out", "fix.ps") == 0
    capsys.readouterr()
    argv = (["certify", "fix.ps", "--criterion", "crystal"] if flag == "--rho-cap"
            else ["reconstruct", "fix.ps", "--center", "0,0", "--rho-max", "2"])
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, flag, value, *argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{flag}: expected a positive integer" in captured.err


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("order", ["0", "-4"])
def test_unsupported_rotation_orders_exit2(tmp_path, capsys, mode, order):
    # 0 used to write an unrotated crystal, and 0 in float mode divided by zero
    rc = run(tmp_path, "--numeric-mode", mode, "generate", "crystal", "--basis", "1,0;0,1",
             "--motif", "3/10,1/10", "--rotation", order, "--out", "cr.ps")
    assert rc == 2
    assert not (tmp_path / "cr.ps").exists()
    assert capsys.readouterr().err == (f"error: unsupported rotation order {order}; "
                                       "use 1,2,3,4,6\n")


def test_float_crystal_rotation_and_mirror_match_the_exact_motif(tmp_path):
    # the float rotation matrix and float mirror of generate crystal
    for mode, motif in (("exact", "3/10,1/10"), ("float", "0.3,0.1")):
        assert run(tmp_path, "--numeric-mode", mode, "generate", "crystal",
                   "--basis", "1,0;0,1", "--rotation", "4", "--mirror",
                   "--motif", motif, "--out", f"cr_{mode}.ps") == 0
    want, got = (sorted(tuple(map(float, p)) for p in
                        read_point_set(str(tmp_path / f"cr_{mode}.ps")).motif)
                 for mode in ("exact", "float"))
    assert len(want) == len(got) == 8
    assert all(math.dist(p, q) <= 1e-12 for p, q in zip(want, got))


def test_plot_modes_and_determinism(tmp_path, z2_file):
    svg1 = tmp_path / "a.svg"
    svg2 = tmp_path / "b.svg"
    for out in (svg1, svg2):
        assert run(tmp_path, "plot", z2_file, "--out", str(out),
                   "--highlight", "classes", "--extent", "3") == 0
    assert svg1.read_bytes() == svg2.read_bytes()
    assert b"<svg" in svg1.read_bytes()
    assert run(tmp_path, "plot", z2_file, "--out", str(tmp_path / "c.svg"),
               "--highlight", "chains", "--chain-from", "0,0",
               "--chain-to", "3,2", "--extent", "4") == 0
    assert run(tmp_path, "plot", z2_file, "--out", str(tmp_path / "d.svg"),
               "--highlight", "clusters", "--center", "0,0", "--rho", "sqrt(2)",
               "--extent", "3") == 0


def test_plot_shifted_rows(tmp_path):
    assert run(tmp_path, "generate", "shifted-rows", "--seq", "RLL",
               "--extent", "2", "--out", "rows.ps") == 0
    out = tmp_path / "rows.svg"
    assert run(tmp_path, "plot", str(tmp_path / "rows.ps"), "--out", str(out),
               "--highlight", "classes", "--rho", "1") == 0
    svg = out.read_text()
    assert svg.count("<circle") > 100  # the offset rows are all drawn


def test_plot_rejects_3d(tmp_path):
    f = tmp_path / "z3.ps"
    f.write_text("\n".join([
        "dim = 3", "mode = periodic", "numeric = exact",
        "[basis]", "1 0 0", "0 1 0", "0 0 1",
        "[motif]", "0 0 0", ""]))
    assert run(tmp_path, "plot", str(f), "--out", str(tmp_path / "x.svg")) == 2


def test_parse_error_exit2(tmp_path):
    f = tmp_path / "junk.ps"
    f.write_text("not a point set\n")
    assert run(tmp_path, "analyze", str(f)) == 2


def test_zero_denominators_and_negative_radii_exit2(tmp_path, z2_file, capsys):
    text = open(z2_file, encoding="utf-8").read()
    bad = tmp_path / "bad.ps"
    bad.write_text(text.replace("[basis]\n1 0", "[basis]\n1/0 0"))
    assert run(tmp_path, "analyze", str(bad)) == 2
    for rho in ("1/0", "sqrt(1/0)", "-1", "sqrt(2)-2"):
        assert run(tmp_path, "analyze", z2_file, "--rho", rho) == 2
    assert run(tmp_path, "certify", z2_file, "--criterion", "regular",
               "--rho0", "-1") == 2
    assert run(tmp_path, "reconstruct", z2_file, "--center", "0,0",
               "--rho-max", "-1") == 2
    assert "Traceback" not in capsys.readouterr().err


def test_infinite_group_exit4(tmp_path, z2_file, capsys):
    # a single-point cluster in 2-d is fixed by all of O(2)
    assert run(tmp_path, "analyze", z2_file, "--rho", "2*sqrt(0)") == 4
    assert "precondition violated" in capsys.readouterr().err


def test_undecidable_radical_exit4(tmp_path, z2_file, capsys):
    # a five-term radical sum is beyond the exact sign kernel
    assert run(tmp_path, "analyze", z2_file, "--rho",
               "sqrt(2)+sqrt(3)+sqrt(5)+sqrt(7)+sqrt(11)") == 4
    err = capsys.readouterr().err
    assert "precondition violated" in err and "Traceback" not in err


def test_decomposition_error_exit4(tmp_path, monkeypatch, capsys):
    # no input known today reaches DecompositionError, so one is stood in
    from delone import cli
    from delone.criteria import DecompositionError

    def fail(handle):
        raise DecompositionError("half-vectors collide modulo 2*Lambda")

    assert run(tmp_path, "generate", "coset-union", "--basis", "1,0;0,1",
               "--half-vectors", "0,0;1,0;0,1", "--out", "fix.ps") == 0
    monkeypatch.setattr(cli, "antipodal_lattice_decomposition", fail)
    assert run(tmp_path, "decompose", "fix.ps") == 4
    assert "precondition violated: half-vectors" in capsys.readouterr().err


def test_4d_sets_get_their_voronoi_covering_radius(tmp_path, capsys):
    # every dimension runs the one Voronoi clip: Z^4 has R = 1 exactly, and
    # the extent-1 window has no vertex whose empty ball fits inside it
    basis = "1,0,0,0;0,1,0,0;0,0,1,0;0,0,0,1"
    assert run(tmp_path, "generate", "lattice", "--basis", basis, "--out", "z4.ps") == 0
    assert run(tmp_path, "generate", "lattice", "--basis", basis, "--extent", "1",
               "--out", "w4.ps") == 0
    capsys.readouterr()
    assert run(tmp_path, "analyze", "z4.ps", "--rho", "1") == 0
    out = capsys.readouterr().out.splitlines()
    assert "R = 1" in out and "R_exactness = exact" in out
    # one class, its group the 2^4 4! symmetries of the cross-polytope
    assert out[out.index("[classes]") + 1:] == ["class members M", "1 1 384"]
    assert run(tmp_path, "analyze", "w4.ps") == 0
    captured = capsys.readouterr()
    assert ("warning = window too small, partial report: no Voronoi vertex fits "
            "inside the trusted window") in captured.out.splitlines()
    assert run(tmp_path, "certify", "w4.ps", "--criterion", "regular") == 3
    captured2 = capsys.readouterr()
    assert captured2.err == "inconclusive: no Voronoi vertex fits inside the trusted window\n"
    assert "Traceback" not in captured.err + captured2.err


def test_report_files_deterministic(tmp_path, z2_file):
    r1, r2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
    for r in (r1, r2):
        assert run(tmp_path, "certify", z2_file, "--criterion", "regular",
                   "--out", str(r)) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_shifted_rows_certify_violated(tmp_path, capsys):
    assert run(tmp_path, "generate", "shifted-rows", "--seq", "RLLRLR",
               "--out", "rows.ps") == 0
    assert run(tmp_path, "certify", str(tmp_path / "rows.ps"),
               "--criterion", "regular") == 0
    out = capsys.readouterr().out
    assert "verdict = violated" in out
    assert "[witness_classes]" in out


@pytest.mark.parametrize("extent", [None, "9/4", "2.25"])
def test_float_shifted_rows_generation_exit2(tmp_path, capsys, extent):
    # the family is checked before any argument is parsed or any point built
    argv = ["--numeric-mode", "float", "generate", "shifted-rows", "--seq", "RLLRLR",
            "--out", "rows.ps"] + (["--extent", extent] if extent else [])
    assert run(tmp_path, *argv) == 2
    assert capsys.readouterr().err == (
        "error: shifted-rows generation is exact-only; for float rows pass the "
        "points of gen_shifted_rows to build_window(..., tol=Tolerance.floating())\n")
    assert not (tmp_path / "rows.ps").exists()


@pytest.mark.parametrize("family,flags", [("lattice", "--basis"),
                                          ("coset-union", "--basis and --half-vectors"),
                                          ("crystal", "--basis and --motif"),
                                          ("shifted-rows", "--seq")])
def test_generate_without_its_point_lists_exit2(tmp_path, capsys, family, flags):
    assert run(tmp_path, "generate", family, "--out", "set.ps") == 2
    assert capsys.readouterr().err == f"error: generate {family} needs {flags}\n"


def test_float_mode_cli(tmp_path, capsys):
    f = tmp_path / "fz2.ps"
    lines = ["dim = 2", "mode = window", "numeric = float", "margin = 0.0",
             "[bounds]", "-5.0 -5.0", "5.0 5.0", "[points]"]
    lines += [f"{float(i)} {float(j)}" for i in range(-5, 6) for j in range(-5, 6)]
    f.write_text("\n".join(lines) + "\n")
    assert run(tmp_path, "--numeric-mode", "float", "analyze", str(f),
               "--rho", "1.0") == 0
    out = capsys.readouterr().out
    assert "r_exactness = window-estimate" in out


def test_numeric_mode_follows_the_file(tmp_path, z2_file, capsys):
    # an exact file stays exact under --numeric-mode float, and says so
    assert run(tmp_path, "--numeric-mode", "float", "analyze", z2_file,
               "--rho", "1") == 0
    out = capsys.readouterr().out
    assert "numeric_mode = exact" in out
    assert "r = 1/2" in out


def test_zero_tolerance_exits_2_in_every_command(tmp_path, capsys):
    # --tolerance counts only with --numeric-mode float, and there 0 is no eps
    gen = ("generate", "lattice", "--basis", "1,0;0,1", "--extent", "2", "--out", "z2f.ps")
    assert run(tmp_path, "--numeric-mode", "float", *gen) == 0
    capsys.readouterr()
    for argv in (gen, ("analyze", "z2f.ps")):
        assert run(tmp_path, "--numeric-mode", "float", "--tolerance", "0", *argv) == 2
        assert capsys.readouterr().err == ("error: eps_abs must be positive and finite"
                                           " in floating mode\n")
    assert run(tmp_path, "--numeric-mode", "exact", "--tolerance", "0", *gen) == 0


def test_lll_non_termination_exit4(tmp_path, z2_file, monkeypatch, capsys):
    # LLL with delta > 1 swaps the basis vectors forever; loading the
    # lattice hits the iteration bound
    from fractions import Fraction

    from delone import geometry

    monkeypatch.setattr(geometry.lll_reduce, "__defaults__", (Fraction(2),))
    assert run(tmp_path, "analyze", z2_file) == 4
    err = capsys.readouterr().err
    assert "precondition violated: LLL failed to terminate" in err
    assert "Traceback" not in err


def test_two_r_chain_non_convergence_exit4(tmp_path, z2_file, monkeypatch, capsys):
    # no periodic input is known to exhaust the corridor widenings, so the
    # breadth-first search is made to find nothing
    from delone import sets

    monkeypatch.setattr(sets, "_bfs_chain", lambda *args, **kwargs: None)
    assert run(tmp_path, "plot", z2_file, "--out", str(tmp_path / "c.svg"),
               "--highlight", "chains", "--chain-from", "0,0",
               "--chain-to", "3,2", "--extent", "4") == 4
    err = capsys.readouterr().err
    assert "precondition violated: 2R-chain search failed to converge" in err
    assert "Traceback" not in err


def run_module(tmp_path, *argv, code=None):
    """A fresh interpreter: ``python -m delone.cli ARGV`` or ``python -c CODE``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(delone.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    args = ["-c", code] if code is not None else ["-m", "delone.cli", *argv]
    return subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)


def test_values_past_float_range_exit4(tmp_path):
    # the 4 x 4 Z^2 window scaled by 10**200: squared distances pass the
    # float range, so float filters overflow; that ends in exit 4, not a traceback
    from delone import build_window, write_point_set

    s = 10**200
    win = build_window([(i * s, j * s) for i in range(4) for j in range(4)],
                       ((0, 0), (3 * s, 3 * s)))
    write_point_set(win, str(tmp_path / "big.ps"))
    proc = run_module(tmp_path, "analyze", "big.ps")
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("precondition violated: ")
    assert proc.stderr.count("\n") == 1


def test_certify_loads_neither_generators_nor_svg(tmp_path, z2_file):
    proc = run_module(tmp_path, code=(
        "import sys\n"
        "from delone.cli import main\n"
        f"code = main(['certify', {z2_file!r}, '--criterion', 'regular'])\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('delone'))\n"
        "print(code, ' '.join(loaded))\n"))
    assert proc.returncode == 0, proc.stderr
    code, *loaded = proc.stdout.splitlines()[-1].split()
    assert code == "0"
    assert "delone.generators" not in loaded and "delone.svg" not in loaded
    assert {"delone.sets", "delone.classify", "delone.criteria"} <= set(loaded)


EXPORTS = (
    "QuadExt Radical quadext ConvergenceError Isometry Lattice Tolerance apply "
    "compose point_inversion points_equal identity translation Chain Cluster "
    "DeloneParams DistanceSpectrum PointSetHandle TruncationError "
    "WindowTooSmallError build_periodic build_window cluster covering_radius "
    "crop_to_window delone_params distance_spectrum packing_radius two_r_chain "
    "ClusterClass ClusterGroup ClusterPartition Fingerprint InfiniteGroupError "
    "NRhoProfile classify cluster_group cluster_group_of clusters_equivalent "
    "fingerprint group_orders_by_class n_profile AntipodalReport "
    "CosetDecomposition CriterionReport DecompositionError NotAntipodalError "
    "ReconstructionError antipodal_lattice_decomposition certify_auto "
    "check_crystal_criterion check_global_antipodality check_regular_criterion "
    "is_locally_antipodal reconstruct_from_2R_cluster CrystalSpec ShiftSequence "
    "ShiftedRowSpec gen_coset_union gen_crystal gen_lattice gen_shifted_rows "
    "honeycomb square_lattice three_coset_fixture triangular_lattice "
    "read_point_set write_point_set render_svg").split()


def test_package_exports_every_name(tmp_path):
    # generators and svg load on first use of one of their names
    proc = run_module(tmp_path, code=(
        "import sys, types\n"
        "import delone\n"
        "lazy = [m for m in ('delone.generators', 'delone.svg') if m in sys.modules]\n"
        f"missing = [n for n in {EXPORTS!r} if n not in dir(delone)"
        " or getattr(delone, n, None) is None]\n"
        "from delone import three_coset_fixture, render_svg\n"
        "from delone.classify import classify\n"
        "print(lazy, missing, delone.classify is classify,"
        " isinstance(delone.classify, types.ModuleType))\n"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "[]", "True", "False"]


def test_star_import_brings_every_name(tmp_path):
    # a star import reads __all__, never __getattr__ or __dir__, so the lazy
    # names must be listed there; a bare import still loads neither module
    proc = run_module(tmp_path, code=(
        "import sys\n"
        "import delone\n"
        "lazy = [m for m in ('delone.generators', 'delone.svg') if m in sys.modules]\n"
        "from delone import *\n"
        "square_lattice(); three_coset_fixture(); render_svg\n"
        f"missing = [n for n in {EXPORTS!r} if n not in globals()]\n"
        "print(lazy, missing)\n"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "[]"]


def test_unknown_package_names_raise_attribute_error():
    with pytest.raises(AttributeError):
        delone.no_such_name  # noqa: B018
