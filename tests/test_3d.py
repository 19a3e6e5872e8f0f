"""Three-dimensional sanity coverage: the machinery is dimension-generic."""

from fractions import Fraction as F

from delone.classify import classify, cluster_group
from delone.criteria import (antipodal_lattice_decomposition,
                             check_regular_criterion, is_locally_antipodal)
from delone.scalars import Radical, ssign
from delone.sets import build_periodic, cluster, delone_params, two_r_chain

Z3_BASIS = ((F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1)))
ORIGIN = (F(0), F(0), F(0))


def _z3():
    return build_periodic(Z3_BASIS, [ORIGIN])


def test_z3_parameters():
    params = delone_params(_z3())
    assert params.r == Radical.of(F(1, 2))
    assert params.R == Radical.sqrt(F(3, 4))  # half the cube diagonal


def test_z3_clusters():
    z3 = _z3()
    assert cluster(z3, ORIGIN, 1).size == 7        # 6 face neighbors
    assert cluster(z3, ORIGIN, Radical.sqrt(2)).size == 19
    assert cluster(z3, ORIGIN, Radical.sqrt(3)).size == 27


def test_z3_cluster_group_order():
    # full cube symmetry
    assert cluster_group(_z3(), ORIGIN, 1).order == 48


def test_z3_regular_criterion():
    z3 = _z3()
    two_r = delone_params(z3).R * 2
    report = check_regular_criterion(z3, two_r)
    assert report.verdict == "satisfied"
    assert report.group_check[0][1] == 48


def test_z3_chain():
    z3 = _z3()
    chain = two_r_chain(z3, ORIGIN, (F(2), F(1), F(0)))
    bound2 = 4 * delone_params(z3).R.square_scalar()
    assert all(ssign(bound2 - g) > 0 for g in chain.gaps_sq())


def test_bcc_absorbed_into_finer_lattice():
    bcc = build_periodic(Z3_BASIS, [ORIGIN, (F(1, 2), F(1, 2), F(1, 2))])
    assert is_locally_antipodal(bcc).all_antipodal
    dec = antipodal_lattice_decomposition(bcc)
    assert dec.n == 1
    assert abs(dec.lattice.det) == F(1, 2)


def test_three_coset_decomposition_3d():
    handle = build_periodic(Z3_BASIS, [ORIGIN,
                                       (F(1, 2), F(0), F(0)),
                                       (F(0), F(1, 2), F(0)),
                                       (F(0), F(0), F(1, 2))])
    assert is_locally_antipodal(handle).all_antipodal
    dec = antipodal_lattice_decomposition(handle)
    assert dec.n == 4 <= 2 ** 3 - 1
    assert classify(handle, delone_params(handle).R * 2).n >= 2
