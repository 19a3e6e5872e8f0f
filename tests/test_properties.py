"""Randomized structural properties over generated fixture families.

One seeded suite of >= 100 trials covering: monotone N(rho) profiles,
group shrinkage (S_x(rho + delta) is a subgroup of S_x(rho)), witness
orthogonality within 1e-9, cluster-group closure, and strict 2R-chain
gaps.
"""

import random
from fractions import Fraction as F

from delone.classify import classify, cluster_group_of, n_profile
from delone.generators import (CrystalSpec, ShiftSequence, ShiftedRowSpec,
                               gen_coset_union, gen_crystal, gen_lattice,
                               gen_shifted_rows)
from delone.geometry import Isometry, Lattice, mat_mul, mat_t
from delone.scalars import Radical, ssign
from delone.sets import cluster, delone_params, two_r_chain

from oracles import check_matrix_closure

ROT90 = Isometry(((F(0), F(-1)), (F(1), F(0))), (F(0), F(0)))
MIRROR = Isometry(((F(1), F(0)), (F(0), F(-1))), (F(0), F(0)))


def _random_lattice(rng):
    while True:
        a = F(rng.randint(2, 6), rng.randint(1, 3))
        b = F(rng.randint(-2, 2), rng.randint(1, 3))
        c = F(rng.randint(2, 6), rng.randint(1, 3))
        try:
            return Lattice(((a, F(0)), (b, c)))
        except ValueError:
            continue


def _random_handle(rng):
    kind = rng.choice(("lattice", "lattice", "cosets", "crystal", "rows"))
    if kind == "lattice":
        return gen_lattice(_random_lattice(rng))
    if kind == "cosets":
        lat = Lattice(((F(rng.randint(1, 2)), F(0)), (F(0), F(rng.randint(1, 2)))))
        others = [(F(1), F(0)), (F(0), F(1)), (F(1), F(1))]
        rng.shuffle(others)
        picks = [(F(0), F(0))] + others[:rng.randint(0, 2)]
        diag = (lat.basis[0][0], lat.basis[1][1])
        vecs = [tuple(x * y for x, y in zip(v, diag)) for v in picks]
        return gen_coset_union(lat, vecs)
    if kind == "crystal":
        lat = Lattice(((F(1), F(0)), (F(0), F(1))))
        gens = rng.choice(((ROT90,), (MIRROR,), (ROT90, MIRROR)))
        motif = ((F(rng.randint(1, 4), 10), F(rng.randint(1, 4), 10)),)
        return gen_crystal(CrystalSpec(lattice=lat, generators=gens, motif=motif))
    word = "".join(rng.choice("LR") for _ in range(2))
    return gen_shifted_rows(ShiftedRowSpec(sequence=ShiftSequence.parse(word),
                                           extent=F(2)))


def _usable_rho_max(handle):
    params = delone_params(handle)
    rho = params.R * 2 + params.r
    cap = handle.capacity()
    if cap is not None:
        cap_r = Radical.of(cap)
        if rho.cmp(cap_r) > 0:
            rho = cap_r
    return rho


def test_randomized_structural_suite():
    rng = random.Random(20260809)
    trials = 0
    for round_no in range(34):
        handle = _random_handle(rng)
        params = delone_params(handle)
        rho_max = _usable_rho_max(handle)

        # property 1: N(rho) profile is non-decreasing
        prof = n_profile(handle, rho_max)
        assert list(prof.values) == sorted(prof.values)
        trials += 1

        # property 2 + 4: group shrinkage and closure
        x = sorted(handle.population(rho_max))[0]
        big = cluster(handle, x, rho_max)
        small = cluster(handle, x, params.R * 2 if handle.mode == "periodic"
                        else rho_max * F(3, 4))
        g_big = cluster_group_of(big, handle.tol)
        g_small = cluster_group_of(small, handle.tol)
        assert g_big.is_subgroup_of(g_small)
        assert g_small.order % g_big.order == 0
        check_matrix_closure(g_big)
        trials += 1

        # property 3: witness isometries are orthogonal to 1e-9
        part = classify(handle, rho_max)
        for cl in part.classes:
            for w in cl.witnesses:
                q = mat_mul(mat_t(w.linear), w.linear)
                dev = max(abs(float(q[i][j]) - (1.0 if i == j else 0.0))
                          for i in range(handle.dim) for j in range(handle.dim))
                assert dev <= 1e-9
        trials += 1

        # property 5: chain gaps strictly below 2R
        pop = sorted(handle.population(rho_max))
        y = pop[-1]
        if handle.mode == "periodic":
            y = tuple(a + b for a, b in zip(x, handle.lattice.reduced[0]))
        chain = two_r_chain(handle, x, y)
        bound2 = 4 * delone_params(handle).R.square_scalar()
        for g2 in chain.gaps_sq():
            assert ssign(bound2 - g2) > 0
        trials += 1
    assert trials >= 100, trials
