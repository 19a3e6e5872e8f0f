"""The immutable records of the package, built on ``geometry.Record``.

Every record class is checked for: construction by position, keyword and
default; TypeError on a missing, unknown or repeated field; AttributeError
on assignment and ``del``; equal hashes for equal values, and no equality
with a record of another class.  ``Cluster`` compares without its scale
and grid, cached properties still cache, every record survives copy,
deepcopy and pickle, and the ``__post_init__`` checks
that no other test reaches still reject bad input (the float eps is
checked in test_tolerance.py, the empty shift sequence in
test_generators.py).
"""

import copy
import pickle
from fractions import Fraction as F

import pytest

import delone
from delone import (AntipodalReport, Chain, Cluster, ClusterClass, ClusterGroup,
                    ClusterPartition, CosetDecomposition, CriterionReport,
                    CrystalSpec, DeloneParams, DistanceSpectrum, Fingerprint,
                    Isometry, Lattice, NRhoProfile, Radical, ShiftedRowSpec,
                    ShiftSequence, Tolerance, cluster, cluster_group, gen_lattice)
from delone.geometry import Record

EXACT = Tolerance()
Z2 = Lattice(((F(1), F(0)), (F(0), F(1))))
O = (F(0), F(0))
ROT90 = Isometry(((F(0), F(-1)), (F(1), F(0))), O)
PTS = (O, (F(1), F(0)))
CLUSTER = Cluster(O, F(1), PTS)


def samples():
    """(class, field values in declared order, number of required fields).
    Built fresh on every call, so two calls give equal, distinct values."""
    rows = [
        (Tolerance, ("float", 1e-6), 0),
        (Isometry, (((F(0), F(-1)), (F(1), F(0))), (F(1, 2), F(0))), 2),
        (DeloneParams, (F(1, 2), Radical.sqrt(F(1, 2)), "exact", "exact"), 4),
        (Cluster, (O, F(1), PTS, 2, ((0, 0), ((0, 0), (2, 0)))), 3),
        (DistanceSpectrum, (O, F(2), (F(1),)), 3),
        (Chain, ((O, (F(1), F(0))),), 1),
        (Fingerprint, (((1, (0, 1)),), 2), 1),
        (ClusterGroup, (O, F(1), (ROT90,), EXACT), 4),
        (ClusterClass, (CLUSTER, (O,), (ROT90,)), 3),
        (ClusterPartition, (F(1), ("class",), EXACT), 3),
        (NRhoProfile, ((F(0), F(1)), (1, 2)), 2),
        (CriterionReport, ("regular", "violated", F(1), 1, 2, None, ((0, 4, 2, False),),
                           (), True, ("note",)), 3),
        (AntipodalReport, (((O, True),), True, None, True), 3),
        (CosetDecomposition, (O, Z2, (O,), 1, True), 4),
        (ShiftSequence, (("R", "L"),), 1),
        (ShiftedRowSpec, (F(1, 4), F(2), F(1, 10), ShiftSequence(("L",)), F(2)), 0),
        (CrystalSpec, (Z2, (ROT90,), (O,)), 3),
    ]
    return [(cls, values, list(cls.__annotations__), required) for cls, values, required in rows]


CLASSES = [row[0] for row in samples()]


def _row(cls):
    return next(row for row in samples() if row[0] is cls)


def test_every_exported_record_class_is_sampled():
    exported = [getattr(delone, n) for n in dir(delone)]
    assert {v for v in exported if isinstance(v, type) and issubclass(v, Record)} == set(CLASSES)
    assert len(CLASSES) == 17


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_positional_keyword_and_default_construction_agree(cls):
    _, values, fields, required = _row(cls)
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(fields, values)))
    assert by_position == by_keyword
    assert [getattr(by_keyword, f) for f in fields] == list(values)
    defaults = {f: getattr(cls, f) for f in fields[required:]}
    assert cls(*values[:required]) == cls(*values[:required], **defaults)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_missing_unknown_or_repeated_fields_raise_type_error(cls):
    _, values, fields, required = _row(cls)
    if required:
        with pytest.raises(TypeError, match="missing"):
            cls(*values[:required - 1])
    with pytest.raises(TypeError, match="unknown"):
        cls(*values, no_such_field=1)
    with pytest.raises(TypeError, match="repeated"):
        cls(*values, **{fields[0]: values[0]})
    with pytest.raises(TypeError):
        cls(*values, values[0])


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_assignment_and_deletion_raise_attribute_error(cls):
    _, values, fields, _ = _row(cls)
    record = cls(*values)
    with pytest.raises(AttributeError):
        setattr(record, fields[0], values[0])
    with pytest.raises(AttributeError):
        record.no_such_field = 1
    with pytest.raises(AttributeError):
        delattr(record, fields[0])
    assert getattr(record, fields[0]) == values[0]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equal_values_hash_equally_and_classes_never_compare_equal(cls):
    _, values, fields, _ = _row(cls)
    _, again, _, _ = _row(cls)
    a, b = cls(*values), cls(*again)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    twin = type(cls.__name__, (Record,), {"__annotations__": dict.fromkeys(fields, object)})
    assert twin(*values) != a and a != twin(*values)
    assert a != tuple(values)


def test_cluster_compares_without_scale_and_grid():
    c = cluster(gen_lattice(Z2), O, F(1))
    assert c.scale is not None and c.grid is not None
    bare = Cluster(c.center, c.radius, c.points)
    assert bare == c and hash(bare) == hash(c)
    assert "scale" not in repr(c) and "grid" not in repr(c)
    assert Cluster(c.center, F(2), c.points) != c


def test_cached_properties_still_cache():
    c = cluster(gen_lattice(Z2), O, F(1))
    assert c.keys is c.keys and vars(c)["keys"] is c.keys
    group = cluster_group(gen_lattice(Z2), O, F(1))
    assert group._linear_parts is group._linear_parts
    assert vars(group)["_linear_parts"] is group._linear_parts



@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_copy_deepcopy_and_pickle_round_trip(cls):
    # DeloneParams and DistanceSpectrum hold Radicals, which rebuild from
    # their value (Radical.__reduce__); a Lattice compares by identity, so
    # clones are compared by repr
    record = cls(*_row(cls)[1])
    assert copy.copy(record) == record
    for clone in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls and repr(clone) == repr(record)

def test_post_init_checks_reject_bad_input():
    with pytest.raises(ValueError, match="unknown numeric mode"):
        Tolerance("fuzzy")
    with pytest.raises(ValueError, match="packing radius must be positive"):
        DeloneParams(F(0), F(1), "exact", "exact")
    with pytest.raises(ValueError, match="dimensions disagree"):
        Isometry(((F(1), F(0)), (F(0), F(1))), (F(0),))
    with pytest.raises(AssertionError, match="N\\(rho0\\+2R\\)=1"):
        CriterionReport("regular", "satisfied", F(1), n_at_rho0=2, n_at_rho0_plus_2r=2)
