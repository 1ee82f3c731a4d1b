"""The contract of the ten value classes: repr, equality, hashing,
construction, immutability (all but CheckResult), copying, pickling,
pattern matching and the validation each constructor runs; and of the two
polynomial classes on the same base, which keep their own constructors."""
import copy
import inspect
import pickle
import re
from decimal import Decimal
from types import SimpleNamespace

import pytest

from matmonoid import bsvhash
from matmonoid.bsvhash import Digest, HashParams
from matmonoid.errors import IndexOutOfRange, InvalidParams
from matmonoid.extremal import AlphaGammaPair, ClosedFormParams, LucasPair, Witness
from matmonoid.matrix import Mat2, MonoidParams
from matmonoid.polydom import ZERO, BiPolyN, PolyN, X, f_poly
from matmonoid.suites import CheckResult
from matmonoid.tree import TreeRow

L2 = Mat2(1, 0, 2, 1)
R3 = Mat2(1, 3, 0, 1)

# (class, field names, field values, repr)
CASES = [
    (MonoidParams, ("u", "v"), (2, 3), "MonoidParams(u=2, v=3)"),
    (Mat2, ("a", "b", "c", "d"), (1, 2, 3, 7), "Mat2(a=1, b=2, c=3, d=7)"),
    (LucasPair, ("P", "m", "U", "V"), (5, 3, 24, 110), "LucasPair(P=5, m=3, U=24, V=110)"),
    (AlphaGammaPair, ("n", "alpha", "gamma"), (1, 2, 3), "AlphaGammaPair(n=1, alpha=2, gamma=3)"),
    (
        ClosedFormParams,
        ("p_plus", "p_minus", "q_plus", "q_minus", "lambda1", "lambda2", "c1", "c2", "u"),
        (*map(Decimal, "12345678"), 1),
        "ClosedFormParams(p_plus=Decimal('1'), p_minus=Decimal('2'), q_plus=Decimal('3'), "
        "q_minus=Decimal('4'), lambda1=Decimal('5'), lambda2=Decimal('6'), c1=Decimal('7'), "
        "c2=Decimal('8'), u=1)",
    ),
    (
        Witness,
        ("word", "matrix", "position", "value"),
        ("L", L2, (2, 1), 2),
        "Witness(word='L', matrix=Mat2(a=1, b=0, c=2, d=1), position=(2, 1), value=2)",
    ),
    (HashParams, ("u", "v", "p"), (2, 3, 101), "HashParams(u=2, v=3, p=101)"),
    (Digest, ("a", "b", "c", "d"), (1, 2, 3, 4), "Digest(a=1, b=2, c=3, d=4)"),
    (
        TreeRow,
        ("depth", "cells"),
        (1, (L2, R3)),
        "TreeRow(depth=1, cells=(Mat2(a=1, b=0, c=2, d=1), Mat2(a=1, b=3, c=0, d=1)))",
    ),
    (
        CheckResult,
        ("name", "scope", "passed", "failures"),
        ("n", "s", False, ["x"]),
        "CheckResult(name='n', scope='s', passed=False, failures=['x'])",
    ),
]
FROZEN = [case for case in CASES if case[0] is not CheckResult]


def by_class(cases):
    return pytest.mark.parametrize(
        "cls, fields, values, text", cases, ids=[case[0].__name__ for case in cases]
    )


@by_class(CASES)
class TestEveryRecord:
    def test_repr(self, cls, fields, values, text):
        assert repr(cls(*values)) == text

    def test_positional_and_keyword_construction(self, cls, fields, values, text):
        record = cls(*values)
        assert tuple(getattr(record, f) for f in fields) == values
        assert cls(**dict(zip(fields, values))) == record

    def test_signature(self, cls, fields, values, text):
        params = list(inspect.signature(cls).parameters.values())
        assert [p.name for p in params] == list(fields)
        assert {p.kind for p in params} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}
        # CheckResult's failures defaults to a fresh list, pinned below.
        required = params[:-1] if cls is CheckResult else params
        assert all(p.default is inspect.Parameter.empty for p in required)

    def test_arity(self, cls, fields, values, text):
        last = len(fields) - 1 - (cls is CheckResult)
        missing = f"{cls.__name__}.__init__() missing 1 required positional argument"
        missing += f": '{fields[last]}'"
        with pytest.raises(TypeError, match=re.escape(missing)):
            cls(*values[:last])
        extra = f"{len(fields) + 1} positional arguments but {len(fields) + 2} were given"
        with pytest.raises(TypeError, match=extra):
            cls(*values, None)
        with pytest.raises(TypeError, match="unexpected keyword argument 'nope'"):
            cls(*values, nope=1)

    def test_equality(self, cls, fields, values, text):
        record = cls(*values)
        assert record == cls(*values) and not record != cls(*values)
        assert record != values and values != record
        assert record.__eq__(values) is NotImplemented
        assert record != SimpleNamespace(**dict(zip(fields, values)))

    def test_match_args(self, cls, fields, values, text):
        assert cls.__match_args__ == fields

    def test_copy_deepcopy_pickle(self, cls, fields, values, text):
        record = cls(*values)
        protocols = range(pickle.HIGHEST_PROTOCOL + 1)
        pickled = [pickle.loads(pickle.dumps(record, p)) for p in protocols]
        for twin in (copy.copy(record), copy.deepcopy(record), *pickled):
            assert type(twin) is cls and twin == record and twin is not record


def test_copy_and_pickle_skip_the_check(monkeypatch):
    params = HashParams(2, 3, 101)
    monkeypatch.setattr(bsvhash, "is_probable_prime", lambda p: pytest.fail("checked again"))
    for twin in (copy.copy(params), copy.deepcopy(params), pickle.loads(pickle.dumps(params))):
        assert twin == params


@by_class(FROZEN)
class TestFrozenRecord:
    def test_hash_is_the_hash_of_the_fields(self, cls, fields, values, text):
        assert hash(cls(*values)) == hash(values)

    def test_equal_records_hash_equal(self, cls, fields, values, text):
        assert len({cls(*values), cls(*values)}) == 1

    def test_fields_cannot_be_assigned_or_deleted(self, cls, fields, values, text):
        record = cls(*values)
        for name in fields:
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(record, name, values[0])
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(record, name)
        assert tuple(getattr(record, f) for f in fields) == values

    def test_other_names_cannot_be_assigned(self, cls, fields, values, text):
        # A frozen slotted dataclass raised TypeError here on Python 3.10 and 3.11.
        with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
            cls(*values).extra = 1


class TestDistinctClasses:
    def test_equal_fields_in_two_classes_are_unequal(self):
        assert Mat2(1, 2, 3, 4) != Digest(1, 2, 3, 4)
        assert not Digest(1, 2, 3, 4) == Mat2(1, 2, 3, 4)

    def test_unequal_fields_are_unequal(self):
        assert Mat2(1, 2, 3, 4) != Mat2(1, 2, 3, 5)
        assert MonoidParams(2, 3) != MonoidParams(3, 2)

    def test_class_patterns_bind_fields_in_order(self):
        match Witness("L", L2, (2, 1), 2):
            case Witness(word, Mat2(a, b, c, d), position, value):
                assert (word, a, b, c, d, position, value) == ("L", 1, 0, 2, 1, (2, 1), 2)
            case _:
                pytest.fail("no match")


class TestCheckResult:
    def test_is_mutable(self):
        result = CheckResult("n", "s", True)
        result.passed = False
        result.failures.append("x")
        assert result == CheckResult("n", "s", False, ["x"])

    def test_is_unhashable(self):
        with pytest.raises(TypeError, match="unhashable type: 'CheckResult'"):
            hash(CheckResult("n", "s", True))

    def test_default_failures_are_fresh_lists(self):
        first, second = CheckResult("n", "s", True), CheckResult("n", "s", True)
        assert first.failures == [] and first.failures is not second.failures
        first.failures.append("x")
        assert second.failures == []

    def test_deepcopy_copies_the_failures(self):
        result = CheckResult("n", "s", False, ["x"])
        assert copy.deepcopy(result).failures is not result.failures
        assert copy.copy(result).failures is result.failures


POLYS = [X, ZERO, f_poly(5), BiPolyN({(1, 0): 2, (0, 3): 1})]


@pytest.mark.parametrize("poly", POLYS, ids=["X", "ZERO", "f_poly(5)", "BiPolyN"])
class TestPolynomialRecords:
    def test_copy_deepcopy_pickle(self, poly):
        protocols = range(pickle.HIGHEST_PROTOCOL + 1)
        pickled = [pickle.loads(pickle.dumps(poly, p)) for p in protocols]
        for twin in (copy.copy(poly), copy.deepcopy(poly), *pickled):
            assert type(twin) is type(poly) and twin == poly and twin is not poly

    def test_coeffs_cannot_be_assigned_or_deleted(self, poly):
        before = poly.coeffs
        with pytest.raises(AttributeError, match="cannot assign to field 'coeffs'"):
            poly.coeffs = before
        with pytest.raises(AttributeError, match="cannot delete field 'coeffs'"):
            del poly.coeffs
        assert poly.coeffs is before

    def test_hashing(self, poly):
        if isinstance(poly, BiPolyN):
            with pytest.raises(TypeError, match="unhashable type: 'BiPolyN'"):
                hash(poly)
        else:
            twin = PolyN(list(poly.coeffs) + [0])
            assert twin is not poly and hash(twin) == hash(poly)
            assert len({poly, twin}) == 1


# (class, arguments, exception type, message)
INVALID = [
    (MonoidParams, (0, 1), InvalidParams, "u must be a positive integer, got 0"),
    (MonoidParams, (1, 0), InvalidParams, "v must be a positive integer, got 0"),
    (MonoidParams, (True, 1), InvalidParams, "u must be a positive integer, got True"),
    (MonoidParams, (1, 2.0), InvalidParams, "v must be a positive integer, got 2.0"),
    (MonoidParams, ("a", "b"), InvalidParams, "u must be a positive integer, got 'a'"),
    (Mat2, (1.0, 0, 0, 1), ValueError, "entries must be integers"),
    (Mat2, (1, 0, True, 1), ValueError, "entries must be integers"),
    (Mat2, (1, -1, 0, 1), ValueError, "entries must be nonnegative"),
    (Mat2, (-1, "x", 0, 1), ValueError, "entries must be nonnegative"),
    (Mat2, ("x", -1, 0, 1), ValueError, "entries must be integers"),
    (HashParams, (0, 1, 5), InvalidParams, "u must be a positive integer, got 0"),
    (HashParams, (1, None, 5), InvalidParams, "v must be a positive integer, got None"),
    (HashParams, (1, 1, 1), InvalidParams, "p must be an integer >= 2, got 1"),
    (HashParams, (1, 1, 5.0), InvalidParams, "p must be an integer >= 2, got 5.0"),
    (HashParams, (1, 1, 4), InvalidParams, "p must be prime, got 4"),
    (HashParams, (0, 0, 4), InvalidParams, "u must be a positive integer, got 0"),
    (TreeRow, (1.5, ()), InvalidParams, "row depth must be an integer, got 1.5"),
    (TreeRow, (-1, ()), IndexOutOfRange, "row depth must be nonnegative, got -1"),
    (TreeRow, (1, (L2,)), ValueError, "row at depth 1 must have 2 cells, got 1"),
    (TreeRow, (0, (L2, R3)), ValueError, "row at depth 0 must have 1 cells, got 2"),
    (TreeRow, (20000, ()), ValueError, "row at depth 20000 must have 2^20000 cells, got 0"),
]


@pytest.mark.parametrize("cls, args, error, message", INVALID)
def test_validation_errors(cls, args, error, message):
    with pytest.raises(error) as info:
        cls(*args)
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize("cls, args, error, message", INVALID)
def test_validation_errors_by_keyword(cls, args, error, message):
    fields = list(inspect.signature(cls).parameters)
    with pytest.raises(error) as info:
        cls(**dict(zip(fields, args)))
    assert type(info.value) is error and str(info.value) == message
