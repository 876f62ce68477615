import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from acaa.algebra import Algebra
from acaa.catalog import entry
from acaa.fields import PrimeField, Q
from acaa.free import free_acaa
from acaa.linalg import Matrix
from acaa.reps import adjoint_representation
from acaa.serialize import (FormatError, algebra_from_json, algebra_to_json,
                            load_algebra, matrix_from_json, matrix_to_json,
                            representation_from_json, representation_to_json,
                            save_algebra)

from conftest import KERNEL_SETTINGS, plain_algebras, skew_algebras


def test_algebra_round_trip():
    for name in ("h3", "h5", "L5", "free3", "n6"):
        A = entry(name).algebra
        assert algebra_from_json(algebra_to_json(A)) == A


@KERNEL_SETTINGS
@given(st.one_of(skew_algebras(), plain_algebras()), st.booleans(), st.integers(0, 2 ** 32))
def test_algebra_json_round_trip_keeps_tensor_labels_and_symmetry(A, named, seed):
    # fractional constants over Q, residues over F_3 and F_5; through the text
    # form, as a file holds it
    if named:
        rng = random.Random(seed)
        A = Algebra(A.field, A.dim, A.tensor, symmetry=A.symmetry, name=f"alg{seed}",
                    labels=[f"b{i}{rng.choice('xyz')}" for i in range(A.dim)])
    B = algebra_from_json(json.loads(json.dumps(algebra_to_json(A))))
    assert B == A
    assert (B.field, B.tensor, B.labels, B.symmetry, B.name) \
        == (A.field, A.tensor, A.labels, A.symmetry, A.name)


def test_algebra_file_round_trip(tmp_path):
    A = free_acaa(3).algebra
    path = tmp_path / "free3.json"
    save_algebra(A, path)
    B = load_algebra(path)
    assert B == A
    assert B.labels == A.labels


def test_rational_values_serialized_as_strings():
    A = Algebra.from_products(Q, 2, {(0, 1): {0: "1/2"}}, skew=True)
    data = algebra_to_json(A)
    assert data["products"][0]["value"] == {"0": "1/2"}


def test_prime_field_values_serialized_as_ints():
    A = Algebra.from_products(PrimeField(5), 2, {(0, 1): {0: 3}}, skew=True)
    data = algebra_to_json(A)
    assert data["products"][0]["value"] == {"0": 3}
    assert algebra_from_json(data) == A


def test_skew_loader_rejects_left_ge_right():
    data = {"field": {"type": "Q"}, "dim": 2, "symmetry": "skew",
            "products": [{"left": 1, "right": 0, "value": {"0": "1"}}]}
    with pytest.raises(ValueError):
        algebra_from_json(data)


def test_skew_loader_completes_flip():
    data = {"field": {"type": "Q"}, "dim": 3, "symmetry": "skew",
            "products": [{"left": 0, "right": 1, "value": {"2": "1"}}]}
    A = algebra_from_json(data)
    assert A.tensor[1][0][2] == -Q.one


def test_omitted_pairs_are_zero():
    data = {"field": {"type": "Q"}, "dim": 3, "symmetry": "none", "products": []}
    A = algebra_from_json(data)
    assert all(not any(row) for plane in A.tensor for row in plane)


def test_duplicate_product_entries_rejected():
    data = {"field": {"type": "Q"}, "dim": 2, "symmetry": "none",
            "products": [{"left": 0, "right": 1, "value": {"0": "1"}},
                         {"left": 0, "right": 1, "value": {"1": "1"}}]}
    with pytest.raises(ValueError):
        algebra_from_json(data)


@pytest.mark.parametrize("data", [
    [],
    {"dim": 2},
    {"field": {"type": "Q"}},
    {"field": "Q", "dim": 2},
    {"field": {"type": "Q"}, "dim": "2"},
    {"field": {"type": "Q"}, "dim": 2, "products": 5},
    {"field": {"type": "Q"}, "dim": 2, "products": [5]},
    {"field": {"type": "Q"}, "dim": 2, "products": [{"left": 0, "right": 1}]},
    {"field": {"type": "Q"}, "dim": 2,
     "products": [{"left": 0, "right": 1, "value": 5}]},
    {"field": {"type": "Q"}, "dim": 2,
     "products": [{"left": "0", "right": 1, "value": {"0": "1"}}]},
    {"field": {"type": "Q"}, "dim": 2, "basis": "e1 e2"},
])
def test_malformed_algebra_json_raises_format_error(data):
    with pytest.raises(FormatError):
        algebra_from_json(data)


@pytest.mark.parametrize("field,value", [
    ({"type": "Fp"}, 1), ({"type": "Fp", "p": "5"}, 1), ({"type": "Q"}, "1/0"),
])
def test_bad_field_or_literal_raises_value_error(field, value):
    data = {"field": field, "dim": 2,
            "products": [{"left": 0, "right": 1, "value": {"0": value}}]}
    with pytest.raises(ValueError):
        algebra_from_json(data)


def test_matrix_round_trip():
    m = Matrix.build(Q, [[1, "1/2"], [0, -3]])
    assert matrix_from_json(Q, matrix_to_json(m)) == m


def test_representation_round_trip():
    h3 = entry("h3").algebra
    rep = adjoint_representation(h3)
    data = representation_to_json(rep, source="h3")
    again = representation_from_json(data, h3)
    assert again.target_dim == rep.target_dim
    assert list(again.images) == list(rep.images)
    # the payload is valid JSON
    json.dumps(data)
