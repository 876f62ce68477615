"""JSON formats for algebras and representations.

Rational values travel as strings ("p/q" or "n"); prime-field values as
integers in [0, p).  For skew algebras only products with left < right are
stored; the loader restores the flipped entries and the zero diagonal.
"""

import json

from .algebra import Algebra
from .fields import field_from_json, field_to_json
from .linalg import Matrix


def algebra_to_json(A: Algebra) -> dict:
    data = {}
    if A.name:
        data["name"] = A.name
    data["field"] = field_to_json(A.field)
    data["dim"] = A.dim
    if A.labels:
        data["basis"] = list(A.labels)
    data["symmetry"] = A.symmetry
    products = []
    for i in range(A.dim):
        for j in range(A.dim):
            if A.symmetry == "skew" and i >= j:
                continue
            value = {str(k): A.field.to_json(c) for k, c in enumerate(A.tensor[i][j]) if c}
            if not value:
                continue
            products.append({"left": i, "right": j, "value": value})
    data["products"] = products
    return data


class FormatError(ValueError):
    """A JSON document that does not have the shape its format requires."""


def _integer(value, what):
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"{what} must be an integer, got {value!r}")
    return value


def _check_algebra_json(data) -> None:
    """Raise FormatError unless data has the shape of an algebra file."""
    if not isinstance(data, dict):
        raise FormatError("an algebra must be a JSON object")
    for key in ("field", "dim"):
        if key not in data:
            raise FormatError(f"algebra lacks {key!r}")
    if not isinstance(data["field"], dict):
        raise FormatError('"field" must be an object')
    if _integer(data["dim"], '"dim"') < 0:
        raise FormatError(f'"dim" must not be negative, got {data["dim"]}')
    basis = data.get("basis")
    if basis is not None and not (isinstance(basis, list)
                                  and all(isinstance(b, str) for b in basis)):
        raise FormatError('"basis" must be a list of strings')
    products = data.get("products", [])
    if not isinstance(products, list):
        raise FormatError(f'"products" must be a list, got {products!r}')
    for item in products:
        if not isinstance(item, dict):
            raise FormatError(f"product entry must be an object, got {item!r}")
        for key in ("left", "right", "value"):
            if key not in item:
                raise FormatError(f"product entry lacks {key!r}")
        _integer(item["left"], '"left"')
        _integer(item["right"], '"right"')
        if not isinstance(item["value"], dict):
            raise FormatError(f'"value" must be an object, got {item["value"]!r}')


def algebra_from_json(data: dict) -> Algebra:
    _check_algebra_json(data)
    field = field_from_json(data["field"])
    dim = data["dim"]
    symmetry = data.get("symmetry", "none")
    if symmetry not in ("none", "skew"):
        raise ValueError(f"unknown symmetry {symmetry!r}")
    skew = symmetry == "skew"
    products = {}
    for item in data.get("products", []):
        i, j = item["left"], item["right"]
        if skew and i >= j:
            raise ValueError(f"skew file lists product ({i}, {j}) with left >= right")
        value = {int(k): field.parse(v) for k, v in item["value"].items()}
        if (i, j) in products:
            raise ValueError(f"duplicate product entry ({i}, {j})")
        products[(i, j)] = value
    return Algebra.from_products(field, dim, products, labels=data.get("basis"),
                                 skew=skew, name=data.get("name"))


def dump_algebra(A: Algebra) -> str:
    return json.dumps(algebra_to_json(A), indent=2)


def save_algebra(A: Algebra, path) -> None:
    with open(path, "w") as fh:
        fh.write(dump_algebra(A))
        fh.write("\n")


def load_algebra(path) -> Algebra:
    with open(path) as fh:
        return algebra_from_json(json.load(fh))


def matrix_to_json(m: Matrix) -> list:
    return [[m.field.to_json(v) for v in row] for row in m.entries]


def matrix_from_json(field, rows) -> Matrix:
    return Matrix(field, [[field.parse(v) for v in row] for row in rows])


def representation_to_json(rep, source: str) -> dict:
    return {
        "source": source,
        "target_dim": rep.target_dim,
        "images": [matrix_to_json(m) for m in rep.images],
    }


def representation_from_json(data: dict, algebra: Algebra):
    from .reps import Representation

    for key in ("target_dim", "images"):
        if key not in data:
            raise FormatError(f"representation lacks {key!r}")
    target_dim = _integer(data["target_dim"], '"target_dim"')
    if not (isinstance(data["images"], list) and all(
            isinstance(m, list) and all(isinstance(row, list) for row in m)
            for m in data["images"])):
        raise FormatError('"images" must be a list of matrices given as lists of rows')
    images = [matrix_from_json(algebra.field, rows) for rows in data["images"]]
    return Representation(algebra, target_dim, images)

