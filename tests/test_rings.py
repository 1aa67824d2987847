import json

import pytest

from tensorlab.decomp import Decomposition
from tensorlab.errors import ValidationError
from tensorlab.minrank import MatrixSubspace
from tensorlab.rings import FLOAT, RATIONAL, fp, parse_ring
from tensorlab.tensors import loads_tensor


@pytest.mark.parametrize("ring", [RATIONAL, FLOAT, fp(2), fp(7), fp(65521)], ids=str)
def test_parse_ring_inverts_str(ring):
    assert parse_ring(str(ring)) == ring


def tensor_text(tag):
    return f"tensor v1\n2\n{tag}\n1 0\n"


def subspace_json(tag):
    return json.dumps({"rows": 1, "cols": 2, "ring": tag, "basis": [["1", "0"]]})


def decomposition_json(tag):
    return json.dumps({"shape": [2, 2], "ring": tag, "summands": [[["1", "0"], ["0", "1"]]]})


LOADERS = [
    (lambda tag: loads_tensor(tensor_text(tag)).ring, "tensor"),
    (lambda tag: MatrixSubspace.from_json(subspace_json(tag)).ring, "subspace"),
    (lambda tag: Decomposition.from_json(decomposition_json(tag)).ring, "decomposition"),
]


@pytest.mark.parametrize("load", [f for f, _ in LOADERS], ids=[n for _, n in LOADERS])
@pytest.mark.parametrize("tag", ["rational", "fp 7"])  # subspaces reject float
def test_every_format_reads_good_ring_tags(load, tag):
    assert load(tag) == parse_ring(tag)


@pytest.mark.parametrize("load", [f for f, _ in LOADERS], ids=[n for _, n in LOADERS])
@pytest.mark.parametrize(
    "tag",
    # 2^61 - 1 is prime: the cap must reject it before trial division runs
    ["fp", "rational 5", "fp 7 9", "fp x", "fp 4", "fp 65537", "fp 2305843009213693951", "Rational", ""],
)
def test_every_format_rejects_bad_ring_tags(load, tag):
    with pytest.raises(ValidationError):
        load(tag)
