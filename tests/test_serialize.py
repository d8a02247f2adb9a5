"""Wire formats: rational strings, round trips, schema shapes."""

import json
from fractions import Fraction as Q

import numpy as np

from fatbundles import curvature as cv
from fatbundles import liealg as la
from fatbundles import rootdata as rd
from fatbundles import serialize as sz
from fatbundles.catalog import make_pair, make_subsystem
from fatbundles.fatness import certify
from fatbundles.verdicts import Verdict


def test_frac_str_forms():
    assert sz.frac_str(Q(3)) == "3"
    assert sz.frac_str(Q(-1, 2)) == "-1/2"
    assert sz.parse_frac("7/3") == Q(7, 3)
    assert sz.parse_frac("-4") == Q(-4)


def test_algebra_serialization_shape():
    g = la.so(3)
    d = sz.algebra_to_json(g)
    assert d["family"] == "so" and d["params"] == [3]
    assert d["dim"] == 3
    assert d["basis"][0] == [["0", "1", "0"], ["-1", "0", "0"],
                             ["0", "0", "0"]]
    json.dumps(d)


def test_embedding_serialization_uses_indices_for_unit_rows():
    g, emb = make_pair("so", (5,), "so", (4,))
    d = sz.embedding_to_json(emb)
    assert d["h_indices"] == [0, 1, 2, 4, 5, 7]
    assert "torus" in d
    g2, emb2 = make_pair("so", (5,), "u", (2,))
    d2 = sz.embedding_to_json(emb2)
    assert "h_coeffs" in d2 and "h_indices" not in d2


def test_rootsystem_and_verdict_schema():
    rs = rd.build_root_system("B", 2)
    d = sz.rootsystem_to_json(rs)
    assert d["type"] == "B" and d["rank"] == 2
    assert [1, -1] in d["roots"]
    v = Verdict("not_fat", witness_root=(0, 1))
    dv = sz.verdict_to_json(v)
    assert dv == {"fat": False, "status": "not_fat", "witness_root": [0, 1]}


def test_certificate_schema_matches_contract():
    g, emb = make_pair("so", (5,), "so", (4,))
    sub = make_subsystem("so", (5,), "so", (4,))
    cert = certify(g, emb, emb.torus_vector((1, 1)), subsystem=sub,
                   instance="so5_so4", seed=17)
    d = sz.certificate_to_json(cert)
    assert d["instance"] == "so5_so4"
    assert d["verdicts"] == {"roots": "fat", "oracle": "fat",
                             "centralizer": "fat"}
    assert d["min_sv"] == 6.0 and d["seed"] == 17
    assert d["Xu_torus"] == ["1", "1"]
    json.dumps(d)


def test_tensor_round_trip():
    t = cv.random_pinched(2, 0.5, "+", 42)
    d = sz.tensor_to_json(t)
    assert len(d["R"]) == 16 * 2 ** 4
    back = sz.tensor_from_json(json.loads(json.dumps(d)))
    assert np.array_equal(back.R, t.R)
    assert back.epsilon == t.epsilon and back.seed == t.seed
