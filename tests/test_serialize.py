"""Wire formats: rational strings and the certificate schema."""

import json
from fractions import Fraction as Q

from fatbundles import serialize as sz
from fatbundles.catalog import make_pair, make_subsystem
from fatbundles.fatness import certify


def test_frac_str_forms():
    assert sz.frac_str(Q(3)) == "3"
    assert sz.frac_str(Q(-1, 2)) == "-1/2"


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
