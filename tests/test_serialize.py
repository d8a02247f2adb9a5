"""Wire formats: rational strings and the certificate schema."""

import json
from fractions import Fraction as Q

import pytest
from test_coupling import COUPLING_CASES, coupling_case

from fatbundles import coupling as cp
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


def test_dumps_canonical_refuses_non_finite_floats():
    # NaN and the infinities are not JSON; json.dumps would write them.
    for x in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            sz.dumps_canonical({"min_sv": x})
    assert sz.dumps_canonical({"min_sv": 1e308}) == '{\n  "min_sv": 1e+308\n}\n'


def test_block_report_and_dual_samples_write_non_finite_floats_as_null():
    from fatbundles.coupling import BlockReport
    from fatbundles.duality import AgreementReport, SamplePair
    rep = BlockReport(2, 4, True, float("inf"), 1.0, float("inf"), True,
                      float("nan"))
    out = sz.block_report_to_json(rep)
    assert out["cross_max_abs"] is out["horizontal_min_sv"] is None
    assert out["fiber_to_horizontal_norm_ratio"] is None
    sample = SamplePair((Q(1),), "fat", "fat", float("inf"), 2.0)
    dual = sz.agreement_to_json(AgreementReport("p", (sample,), 0))
    assert dual["pairs"][0]["min_sv"] == [None, 2.0]
    for payload in (out, dual):
        json.loads(sz.dumps_canonical(payload))


def test_floats_are_written_at_twelve_significant_digits():
    # The last bits of a float SVD or einsum stay out of the bytes: LAPACK's
    # 97.99999999999999 for an exact 98 is written as 98.0.
    assert sz.json_float(97.99999999999999) == 98.0
    assert sz.json_float(0.1 + 0.2) == 0.3
    assert sz.json_float(1 / 3) == 0.333333333333
    assert sz.json_float(6e-13) == 6e-13 and sz.json_float(-2.5) == -2.5
    assert sz.json_float(1e308) == 1e308 and sz.json_float(None) is None
    from fatbundles.curvature import FrameMargin, TwistorReport
    frame = FrameMargin(0.1 + 0.2, 2 / 3)
    rep = TwistorReport("fat", 1 / 3, 0.1 + 0.2, 2 / 3, (frame,), 5)
    out = sz.twistor_report_to_json(rep)
    assert (out["bound"], out["min_diag_margin"], out["min_sv"]) == (
        0.333333333333, 0.3, 0.666666666667)
    assert out["frames"] == [{"diag_margin": 0.3, "min_sv": 0.666666666667}]


def test_not_fat_certificate_writes_an_exact_null_vector():
    g, emb = make_pair("so", (5,), "so", (4,))
    sub = make_subsystem("so", (5,), "so", (4,))
    cert = certify(g, emb, emb.torus_vector((1, 0)), subsystem=sub)
    d = sz.certificate_to_json(cert)
    assert d["null_vector"] == ["0", "0", "1", "0"]
    assert (d["min_sv"], d["max_sv"], d["well_conditioned"]) == (0.0, 6.0,
                                                                 False)


@pytest.mark.parametrize("name", [*sorted(COUPLING_CASES), "huge"])
def test_form_gram_strings_match_a_fraction_per_entry(name):
    # "0" for an absent entry and a Fraction for each nonzero one write the
    # strings of a Fraction for every entry, on every coupling case and
    # past the float range (X_u = (1e400, 2)).
    if name == "huge":
        g, emb = make_pair("so", (5,), "so", (4,))
        inst = cp.bundle_instance(g, emb, emb.torus_vector((Q(10) ** 400, 2)))
    else:
        inst = coupling_case(name)[1]
    form = cp.instance_form(inst)
    out = sz.form_to_json(form)
    assert out["gram"] == [[sz.frac_str(Q(row.get(j, 0), form.den)) for j in range(form.dim)]
                           for row in form.gram]
    assert "0" in out["gram"][0] and out["dim"] == form.dim
