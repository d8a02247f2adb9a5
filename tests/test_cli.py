"""Batch driver: exit codes, isolation, determinism, explain output."""

import filecmp
import json
import os
import pathlib
import re
import subprocess
import sys
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fatbundles
from fatbundles.cli import build_parser, main
from fatbundles.catalog import (
    ENTRY,
    REQUIRED,
    InstanceSpec,
    builtin_catalog,
    builtin_names,
    run_instance,
)
from fatbundles.serialize import dumps_canonical, parse_vec, vec_to_json
from test_rootdata import bench_inputs


def run_cli(args):
    return main(args)


def test_builtin_catalog_passes(tmp_path, capsys):
    out = tmp_path / "certs"
    assert run_cli(["run", "paper_examples", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "5/5 instances passed" in text
    files = sorted(p.name for p in out.iterdir())
    assert files == ["b2_shift_unit_square.json", "pinched_n2.json",
                     "so41_so4_J.json", "so5_so4_J.json",
                     "so5_u2_J_coupling.json"]
    payload = json.loads((out / "so5_so4_J.json").read_text())
    assert payload["passed"]
    assert payload["certificate"]["verdicts"] == {
        "roots": "fat", "oracle": "fat", "centralizer": "fat"}
    assert payload["certificate"]["min_sv"] == 6.0


def test_failing_expectation_gives_exit_one(tmp_path, capsys):
    catalog = [{
        "id": "so4_so3_wrong",
        "g": {"family": "so", "params": [4]},
        "h": {"type": "so", "params": [3]},
        "Xu": ["1"],
        "run": ["oracle", "centralizer"],
        "expect": "fat",
    }]
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(catalog))
    out = tmp_path / "certs"
    assert run_cli(["run", str(path), "--out", str(out)]) == 1
    payload = json.loads((out / "so4_so3_wrong.json").read_text())
    assert not payload["passed"]
    cert = payload["certificate"]
    assert cert["verdicts"]["oracle"] == "not_fat"
    assert cert["note"] == "odd dimension"
    assert payload["certificate"]["min_sv"] == 0.0


def test_failing_instance_does_not_abort_batch(tmp_path, capsys):
    catalog = [
        {"id": "broken", "g": {"family": "nope", "params": [3]},
         "h": {"type": "so", "params": [2]}, "Xu": ["1"],
         "run": ["oracle"]},
        {"id": "good", "g": {"family": "so", "params": [5]},
         "h": {"type": "so", "params": [4]}, "Xu": ["1", "1"],
         "run": ["roots", "oracle", "centralizer"], "expect": "fat"},
    ]
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(catalog))
    out = tmp_path / "certs"
    assert run_cli(["run", str(path), "--out", str(out), "--jobs", "1"]) == 1
    good = json.loads((out / "good.json").read_text())
    assert good["passed"]
    broken = json.loads((out / "broken.json").read_text())
    assert not broken["passed"] and "error" in broken


def test_empty_catalog_passes(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text("[]")
    assert run_cli(["run", str(path), "--out", str(tmp_path / "c")]) == 0
    assert "0/0 instances passed" in capsys.readouterr().out


def test_parse_error_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('[{"id": "x",}]')
    assert run_cli(["run", str(path), "--out", str(tmp_path / "c")]) == 2
    err = capsys.readouterr().err
    assert "bad.json:1" in err


def test_duplicate_ids_exit_two(tmp_path):
    path = tmp_path / "dup.json"
    entry = {"id": "a", "g": {"family": "so", "params": [4]},
             "h": {"type": "so", "params": [3]}, "Xu": ["1"],
             "run": ["oracle"]}
    path.write_text(json.dumps([entry, entry]))
    assert run_cli(["run", str(path), "--out", str(tmp_path / "c")]) == 2


def test_missing_catalog_exit_two(tmp_path):
    assert run_cli(["run", str(tmp_path / "nope.json"),
                    "--out", str(tmp_path / "c")]) == 2


def test_determinism_byte_identical(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run_cli(["run", "paper_examples", "--out", str(out1)]) == 0
    assert run_cli(["run", "paper_examples", "--out", str(out2)]) == 0
    for name in os.listdir(out1):
        assert filecmp.cmp(out1 / name, out2 / name, shallow=False), name


def test_explain_outputs(tmp_path, capsys):
    out = tmp_path / "certs"
    run_cli(["run", "paper_examples", "--out", str(out)])
    capsys.readouterr()
    assert run_cli(["explain", "so5_so4_J", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "forbidden walls" in text
    assert "alpha(Xu)" in text
    assert "centralizer dimension" in text
    assert run_cli(["explain", "pinched_n2", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "per-frame margins" in text
    assert run_cli(["explain", "b2_shift_unit_square", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "verified: True" in text
    assert run_cli(["explain", "missing_id", "--out", str(out)]) == 2


def test_list_builtins(capsys):
    assert run_cli(["list-builtins"]) == 0
    text = capsys.readouterr().out
    assert "paper_examples" in text and "so5_so4_J" in text


def test_explain_not_fat_witness(tmp_path, capsys):
    catalog = [{
        "id": "wall",
        "g": {"family": "so", "params": [5]},
        "h": {"type": "so", "params": [4]},
        "Xu": ["1", "0"],
        "run": ["roots", "oracle", "centralizer"],
        "expect": "not_fat",
    }]
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(catalog))
    out = tmp_path / "certs"
    assert run_cli(["run", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    run_cli(["explain", "wall", "--out", str(out)])
    text = capsys.readouterr().out
    assert "witness_root" in text
    assert "<-- wall" in text


def test_instance_spec_round_trip():
    # explain parses the spec echo of a certificate, so the contract must
    # accept every echo and read it back as the same spec.
    specs = [s for name in builtin_names() for s in builtin_catalog(name)]
    specs += [InstanceSpec.from_json(e) for e in bench_inputs().cli_catalog(1401)]
    assert len(specs) == 12 + 36
    for spec in specs:
        again = InstanceSpec.from_json(spec.to_json())
        assert again == spec


def test_run_instance_samples_batch():
    spec = InstanceSpec(
        id="batched", g_family="so", g_params=(5,), h_type="so",
        h_params=(4,), xu_torus=parse_vec(["1", "1"]), expect="fat",
        samples=25, seed=3)
    ok, payload = run_instance(spec)
    assert ok
    assert payload["batch"]["samples"] == 25
    assert payload["batch"]["fat"] + payload["batch"]["not_fat"] == 25


def test_canonical_json_stable():
    obj = {"b": 1.5, "a": [1, 2], "c": {"y": None, "x": "1/2"}}
    assert dumps_canonical(obj) == dumps_canonical(json.loads(
        dumps_canonical(obj)))


def test_vec_serialization_round_trip():
    from fractions import Fraction as Q
    v = (Q(1, 2), Q(-3), Q(0), Q(7, 3))
    assert parse_vec(vec_to_json(v)) == v


def test_triple_equivalence_builtin_catalog(tmp_path):
    out = tmp_path / "certs"
    assert run_cli(["run", "triple_equivalence", "--out", str(out)]) == 0
    payload = json.loads((out / "so7_so6.json").read_text())
    assert payload["passed"]
    assert payload["batch"]["samples"] == 200


def test_duality_builtin_catalog_and_explain(tmp_path, capsys):
    out = tmp_path / "certs"
    assert run_cli(["run", "duality", "--out", str(out)]) == 0
    payload = json.loads((out / "dual_so41.json").read_text())
    assert payload["dual"]["fraction"] == 1.0
    capsys.readouterr()
    assert run_cli(["explain", "dual_so41", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "200/200 agree" in text


def test_negative_tolerance_rejected(tmp_path):
    catalog = [{"id": "x", "g": {"family": "so", "params": [4]},
                "h": {"type": "so", "params": [3]}, "Xu": ["1"],
                "run": ["oracle"], "tol": -1.0}]
    path = tmp_path / "bad_tol.json"
    path.write_text(json.dumps(catalog))
    assert run_cli(["run", str(path), "--out", str(tmp_path / "c")]) == 2


def test_unknown_run_kind_rejected(tmp_path):
    catalog = [{"id": "x", "g": {"family": "so", "params": [4]},
                "h": {"type": "so", "params": [3]}, "Xu": ["1"],
                "run": ["orackle"]}]
    path = tmp_path / "bad_run.json"
    path.write_text(json.dumps(catalog))
    assert run_cli(["run", str(path), "--out", str(tmp_path / "c")]) == 2


def test_coupling_payload_is_strict_json(tmp_path):
    out = tmp_path / "certs"
    run_cli(["run", "paper_examples", "--out", str(out)])
    text = (out / "so5_u2_J_coupling.json").read_text()
    assert "Infinity" not in text and "NaN" not in text
    payload = json.loads(text)
    assert payload["coupling"]["blocks"]["fiber_min_sv"] is None


def test_pinch_certificate_records_the_sign_of_the_built_tensor(tmp_path):
    # random_pinched reads "sign": 1 as positive; the certificate must say
    # so, and agree with the "+" spelling of the same instance.  Seed -1
    # draws the tensor and the frames of seed 1 (its sampled planes are
    # those of seed 0, the seed + 1 of the estimate), and passes.
    cases = (("int", 1, 1), ("plus", "+", 1), ("minus", "-", 1),
             ("negative_seed", "+", -1))
    catalog = [{"id": f"pinch_{tag}", "run": ["pinch"], "seed": seed,
                "pinch": {"n": 2, "epsilon": 0.54, "sign": sign,
                          "frames": 20}}
               for tag, sign, seed in cases]
    path = tmp_path / "pinch.json"
    path.write_text(json.dumps(catalog))
    out = tmp_path / "certs"
    assert run_cli(["run", str(path), "--out", str(out), "--jobs", "1"]) == 0
    certs = {tag: json.loads((out / f"pinch_{tag}.json").read_text())
             for tag, _, _ in cases}
    tensors = {tag: cert["pinch"]["tensor"] for tag, cert in certs.items()}
    assert tensors["int"]["sign"] == 1
    assert tensors["int"] == tensors["plus"]
    assert tensors["minus"]["sign"] == -1
    negative = certs["negative_seed"]
    assert negative["passed"] and "error" not in negative
    assert {**negative["pinch"]["report"], "seed": 1} \
        == certs["plus"]["pinch"]["report"]
    assert tensors["negative_seed"]["berger_max"] == tensors["plus"]["berger_max"]


GOOD = {"id": "good", "g": {"family": "so", "params": [5]},
        "h": {"type": "so", "params": [4]}, "Xu": ["1", "1"],
        "run": ["roots", "oracle", "centralizer"], "expect": "fat"}


def _write_catalog(tmp_path, entries):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(entries))
    return str(path)


@pytest.mark.parametrize("entry", [
    1, "so5", [GOOD],
    *({**GOOD, "id": f"bad_{key}", key: 5}
      for key in ("g", "h", "pinch", "shift", "dual")),
])
def test_non_object_entries_exit_two(tmp_path, capsys, entry):
    path = _write_catalog(tmp_path, [entry])
    assert run_cli(["run", path, "--out", str(tmp_path / "c")]) == 2
    if isinstance(entry, dict):  # entry["id"] is "bad_<key>"
        message = f"{entry['id'][4:]} must be an object, got 5"
    else:
        message = f"entry must be an object, got {entry!r}"
    assert message in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


# The case ids are kept stable across rewrites of the messages.
@pytest.mark.parametrize("field, message", [
    ({"expect": "fatt"}, 'expect must be "fat" or "not_fat", got \'fatt\''),
    ({"expect": 1}, 'expect must be "fat" or "not_fat", got 1'),
    ({"samples": -3}, "samples must be an integer in 0..10000, got -3"),
    ({"samples": 2.5}, "samples must be an integer in 0..10000, got 2.5"),
    ({"samples": "3"}, "samples must be an integer in 0..10000, got '3'"),
    ({"samples": True}, "samples must be an integer in 0..10000, got True"),
    ({"run": ["dual"], "dual": {"samples": -1}},
     "dual.samples must be an integer in 0..10000, got -1"),
    ({"run": ["dual"], "dual": {"samples": 1.5}},
     "dual.samples must be an integer in 0..10000, got 1.5"),
], ids=["field0-unknown expect 'fatt'", "field1-unknown expect 1",
        *(f"field{i}-samples must be an integer >= 0" for i in range(2, 6)),
        *(f"field{i}-dual.samples must be an integer >= 0" for i in (6, 7))])
def test_unknown_expect_and_bad_sample_counts_exit_two(tmp_path, capsys,
                                                       field, message):
    path = _write_catalog(tmp_path, [{**GOOD, "id": "typo", "Xu": ["1", "0"],
                                      **field}])
    assert run_cli(["run", path, "--out", str(tmp_path / "c")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


# The case ids are kept stable across rewrites of the messages.
@pytest.mark.parametrize("field, message", [
    # int() read these as so(5), so(4), seed 1 and seed 2.
    ({"g": {"family": "so", "params": [5.7]}},
     "g.params must be a list of positive integers with sum <= 32, got [5.7]"),
    ({"h": {"type": "so", "params": [4.0]}},
     "h.params must be a list of positive integers with sum <= 32, got [4.0]"),
    ({"seed": True}, "seed must be an integer, got True"),
    ({"seed": 2.5}, "seed must be an integer, got 2.5"),
    # A string was read one character at a time, as run kinds 'r', 'o', ...
    ({"run": "roots"}, "run must be a list of run kinds, got 'roots'"),
], ids=["field0-g.params takes integers only, got [5.7]",
        "field1-h.params takes integers only, got [4.0]",
        "field2-seed takes integers only, got [True]",
        "field3-seed takes integers only, got [2.5]",
        "field4-run must be a list of run kinds, got 'roots'"])
def test_mistyped_params_seed_and_run_exit_two(tmp_path, capsys, field,
                                               message):
    path = _write_catalog(tmp_path, [{**GOOD, **field}])
    assert run_cli(["run", path, "--out", str(tmp_path / "c")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


SHIFT = {"type": "B", "rank": 2, "member_roots": [],
         "vertices": [["0", "0"], ["1", "1"]], "expect_shift": True}


@pytest.mark.parametrize("entry, message", [
    # A typo of frames ran the default 100 frames.
    ({"run": ["pinch"], "pinch": {"n": 2, "epsilon": 0.54, "frame": 5}},
     "unknown key pinch.frame = 5"),
    ({"run": ["shift"], "shift": {**SHIFT, "expect": True}},
     "unknown key shift.expect = True"),
    ({**GOOD, "run": ["dual"], "dual": {"samples": 2, "sample": 5}},
     "unknown key dual.sample = 5"),
    # A misspelt or missing vertex list was a FAIL certificate, exit 1.
    ({"run": ["shift"], "shift": {"type": "B", "rank": 2, "vertics": []}},
     "unknown key shift.vertics = []"),
    ({"run": ["shift"], "shift": {"type": "B", "rank": 2}},
     "shift.vertices is required"),
    ({"run": ["shift"]}, "shift is required when run has shift"),
    # A string Xu was read one character at a time, as ["1", "2"].
    ({**GOOD, "Xu": "12"}, "Xu must be a list of rationals (strings of <= 1000 "
     "characters with |exponent| <= 1000), got '12'"),
    # float() read these as tol 1.0 and 0.001.
    ({**GOOD, "tol": True}, "tol must be a positive finite number, got True"),
    ({**GOOD, "tol": "1e-3"},
     "tol must be a positive finite number, got '1e-3'"),
], ids=["pinch_frame", "shift_expect", "dual_sample", "shift_vertics",
        "shift_no_vertices", "no_shift", "Xu_string", "tol_bool", "tol_string"])
def test_unknown_keys_and_mistyped_xu_and_tol_exit_two(tmp_path, capsys,
                                                       entry, message):
    path = _write_catalog(tmp_path, [{**entry, "id": "typo"}])
    assert run_cli(["run", path, "--out", str(tmp_path / "c")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


def test_documented_keys_and_integer_tol_parse():
    spec = InstanceSpec.from_json({
        "id": "keys", "g": {"family": "so", "params": [4, 1]},
        "h": {"type": "so", "params": [4]}, "tol": 1, "run": ["dual", "shift"],
        "dual": {"samples": 3}, "shift": SHIFT})
    assert spec.tol == 1.0 and type(spec.tol) is float
    assert spec.shift == SHIFT and spec.dual == {"samples": 3}
    assert run_instance(spec)[0]


def test_empty_coupling_form_writes_a_block_report(tmp_path, capsys):
    # h = g, so v = h and n = 0: the coupling form has dimension 0.
    out = tmp_path / "certs"
    path = _write_catalog(tmp_path, [
        {"id": "empty", "g": {"family": "so", "params": [4]},
         "h": {"type": "so", "params": [4]}, "Xu": ["0", "0"],
         "run": ["coupling"]}])
    assert run_cli(["run", path, "--out", str(out)]) == 0
    info = json.loads((out / "empty.json").read_text())["coupling"]
    assert info["form"]["dim"] == 0
    assert info["blocks"] == {
        "cross_block_zero": True, "cross_max_abs": 0.0, "fiber_dim": 0,
        "fiber_min_sv": None, "fiber_to_horizontal_norm_ratio": None,
        "horizontal_dim": 0, "horizontal_equals_fatness_gram": True,
        "horizontal_min_sv": None}
    assert info["closedness_residual"] == "0"


@pytest.mark.parametrize("iid", ["../escaped", "a/b", "a\\b", "nul\0",
                                 "", ".", "..", 7])
def test_instance_ids_must_be_plain_file_names(tmp_path, capsys, iid):
    out = tmp_path / "certs" / "inner"
    path = _write_catalog(tmp_path, [{**GOOD, "id": iid}])
    assert run_cli(["run", path, "--out", str(out)]) == 2
    assert f"id must be a plain file name, got {iid!r}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["catalog.json"]


def test_explain_does_not_read_outside_out(tmp_path, capsys):
    out = tmp_path / "certs"
    assert run_cli(["run", "paper_examples", "--out", str(out)]) == 0
    (tmp_path / "outside.json").write_text(
        (out / "so5_so4_J.json").read_text())
    capsys.readouterr()
    assert run_cli(["explain", "../outside", "--out", str(out)]) == 2
    assert "id must be a plain file name, got '../outside'" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("{not json", "Expecting property name enclosed in double quotes: "
                  "line 1 column 2 (char 1)"),
    ("[1, 2]", "certificate must be a JSON object"),
    ('{"spec": {"id": "bad", "bogus": 1}, "passed": true}', "unknown key bogus = 1"),
], ids=["not_json", "array", "unknown_spec_key"])
def test_explain_of_a_file_that_is_no_certificate_exits_two(tmp_path, capsys, text,
                                                           message):
    # Checked before anything is printed, as a malformed catalog is.
    (tmp_path / "bad.json").write_text(text)
    assert run_cli(["explain", "bad", "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {tmp_path / 'bad.json'}: {message}\n"


@pytest.mark.parametrize("bad, error", [
    # A pinch sweep over no frames, which the parser cannot see: ValueError.
    pytest.param({"id": "bad", "run": ["pinch"], "pinch": {"n": 2, "frames": 0}},
                 "ValueError: num_frames must be >= 1", id="pinch_no_frames"),
    # A certification without a covector: FatBundleError.
    ({"id": "bad", "g": {"family": "so", "params": [5]},
      "h": {"type": "u", "params": [2]}, "run": ["oracle"]},
     "FatBundleError: bad: certification needs an Xu"),
])
def test_any_instance_exception_gives_fail_certificate(tmp_path, capsys,
                                                       bad, error):
    out = tmp_path / "certs"
    path = _write_catalog(tmp_path, [bad, GOOD])
    assert run_cli(["run", path, "--out", str(out), "--jobs", "1"]) == 1
    assert "1/2 instances passed" in capsys.readouterr().out
    broken = json.loads((out / "bad.json").read_text())
    assert not broken["passed"] and broken["error"].startswith(error)
    assert json.loads((out / "good.json").read_text())["passed"]


@pytest.mark.parametrize("tol", ["-1", "0", "nan"])
def test_tol_override_must_be_positive(tmp_path, tol):
    with pytest.raises(SystemExit) as exc:
        run_cli(["run", "paper_examples", "--out", str(tmp_path / "c"),
                 "--tol", tol])
    assert exc.value.code == 2
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("jobs", ["0", "-3", "1.5"])
def test_jobs_must_be_a_positive_integer(tmp_path, jobs):
    with pytest.raises(SystemExit) as exc:
        run_cli(["run", "paper_examples", "--out", str(tmp_path / "c"),
                 "--jobs", jobs])
    assert exc.value.code == 2
    assert not (tmp_path / "c").exists()


def test_jobs_defaults_to_one():
    assert build_parser().parse_args(["run", "paper_examples"]).jobs == 1


@pytest.mark.parametrize("catalog", ["paper_examples", "duality"])
def test_jobs_two_writes_what_a_default_run_writes(tmp_path, capsys, catalog):
    # --jobs is accepted and selects nothing: instances run one at a time.
    outs = []
    for i, extra in enumerate(([], ["--jobs", "2"])):
        out = tmp_path / f"certs{i}"
        assert run_cli(["run", catalog, "--out", str(out), *extra]) == 0
        outs.append((out, capsys.readouterr().out))
    (a, stdout_a), (b, stdout_b) = outs
    assert stdout_a == stdout_b
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b)) and names
    _, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    assert mismatch == [] and errors == []


def test_importing_the_cli_loads_no_thread_pool():
    code = ("import sys, fatbundles.cli; "
            "print('concurrent.futures' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(fatbundles.__file__)))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


def test_a_run_with_pinch_entries_never_imports_numpy_random(tmp_path):
    # The pinch draws come from random.Random: no run pays numpy.random's
    # import, the first pinch instance included.
    catalog = tmp_path / "pinch.json"
    catalog.write_text(json.dumps([{**PINCH, "id": "p", "seed": 3}]))
    code = ("import sys; from fatbundles.cli import main; "
            "code = main(sys.argv[1:]); "
            "print(code, 'numpy.random' in sys.modules, file=sys.stderr)")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(fatbundles.__file__)))
    for source in ("paper_examples", str(catalog)):
        done = subprocess.run(
            [sys.executable, "-c", code, "run", source,
             "--out", str(tmp_path / "certs")],
            env=env, capture_output=True, text=True, check=True)
        assert done.stderr.splitlines()[-1] == "0 False"


def test_out_naming_a_file_gives_exit_two(tmp_path, capsys):
    not_a_dir = tmp_path / "README.md"
    not_a_dir.write_text("a file\n")
    assert run_cli(["run", "paper_examples", "--out", str(not_a_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert "\n" not in err and "cannot create output directory" in err
    assert not_a_dir.read_text() == "a file\n"


COUPLING_SO5_U2 = {"g": {"family": "so", "params": [5]},
                   "h": {"type": "u", "params": [2]}, "run": ["coupling"]}


@pytest.mark.parametrize("xu, expect, passed", [
    # Off every wall, so fat: the exact Pfaffian is 3.1e-44, while the
    # smallest singular value, 6e-12, is below the default tol.
    (["1/1000000000000", "2/1000000000000"], "not_fat", False),
    (["1/1000000000000", "2/1000000000000"], "fat", True),
    # On the wall t_1 + t_2 = 0: the form is degenerate.
    (["1", "-1"], "not_fat", True),
    (["1", "-1"], "fat", False),
])
def test_coupling_verdict_is_exact(tmp_path, xu, expect, passed):
    out = tmp_path / "certs"
    path = _write_catalog(tmp_path, [{**COUPLING_SO5_U2, "id": "c",
                                      "Xu": xu, "expect": expect}])
    code = run_cli(["run", path, "--out", str(out), "--jobs", "1"])
    assert code == (0 if passed else 1)
    assert json.loads((out / "c.json").read_text())["passed"] is passed


def test_run_reports_its_time_on_stderr_only(tmp_path, capsys):
    assert run_cli(["run", "paper_examples", "--out", str(tmp_path / "c"),
                    "--jobs", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.out == (
        "ok   so5_so4_J            fat\n"
        "ok   so41_so4_J           fat\n"
        "ok   so5_u2_J_coupling    fat\n"
        "ok   b2_shift_unit_square\n"
        "ok   pinched_n2\n"
        "5/5 instances passed\n")
    ids = [s.id for s in builtin_catalog("paper_examples")]
    (line,) = captured.err.splitlines()
    assert line.startswith("run: 5 instances in ")
    slowest = line.split("; slowest ")[1].split(" (")[0]
    assert slowest in ids


@pytest.mark.parametrize("tol", ["inf", "Infinity"])
def test_non_finite_tol_override_exits_two(tmp_path, capsys, tol):
    with pytest.raises(SystemExit) as exc:
        run_cli(["run", "paper_examples", "--out", str(tmp_path / "c"),
                 "--tol", tol])
    assert exc.value.code == 2
    assert "must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("text, message", [
    # A string that float() reads as infinite.
    (json.dumps([{**GOOD, "tol": "inf"}]),
     "tol must be a positive finite number, got 'inf'"),
    # Python's json reads these literals by default; JSON has none of them.
    (json.dumps([GOOD])[:-2] + ', "tol": Infinity}]',
     "Infinity is not a finite JSON number"),
    (json.dumps([GOOD])[:-2] + ', "pinch": {"epsilon": NaN}}]',
     "NaN is not a finite JSON number"),
    # A number literal too large for a float.
    (json.dumps([GOOD])[:-2] + ', "dual": {"scale": 1e999}}]',
     "1e999 is not a finite JSON number"),
], ids=["inf_string", "Infinity_literal", "NaN_literal", "overflowing_literal"])
def test_non_finite_catalog_values_exit_two(tmp_path, capsys, text, message):
    path = tmp_path / "catalog.json"
    path.write_text(text)
    assert run_cli(["run", str(path), "--out", str(tmp_path / "c")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


def test_coupling_past_the_float_range_writes_null_floats(tmp_path):
    # The exact determinant decides; a float report value past the float
    # range is null: the whole float Gram of Xu = (1e400, 2), and the
    # Pfaffian alone of an 82-digit Xu.
    catalog = [{"id": "huge", "g": {"family": "so", "params": [5]},
                "h": {"type": "so", "params": [4]}, "Xu": ["1e400", "2"],
                "run": ["coupling"], "expect": "fat"},
               {"id": "wide", "g": {"family": "so", "params": [5]},
                "h": {"type": "u", "params": [2]},
                "Xu": ["1" + "0" * 81, "1"], "run": ["coupling"],
                "expect": "fat"}]
    out = tmp_path / "certs"
    assert run_cli(["run", _write_catalog(tmp_path, catalog),
                    "--out", str(out)]) == 0
    huge = json.loads((out / "huge.json").read_text())["coupling"]
    assert huge["min_sv"] is huge["pfaffian_abs"] is None
    assert huge["blocks"]["cross_block_zero"]
    assert huge["blocks"]["horizontal_equals_fatness_gram"]
    for key in ("cross_max_abs", "fiber_min_sv", "horizontal_min_sv",
                "fiber_to_horizontal_norm_ratio"):
        assert huge["blocks"][key] is None
    wide = json.loads((out / "wide.json").read_text())["coupling"]
    assert wide["pfaffian_abs"] is None and wide["min_sv"] == 6.0


@pytest.mark.parametrize("pinch, message", [
    # int() ran these as n = 2 and 1 frame; float() read the strings.
    ({"n": 2.7}, "pinch.n must be an integer in 1..8, got 2.7"),
    ({"n": "2"}, "pinch.n must be an integer in 1..8, got '2'"),
    ({"frames": True}, "pinch.frames must be an integer <= 10000, got True"),
    ({"frames": "3"}, "pinch.frames must be an integer <= 10000, got '3'"),
    ({"epsilon": "0.3"}, "pinch.epsilon must be a finite number, got '0.3'"),
    ({"epsilon": False}, "pinch.epsilon must be a finite number, got False"),
    # Any sign but "-" and -1 ran as +.
    ({"sign": "x"}, 'pinch.sign must be "+", "-", 1 or -1, got \'x\''),
    ({"sign": True}, 'pinch.sign must be "+", "-", 1 or -1, got True'),
    ({"sign": 1.0}, 'pinch.sign must be "+", "-", 1 or -1, got 1.0'),
    # The budget; n = 0 sampled planes in R^0 forever.
    ({"n": 9}, "pinch.n must be an integer in 1..8, got 9"),
    ({"n": 0, "epsilon": 0.1}, "pinch.n must be an integer in 1..8, got 0"),
    ({"frames": 10001}, "pinch.frames must be an integer <= 10000, got 10001"),
])
def test_mistyped_or_oversized_pinch_keys_exit_two(tmp_path, capsys, pinch,
                                                   message):
    path = _write_catalog(tmp_path, [
        {"id": "p", "run": ["pinch"], "pinch": pinch}])
    assert run_cli(["run", path, "--out", str(tmp_path / "c")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


def test_pinch_keys_at_the_budget_and_integer_epsilon_parse(tmp_path):
    spec = InstanceSpec.from_json({"id": "p", "run": ["pinch"], "pinch": {
        "n": 8, "frames": 10000, "epsilon": 0, "sign": -1}})
    assert spec.pinch == {"n": 8, "frames": 10000, "epsilon": 0, "sign": -1}


def test_zero_pinch_frames_gives_fail_certificate(tmp_path, capsys):
    out = tmp_path / "certs"
    path = _write_catalog(tmp_path, [
        {"id": "bad", "run": ["pinch"], "pinch": {"n": 2, "frames": 0}}, GOOD])
    assert run_cli(["run", path, "--out", str(out)]) == 1
    broken = json.loads((out / "bad.json").read_text())
    assert broken["error"] == "ValueError: num_frames must be >= 1"
    assert json.loads((out / "good.json").read_text())["passed"]


def test_oracle_past_the_float_range_and_ill_conditioned_gram_pass(
        tmp_path, capsys):
    # Exact verdicts on inputs whose float Gram overflows, or whose
    # smin / smax = 1e-13 is under tol: both fat, with agreed true and
    # well_conditioned false, and explain says the exact rank decided.
    import fatbundles
    pair = {"g": {"family": "so", "params": [5]},
            "h": {"type": "so", "params": [4]}}
    catalog = [{"id": "huge", **pair, "Xu": ["1e400", "2"], "run": ["oracle"]},
               {"id": "thin", **pair, "Xu": ["1", "1/10000000000000"],
                "expect": "fat"}]
    out = tmp_path / "certs"
    assert run_cli(["run", _write_catalog(tmp_path, catalog),
                    "--out", str(out)]) == 0
    huge = json.loads((out / "huge.json").read_text())
    assert huge["schema_version"] == 3
    assert huge["version"] == fatbundles.__version__
    cert = huge["certificate"]
    assert cert["verdicts"]["oracle"] == "fat" and cert["agreed"]
    assert cert["min_sv"] is cert["max_sv"] is None
    assert cert["well_conditioned"] is False
    thin = json.loads((out / "thin.json").read_text())["certificate"]
    assert thin["agreed"] and thin["well_conditioned"] is False
    assert (thin["min_sv"], thin["max_sv"]) == (6e-13, 6.0)
    capsys.readouterr()
    for iid in ("huge", "thin"):
        assert run_cli(["explain", iid, "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "tol 1e-09, well conditioned False (schema 3)" in text
        assert "the exact rank of the Gram decided" in text


PINCH = {"run": ["pinch"], "pinch": {"n": 2, "epsilon": 0.54, "frames": 5}}


@pytest.mark.parametrize("entry, message", [
    # Each of these ran (exit 0 or a FAIL certificate) or raised KeyError.
    ({**GOOD, "sampels": 5}, "unknown key sampels = 5"),
    ({**GOOD, "g": {"family": "so", "params": [5], "parms": [3]}},
     "unknown key g.parms = [3]"),
    ({"id": "s", "run": ["shift"], "shift": {**SHIFT, "rank": 2.7}},
     "shift.rank must be an integer in 1..8, got 2.7"),
    ({"id": "s", "run": ["shift"], "shift": {**SHIFT, "expect_shift": "no"}},
     "shift.expect_shift must be true, got 'no'"),
    # A shift always exists, so false could only fail the entry.
    ({"id": "s", "run": ["shift"], "shift": {**SHIFT, "expect_shift": False}},
     "shift.expect_shift must be true, got False"),
    ({k: v for k, v in GOOD.items() if k != "id"}, "id is required"),
    ({**GOOD, "run": []}, "run must give expect a verdict, got []"),
    ({"id": "s", "run": ["shift"], "shift": SHIFT, "expect": "not_fat"},
     "run must give expect a verdict, got ['shift']"),
    ({**GOOD, "g": {"family": 5, "params": [5]}}, "g.family must be a string, got 5"),
    # Tracebacks through the CLI: OverflowError and ZeroDivisionError.
    ({**GOOD, "tol": 10**400},
     f"tol must be a positive finite number, got {10**400}"),
    ({**GOOD, "Xu": ["1/0", "1"]}, "Xu must be a list of rationals (strings of "
     "<= 1000 characters with |exponent| <= 1000), got ['1/0', '1']"),
    # Past the size budget; a shift search at rank 10^6 was killed for memory.
    ({**GOOD, "g": {"family": "so", "params": [400]}},
     "g.params must be a list of positive integers with sum <= 32, got [400]"),
    ({"id": "s", "run": ["shift"], "shift": {**SHIFT, "rank": 10**6}},
     "shift.rank must be an integer in 1..8, got 1000000"),
    ({**GOOD, "samples": 10**5}, "samples must be an integer in 0..10000, got 100000"),
], ids=["sampels", "g_parms", "rank_float", "expect_shift_string",
        "expect_shift_false", "no_id", "expect_no_run", "expect_shift_run",
        "family_int", "tol_past_float", "Xu_zero_denominator", "params_400",
        "rank_million", "samples_1e5"])
def test_entries_outside_the_contract_raise(entry, message):
    with pytest.raises(ValueError) as exc:
        InstanceSpec.from_json(entry)
    assert str(exc.value) == message


@pytest.mark.parametrize("entry", [
    {**GOOD, "g": {"family": "so", "params": [32]},
     "h": {"type": "so", "params": [32]}, "samples": 10**4},
    {**GOOD, "g": {"family": "so", "params": [31, 1]},
     "h": {"type": "so", "params": [1]}, "samples": 0},
    {"id": "s", "run": ["shift"], "shift": {**SHIFT, "rank": 8}},
    {"id": "s", "run": ["shift"], "shift": {**SHIFT, "rank": 1}},
    {**GOOD, "run": ["dual"], "dual": {"samples": 10**4}, "expect": None},
    {**PINCH, "id": "p", "expect": "not_fat"},
    # null means absent: these are the defaults.
    {"id": "n", "g": None, "h": None, "Xu": None, "run": None, "expect": None,
     "seed": None, "tol": None, "samples": None, "pinch": None, "shift": None,
     "dual": None},
], ids=["params_32", "params_31_1", "rank_8", "rank_1", "dual_samples_1e4",
        "pinch_expect", "nulls"])
def test_entries_at_the_budget_edges_and_nulls_parse(entry):
    spec = InstanceSpec.from_json(entry)
    assert InstanceSpec.from_json(spec.to_json()) == spec
    if entry["id"] == "n":
        assert spec == InstanceSpec(id="n")


# Valid entries inside a small budget (so(<= 7), pinch n <= 2 and frames
# <= 5, samples <= 5); every value a mutation swaps in keeps them there.
VALID = [
    {**GOOD, "samples": 3, "seed": 2, "tol": 1e-9},
    {**COUPLING_SO5_U2, "id": "c", "Xu": ["1", "2"], "expect": "fat"},
    {**PINCH, "id": "p", "seed": 1, "expect": "fat"},
    {"id": "d", "g": {"family": "so", "params": [4, 1]},
     "h": {"type": "so", "params": [4]}, "run": ["dual"], "dual": {"samples": 5}},
    {"id": "s", "run": ["shift"], "shift": SHIFT},
]
BIG = 10**40
WRONG = [None, True, False, 0, 1, 2, -1, 2.7, "x", "12", "roots", [], {}, [1],
         ["1", "2"], [["1", "2"]], BIG, 3 * BIG / 7, 3 / (7 * BIG),
         [f"{3 * BIG}/7", f"3/{7 * BIG}"], 10**400]


@st.composite
def mutated_entries(draw):
    entry = json.loads(json.dumps(draw(st.sampled_from(VALID))))
    for _ in range(draw(st.integers(1, 3))):
        objects = [entry] + [v for v in entry.values() if isinstance(v, dict)]
        obj = draw(st.sampled_from(objects))
        keys = sorted(obj) or ["id"]
        key = draw(st.sampled_from(keys))
        action = draw(st.sampled_from(["drop", "rename", "add", "swap"]))
        if action == "drop":
            obj.pop(key, None)
        elif action == "rename" and key in obj:
            obj[key + "_"] = obj.pop(key)
        elif action == "add":
            obj[draw(st.sampled_from(["sampels", "frame", "parms", "Xv"]))] = 1
        else:
            obj[key] = draw(st.sampled_from(WRONG))
    return entry


@settings(max_examples=100, deadline=None)
@given(entry=mutated_entries())
def test_mutated_entries_raise_value_error_or_run_deterministically(entry):
    try:
        spec = InstanceSpec.from_json(entry)
    except ValueError:
        return
    first = dumps_canonical(run_instance(spec)[1])
    assert dumps_canonical(run_instance(spec)[1]) == first


def test_readme_key_table_is_the_contract():
    readme = pathlib.Path(__file__).parents[1] / "README.md"
    rows = {key: (rule, default) for key, rule, default in re.findall(
        r"^\| `([\w.]+)` \| (.+?) \| (.+?) \|$", readme.read_text(), re.M)}
    rules = {}

    def walk(table, path):
        for key, rule in table.items():
            if isinstance(rule, dict):
                walk(rule, f"{path}{key}.")
            else:
                rules[path + key] = rule[0]
    walk(ENTRY, "")
    assert {k: rule for k, (rule, _) in rows.items()} == rules
    assert {k for k, (_, default) in rows.items()
            if default.startswith("required")} == set(REQUIRED)


def test_readme_quick_start_prints_what_its_comments_say(capsys):
    # Each print in the README's Python block is followed by the line it
    # prints, as a comment; a trailing "(exact)" is a note, not output.
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    (block,) = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    want = [re.sub(r" \(exact\)$", "", line.split("# ", 1)[1].strip())
            for line in block.splitlines() if line.startswith("print(")]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == want
    assert want == ["((-1, 0), (0, -1), (0, 1), (1, 0))", "True 6.0", "0",
                    "(6.0, 864.0)", "fat"]


RATIONALS = "(strings of <= 1000 characters with |exponent| <= 1000)"


@pytest.mark.parametrize("text, message", [
    # json.loads raised a plain ValueError past the int-string digit limit.
    ('[{"id": "a", "seed": %s}]' % ("1" * 5000,),
     "Exceeds the limit (4300 digits) for integer string conversion"),
    # Fraction("1e100000000") expands the exponent: minutes of parsing.
    (json.dumps([{**GOOD, "Xu": ["1e100000000", "1"]}]),
     f"Xu must be a list of rationals {RATIONALS}, got ['1e100000000', '1']"),
    (json.dumps([{"id": "s", "run": ["shift"],
                  "shift": {**SHIFT, "vertices": [["0", "1E-100000000"]]}}]),
     f"shift.vertices must be a list of rational lists {RATIONALS}"),
    (json.dumps([{**GOOD, "Xu": ["1" * 1001, "1"]}]),
     f"Xu must be a list of rationals {RATIONALS}"),
], ids=["int_5000_digits", "Xu_exponent", "vertex_exponent", "Xu_1001_chars"])
def test_oversized_literals_exit_two_at_once(tmp_path, capsys, text, message):
    path = tmp_path / "catalog.json"
    path.write_text(text)
    start = time.perf_counter()
    assert run_cli(["run", str(path), "--out", str(tmp_path / "c")]) == 2
    assert time.perf_counter() - start < 1
    assert message in capsys.readouterr().err


def test_rationals_at_the_string_budget_parse():
    for xu in (["1" * 1000, "1e1000"], ["1e-1000", "1/" + "3" * 998], [10**1000, 1]):
        assert InstanceSpec.from_json({**GOOD, "Xu": xu}).xu_torus is not None


@pytest.mark.parametrize("entry, message", [
    # A g without h ran to "TypeError: 'NoneType' object is not iterable".
    ({**GOOD, "h": None}, "h is required with g"),
    ({**GOOD, "g": None}, "g is required with h"),
    # An h without params ran to "IndexError: tuple index out of range".
    ({**GOOD, "h": {"type": "so"}}, "h.params is required"),
    ({**GOOD, "g": {"params": [5]}}, "g.family is required"),
], ids=["g_without_h", "h_without_g", "h_without_params", "g_without_family"])
def test_a_pair_needs_g_and_h_in_full(entry, message):
    with pytest.raises(ValueError) as exc:
        InstanceSpec.from_json(entry)
    assert str(exc.value) == message


@pytest.mark.parametrize("entry, error", [
    # so(3,1) has rank 2 and the so(3) block torus rank 1, as so(31,1) and
    # so(30) have 16 and 15: "AttributeError: 'NoneType' object has no
    # attribute 'rank'".
    ({"id": "x", "g": {"family": "so", "params": [3, 1]},
      "h": {"type": "so", "params": [3]}, "run": ["dual"]},
     "FatBundleError: x: dual needs g, h and a full-rank torus"),
    ({"id": "x", "run": ["dual"]},
     "FatBundleError: x: dual needs g, h and a full-rank torus"),
    # Each ran to an AttributeError or a TypeError on the missing X_u.
    ({**COUPLING_SO5_U2, "id": "x"}, "FatBundleError: x: coupling needs an Xu, g and h"),
    ({"id": "x", "Xu": ["1", "1"], "run": ["coupling"]},
     "FatBundleError: x: coupling needs an Xu, g and h"),
], ids=["dual_torus_rank", "dual_no_pair", "coupling_no_xu", "coupling_no_pair"])
def test_runs_missing_their_inputs_name_the_cause(entry, error):
    passed, payload = run_instance(InstanceSpec.from_json(entry))
    assert not passed and payload["error"] == error


def test_a_shift_entry_writes_the_values_of_its_shifted_vertices(tmp_path, capsys):
    # Every forbidden root keeps one strict sign on the shifted vertices, as
    # the certificate's evaluations show, and the entry passes.
    entry = {"id": "s", "run": ["shift"], "shift": SHIFT}
    out = tmp_path / "certs"
    assert run_cli(["run", _write_catalog(tmp_path, [entry]), "--out", str(out)]) == 0
    assert "1/1 instances passed" in capsys.readouterr().out
    cert = json.loads((out / "s.json").read_text())
    assert cert["passed"] is True and "error" not in cert
    search = cert["shift_search"]
    assert search["verified"] is True
    shift = parse_vec(search["shift"])
    vertices = [parse_vec(v) for v in SHIFT["vertices"]]
    assert sorted(search["evaluations"]) == sorted(
        ",".join(map(str, r)) for r in search["forbidden"])
    for key, values in search["evaluations"].items():
        root = [int(c) for c in key.split(",")]
        expected = [sum(a * (x + s) for a, x, s in zip(root, v, shift)) for v in vertices]
        assert parse_vec(values) == tuple(expected)
        assert all(x > 0 for x in expected) or all(x < 0 for x in expected)


def test_a_shift_on_a_wall_fails_the_entry(tmp_path, capsys):
    # The verdict is the written check: a shift that leaves the vertex 0 on
    # every wall fails the entry that expects a shift.
    entry = {"id": "s", "run": ["shift"], "shift": SHIFT}
    with mock.patch("fatbundles.catalog.find_fat_shift", return_value=(Fraction(0),) * 2):
        passed, payload = run_instance(InstanceSpec.from_json(entry))
        out = tmp_path / "certs"
        assert run_cli(["run", _write_catalog(tmp_path, [entry]), "--out", str(out)]) == 1
    assert not passed and payload["passed"] is False and "error" not in payload
    search = payload["shift_search"]
    assert search["shift"] == ["0", "0"] and search["verified"] is False
    assert all(values[0] == "0" for values in search["evaluations"].values())
    assert "0/1 instances passed" in capsys.readouterr().out
    assert json.loads((out / "s.json").read_text()) == json.loads(dumps_canonical(payload))


def test_a_shift_instance_evaluates_its_vertices_once():
    # One shift_values result: the certificate's evaluations, read by the
    # one strict-sign rule, strict_signs, for both the search and verified.
    from fatbundles import rootdata
    entry = {"id": "s", "run": ["shift"], "shift": {**SHIFT, "vertices": [["0", "0"], ["1", "0"]]}}
    count = mock.Mock(wraps=rootdata.shift_values)
    with mock.patch("fatbundles.rootdata.shift_values", count), \
            mock.patch("fatbundles.catalog.shift_values", count):
        passed, payload = run_instance(InstanceSpec.from_json(entry))
    assert passed and payload["shift_search"]["verified"] is True
    assert count.call_count == 1


B3_NO_SHIFT = {"type": "B", "rank": 3, "member_roots": []}


@pytest.mark.parametrize("vertices, error", [
    # The roots were cut to 2 coordinates: "no shift", and the run passed,
    # although the segment lifted to 3 coordinates has one.
    ([["0", "0"], ["1", "1"]], "vertex 0 has 2 coordinates"),
    # "AssertionError: feasible pattern failed verification".
    ([["0", "0", "0"], ["1", "1"]], "vertex 1 has 2 coordinates"),
    # "IndexError: tuple index out of range".
    ([["0", "0", "0", "0"], ["1", "1", "1", "1"]], "vertex 0 has 4 coordinates"),
], ids=["short", "ragged", "long"])
def test_shift_vertices_of_the_wrong_length_fail_with_the_cause(tmp_path, capsys,
                                                               vertices, error):
    entry = {"id": "s", "run": ["shift"], "shift": {**B3_NO_SHIFT, "vertices": vertices}}
    error = f"DimensionMismatch: {error}, but the roots of B_3 have 3"
    passed, payload = run_instance(InstanceSpec.from_json(entry))
    assert not passed and payload["error"] == error
    out = tmp_path / "certs"
    assert run_cli(["run", _write_catalog(tmp_path, [entry]), "--out", str(out)]) == 1
    assert "0/1 instances passed" in capsys.readouterr().out
    assert json.loads((out / "s.json").read_text())["error"] == error
