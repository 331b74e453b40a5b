"""Command line entry points, exercised in-process."""

import json

import pytest

from pathcert.cli import main
from pathcert.systems import float_out
from pathcert.tracker import TrackerConfig


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "run"
    code = main(["bench", "run", "--family", "newton", "--m", "10",
                 "--out", str(out)])
    assert code == 0
    return out


def test_bench_run_writes_outputs(run_dir, capsys):
    assert (run_dir / "report.json").exists()
    assert (run_dir / "cert_000.json").exists()


def test_bench_run_defaults_to_tracker_config(run_dir):
    config = json.loads((run_dir / "report.json").read_text())["config"]
    want = TrackerConfig()
    assert config["lambda"] == float_out(want.lam)
    assert config["dt0"] == float_out(want.dt0)
    assert config["r0"] == float_out(want.r0)


def test_bench_run_reports_progress(tmp_path, capsys):
    out = tmp_path / "r2"
    assert main(["bench", "run", "--family", "newton", "--m", "10",
                 "--dt0", "0.05", "--r0", "0.1", "--lambda", "3",
                 "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "1/1 paths certified" in text
    rep = json.loads((out / "report.json").read_text())
    assert rep["config"]["dt0"] == "0.05"


@pytest.mark.parametrize("flags", [
    ["--dt0", "0"], ["--dt0", "nan"], ["--r0", "inf"], ["--lambda", "1"],
], ids=["dt0-0", "dt0-nan", "r0-inf", "lambda-1"])
def test_bench_run_bad_config(tmp_path, capsys, flags):
    out = tmp_path / "run"
    assert main(["bench", "run", "--family", "newton", "--out", str(out)]
                + flags) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ValueError: ") and err.count("\n") == 1
    assert not out.exists()


def test_bench_run_negative_seed(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "run", "--family", "random", "--k", "1",
              "--seed", "-1", "--out", str(tmp_path / "run")])
    assert exc.value.code == 2
    assert "argument --seed: must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("target, error", [
    ("file", "FileExistsError"), ("file/sub", "NotADirectoryError"),
], ids=["existing-file", "below-a-file"])
def test_bench_run_bad_out_fails_before_tracking(tmp_path, capsys,
                                                  monkeypatch, target, error):
    import pathcert.bench as bench_mod
    tracked = []
    monkeypatch.setattr(bench_mod, "track",
                        lambda *a, **k: tracked.append(a))
    (tmp_path / "file").write_text("")
    assert main(["bench", "run", "--family", "newton",
                 "--out", str(tmp_path / target)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {error}: ") and err.count("\n") == 1
    assert tracked == []


def test_bench_verify_ok(run_dir, capsys):
    assert main(["bench", "verify", str(run_dir)]) == 0
    assert "all certificates verified" in capsys.readouterr().out


def test_bench_verify_missing_dir(tmp_path, capsys):
    assert main(["bench", "verify", str(tmp_path / "nope")]) == 1
    assert "error" in capsys.readouterr().err


def test_verify_certificate_ok(run_dir, capsys):
    assert main(["verify", str(run_dir / "cert_000.json")]) == 0
    assert capsys.readouterr().out.startswith("OK")


def test_verify_tampered_certificate_fails(run_dir, tmp_path, capsys):
    obj = json.loads((run_dir / "cert_000.json").read_text())
    seg = obj["segments"][len(obj["segments"]) // 2]
    # shrink the certified region; existence replay must now fail
    row = [float(v) for v in seg["box"][0]]
    mid_re, mid_im = (row[0] + row[1]) / 2, (row[2] + row[3]) / 2
    h_re, h_im = (row[1] - row[0]) * 5e-7, (row[3] - row[2]) * 5e-7
    seg["box"][0] = [repr(mid_re - h_re), repr(mid_re + h_re),
                     repr(mid_im - h_im), repr(mid_im + h_im)]
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(obj))
    assert main(["verify", str(bad)]) == 1
    assert "FAIL" in capsys.readouterr().out


_MISSING = object()


@pytest.mark.parametrize("where, value, error", [
    (None, "{not json", "ParseError"),
    (None, None, "ParseError"),
    (("path_id",), "x", "MalformedCertificate"),
    (("segments", 0), ["t_lo", "t_hi"], "MalformedCertificate"),
    (("homotopy",), [], "ParseError"),
    (("homotopy", "system", "equations"), 5, "ParseError"),
    (("homotopy", "system", "equations", 0, 0, "exponents"), [2**40],
     "MalformedCertificate"),
    (("homotopy", "system", "equations", 0, 0, "exponents"), [2**63],
     "MalformedCertificate"),
    (("version",), 99, "MalformedCertificate"),
    (("version",), "one", "MalformedCertificate"),
    (("version",), None, "MalformedCertificate"),
    (("version",), True, "MalformedCertificate"),
    (("version",), _MISSING, "MalformedCertificate"),
    (("homotopy", "system", "equations", 0, 0, "exponents"), [2.5],
     "ParseError"),
    (("homotopy", "system", "equations", 0, 0, "exponents"), ["2"],
     "ParseError"),
    (("homotopy", "system", "equations", 0, 2, "param_index"), 0.9,
     "ParseError"),
    (("homotopy", "system", "equations", 0, 2, "param_index"), "0",
     "ParseError"),
    (("homotopy", "system", "n"), 1.7, "ParseError"),
    (("homotopy", "system", "m"), True, "ParseError"),
    (("homotopy", "system", "equations", 0, 0, "coeff_re"), True,
     "ParseError"),
    (("homotopy", "system", "equations", 0, 0, "coeff_im"), False,
     "ParseError"),
    (("segments", 0, "t_lo"), False, "ParseError"),
    (("segments", 0, "box", 0, 0), True, "ParseError"),
    (("homotopy", "p1", 0, 0), True, "ParseError"),
    (("homotopy", "p0"), [["0.0", "0.0"]] * 2, "MalformedCertificate"),
    (("homotopy", "p0", 0, 0), "inf", "MalformedCertificate"),
    # the tilted certificate relabelled rect: no segment has a center
    (("mode",), "rect", "MalformedCertificate"),
    (("segments", 3, "shear_x1"), _MISSING, "MalformedCertificate"),
], ids=["not-json", "missing-file", "path-id-string", "segment-list",
        "homotopy-list", "equations-int", "exponent-2**40", "exponent-2**63",
        "version-99", "version-string", "version-null", "version-true",
        "version-missing", "exponent-float", "exponent-string",
        "param-index-float", "param-index-string", "n-float", "m-true",
        "coeff-re-true", "coeff-im-false", "t-lo-false", "box-true",
        "p1-true", "p0-length", "p0-inf", "rect-without-center",
        "tilted-without-shear-x1"])
def test_verify_unparseable_certificate(run_dir, tmp_path, capsys, where,
                                        value, error):
    bad = tmp_path / "junk.json"
    if where is None:
        if value is not None:
            bad.write_text(value)
    else:
        obj = json.loads((run_dir / "cert_000.json").read_text())
        parent = obj
        for key in where[:-1]:
            parent = parent[key]
        if value is _MISSING:
            del parent[where[-1]]
        else:
            parent[where[-1]] = value
        bad.write_text(json.dumps(obj))
    assert main(["verify", str(bad)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {error}: ")


def test_bench_verify_malformed_report(run_dir, tmp_path, capsys):
    out = tmp_path / "run"
    out.mkdir()
    (out / "report.json").write_text("[]")
    assert main(["bench", "verify", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ParseError: ")
    report = json.loads((run_dir / "report.json").read_text())
    del report["paths"][0]["cert_file"]
    (out / "report.json").write_text(json.dumps(report))
    assert main(["bench", "verify", str(out)]) == 1
    assert "path 0: MalformedCertificate: " in capsys.readouterr().out


def test_unknown_family_rejected(tmp_path):
    with pytest.raises(SystemExit):
        main(["bench", "run", "--family", "cyclic", "--out", str(tmp_path)])
