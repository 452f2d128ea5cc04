import json
import os

import pytest

import hermlat
from hermlat.cli import main
from hermlat.etale import EtaleAlgebra
from hermlat.specfile import (
    element_str,
    parse_element,
    parse_lattice,
    parse_matrix,
    serialize_lattice,
)
from hermlat.errors import PrecisionLoss, SpecFileError, UnsupportedCase
from hermlat.linalg import mat_eq


CATALOG = hermlat.catalog_files()


def test_catalog_is_large_enough():
    assert len(CATALOG) >= 10


@pytest.mark.parametrize("path", CATALOG, ids=[os.path.basename(p) for p in CATALOG])
def test_catalog_parses(path):
    with open(path) as fh:
        lat = parse_lattice(fh.read())
    assert lat.n >= 1


def test_parse_errors_are_positional(tmp_path):
    bad = "[field]\np = 2\n[algebra]\nkind = split\n[gram]\n1, oops\noops, 1\n"
    with pytest.raises(SpecFileError) as exc:
        parse_lattice(bad)
    assert "line 6" in str(exc.value)


def test_element_roundtrip():
    from hermlat.localfield import LocalField

    K = LocalField(2, unramified_poly=[1, 1])
    alg = EtaleAlgebra.quadratic(K, 0, -2)
    elems = [
        alg.from_int(7),
        alg.gen() * 3 + alg.from_int(1),
        alg.from_K(K.gen_unramified()) * alg.gen(),
        alg.one / alg.from_int(-3),
        alg.gen() ** -1,
    ]
    for e in elems:
        back = parse_element(alg, element_str(e))
        assert (back - e).is_zero()


def test_gram_roundtrip_on_catalog():
    for path in CATALOG:
        with open(path) as fh:
            text = fh.read()
        lat = parse_lattice(text)
        rendered = "\n".join(", ".join(element_str(e) for e in row)
                              for row in lat.gram)
        again = parse_matrix(lat.alg, rendered)
        assert mat_eq(again, lat.gram)


def test_serialize_lattice_roundtrip_on_catalog():
    def triples(gram):
        return [[(c.co, c.shift, c.ncap) for e in row for c in (e.x0, e.x1)]
                for row in gram]

    for path in CATALOG:
        with open(path) as fh:
            text = fh.read()
        lat = parse_lattice(text)
        header = text.split("[gram]", 1)[0].splitlines()
        again = parse_lattice(serialize_lattice(lat, header))
        assert triples(again.gram) == triples(lat.gram), path


def _cat(name):
    return hermlat.catalog_path(name)


def test_cli_classify_and_jordan(capsys):
    assert main(["classify", "--spec", _cat("q2sqrt2-a01.lat")]) == 0
    out = capsys.readouterr().out
    recs = [json.loads(line) for line in out.splitlines()]
    assert recs[0]["record"] == "jordan_type"
    assert any(r.get("record") == "hyperbolic" and r["splits"] is False
               for r in recs)
    assert main(["jordan", "--spec", _cat("inert3.lat")]) == 0


def test_cli_isometric(capsys):
    rc = main(["isometric", _cat("q2sqrt2-a01.lat"), _cat("q2sqrt2-a01.lat")])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out.splitlines()[0])
    assert rec["result"] is True and rec["failed_condition"] is None
    rc = main(["isometric", _cat("q2sqrt2-a01.lat"), _cat("q2sqrt2-h1h1.lat")])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out.splitlines()[0])
    assert rec["result"] is False
    assert rec["failed_condition"] == 1


def test_cli_isometric_rejects_different_fields(tmp_path, capsys):
    # Q_2(sqrt 2) and Q_2(sqrt 6): same p, different Eisenstein polynomials
    paths = []
    for c in (-2, -6):
        path = tmp_path / f"split{-c}.lat"
        path.write_text(f"[field]\np = 2\neisenstein_poly = {c}, 0\n"
                        "[algebra]\nkind = split\n[gram]\n1, 0\n0, 1\n")
        paths.append(str(path))
    assert main(["isometric", *paths]) == 2
    assert "field data does not match" in capsys.readouterr().err
    assert main(["isometric", paths[0], paths[0]]) == 0


def test_cli_factor_identity(tmp_path, capsys):
    mat = tmp_path / "id.mat"
    mat.write_text("1, 0\n0, 1\n")
    rc = main(["factor", "--spec", _cat("split2.lat"),
               "--isometry", str(mat)])
    assert rc == 0
    recs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert recs[-1]["record"] == "certificate"
    assert recs[-1]["factors"] == 0


def test_cli_factor_bad_input(tmp_path, capsys):
    mat = tmp_path / "swap.mat"
    mat.write_text("0, 1\n1, 0\n")
    rc = main(["factor", "--spec", _cat("split2.lat"),
               "--isometry", str(mat)])
    assert rc == 2


def test_cli_factor_non_integral_matrix_is_an_input_error(tmp_path, capsys):
    mat = tmp_path / "half.mat"
    mat.write_text("1/2, 0\n0, 1\n")
    rc = main(["factor", "--spec", _cat("split2.lat"), "--isometry", str(mat)])
    assert rc == 2
    assert "error: matrix is not integral" in capsys.readouterr().err


def test_cli_classify_unsupported_case_exits_3(tmp_path, capsys):
    """A(0,1) ⟂ <2> over Q_2(√2) is a valid lattice on which the
    hyperbolic-pair search finds no candidate: that is a gap in the code,
    exit 3, not an input error."""
    spec = tmp_path / "a01_2.lat"
    spec.write_text("[field]\np = 2\n[algebra]\nkind = ramified\npoly = -2, 0\n"
                    "[gram]\n2, 1, 0\n1, -2, 0\n0, 0, 2\n")
    assert main(["classify", "--spec", str(spec)]) == 3
    assert "unsupported case:" in capsys.readouterr().err


def test_cli_roundtrip_deterministic(tmp_path, capsys):
    args = ["roundtrip", "--spec", _cat("inert3.lat"),
            "--trials", "3", "--seed", "5"]
    assert main(args) == 0
    out1 = capsys.readouterr().out
    assert main(args) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    rec = json.loads(out1.splitlines()[0])
    assert rec["passed"] == 3


def test_cli_selftest(capsys):
    assert main(["selftest"]) == 0


def test_cli_report_file(tmp_path, capsys):
    report = tmp_path / "report.jsonl"
    assert main(["classify", "--spec", _cat("split2.lat"),
                 "--report", str(report)]) == 0
    assert report.read_text() == capsys.readouterr().out


def _flaky_factor(monkeypatch, losses, error=PrecisionLoss):
    """Make the CLI's factor_unitary raise `error` `losses` times before it
    runs; returns the working precisions it was called at."""
    import hermlat.cli as cli

    precisions = []
    real = cli.factor_unitary

    def flaky(lat, phi):
        precisions.append(lat.alg.base.precision)
        if len(precisions) <= losses:
            raise error("injected")
        return real(lat, phi)

    monkeypatch.setattr(cli, "factor_unitary", flaky)
    return precisions


def test_cli_factor_retries_at_doubled_precision(tmp_path, capsys, monkeypatch):
    precisions = _flaky_factor(monkeypatch, 2)
    mat = tmp_path / "id.mat"
    mat.write_text("1, 0\n0, 1\n")
    assert main(["factor", "--spec", _cat("split2.lat"), "--isometry", str(mat)]) == 0
    assert precisions == [64, 128, 256]
    recs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert recs[-1]["record"] == "certificate"


def test_cli_factor_gives_up_after_five_attempts(tmp_path, capsys, monkeypatch):
    precisions = _flaky_factor(monkeypatch, 5)
    mat = tmp_path / "id.mat"
    mat.write_text("1, 0\n0, 1\n")
    assert main(["factor", "--spec", _cat("split2.lat"), "--isometry", str(mat)]) == 2
    assert precisions == [64, 128, 256, 512, 1024]
    assert "error: injected" in capsys.readouterr().err


def test_cli_roundtrip_records_precision_loss_after_four_attempts(capsys, monkeypatch):
    precisions = _flaky_factor(monkeypatch, 4)
    assert main(["roundtrip", "--spec", _cat("inert3.lat"),
                 "--trials", "2", "--seed", "5"]) == 1
    rec = json.loads(capsys.readouterr().out.splitlines()[0])
    assert rec["passed"] == 1
    assert rec["failures"] == [{"trial": 0, "error": "PrecisionLoss: injected"}]
    assert precisions == [64, 128, 256, 512, 64]


def test_cli_factor_does_not_retry_an_unsupported_case(tmp_path, capsys, monkeypatch):
    precisions = _flaky_factor(monkeypatch, 1, UnsupportedCase)
    mat = tmp_path / "id.mat"
    mat.write_text("1, 0\n0, 1\n")
    assert main(["factor", "--spec", _cat("split2.lat"), "--isometry", str(mat)]) == 3
    assert precisions == [64]
    assert "unsupported case: injected" in capsys.readouterr().err


def test_cli_roundtrip_does_not_retry_an_unsupported_case(capsys, monkeypatch):
    precisions = _flaky_factor(monkeypatch, 1, UnsupportedCase)
    assert main(["roundtrip", "--spec", _cat("inert3.lat"),
                 "--trials", "2", "--seed", "5"]) == 1
    rec = json.loads(capsys.readouterr().out.splitlines()[0])
    assert rec["passed"] == 1
    assert rec["failures"] == [{"trial": 0, "error": "UnsupportedCase: injected"}]
    assert precisions == [64, 64]


def test_cli_roundtrip_loads_the_spec_once_per_precision(capsys, monkeypatch):
    """The trials at one working precision share one lattice, and with it
    its factorization plan and hyperbolic pair."""
    import hermlat.cli as cli

    loads = []
    real = cli._load_lattice

    def counting(*args):
        loads.append(args)
        return real(*args)

    monkeypatch.setattr(cli, "_load_lattice", counting)
    assert main(["roundtrip", "--spec", _cat("q2sqrt2-sub.lat"),
                 "--trials", "6", "--seed", "5"]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[0])["passed"] == 6
    assert loads == [(_cat("q2sqrt2-sub.lat"), 64)]
