import json
import subprocess
import sys

import pytest

from radmix import theorems
from radmix.cli import _config_hash, main
from radmix.norms import QuadratureConfig

MONOMIAL1 = json.dumps({"repr": "Monomial", "n": 1})


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_norm_converged(capsys):
    code, out, _ = run_cli(["norm", "--function", MONOMIAL1,
                            "--p", "2", "--q", "3"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["converged"]
    assert abs(doc["value"] - 3 ** -0.5) < 1e-4
    assert doc["p"] == "2" and doc["q"] == "3"


def test_norm_divergent_exit_code(capsys):
    spec = json.dumps({"repr": "PowerSingularity", "alpha": 1.5})
    code, out, _ = run_cli(["--tol", "0.02", "norm", "--function", spec,
                            "--p", "2", "--q", "2"], capsys)
    assert code == 2
    doc = json.loads(out)
    assert not doc["converged"]
    assert doc["value"] is None
    assert doc["divergence_exponent"] > 0


def test_norm_nonfinite_level_is_strict_json(capsys):
    # the first level overflows; its trace value is written as null, not as
    # the non-JSON token Infinity
    spec = json.dumps({"repr": "PowerSingularity", "alpha": 400.0})
    code, out, _ = run_cli(["norm", "--function", spec, "--p", "2",
                            "--q", "inf"], capsys)
    assert code == 2
    doc = json.loads(out)
    json.dumps(doc, allow_nan=False)
    assert doc["stop"] == "nonfinite" and doc["trace"] == [[0, None]]
    assert doc["value"] is None


def test_norm_constant(capsys):
    spec = json.dumps({"repr": "TaylorPolynomial", "coeffs": [[1.0, 0.0]]})
    code, out, _ = run_cli(["norm", "--function", spec, "--p", "4", "--q", "1"],
                           capsys)
    assert code == 0
    assert abs(json.loads(out)["value"] - 1.0) < 1e-6


def test_malformed_spec_fails(capsys):
    code, _, err = run_cli(["norm", "--function", '{"repr": "Nope"}',
                            "--p", "2", "--q", "2"], capsys)
    assert code == 1
    assert "error" in err


def _nested(depth: int) -> str:
    """The JSON spec of z inside ``depth`` levels of Scaled(r = 1)."""
    return ('{"repr": "Scaled", "r": 1.0, "inner": ' * depth + MONOMIAL1
            + "}" * depth)


@pytest.mark.parametrize("spec", [
    {"repr": "Monomial", "n": 2.7},
    {"repr": "Monomial"},
    {"repr": "PowerSingularity", "alpha": "nan"},
    {"repr": "Lacunary", "nodes": [[1, [1.0, 0.0]], [1.5, [1.0, 0.0]]]},
    pytest.param(_nested(600), id="too_deep_to_decode"),
    # this deep, json.loads itself gives up
    pytest.param(_nested(3000), id="too_deep_to_parse"),
])
def test_invalid_spec_exits_1_without_output(capsys, spec):
    text = spec if isinstance(spec, str) else json.dumps(spec)
    code, out, err = run_cli(["norm", "--function", text,
                              "--p", "2", "--q", "2"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_witness_table(capsys, tmp_path):
    out_file = tmp_path / "w.csv"
    code, _, _ = run_cli(["witness", "--p", "2", "--K", "4",
                          "--out-file", str(out_file)], capsys)
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "k,r_k,a_k,eps_k,theta_k"
    rows = [l.split(",") for l in lines[1:5]]
    assert [float(r[1]) for r in rows] == [0.5, 0.25, 0.125, 0.0625]
    assert any(l.startswith("# disc_disjoint: True") for l in lines)
    assert any(l.startswith("# manifest:") for l in lines)


def test_project_rows(capsys, tmp_path):
    spec = json.dumps({"repr": "Monomial", "n": 3})
    out_file = tmp_path / "p.csv"
    code, _, _ = run_cli(["--grid", "64x64", "project", "--function", spec,
                          "--points", "[[0.5, 0.0]]",
                          "--out-file", str(out_file)], capsys)
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "z_re,z_im,P_re,P_im"
    z_re, z_im, p_re, p_im = (float(x) for x in lines[1].split(","))
    assert abs(p_re - 0.125) < 1e-6 and abs(p_im) < 1e-9
    assert lines[-1].startswith("# manifest:")


def test_scan_functional(capsys, tmp_path, monkeypatch):
    # both fits share one cache, so each estimate is computed once
    estimates = []
    mixed_norm = theorems.mixed_norm
    monkeypatch.setattr(theorems, "mixed_norm",
                        lambda *a, **kw: estimates.append(a) or mixed_norm(*a, **kw))
    out_file = tmp_path / "f.csv"
    code, _, _ = run_cli(["--tol", "0.005",
                          "scan-functional", "--p", "2", "--q", "2",
                          "--out-file", str(out_file)], capsys)
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0].startswith("p,q,functional,slope")
    point = lines[1].split(",")
    deriv = lines[2].split(",")
    assert abs(float(point[3]) - 1.0) < 0.1
    assert abs(float(deriv[3]) - float(point[3]) - 1.0) < 0.1
    assert len(estimates) == 17


def test_byte_for_byte_reproducibility(tmp_path):
    # run the same subcommand twice in fresh interpreters
    spec = json.dumps({"repr": "Monomial", "n": 3})
    outs = []
    for tag in ("a", "b"):
        out_file = tmp_path / f"{tag}.csv"
        cmd = [sys.executable, "-m", "radmix.cli", "--seed", "7",
               "--grid", "64x64", "project", "--function", spec,
               "--points", "[[0.3, 0.1]]", "--out-file", str(out_file)]
        res = subprocess.run(cmd, capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        outs.append(out_file.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("grid", ["64x512", "64x63", "64"])
def test_bad_grid_exits_1_without_output(capsys, grid):
    # 512 radii would need 64 graded cells; the meshes stop at 43
    code, out, err = run_cli(["--grid", grid, "project", "--function", MONOMIAL1,
                              "--points", "[[0.3, 0.1]]"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: bad --grid spec")


@pytest.mark.parametrize("points", ['[[1, 0]]', '[[1.5, 0]]', '[[0, -1]]',
                                    '[["nan", 0]]', '[[NaN, 0]]',
                                    '[[0.3, 0.1], [Infinity, 0]]',
                                    '[[0.3, 0.1, 0.2]]', '[[0.3]]', '0.5'])
def test_project_bad_point_exits_1_without_output(capsys, points):
    # the projection is defined on the open disc only; malformed points are
    # refused before anything is printed
    code, out, err = run_cli(["--grid", "64x64", "project", "--function",
                              MONOMIAL1, "--points", points], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("spec", [
    {"repr": "PowerSingularity", "alpha": 400},
    {"repr": "RationalBump", "eps": 1e302, "a": 1.00001, "theta0": 0.0},
    # finite samples, but their moments overflow
    {"repr": "RationalBump", "eps": 1e307, "a": 1.5, "theta0": 0.0},
])
def test_project_overflow_exits_1_without_output(capsys, spec):
    # a function that overflows on the grid has no finite projection, and
    # no NaN reaches the CSV
    code, out, err = run_cli(["--grid", "64x64", "project", "--function",
                              json.dumps(spec), "--points",
                              "[[0.1, 0], [0.9, 0]]"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_help_lists_flags(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    for flag in ("--config", "--seed", "--tol", "--out", "--grid"):
        assert flag in out


def test_config_file_and_grid_parsing(capsys, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"theta_count": 32, "rel_tol": 0.05}))
    code, out, _ = run_cli(["--config", str(cfg_path), "norm",
                            "--function", MONOMIAL1, "--p", "1", "--q", "1"],
                           capsys)
    assert code == 0
    assert abs(json.loads(out)["value"] - 0.5) < 1e-3
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nope": 1}))
    code, _, err = run_cli(["--config", str(bad), "norm",
                            "--function", MONOMIAL1, "--p", "1", "--q", "1"],
                           capsys)
    assert code == 1


@pytest.mark.parametrize("tol, rel_tol", [([], 0.001), (["--tol", "0.05"], 0.05)])
def test_config_file_rel_tol_beats_the_scan_default(capsys, tmp_path, tol,
                                                    rel_tol):
    # scan-inclusion defaults rel_tol to 0.02 only when neither --tol nor
    # the --config file sets it
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"rel_tol": 0.001, "refine_max": 2}))
    code, out, _ = run_cli(["--config", str(cfg_path), *tol, "scan-inclusion",
                            "--exponents", "2"], capsys)
    assert code == 0
    cfg = QuadratureConfig(rel_tol=rel_tol, refine_max=2)
    manifest = _config_hash(cfg, 0, {"cmd": "scan-inclusion"})
    assert out.splitlines()[-1] == f"# manifest: {manifest}"


@pytest.mark.parametrize("args", [
    ["norm", "--p", "2", "--q", "2"],
    ["--seed", "abc", "report"],
    ["bogus"],
    ["witness", "--p", "2", "--K", "x"],
])
def test_usage_error_exits_1_without_output(capsys, args):
    # exit code 2 is kept for a norm that did not converge
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("usage: radmix")


@pytest.mark.parametrize("config", [{"theta_count": "64"}, {"rel_tol": None},
                                    {"theta_count": 64.5}, [], None, "abc",
                                    [["theta_count", 64]]])
def test_mistyped_config_exits_1_without_output(capsys, tmp_path, config):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    code, out, err = run_cli(["--config", str(cfg_path), "norm", "--function",
                              MONOMIAL1, "--p", "1", "--q", "1"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("args", [
    ["norm", "--function", MONOMIAL1, "--p", "1/0", "--q", "2"],
    ["norm", "--function", MONOMIAL1, "--p", "1e400", "--q", "2"],
    ["scan-inclusion", "--exponents", "1,1/0"],
    ["scan-functional", "--p", "2", "--q", "2", "--z-list", "0.5,1/0"],
    ["scan-functional", "--p", "2", "--q", "2", "--z-list", "0.5,1e400"],
    ["witness", "--p", "inf", "--K", "4"],
    ["witness", "--p", "nan", "--K", "4"],
    ["witness", "--p", "2", "--K", "2000"],
])
def test_bad_number_exits_1_without_output(capsys, args):
    code, out, err = run_cli(args, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("z_list", ["0.5,0.5,0.5,0.5", "0,0.5,0.6,0.7",
                                    "0.5,0.6,0.7,1"])
def test_scan_functional_bad_z_list_exits_1_without_output(capsys, z_list):
    # an exponent fit needs distinct abscissae, and the point family is
    # dilated by z, so each z must lie in (0, 1)
    code, out, err = run_cli(["scan-functional", "--p", "2", "--q", "2",
                              "--z-list", z_list], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: the z values must be distinct")


def test_witness_table_of_one_bump(capsys):
    code, out, _ = run_cli(["witness", "--p", "2", "--K", "1"], capsys)
    assert code == 0
    assert "# disc_disjoint: True (min margin inf)" in out.splitlines()
