"""CLI subcommands drive the same library paths the tests exercise."""

import json
import shutil

import pytest

from liesindy.cli import main
from liesindy.harness import ExperimentConfig

SMALL_KDV = dict(system="kdv", nx=64, length=20.0, dt=0.01, nt=60,
                 scheme="etdrk4", dealias=True, transient=0.0, params={})


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    cfg = ExperimentConfig(system="kdv", method="di-sindy", runs=2, seed=11,
                           solver=dict(SMALL_KDV), long_term=True)
    path = tmp_path_factory.mktemp("cfg") / "experiment.json"
    cfg.save(path)
    return path


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory, config_path):
    """generate -> discover once; several tests read the results."""
    root = tmp_path_factory.mktemp("pipe")
    data = root / "data"
    out = root / "report"
    assert main(["generate", "--config", str(config_path),
                 "--out", str(data)]) == 0
    assert main(["discover", "--config", str(config_path),
                 "--data", str(data), "--out", str(out)]) == 0
    return data, out


def test_generate_writes_dataset(pipeline, config_path):
    data, _ = pipeline
    blob = json.loads((data / "dataset.json").read_text())
    assert blob["data_digest"] == ExperimentConfig.load(config_path
                                                        ).data_digest()
    assert (data / "test" / "trajs.npz").exists()
    assert (data / "run_1" / "manifest").exists()


def test_discover_writes_report(pipeline, capsys):
    _, out = pipeline
    for name in ("config.json", "runs.csv", "summary.csv",
                 "longterm.csv", "longterm.svg"):
        assert (out / name).exists(), name
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0] == "system,method,success_rate,rmse_successful,rmse_all"
    assert summary[1].startswith("kdv,di-sindy,1.0,")


def test_report_rewrites_summary_identically(pipeline, capsys):
    _, out = pipeline
    before = (out / "summary.csv").read_bytes()
    svg_before = (out / "longterm.svg").read_bytes()
    assert main(["report", "--in", str(out)]) == 0
    assert (out / "summary.csv").read_bytes() == before
    assert (out / "longterm.svg").read_bytes() == svg_before
    shown = capsys.readouterr().out
    assert "success rate" in shown and "kdv" in shown


def test_evaluate_reproduces_longterm(pipeline, tmp_path, capsys):
    data, out = pipeline
    evald = tmp_path / "eval"
    assert main(["evaluate", "--models", str(out), "--data", str(data),
                 "--out", str(evald)]) == 0
    # same models, same test data, same integrator: identical curve
    assert (evald / "longterm.csv").read_bytes() == \
        (out / "longterm.csv").read_bytes()
    assert (evald / "longterm.svg").exists()


def test_verify_passes_for_catalog_systems(capsys):
    assert main(["verify", "--system", "kdv"]) == 0
    shown = capsys.readouterr().out
    assert "PASS" in shown
    assert "invariance pairs checked" in shown


def test_verify_unknown_system_fails(capsys):
    assert main(["verify", "--system", "euler"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_missing_config_is_an_error(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["generate", "--config", str(missing),
                 "--out", str(tmp_path / "d")]) == 1
    assert "error:" in capsys.readouterr().err


def test_report_without_runs_csv(tmp_path, capsys):
    assert main(["report", "--in", str(tmp_path)]) == 1


def _solver_edit(**over):
    return lambda d: json.dumps({**d, "solver": {**d["solver"], **over}})


@pytest.mark.parametrize("edit, needle", [
    (lambda d: json.dumps({**d, "runz": 3}), "runz"),
    (lambda d: json.dumps(d)[:-10], ""),
    (_solver_edit(nx=100), "nx must be a power of two"),
    (_solver_edit(nxx=64), "nxx"),
    (lambda d: "[1,2]", "JSON object"),
    (lambda d: json.dumps({k: v for k, v in d.items() if k != "system"}),
     "system"),
    (lambda d: json.dumps({**d, "runs": "ten"}), "runs"),
    (_solver_edit(nx="64"), "nx"),
    (_solver_edit(dt=float("nan")), "'dt' must be finite"),
], ids=["unknown-key", "truncated-json", "bad-nx", "unknown-solver-key",
        "not-an-object", "no-system", "runs-not-integer", "nx-not-integer",
        "dt-nan"])
def test_bad_config_is_one_error_line(tmp_path, capsys, config_path, edit,
                                      needle):
    bad = tmp_path / "bad.json"
    bad.write_text(edit(json.loads(config_path.read_text())))
    assert main(["generate", "--config", str(bad),
                 "--out", str(tmp_path / "d")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert needle in err
    assert "Traceback" not in err


@pytest.mark.parametrize("part, text, needle", [
    ("dataset.json", "{}", "data_digest"),
    ("run_0/manifest", "[]", "not a JSON object"),
    ("run_0/manifest", '{"trajs": [1]}', "meta object"),
], ids=["no-data-digest", "manifest-not-an-object", "trajs-not-objects"])
def test_bad_dataset_is_one_error_line(tmp_path, capsys, config_path,
                                       pipeline, part, text, needle):
    data, _ = pipeline
    bad = tmp_path / "data"
    shutil.copytree(data, bad)
    (bad / part).write_text(text)
    assert main(["discover", "--config", str(config_path), "--data",
                 str(bad), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert needle in err
