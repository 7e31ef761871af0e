"""CLI subcommands drive the same library paths the tests exercise."""

import hashlib
import json
import shutil
import sys

import numpy as np
import pytest

from liesindy.cli import main
from liesindy.harness import ExperimentConfig

SMALL_KDV = dict(system="kdv", nx=64, length=20.0, dt=0.01, nt=60,
                 transient=0.0, params={})


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


def _report_files(out):
    return {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}


# the x library's models have explicit x dependence, so every rollout
# raises and every row is an error row, fitted but without an RMSE
@pytest.mark.parametrize("edit", [
    {},
    {"method": "sindy", "threshold": 1e-12,
     "library": {"inputs": ["u*u_x", "u_xxx", "x"]}},
], ids=["di-sindy", "sindy-x-library"])
def test_report_after_discover_changes_no_byte(tmp_path, capsys, pipeline,
                                               config_path, edit):
    data, _ = pipeline
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**json.loads(config_path.read_text()),
                               **edit}))
    out = tmp_path / "out"
    assert main(["discover", "--config", str(cfg), "--data", str(data),
                 "--out", str(out)]) == 0
    written = _report_files(out)
    assert main(["report", "--in", str(out)]) == 0
    assert _report_files(out) == written
    assert ("longterm.svg" in written) == (not edit)
    if edit:
        rows = (out / "runs.csv").read_text().splitlines()[1:]
        assert all(",error,0," in row and "UnsupportedModelError" in row
                   for row in rows)
        assert written["summary.csv"].endswith(b"kdv,sindy,0.0,N/A,N/A\r\n")


def test_long_term_discover_needs_the_test_set(tmp_path, capsys, pipeline,
                                               config_path):
    data, _ = pipeline
    bad = tmp_path / "data"
    shutil.copytree(data, bad)
    shutil.rmtree(bad / "test")
    assert main(["discover", "--config", str(config_path), "--data",
                 str(bad), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "test" in err and "liesindy generate" in err


def test_evaluate_reproduces_longterm(pipeline, tmp_path, capsys):
    data, out = pipeline
    evald = tmp_path / "eval"
    assert main(["evaluate", "--models", str(out), "--data", str(data),
                 "--out", str(evald)]) == 0
    # same models, same test data, same integrator: identical curve
    assert (evald / "longterm.csv").read_bytes() == \
        (out / "longterm.csv").read_bytes()
    assert (evald / "longterm.svg").exists()


@pytest.mark.parametrize("key, value, needle", [
    ("nt", 80, "its t has 60 samples spaced 0.01, the solver's 80 spaced "
               "0.01"),
    ("dt", 0.02, "its t has 60 samples spaced 0.01, the solver's 60 spaced "
                 "0.02"),
], ids=["nt", "dt"])
def test_evaluate_off_the_test_grid_is_one_error_line(tmp_path, capsys,
                                                      pipeline, key, value,
                                                      needle):
    # evaluate rolls out on the grid of the test manifest's solver config
    data, out = pipeline
    bad = tmp_path / "data"
    shutil.copytree(data / "test", bad / "test")
    manifest = bad / "test" / "manifest"
    blob = json.loads(manifest.read_text())
    blob["config"][key] = value
    manifest.write_text(json.dumps(blob))
    assert main(["evaluate", "--models", str(out), "--data", str(bad),
                 "--out", str(tmp_path / "eval")]) == 1
    assert capsys.readouterr().err == (
        f"error: test trajectory 0 is off the solver grid: {needle}\n")


@pytest.mark.parametrize("case", ["no-runs", "no-solver", "no-models"])
def test_evaluate_refusal_is_one_error_line(tmp_path, capsys, pipeline,
                                            case):
    data, out = pipeline
    models = tmp_path / "models"
    models.mkdir()
    if case != "no-runs":
        # a run whose fit kept no model
        (models / "run_0.json").write_text('{"model": null}')
    if case == "no-solver":
        shutil.copytree(out / "models", models, dirs_exist_ok=True)
        shutil.copytree(data / "test", tmp_path / "data" / "test")
        data = tmp_path / "data"
        manifest = data / "test" / "manifest"
        blob = json.loads(manifest.read_text())
        blob["config"] = None
        manifest.write_text(json.dumps(blob))
    want = {"no-runs": f"no run_*.json under {models}",
            "no-solver": "test data has no solver config",
            "no-models": "no usable models"}[case]
    assert main(["evaluate", "--models", str(models), "--data", str(data),
                 "--out", str(tmp_path / "eval")]) == 1
    assert capsys.readouterr().err == f"error: {want}\n"
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("name, text, needle", [
    ("run_0.json", "[1,2]", "not a JSON object"),
    ("run_0.json", '{"model": {"target": "u_t"}}', "'features'"),
    ("run_best.json", "{}", "run_<number>.json"),
    ("run_1.json", '{"model": {"target": "u_t", "features": ["x*u_x"], '
     '"C": [1.0], "M": [1], "threshold": 0.5}}', "explicit x"),
    ("run_0.json", '{"model": {"target": "u_t", "features": ["u_q"], '
     '"C": [1.0], "M": [1], "threshold": 0.5}}',
     "run_0.json: not a model: ParseError: 'u_q' is not a derivative "
     "coordinate of this jet space"),
    ("run_0.json", '{"model": {"target": "u_t", "features": ["u/(u-u)"], '
     '"C": [1.0], "M": [1], "threshold": 0.5}}',
     "run_0.json: not a model: ExprError: division by symbolic zero"),
], ids=["not-an-object", "model-lacks-features", "stray-name",
        "unrollable-model", "feature-off-the-chart",
        "feature-divides-by-zero"])
def test_bad_saved_model_is_one_error_line(tmp_path, capsys, pipeline,
                                           name, text, needle):
    data, out = pipeline
    models = tmp_path / "models"
    shutil.copytree(out / "models", models)
    (models / name).write_text(text)
    assert main(["evaluate", "--models", str(models), "--data", str(data),
                 "--out", str(tmp_path / "eval")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert needle in err
    assert "Traceback" not in err


def test_verify_passes_for_catalog_systems(capsys):
    assert main(["verify", "--system", "kdv"]) == 0
    shown = capsys.readouterr().out
    assert "PASS" in shown
    assert "invariance pairs checked" in shown


_VERIFY_TRANSLATIONS = (
    "invariance pairs checked: 15, numeric max |apply| 0.00e+00\n"
    "independence: min singular value 4.19e-01 at 100.0% of samples\n"
    "criterion x-shift: ok\n"
    "criterion t-shift: ok\n"
    "criterion galilean: ok\n"
    "PASS\n")


# verify reads one sample set of 1000 points at a fixed seed; "KdV " is
# kdv's key with case and padding to drop, criterion lines included
_VERIFY_OUT = {
    "kdv": _VERIFY_TRANSLATIONS,
    "KdV ": _VERIFY_TRANSLATIONS,
    "ks": _VERIFY_TRANSLATIONS,
    "burgers": _VERIFY_TRANSLATIONS,
    "nkdv": (
        "invariance pairs checked: 15, numeric max |apply| 0.00e+00\n"
        "independence: min singular value 1.04e-01 at 100.0% of samples\n"
        "criterion x-shift: ok\n"
        "criterion decaying-t-shift: ok\n"
        "criterion galilean: ok\n"
        "PASS\n"),
    "so2-demo": (
        "invariance pairs checked: 2, numeric max |apply| 2.84e-14\n"
        "independence: min singular value 3.68e-01 at 100.0% of samples\n"
        "PASS\n"),
}


@pytest.mark.parametrize("system", _VERIFY_OUT)
def test_verify_output_is_pinned(system, capsys):
    assert main(["verify", "--system", system]) == 0
    assert capsys.readouterr().out == _VERIFY_OUT[system]


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
    err = capsys.readouterr().err
    assert err.startswith("error:") and "runs.csv" in err


def _solver_edit(**over):
    return lambda d: json.dumps({**d, "solver": {**d["solver"], **over}})


@pytest.mark.parametrize("edit, needle", [
    (lambda d: json.dumps({**d, "runz": 3}), "runz"),
    (lambda d: json.dumps(d)[:-10], "bad.json: Unterminated string"),
    (_solver_edit(nx=100), "nx must be a power of two"),
    (_solver_edit(nxx=64), "nxx"),
    (lambda d: "[1,2]", "JSON object"),
    (lambda d: json.dumps({k: v for k, v in d.items() if k != "system"}),
     "system"),
    (lambda d: json.dumps({**d, "runs": "ten"}), "runs"),
    (_solver_edit(nx="64"), "nx"),
    (_solver_edit(dt=float("nan")), "'dt' must be finite"),
    (lambda d: json.dumps({**d, "seed": -1}), "seed must be non-negative"),
    (lambda d: json.dumps({**d, "method": "sindy",
                           "library": {"inputs": ["u", "u/0"]}}),
     "division by symbolic zero"),
    (lambda d: json.dumps({**d, "method": "sindy", "library": {
        "inputs": ["u", "u_x", "u_xx", "u*u_x"]}}),
     "bad.json: the library holds u*u_x twice"),
    (lambda d: "\xff" + json.dumps(d), "bad.json is not UTF-8 text"),
    # di-sindy discards the library, but a config holds only a valid one
    (lambda d: json.dumps({**d, "library": {"mode": "cubic",
                                            "inputs": ["u", "u)"]}}),
     "bad.json: library.inputs[1]: trailing input ')' in 'u)'"),
    (lambda d: json.dumps({**d, "library": {"mode": "cubic"}}),
     "unknown library mode 'cubic'"),
    (_solver_edit(params={"zz": 1}),
     "bad.json: kdv reads no solver params ['zz']"),
    (_solver_edit(transient=1e308),
     f"bad.json: transient is inf steps of dt, more than {sys.maxsize}"),
    (_solver_edit(transient=1e300),
     f"bad.json: transient is 1e+302 steps of dt, more than {sys.maxsize}"),
    (_solver_edit(nt=2 ** 62),
     f"bad.json: an nt x nx = {2 ** 62} x 64 grid's trajectory is more "
     f"than {sys.maxsize} bytes"),
    (_solver_edit(dealias=False),
     "bad.json: solver key 'dealias' is fixed at true for kdv, not false"),
    (_solver_edit(scheme="rk4-spectral"),
     "bad.json: solver key 'scheme' is fixed at \"etdrk4\" for kdv, not "
     "\"rk4-spectral\""),
], ids=["unknown-key", "truncated-json", "bad-nx", "unknown-solver-key",
        "not-an-object", "no-system", "runs-not-integer", "nx-not-integer",
        "dt-nan", "seed-negative", "library-divides-by-zero",
        "library-repeats-a-feature", "not-utf8",
        "di-sindy-library", "di-sindy-library-mode", "unread-solver-param",
        "transient-steps-not-finite", "transient-steps-above-maxsize",
        "trajectory-above-maxsize-bytes", "dealias-off", "scheme-not-kdvs"])
def test_bad_config_is_one_error_line(tmp_path, capsys, config_path, edit,
                                      needle):
    bad = tmp_path / "bad.json"
    # latin-1 writes each character below 256 as its one byte, so "\xff"
    # stays the byte 0xff, which is not UTF-8
    bad.write_text(edit(json.loads(config_path.read_text())),
                   encoding="latin-1")
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
    ("run_0/manifest", '{"count": 4, "trajs": [{"meta": {}}]}',
     "lists 1 members, but its count is 4 and"),
    ("run_0/manifest", '{"count": 1, "trajs": [{"meta": {}}]}',
     "trajs.npz holds 4"),
], ids=["no-data-digest", "manifest-not-an-object", "trajs-not-objects",
        "trajs-truncated", "trajs-and-count-truncated"])
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


def test_dataset_of_an_older_generator_is_refused(tmp_path, capsys,
                                                  config_path, pipeline):
    # the same config's digest as it was before data_digest hashed the
    # generator version, which a dataset of the older generator carries
    cfg = ExperimentConfig.load(config_path)
    blob = json.dumps({"system": cfg.system, "solver": cfg.solver.to_dict(),
                       "runs": cfg.runs, "noise_sigma": cfg.noise_sigma,
                       "seed": cfg.seed}, sort_keys=True)
    old = hashlib.sha256(blob.encode()).hexdigest()[:12]
    data, _ = pipeline
    bad = tmp_path / "data"
    shutil.copytree(data, bad)
    dataset = json.loads((bad / "dataset.json").read_text())
    dataset["data_digest"] = old
    (bad / "dataset.json").write_text(json.dumps(dataset))
    assert main(["discover", "--config", str(config_path), "--data",
                 str(bad), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        f"error: dataset digest {old} does not match the config's "
        f"{cfg.data_digest()}\n")


def _edit_member(name, edit):
    """Rewrite a trajs.npz with its member `name` replaced by edit(member)."""
    def corrupt(path):
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        arrays[name] = edit(arrays[name])
        np.savez(path, **arrays)
    return corrupt


@pytest.mark.parametrize("corrupt, needle", [
    (lambda p: p.write_bytes(b"garbage"), "pickled"),
    (_edit_member("u_0", lambda u: np.array([None, 1.0], dtype=object)),
     "Object arrays"),
    (_edit_member("x", lambda x: x.reshape(2, -1)), "must be 1-D"),
], ids=["not-an-npz", "object-member", "x-not-1d"])
def test_bad_trajs_npz_is_one_error_line(tmp_path, capsys, config_path,
                                         pipeline, corrupt, needle):
    data, _ = pipeline
    bad = tmp_path / "data"
    shutil.copytree(data, bad)
    corrupt(bad / "run_0" / "trajs.npz")
    assert main(["discover", "--config", str(config_path), "--data",
                 str(bad), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert needle in err and "trajs.npz" in err
    assert "Traceback" not in err


def test_discover_off_the_test_grid_is_one_error_line(tmp_path, capsys,
                                                      config_path, pipeline):
    # a test set solved at twice the config's dt
    data, _ = pipeline
    bad = tmp_path / "data"
    shutil.copytree(data, bad)
    _edit_member("t_2", lambda t: 2.0 * t)(bad / "test" / "trajs.npz")
    assert main(["discover", "--config", str(config_path), "--data",
                 str(bad), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "error: test trajectory 2 is off the solver grid: its t has 60 "
        "samples spaced 0.02, the solver's 60 spaced 0.01\n")


def test_report_on_runs_csv_without_run_columns(tmp_path, capsys):
    (tmp_path / "runs.csv").write_text("run,status\n0,ok\n")
    assert main(["report", "--in", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "success" in err and "err_norm" in err


_RUNS = "run,status,success,err_norm\n0,ok,1,0.5\n"
_LONGTERM = "step,mean_mse,std_mse,n_series\n0,0.0,0.0,4\n1,1e-6,1e-7,4\n"


@pytest.mark.parametrize("runs, longterm, needle", [
    (_RUNS, "step,mean\n0,0.0\n", "mean_mse"),
    (_RUNS, _LONGTERM.replace("1e-6", "nan"), "mean_mse"),
    (_RUNS, "step,mean_mse,std_mse,n_series\n", "no rows"),
    ("run,status,success,err_norm\n0,ok,yes,0.5\n", None, "success"),
    ("run,status,success,err_norm\n0,ok,1,big\n", None, "err_norm"),
    ("run,status,success,err_norm\n", None, "no rows"),
    ("run,status,success,err_norm\n0,ok,1,0.5\xff\n", None,
     "runs.csv is not UTF-8 text"),
], ids=["longterm-no-mean-column", "longterm-nan-mean", "longterm-no-rows",
        "success-not-a-flag", "err-norm-not-a-number", "runs-no-rows",
        "runs-not-utf8"])
def test_report_on_malformed_csv_is_one_error_line(tmp_path, capsys, runs,
                                                   longterm, needle):
    # "\xff" stays the one byte 0xff, which is not UTF-8
    (tmp_path / "runs.csv").write_text(runs, encoding="latin-1")
    if longterm is not None:
        (tmp_path / "longterm.csv").write_text(longterm)
    assert main(["report", "--in", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert needle in err
    name = "runs.csv" if longterm is None else "longterm.csv"
    assert name in err and "Traceback" not in err


def test_report_reads_a_config_of_an_older_layout(tmp_path, capsys,
                                                  config_path):
    # older config.json files carry output_dir, a key nothing read, or a
    # solver's scheme and dealias at the one value its system takes; each
    # is dropped on load like the digest
    blob = json.loads(config_path.read_text())
    assert not {"output_dir", "scheme", "dealias"} & {*blob, *blob["solver"]}
    (tmp_path / "runs.csv").write_text(
        "run,status,success,err_norm\n0,ok,1,0.5\n")
    for older in ({**blob, "output_dir": "results"},
                  {**blob, "solver": {**blob["solver"], "scheme": "etdrk4",
                                      "dealias": True}}):
        (tmp_path / "config.json").write_text(json.dumps(older))
        assert main(["report", "--in", str(tmp_path)]) == 0
        assert "di-sindy" in capsys.readouterr().out
        assert (tmp_path / "summary.csv").read_text().startswith(
            "system,method,success_rate,rmse_successful,rmse_all\n"
            "kdv,di-sindy,1.0,")


def test_evaluate_reads_a_test_set_of_an_older_layout(pipeline, tmp_path,
                                                      capsys):
    # a manifest written before scheme and dealias were dropped from the
    # solver config holds both, at the values kdv takes
    data, out = pipeline
    older = tmp_path / "data"
    shutil.copytree(data / "test", older / "test")
    manifest = older / "test" / "manifest"
    blob = json.loads(manifest.read_text())
    blob["config"].update(scheme="etdrk4", dealias=True)
    manifest.write_text(json.dumps(blob))
    assert main(["evaluate", "--models", str(out), "--data", str(older),
                 "--out", str(tmp_path / "eval")]) == 0
    assert (tmp_path / "eval" / "longterm.csv").read_bytes() == \
        (out / "longterm.csv").read_bytes()


def test_running_out_of_memory_is_one_error_line(tmp_path, capsys,
                                                 config_path, monkeypatch):
    # a grid under the byte bound can still ask for more than the host
    # has; the stage raises here in place of a real allocation
    from liesindy import cli
    for message, want in (("Unable to allocate 71.1 PiB",
                           "error: Unable to allocate 71.1 PiB"),
                          ("", "error: out of memory")):
        def starved(cfg, out):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "generate_dataset", starved)
        assert main(["generate", "--config", str(config_path),
                     "--out", str(tmp_path / "d")]) == 1
        assert capsys.readouterr().err == want + "\n"


def test_report_on_runs_csv_of_an_older_layout(tmp_path, capsys):
    # no jets, condition_number or min_singular_value columns
    (tmp_path / "runs.csv").write_text(
        "run,status,success,err_norm\n0,ok,1,0.5\n1,ok,0,1.5\n")
    assert main(["report", "--in", str(tmp_path)]) == 0
    assert "50" in capsys.readouterr().out
