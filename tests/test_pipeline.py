"""Case pipeline, file formats, and the CLI front end."""

import copy
import csv
import dataclasses
import filecmp
import importlib
import json
import os
import pickle
import re
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from evcs_premium import cli, dataio, trilevel
from evcs_premium.analytic import TypicalDaySet
from evcs_premium.dcopf import evcs_tariff_cents, per_day_dlmps
from evcs_premium.fixtures import (
    default_policy,
    default_risk_config,
    manhattan7,
    reference_smp_model,
    typical_days,
)
from evcs_premium.pipeline import CaseConfig, CaseError, dlmp_stage, \
    run_case
from evcs_premium.smp import TRANSITIONS
from evcs_premium.trilevel import SweepRow, ccg_solve


def test_days_roundtrip_exact(tmp_path):
    path = tmp_path / "days.csv"
    days = typical_days()
    dataio.write_typical_days(path, days)
    back = dataio.load_typical_days(path)
    assert back.day_ids == days.day_ids
    assert np.array_equal(back.likelihood, days.likelihood)
    assert np.array_equal(back.demand_kw, days.demand_kw)


def test_days_load_ignores_row_order(tmp_path):
    path = tmp_path / "days.csv"
    dataio.write_typical_days(path, typical_days())
    lines = path.read_text().splitlines()
    body = lines[2:]
    rng = np.random.default_rng(5)
    shuffled = [body[i] for i in rng.permutation(len(body))]
    other = tmp_path / "shuffled.csv"
    other.write_text("\n".join(lines[:2] + shuffled) + "\n")
    a = dataio.load_typical_days(path)
    b = dataio.load_typical_days(other)
    assert a.day_ids == b.day_ids
    assert np.array_equal(a.demand_kw, b.demand_kw)
    assert np.array_equal(a.likelihood, b.likelihood)


def _write_rows(path, rows, header=dataio.DAYS_HEADER):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _day_rows(day, phi, hours=range(1, 25)):
    return [[day, phi, h, 5.0] for h in hours]


def test_days_reader_rejections(tmp_path):
    path = tmp_path / "bad.csv"

    _write_rows(path, _day_rows("a", 1.0) + [["a", 1.0, 25, 5.0]])
    with pytest.raises(dataio.DataError, match=r"row 26: hour 25"):
        dataio.load_typical_days(path)

    _write_rows(path, _day_rows("a", 1.0) + [["a", 1.0, 7, 5.0]])
    with pytest.raises(dataio.DataError, match="duplicate hour 7"):
        dataio.load_typical_days(path)

    _write_rows(path, _day_rows("a", 1.0) + [["a", 0.9, 3, 5.0]])
    with pytest.raises(dataio.DataError, match="conflicts with earlier"):
        dataio.load_typical_days(path)

    _write_rows(path, _day_rows("a", 1.0) + [["b", 0.0, 1, 5.0]])
    with pytest.raises(dataio.DataError, match="missing hours"):
        dataio.load_typical_days(path)

    _write_rows(path, _day_rows("a", 0.6) + _day_rows("b", 0.3))
    with pytest.raises(dataio.DataError, match="likelihoods sum to"):
        dataio.load_typical_days(path)

    _write_rows(path, [["a", -0.1, 1, 5.0]])
    with pytest.raises(dataio.DataError, match="negative likelihood"):
        dataio.load_typical_days(path)

    _write_rows(path, [["a", 1.0, 1, 5.0]],
                header=["day", "phi", "hour", "demand_kw"])
    with pytest.raises(dataio.DataError, match="header must be"):
        dataio.load_typical_days(path)


def test_days_reader_renormalizes_tiny_drift(tmp_path):
    path = tmp_path / "drift.csv"
    _write_rows(path, _day_rows("a", 0.5) + _day_rows("b", 0.5 + 1e-10))
    days = dataio.load_typical_days(path)
    assert days.likelihood.sum() == 1.0


@pytest.mark.parametrize("column, value", [(1, "nan"), (1, "inf"),
                                           (3, "nan"), (3, "inf")])
def test_days_reader_rejects_non_finite(tmp_path, column, value):
    path = tmp_path / "bad.csv"
    rows = _day_rows("a", 0.5) + _day_rows("b", 0.5)
    rows[24][column] = value  # the first row of day b, file row 26
    _write_rows(path, rows)
    name = "likelihood" if column == 1 else "demand"
    with pytest.raises(dataio.DataError,
                       match=f"row 26: {name} {value} is not finite"):
        dataio.load_typical_days(path)


def test_network_roundtrip(tmp_path):
    path = tmp_path / "net.json"
    net = manhattan7()
    dataio.write_network(path, net)
    back = dataio.load_network(path)
    assert back.buses == net.buses
    assert back.evcs_bus == net.evcs_bus
    days = typical_days()
    assert np.array_equal(
        evcs_tariff_cents(back, per_day_dlmps(back, days)),
        evcs_tariff_cents(net, per_day_dlmps(net, days)))


def test_transitions_roundtrip(tmp_path):
    path = tmp_path / "transitions.json"
    model = reference_smp_model()
    dataio.write_transitions(path, model)
    back = dataio.load_transitions(path)
    for key in TRANSITIONS:
        assert back[key].shape == model[key].shape
        assert back[key].scale == model[key].scale


def test_policy_and_risk_config_roundtrip(tmp_path):
    p_path = tmp_path / "policy.json"
    policy = default_policy()
    dataio.write_policy(p_path, policy)
    assert dataio.load_policy(p_path) == policy

    r_path = tmp_path / "risk.json"
    config = default_risk_config(alpha=0.5, bound_mode="upper")
    dataio.write_risk_config(r_path, config)
    assert dataio.load_risk_config(r_path) == config
    overridden = dataio.load_risk_config(r_path, alpha=0.25,
                                         bound_mode="lower")
    assert overridden.alpha == 0.25
    assert overridden.bound_mode == "lower"
    assert overridden.policy_box == config.policy_box


_JSON_FORMATS = {
    "network": (dataio.load_network, dataio.write_network, manhattan7),
    "transition": (dataio.load_transitions, dataio.write_transitions,
                   reference_smp_model),
    "policy": (dataio.load_policy, dataio.write_policy, default_policy),
    "policy-box": (dataio.load_risk_config, dataio.write_risk_config,
                   default_risk_config),
}


@pytest.mark.parametrize("kind, case", [
    *((kind, case) for kind in _JSON_FORMATS
      for case in ("truncated", "list")),
    ("policy", "loading"), ("policy-box", "alpha")])
def test_json_loaders_name_the_file(tmp_path, kind, case):
    """A document that does not parse, is not an object, or holds a string
    where a number belongs raises DataError naming the file and kind."""
    load, write, fixture = _JSON_FORMATS[kind]
    path = tmp_path / "doc.json"
    write(path, fixture())
    text = path.read_text()
    doc = json.loads(text)
    if case == "truncated":
        path.write_text(text[:len(text) // 2])
    elif case == "list":
        path.write_text(json.dumps([doc]))
    else:
        path.write_text(json.dumps({**doc, case: "x"}))
    with pytest.raises(dataio.DataError, match=rf"^{re.escape(str(path))}: "
                                               rf"malformed {kind} document"):
        load(path)


def test_tariff_roundtrip_both_forms(tmp_path):
    per_day = tmp_path / "tariff_day.csv"
    net = manhattan7()
    tariff = evcs_tariff_cents(net, per_day_dlmps(net, typical_days()))
    dataio.write_tariff(per_day, tariff, day_ids=typical_days().day_ids)
    back, ids = dataio.load_tariff(per_day)
    assert ids == typical_days().day_ids
    assert np.array_equal(back, tariff)

    flat = tmp_path / "tariff_flat.csv"
    dataio.write_tariff(flat, tariff.mean(axis=0))
    back, ids = dataio.load_tariff(flat)
    assert ids is None
    assert np.array_equal(back, tariff.mean(axis=0))

    lines = per_day.read_text().splitlines()
    (tmp_path / "short.csv").write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(dataio.DataError, match="incomplete per-day"):
        dataio.load_tariff(tmp_path / "short.csv")


@pytest.mark.parametrize("per_day", [False, True],
                         ids=["hourly", "per-day"])
@pytest.mark.parametrize("bad, match", [
    ("duplicate", "row 26: duplicate hour 7"),
    ("nan", "row 10: tariff nan is not finite"),
    ("inf", "row 10: tariff inf is not finite")],
    ids=["duplicate", "nan", "inf"])
def test_tariff_reader_rejects_bad_rows(tmp_path, per_day, bad, match):
    rows = [[h, 2.0] for h in range(1, 25)]
    if bad == "duplicate":
        rows.append([7, 3.0])
    else:
        rows[8][1] = bad  # hour 9, file row 10
    header = ["hour", "tariff"]
    if per_day:
        rows = [["a"] + r for r in rows]
        header = ["day"] + header
    path = tmp_path / "tariff.csv"
    _write_rows(path, rows, header=header)
    with pytest.raises(dataio.DataError, match=match):
        dataio.load_tariff(path)


def test_sweep_file_format(tmp_path):
    path = tmp_path / "sweep.csv"
    rows = [SweepRow(1.0, 1.0, "expected", 2.5, 0.5),
            SweepRow(2000.0, 1.0, "expected", float("nan"), float("nan"),
                     feasible=False, note="demand not servable")]
    dataio.write_sweep(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == dataio.SWEEP_COMMENT
    assert lines[1] == ",".join(dataio.SWEEP_HEADER)
    table = dataio.read_table(path)
    assert [r["scale"] for r in table] == ["1.0", "2000.0"]
    assert table[1]["x_hat"] == "nan"


_SMALL_MATRIX = dict(alphas=(1.0, 0.5), scales=(1, 100))


def test_run_case_outputs_and_manifest(tmp_path):
    out = tmp_path / "case"
    bundle = run_case(CaseConfig(out_dir=str(out), **_SMALL_MATRIX))
    assert set(bundle.outputs) == {
        "smp", "smp_csv", "dlmp", "tariff", "analytic", "lambda_c",
        "robust", "sweep", "fig4", "fig5", "fig6", "discrepancies"}
    for name in bundle.outputs.values():
        assert (out / name).exists()

    manifest = json.loads((out / "MANIFEST.json").read_text())
    assert manifest["completed"] == ["smp", "dlmp", "analytic", "robust",
                                     "trilevel", "report"]
    assert manifest["failed"] is None and manifest["error"] is None

    smp = json.loads((out / "smp.json").read_text())
    assert smp["published"]["p_attack"] == 0.03980
    assert_allclose(smp["p_attack"], 0.026122009541097616, rtol=1e-12)

    analytic = json.loads((out / "analytic.json").read_text())
    assert_allclose(analytic["premium_cents"], 589.4482718542944,
                    rtol=1e-9)

    robust = json.loads((out / "robust_quotes.json").read_text())
    assert set(robust) == {f"alpha={a:g},bound={b}"
                           for a in (1.0, 0.5)
                           for b in ("lower", "expected", "upper")}

    # every table leads with a unit-bearing comment, and every numeric
    # cell reads back as a float
    labels = {"day", "factor", "bound", "quantity", "state"}
    for name in ("dlmp.csv", "tariff.csv", "lambda_c.csv", "sweep.csv",
                 "smp.csv", "fig4_sensitivity.csv", "fig5_scaling.csv",
                 "fig6_alpha_bounds.csv"):
        first = (out / name).read_text().splitlines()[0]
        assert first.startswith("#") and "units" in first, name
        for row in dataio.read_table(out / name):
            for column, cell in row.items():
                if column not in labels:
                    float(cell)

    fig4 = dataio.read_table(out / "fig4_sensitivity.csv")
    assert len(fig4) == 4 * 9
    assert sorted({r["factor"] for r in fig4}) == [
        "history_coeff", "loading", "p_attack", "risk_share"]
    fig5 = dataio.read_table(out / "fig5_scaling.csv")
    assert len(fig5) == 2 * 2  # scales x alphas, expected bound only
    fig6 = dataio.read_table(out / "fig6_alpha_bounds.csv")
    assert len(fig6) == 2 * 2  # alphas x (lower, upper)
    assert bundle.discrepancies  # the published tables do not reconcile


def test_run_case_reruns_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    run_case(CaseConfig(out_dir=str(a), **_SMALL_MATRIX))
    run_case(CaseConfig(out_dir=str(b), **_SMALL_MATRIX))
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b))
    for name in names:
        assert filecmp.cmp(a / name, b / name, shallow=False), name


def test_discrepancies_name_the_runs_own_model(tmp_path):
    """With a transitions file, discrepancies.txt compares that model's
    chain, the one smp.json reports, with the published tables."""
    model = reference_smp_model()
    model = type(model)(transitions={
        **model.transitions,
        "IF": type(model["IF"])(shape=model["IF"].shape,
                                scale=0.5 * model["IF"].scale)})
    path = tmp_path / "transitions.json"
    dataio.write_transitions(path, model)
    out = tmp_path / "case"
    run_case(CaseConfig(out_dir=str(out), transitions_path=str(path),
                        alphas=(1.0,), scales=(1,), bounds=("expected",)))
    smp = json.loads((out / "smp.json").read_text())
    notes = (out / "discrepancies.txt").read_text()
    assert f"p_attack from transition parameters {smp['p_attack']:.6f} " \
        in notes
    assert f"{smp['p_attack']:.6f}" != "0.026122"  # the reference model's
    for state, hours in zip(smp["states"], smp["sojourn_hours"]):
        if f"sojourn[{state}]" in notes:
            assert f"sojourn[{state}] computed {hours:.4f} h" in notes


def test_run_case_failure_writes_partial_manifest(tmp_path):
    bad = tmp_path / "bad_days.csv"
    _write_rows(bad, _day_rows("a", 0.6) + _day_rows("b", 0.3))
    out = tmp_path / "case"
    with pytest.raises(CaseError, match="stage 'dlmp' failed") as info:
        run_case(CaseConfig(out_dir=str(out), days_path=str(bad)))
    assert info.value.stage == "dlmp"
    manifest = json.loads((out / "MANIFEST.json").read_text())
    assert manifest["completed"] == ["smp"]
    assert manifest["failed"] == "dlmp"
    assert "likelihoods sum" in manifest["error"]
    assert (out / "smp.json").exists()


def test_case_config_validation(tmp_path):
    with pytest.raises(CaseError, match="run matrix"):
        CaseConfig(out_dir=str(tmp_path), alphas=())
    with pytest.raises(CaseError, match="does not exist"):
        CaseConfig(out_dir=str(tmp_path),
                   days_path=str(tmp_path / "missing.csv"))


@pytest.mark.parametrize("bad, match", [
    (dict(confidence_epsilon=np.nan), "confidence_epsilon must be finite"),
    (dict(confidence_epsilon=np.inf), "confidence_epsilon must be finite"),
    (dict(scales=(1, np.nan)), "scales must be finite and positive"),
    (dict(scales=(1, np.inf)), "scales must be finite and positive"),
    (dict(scales=(1, -5)), "scales must be finite and positive"),
    (dict(scales=(0, 1)), "scales must be finite and positive"),
    (dict(alphas=(np.nan,)), r"alphas must be in \[0, 1\]"),
    (dict(alphas=(1.5,)), r"alphas must be in \[0, 1\]"),
    (dict(bounds=("middle",)), "bounds must be among"),
])
def test_case_config_rejects_bad_numbers(tmp_path, bad, match):
    # before any stage runs: a NaN epsilon used to reach smp.json as a
    # bare NaN, a bad scale to fail only at stage 'trilevel', and a bad
    # alpha or bound name only at stage 'robust'
    with pytest.raises(CaseError, match=match) as info:
        CaseConfig(out_dir=str(tmp_path / "case"), **bad)
    assert info.value.stage == "config"
    assert not (tmp_path / "case").exists()


def test_results_pickle_and_deepcopy(tmp_path):
    # no solver object (such as a HiGHS basis) rides on a returned result
    net, days = manhattan7(), typical_days()
    for result in (per_day_dlmps(net, days),
                   ccg_solve(net, days, default_risk_config()),
                   run_case(CaseConfig(out_dir=str(tmp_path),
                                       **_SMALL_MATRIX))):
        for twin in (pickle.loads(pickle.dumps(result)),
                     copy.deepcopy(result)):
            assert repr(twin) == repr(result)


def test_cli_smp(tmp_path, capsys):
    assert cli.main(["--out", str(tmp_path), "smp"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert_allclose(doc["published"]["p_attack"], 0.03980, rtol=0)
    assert doc["confidence_box"]["lower"] < 0.0398 \
        < doc["confidence_box"]["upper"]
    assert (tmp_path / "smp.json").exists()
    assert (tmp_path / "smp.csv").exists()


def test_cli_dlmp(tmp_path, capsys):
    assert cli.main(["--out", str(tmp_path), "dlmp"]) == 0
    rows = dataio.read_table(tmp_path / "dlmp.csv")
    assert len(rows) == 4 * 24 * 7
    assert rows[0].keys() == {"day", "hour", "bus", "dlmp"}
    tariff, ids = dataio.load_tariff(tmp_path / "tariff.csv")
    assert ids == typical_days().day_ids
    assert tariff.shape == (4, 24)


def test_cli_premium_analytic(tmp_path, capsys):
    assert cli.main(["--out", str(tmp_path), "premium-analytic"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert_allclose(doc["premium_cents"], 589.4482718542944, rtol=1e-9)
    assert (tmp_path / "analytic.json").exists()
    assert (tmp_path / "lambda_c.csv").exists()


def test_cli_premium_robust(tmp_path, capsys):
    rc = cli.main(["--out", str(tmp_path), "premium-robust",
                   "--alpha", "0.5", "--bound", "upper"])
    assert rc == 0
    doc = json.loads((tmp_path / "premium_quote.json").read_text())
    assert doc["alpha"] == 0.5
    assert doc["bound_mode"] == "upper"
    report = (tmp_path / "kkt_report.txt").read_text().splitlines()
    residuals = {line.split(",")[0]: float(line.split(",")[1])
                 for line in report if not line.startswith("#")}
    assert residuals and max(residuals.values()) <= 1e-6


def test_cli_premium_trilevel_ccg(tmp_path, capsys):
    rc = cli.main(["--out", str(tmp_path), "premium-trilevel",
                   "--mode", "ccg"])
    assert rc == 0
    doc = json.loads((tmp_path / "trilevel_quote.json").read_text())
    assert doc["mode"] == "ccg"
    assert doc["ccg_iterations"] == 1
    assert doc["max_duality_gap"] <= 1e-8
    bounds = doc["ccg_bounds"]
    slack = 1e-6 * (1.0 + abs(bounds[-1]["upper"]))
    assert bounds[-1]["lower"] <= bounds[-1]["upper"] + slack


def test_cli_sweep_custom_grid(tmp_path, capsys):
    rc = cli.main(["--out", str(tmp_path), "sweep",
                   "--scales", "1,100", "--alphas", "1,0"])
    assert rc == 0
    table = dataio.read_table(tmp_path / "sweep.csv")
    assert len(table) == 2 * 2 * 3


def test_cli_run_case(tmp_path, capsys):
    rc = cli.main(["--out", str(tmp_path), "run-case",
                   "--scales", "1,100", "--alphas", "1"])
    assert rc == 0
    assert "case complete" in capsys.readouterr().out
    assert (tmp_path / "MANIFEST.json").exists()


def test_cli_stages_write_run_case_bytes(tmp_path, capsys):
    """smp, dlmp and premium-analytic write the files they share with
    run_case byte for byte, since both run the same stage functions."""
    cli_dir, case_dir = tmp_path / "cli", tmp_path / "case"
    for command in ("smp", "dlmp", "premium-analytic"):
        assert cli.main(["--out", str(cli_dir), command]) == 0
    run_case(CaseConfig(out_dir=str(case_dir), **_SMALL_MATRIX))
    shared = sorted(set(os.listdir(cli_dir)) & set(os.listdir(case_dir)))
    assert shared == ["analytic.json", "dlmp.csv", "lambda_c.csv",
                      "smp.csv", "smp.json", "tariff.csv"]
    _, mismatch, errors = filecmp.cmpfiles(cli_dir, case_dir, shared,
                                           shallow=False)
    assert mismatch == [] and errors == []


@pytest.mark.parametrize("command", ["dlmp", "premium-analytic",
                                     "premium-robust"])
def test_cli_opf_tariff_passes_grid_block_gate(command, tmp_path, capsys,
                                               monkeypatch):
    """The CLI's OPF-derived tariff goes through the same grid-block
    verification as run_case's, so a failing block stops the command."""
    monkeypatch.setattr(trilevel, "single_level_residuals",
                        lambda network, results: {"dual_sign": 1.0})
    assert cli.main(["--out", str(tmp_path), command]) == 1
    assert "grid block verification failed: dual_sign" \
        in capsys.readouterr().err


_CLI_FLAGS = {
    "smp": {"--transitions", "--epsilon"},
    "dlmp": {"--network", "--days"},
    "premium-analytic": {"--network", "--days", "--tariff", "--policy"},
    "premium-robust": {"--network", "--days", "--tariff", "--alpha",
                       "--bound", "--policy-box"},
    "premium-trilevel": {"--network", "--days", "--alpha", "--bound",
                         "--policy-box", "--mode"},
    "sweep": {"--network", "--days", "--policy-box", "--scales",
              "--alphas", "--bounds"},
    "run-case": {"--network", "--days", "--transitions", "--policy",
                 "--policy-box", "--scales", "--alphas", "--bounds"},
}


@pytest.mark.parametrize("command", sorted(_CLI_FLAGS))
def test_cli_subcommand_help_lists_its_flags(command, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main([command, "--help"])
    assert info.value.code == 0
    shown = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*",
                           capsys.readouterr().out))
    assert shown == _CLI_FLAGS[command] | {"--help"}


def test_emitted_csvs_share_one_format(tmp_path, capsys):
    """Every CSV of run_case and the CLI is LF-only and loads back."""
    run_case(CaseConfig(out_dir=str(tmp_path / "case"), **_SMALL_MATRIX))
    for i, argv in enumerate([
            ["smp"], ["dlmp"], ["premium-analytic"], ["premium-robust"],
            ["premium-trilevel"], ["premium-trilevel", "--mode", "ccg"],
            ["sweep", "--scales", "1,100", "--alphas", "1"]]):
        assert cli.main(["--out", str(tmp_path / f"cli{i}"), *argv]) == 0
    paths = sorted(tmp_path.glob("*/*.csv"))
    assert len(paths) == 8 + 10  # run_case's tables, the subcommands'
    for path in paths:
        assert b"\r" not in path.read_bytes(), path
        assert dataio.read_table(path), path
        if path.name == "tariff.csv":
            dataio.load_tariff(path)


def test_dlmp_stage_quotes_day_ids(tmp_path):
    """Day ids holding a comma or a quote survive dlmp.csv and tariff.csv."""
    net, days = manhattan7(), typical_days()
    ids = tuple(f'{day},"x"' for day in days.day_ids)
    net = dataclasses.replace(net, base_demand={
        new: net.base_demand[old] for old, new in zip(days.day_ids, ids)})
    days = TypicalDaySet(days.likelihood, days.demand_kw, day_ids=ids)
    results, tariff = dlmp_stage(
        net, days, lambda name, filename: str(tmp_path / filename))
    rows = dataio.read_table(tmp_path / "dlmp.csv")
    assert [r["day"] for r in rows] == [
        day for day in ids for _ in range(24 * len(net.buses))]
    assert [float(r["dlmp"]) for r in rows] == [
        v for res in results for v in res.dlmp.T.ravel().tolist()]
    back, back_ids = dataio.load_tariff(tmp_path / "tariff.csv")
    assert back_ids == tuple(sorted(ids))
    assert np.array_equal(back, tariff[[ids.index(d) for d in back_ids]])


def test_bare_carriage_return_cell_is_refused(tmp_path):
    """A cell with a carriage return outside a CRLF pair, which the csv
    module writes unquoted, is refused before the file is written; one
    with CRLF is quoted and loads back."""
    path = tmp_path / "tariff.csv"
    with pytest.raises(dataio.DataError, match=re.escape(
            f"{path}: cell 'a\\rb' holds a bare carriage return")):
        dataio.write_tariff(path, np.ones((1, 24)), day_ids=("a\rb",))
    assert not path.exists()
    dataio.write_tariff(path, np.ones((1, 24)), day_ids=("a\r\nb",))
    assert dataio.load_tariff(path)[1] == ("a\r\nb",)


def test_cli_reports_errors_with_nonzero_exit(tmp_path, capsys):
    rc = cli.main(["--out", str(tmp_path), "premium-analytic",
                   "--days", str(tmp_path / "missing.csv")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_cli_rejects_mismatched_tariff_days(tmp_path, capsys):
    net = manhattan7()
    tariff = evcs_tariff_cents(net, per_day_dlmps(net, typical_days()))
    path = tmp_path / "tariff.csv"
    dataio.write_tariff(path, tariff, day_ids=("p", "q", "r", "s"))
    rc = cli.main(["--out", str(tmp_path), "premium-analytic",
                   "--tariff", str(path)])
    assert rc == 1
    assert "do not match" in capsys.readouterr().err


def test_traced_layers_resolve(monkeypatch):
    """Every (module, function) the benchmark tracer wraps exists."""
    import evcs_premium
    perfbench = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench")
    monkeypatch.syspath_prepend(perfbench)
    try:
        tracer = importlib.import_module("tracer")
        layers = tracer.layer_functions(evcs_premium)
    finally:
        for name in ("tracer", "workloads"):
            sys.modules.pop(name, None)
    for name, module, attr, _, _ in layers:
        assert name == f"{module.__name__.split('.')[-1]}.{attr}"
        assert callable(getattr(module, attr)), name
    assert {"backend.solve_qp", "trilevel.ccg_solve",
            "dataio.write_dlmp"} <= {layer[0] for layer in layers}
