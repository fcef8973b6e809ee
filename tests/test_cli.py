"""End-to-end CLI runs against temp directories."""
import csv
import hashlib
import json
import os
import re
from dataclasses import fields
from decimal import Decimal
from pathlib import Path

import pytest

from venturebank import cli, simulation
from venturebank.cli import MAX_SWEEP_POINTS, SCHEMA, _sweep_grid, main
from venturebank.errors import ConfigError, SimulationError
from venturebank.registry import Registry, RegistryRecord, export_records
from venturebank.returns import SpreadParams
from venturebank.simulation import ScenarioConfig, sweep_classical_return
from oracles import is_nondecreasing, kraken_brute_force
from test_golden import GOLDEN


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def sha(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


# Well-formed JSON with every field, but a kind RegistryRecord refuses.
TERTIARY_RECORD = json.dumps({
    "din_id": "t", "kind": "tertiary", "underwriter_id": "uw1", "bank_id": "b",
    "investment_id": "i", "principal": "1", "sector": "s", "vintage_year": 2024,
})


def primary_line(**fields) -> str:
    """TERTIARY_RECORD made a primary, with the given fields changed."""
    return json.dumps(json.loads(TERTIARY_RECORD) | {"kind": "primary"} | fields)


def error_line(capsys) -> dict:
    """The one {"error", "kind"} JSON line a failed command leaves on stderr."""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert set(err) == {"error", "kind"}
    return err


class TestKraken:
    def test_default_grid_monotone_in_depth(self, tmp_path):
        assert main(["kraken", "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "kraken_curves.csv")
        assert rows[0] == ["reserve_fraction", "depth", "iteration_limit", "classical", "multiplier"]
        assert [(rf, depth, n) for rf, depth, n, _, _ in rows[1:]] == [
            (rf, str(depth), "100") for rf in ("0.05", "0.025") for depth in range(1, 11)
        ]
        by_rf = {}
        for rf, depth, _n, _base, value in rows[1:]:
            by_rf.setdefault(rf, []).append((int(depth), float(value)))
        assert set(by_rf) == {"0.05", "0.025"}
        for series in by_rf.values():
            values = [v for _, v in sorted(series)]
            assert is_nondecreasing(values)
        # the looser reserve requirement multiplies further at every depth
        for (d1, v05), (d2, v025) in zip(sorted(by_rf["0.05"]), sorted(by_rf["0.025"])):
            assert v025 > v05

    def test_uninsured_grid_collapses_to_classical(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"schema_version": 1, "kraken": {"tranche_insured": "0", "depths": [1, 3, 7]}},
        )
        assert main(["kraken", "--config", cfg, "--out", str(tmp_path)]) == 0
        for row in read_rows(tmp_path / "kraken_curves.csv")[1:]:
            assert row[3] == row[4]

    def test_spot_row_matches_brute_force(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "schema_version": 1,
                "kraken": {
                    "depths": [2],
                    "iteration_limit": 40,
                    "reserve_fractions": ["0.05"],
                    "insurance_price": "0.01",
                    "tranche_insured": "0.6",
                },
            },
        )
        assert main(["kraken", "--config", cfg, "--out", str(tmp_path)]) == 0
        row = read_rows(tmp_path / "kraken_curves.csv")[1]
        oracle = kraken_brute_force(0.05, 40, 2, insurance_price=0.01,
                                    origination=1.0, tranche_insured=0.6)
        assert float(row[4]) == pytest.approx(oracle, abs=1e-9)

    @pytest.mark.parametrize(
        "kraken",
        [
            {"reserve_fractions": ["abc"]},
            {"depths": ["x"]},
            {"depths": 3},
            {"iteration_limit": "many"},
            [0.05],
            # float() reads these; the grid must still refuse them by name.
            {"origination": "Infinity", "depths": [1, 2]},
            {"insurance_price": "NaN"},
            {"tranche_insured": "-Infinity"},
            {"reserve_fractions": ["Infinity"]},
            {"origination": "0.5"},
        ],
    )
    def test_bad_grid_is_one_json_line(self, tmp_path, capsys, kraken):
        cfg = write_config(tmp_path, {"schema_version": 1, "kraken": kraken})
        assert main(["kraken", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = error_line(capsys)
        assert err["kind"] == "ConfigError"
        for field in ("origination", "insurance_price", "tranche_insured"):
            if isinstance(kraken, dict) and field in kraken:
                assert field in err["error"]
        assert not os.path.exists(tmp_path / "kraken_curves.csv")


    @pytest.mark.parametrize(
        "kraken, field",
        [
            ({"depths": [1.9, 2.5], "iteration_limit": True,
              "reserve_fractions": ["0.05"]}, "iteration_limit"),
            ({"depths": [1.9, 2.5]}, "depths"),
            ({"depths": [True]}, "depths"),
            ({"depths": ["2"]}, "depths"),
            ({"iteration_limit": 100.0}, "iteration_limit"),
            ({"iteration_limit": False}, "iteration_limit"),
        ],
    )
    def test_counts_that_are_not_ints_are_refused_by_name(self, tmp_path, capsys,
                                                          kraken, field):
        cfg = write_config(tmp_path, {"schema_version": 1, "kraken": kraken})
        assert main(["kraken", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = error_line(capsys)
        assert err["kind"] == "ConfigError"
        assert f"{field} must be an int" in err["error"]
        assert not os.path.exists(tmp_path / "kraken_curves.csv")

    # float() reads a JSON bool as 1.0 or 0.0; the grid refuses it by name.
    @pytest.mark.parametrize(
        "kraken, field",
        [
            ({"reserve_fractions": [True]}, "reserve_fractions"),
            ({"reserve_fractions": ["0.05", False]}, "reserve_fractions"),
            ({"insurance_price": False}, "insurance_price"),
            ({"origination": True}, "origination"),
            ({"tranche_insured": True}, "tranche_insured"),
        ],
    )
    def test_bools_are_refused_by_name(self, tmp_path, capsys, kraken, field):
        cfg = write_config(tmp_path, {"schema_version": 1, "kraken": kraken})
        assert main(["kraken", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = error_line(capsys)
        assert err["kind"] == "ConfigError"
        assert f"{field} must be a number" in err["error"]
        assert not os.path.exists(tmp_path / "kraken_curves.csv")


    @pytest.mark.parametrize("kraken, message", [
        ({"reserve_fractions": ["0.05"] * 2000}, "at most 1000 rows"),
        ({"reserve_fractions": ["0.05"] * 101}, "at most 1000 rows"),
        ({"reserve_fractions": "0.05"}, "reserve_fractions must be a JSON array"),
        ({"reserve_fractions": {"0.05": 1}}, "reserve_fractions must be a JSON array"),
        ({"depths": {"1": 2}}, "depths must be a JSON array"),
    ])
    def test_grid_is_bounded_before_any_row_is_built(self, tmp_path, capsys, monkeypatch,
                                                       kraken, message):
        # Ten depths by default: 2000 or 101 reserve fractions are 20000 or
        # 1010 rows, past MAX_SWEEP_POINTS.
        assert MAX_SWEEP_POINTS == 1000
        def refused(*args, **kwargs):
            raise AssertionError("a row was built")
        monkeypatch.setattr(cli, "KrakenParams", refused)
        cfg = write_config(tmp_path, {"schema_version": 1, "kraken": kraken})
        assert main(["kraken", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = error_line(capsys)
        assert err["kind"] == "ConfigError"
        assert message in err["error"]
        assert not os.path.exists(tmp_path / "kraken_curves.csv")

    def test_a_grid_of_max_rows_runs(self, tmp_path):
        fractions = [f"0.{i:03d}" for i in range(1, 101)]
        cfg = write_config(tmp_path, {"schema_version": 1, "kraken": {
            "reserve_fractions": fractions, "iteration_limit": 5}})
        assert main(["kraken", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert len(read_rows(tmp_path / "kraken_curves.csv")) == 1 + MAX_SWEEP_POINTS

    def test_refused_partway_writes_nothing(self, tmp_path, capsys, monkeypatch):
        # Files are written through the module's _atomic_write, which the
        # benchmark's tracer wraps by name.  The 0.05 rows are priced before
        # the Infinity row is refused, and none of them is written.
        writes = []
        monkeypatch.setattr(cli, "_atomic_write", lambda path, text: writes.append(path))
        for fractions, code in ((["0.05"], 0), (["0.05", "Infinity"], 1)):
            cfg = write_config(tmp_path, {"schema_version": 1,
                                          "kraken": {"reserve_fractions": fractions}})
            assert main(["kraken", "--config", cfg, "--out", str(tmp_path)]) == code
        assert "reserve_fraction" in error_line(capsys)["error"]
        assert writes == [str(tmp_path / "kraken_curves.csv")]


class TestSimulate:
    def config(self, tmp_path, **scenario):
        base = dict(target_classical_return="1.31")
        base.update(scenario)
        return write_config(tmp_path, {"schema_version": 1, "scenario": base})

    def test_report_identities_from_file(self, tmp_path):
        cfg = self.config(tmp_path)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "report.csv")
        header, data = rows
        assert header[0] == "DIN rate" and header[7] == "DIN Equity fraction"
        investment = Decimal(data[2])
        earnings = Decimal(data[3])
        net = Decimal(data[4])
        assert net == earnings + investment
        assert float(data[5]) == pytest.approx(
            float(earnings / abs(investment)), abs=1e-6
        )
        assert os.path.exists(tmp_path / "events.csv")

    def test_byte_determinism(self, tmp_path):
        cfg = self.config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        assert sha(out1 / "report.csv") == sha(out2 / "report.csv")
        assert sha(out1 / "events.csv") == sha(out2 / "events.csv")

    def test_seed_override_changes_run(self, tmp_path):
        cfg = self.config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2), "--seed", "9"]) == 0
        assert sha(out1 / "events.csv") != sha(out2 / "events.csv")

    @pytest.mark.parametrize("text, names", [
        (b'{"schema_version": 1,\n  "scenario": {,}\n}', "line 2"),
        # Past the interpreter's limit of 4300 digits for reading an int.
        (b'{"schema_version": 1, "scenario": {"seed": 1' + b"0" * 5000 + b"}}",
         "5001 digits"),
        # Nested deeper than the interpreter's recursion limit.
        (b'{"schema_version": 1, "scenario": {"seed": '
         + b"[" * 200000 + b"]" * 200000 + b"}}", "recursion"),
        (b'{"schema_version": 1, "scenario": {"seed": "\xff"}}', "utf-8"),
    ], ids=["syntax", "digits", "depth", "encoding"])
    def test_bad_json_reports_line(self, tmp_path, capsys, text, names):
        path = tmp_path / "broken.json"
        path.write_bytes(text)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 1
        err = error_line(capsys)
        assert err["kind"] == "ConfigError"
        assert str(path) in err["error"] and names in err["error"]

    def test_wrong_schema_version(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"schema_version": 99, "scenario": {}})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "schema_version" in err["error"]
        assert not os.path.exists(tmp_path / "report.csv")

    # Each compares equal to 1 in Python; only the JSON integer 1 is version 1.
    @pytest.mark.parametrize("version", [True, 1.0, "1"], ids=["true", "float", "string"])
    def test_schema_version_is_the_integer_1(self, tmp_path, capsys, version):
        cfg = write_config(tmp_path, {"schema_version": version, "scenario": {"n_funds": 4}})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = error_line(capsys)
        assert err["kind"] == "ConfigError"
        assert f"schema_version {version!r} unsupported" in err["error"]
        assert not os.path.exists(tmp_path / "report.csv")

    def test_amount_past_the_money_scale_names_its_fields(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"schema_version": 1, "scenario": {
            "initial_capital": "1E+10", "target_classical_return": "1E+10"}})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = error_line(capsys)
        assert err["kind"] == "InvalidParameterError"
        for name in ("initial_capital 1E+10", "target_classical_return 1E+10",
                     "spread.survivor_max", "premium_rate", "exit_year", "bank_rate"):
            assert name in err["error"]
        assert not os.path.exists(tmp_path / "report.csv")

    @pytest.mark.parametrize(
        "scenario, kind",
        [
            ({"spread": {"bogus": 1}}, "ConfigError"),
            ({"premium_rate": "abc"}, "InvalidParameterError"),
            ({"spread": {"loser_fraction": "abc"}}, "InvalidParameterError"),
            ({"spread": {"survivor_max": 1e999}}, "InvalidParameterError"),
            ({"seed": "x"}, "InvalidParameterError"),
            ({"seed": -1}, "InvalidParameterError"),
            ({"exit_year": 10.0}, "InvalidParameterError"),
            ({"n_funds": 1}, "InvalidParameterError"),
            ({"salvage_mode": "bogus"}, "InvalidParameterError"),
            ({"audit_verdict": "yes"}, "InvalidParameterError"),
            ([1, 2], "ConfigError"),
            ({"n_funds": 10**12}, "InvalidParameterError"),
            ({"moc": "0.000001", "n_funds": 10000}, "InvalidParameterError"),
            ({"coverage": "0"}, "InvalidParameterError"),
            ({"clawback_fraction": "1.0"}, "InvalidParameterError"),
            # Finite decimals past the money scale of 19 digits before the point.
            ({"target_classical_return": "1E+30"}, "InvalidParameterError"),
            ({"target_classical_return": "-1E+30"}, "InvalidParameterError"),
            ({"target_classical_return": "1E+19"}, "InvalidParameterError"),
            ({"moc": "1E+30"}, "InvalidParameterError"),
            ({"initial_capital": "1E+30"}, "InvalidParameterError"),
            ({"bank_rate": "1E+30"}, "InvalidParameterError"),
            ({"bank_rate": "2"}, "InvalidParameterError"),
            ({"reserve_fraction": "1E-30"}, "InvalidParameterError"),
            # Each field fits; together they let an amount of the run pass
            # the money scale, which the config refuses before the run.
            ({"initial_capital": "1E+10", "target_classical_return": "1E+10"},
             "InvalidParameterError"),
            ({"spread": {"survivor_max": 1e300}}, "InvalidParameterError"),
            # Neither is a scenario field: the run ends at exit_year and
            # clawback_fraction fixes the rider's option.
            ({"horizon": 10}, "ConfigError"),
            ({"clawback_option": "A"}, "ConfigError"),
            # JSON true and false are not numbers, and a number is not a verdict.
            ({"premium_rate": True}, "InvalidParameterError"),
            ({"coverage": True}, "InvalidParameterError"),
            ({"moc": True}, "InvalidParameterError"),
            ({"initial_capital": True}, "InvalidParameterError"),
            ({"target_classical_return": True}, "InvalidParameterError"),
            ({"equity_fraction": False}, "InvalidParameterError"),
            ({"clawback_fraction": "1.0", "audit_verdict": 1}, "InvalidParameterError"),
            ({"clawback_fraction": "1.0", "audit_verdict": 0.0}, "InvalidParameterError"),
        ],
    )
    def test_bad_field_is_one_json_line(self, tmp_path, capsys, scenario, kind):
        cfg = write_config(tmp_path, {"schema_version": 1, "scenario": scenario})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = error_line(capsys)
        assert err["kind"] == kind
        # A bad spread knob is refused up front, by name.
        spread = scenario.get("spread", {}) if isinstance(scenario, dict) else {}
        for name in spread:
            assert name in err["error"]
        assert not os.path.exists(tmp_path / "report.csv")

    def test_simulate_keeps_no_books(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("simulate touched the books")

        for name in ("post_books", "Ledger"):
            monkeypatch.setattr(simulation, name, broken)
        # ScenarioConfig.calibration(target_classical_return="1.31").
        cfg = self.config(tmp_path, salvage_mode="zero", exit_equity_mode="earnings",
                          bank_rate="0.06", moc="47")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        golden = GOLDEN["calibration"]
        for name in ("report.csv", "events.csv"):
            assert sha(tmp_path / name) == golden[name]

    def test_simulate_builds_no_event_per_row(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("simulate built an Event")

        monkeypatch.setattr(simulation.EventLog, "__iter__", broken)
        cfg = self.config(tmp_path, salvage_mode="zero", exit_equity_mode="earnings",
                          bank_rate="0.06", moc="47")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        golden = GOLDEN["calibration"]
        for name in ("report.csv", "events.csv"):
            assert sha(tmp_path / name) == golden[name]

    def test_domain_error_surfaces_coordinates(self, tmp_path, capsys, monkeypatch):
        def failing(config):
            raise SimulationError("lien cannot settle", year=10, account="lien_obligations")

        monkeypatch.setattr(cli, "run_scenario", failing)
        cfg = self.config(tmp_path)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "SimulationError"
        assert "year=10" in err["error"] and "account=lien_obligations" in err["error"]
        assert not os.path.exists(tmp_path / "report.csv")


class TestSweep:
    def test_curves_written(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "schema_version": 1,
                "scenario": {"salvage_mode": "zero", "exit_equity_mode": "earnings",
                              "bank_rate": "0.06"},
                "sweep": {"grid": ["1.0", "1.5"]},
            },
        )
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "curves.csv")
        assert rows[0] == ["curve", "classical_return", "value"]
        curves = {row[0] for row in rows[1:]}
        assert curves == {
            "bank_moc30", "bank_moc43", "din_10y", "din_net_profit",
            "bank_claw0", "bank_claw077",
        }
        failures = read_rows(tmp_path / "sweep_failures.csv")
        assert failures == [["curve", "classical_return", "message"]]

    def test_failure_rows_are_the_sweeps_failures(self, tmp_path):
        # A NaN point fails on every curve, with a message that holds a
        # comma, so csv quotes it.
        payload = {"schema_version": 1, "scenario": {"n_funds": 4},
                   "sweep": {"grid": ["NaN", "1.31"]}}
        cfg = write_config(tmp_path, payload)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        failures = sweep_classical_return(cli.scenario_from_config(payload, None),
                                          [Decimal("NaN"), Decimal("1.31")]).failures
        assert [f.curve for f in failures] == [c for c, _, _ in simulation.SWEEP_CURVES]
        assert all("," in f.message for f in failures)
        assert read_rows(tmp_path / "sweep_failures.csv") == [
            ["curve", "classical_return", "message"],
            *[[f.curve, str(f.classical_return), f.message] for f in failures]]
        assert f'"{failures[0].message}"' in (tmp_path / "sweep_failures.csv").read_text()

    def test_empty_grid_writes_nothing(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"schema_version": 1, "scenario": {}, "sweep": {"grid": []}},
        )
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 1
        json.loads(capsys.readouterr().err)
        assert not os.path.exists(tmp_path / "curves.csv")
        assert not os.path.exists(tmp_path / "sweep_failures.csv")

    def test_start_stop_step_grid(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "schema_version": 1,
                "scenario": {},
                "sweep": {"start": "1.0", "stop": "1.2", "step": "0.1"},
            },
        )
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "curves.csv")
        targets = sorted({row[1] for row in rows[1:]})
        assert targets == ["1.0", "1.1", "1.2"]

    @pytest.mark.parametrize(
        "sweep, kind",
        [
            # The sweep reads a grid point, and names the one that is no decimal.
            ({"grid": ["abc"]}, "InvalidParameterError"),
            ({"grid": "1.0"}, "ConfigError"),
            ({"grid": ["1.0"] * (MAX_SWEEP_POINTS + 1)}, "ConfigError"),
            ({"start": "abc", "stop": "1.2", "step": "0.1"}, "ConfigError"),
            ({"start": "1.0", "stop": "Infinity", "step": "0.1"}, "ConfigError"),
            ({"start": "0", "stop": "1000", "step": "0.5"}, "ConfigError"),
            ({"start": "1e30", "stop": "1000000000000000000000000000001", "step": "0.01"},
             "ConfigError"),
            ({"start": "1", "stop": "9e999999", "step": "1e-999999"}, "ConfigError"),
            (["1.0"], "ConfigError"),
        ],
    )
    def test_bad_grid_is_one_json_line(self, tmp_path, capsys, sweep, kind):
        cfg = write_config(tmp_path, {"schema_version": 1, "scenario": {}, "sweep": sweep})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = error_line(capsys)
        assert err["kind"] == kind
        if kind == "InvalidParameterError":
            assert "sweep grid point 0" in err["error"]
        assert not os.path.exists(tmp_path / "curves.csv")

    def test_grid_cap_is_checked_on_the_point_count(self):
        full = {"start": "1", "stop": str(MAX_SWEEP_POINTS), "step": "1"}
        assert len(_sweep_grid(full)) == MAX_SWEEP_POINTS
        with pytest.raises(ConfigError, match="at most"):
            _sweep_grid(dict(full, stop=str(MAX_SWEEP_POINTS + 1)))


class TestAudit:
    def registry_file(self, tmp_path):
        registry = Registry()
        for i in range(8):
            registry.register(
                RegistryRecord(
                    din_id=f"p{i:03d}",
                    kind="primary",
                    underwriter_id="uw1",
                    bank_id="bank1",
                    investment_id=f"inv{i}",
                    principal="10",
                    sector="deeptech",
                    vintage_year=2020 + i % 3,
                    terms_digest=f"terms-{i}",
                    attached=i != 4,
                    expected_multiple=Decimal("0.5") * (i + 1),
                )
            )
        path = tmp_path / "registry.jsonl"
        path.write_text(export_records(registry))
        return str(path)

    def test_detached_note_reported(self, tmp_path):
        manifest = write_config(
            tmp_path,
            {"schema_version": 1, "audit": {"registry_path": self.registry_file(tmp_path)}},
        )
        assert main(["audit", "--config", manifest, "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "attachment_violations.csv")
        assert rows[0] == ["din_id", "status_before", "reason"]
        assert len(rows) == 2 and rows[1][0] == "p004"

    def test_representativeness_report(self, tmp_path):
        manifest = write_config(
            tmp_path,
            {
                "schema_version": 1,
                "audit": {
                    "registry_path": self.registry_file(tmp_path),
                    "package": {
                        "underwriter_id": "uw1",
                        "rule": "random_n",
                        "n": 4,
                        "seed": 3,
                        "public_fraction": "0.5",
                    },
                },
            },
        )
        assert main(["audit", "--config", manifest, "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "representativeness.csv")
        assert rows[0][0] == "package_id"
        assert rows[1][1] == "4" and rows[1][2] == "8"

    def test_rerun_byte_identical(self, tmp_path):
        manifest = write_config(
            tmp_path,
            {"schema_version": 1, "audit": {"registry_path": self.registry_file(tmp_path)}},
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["audit", "--config", manifest, "--out", str(out1)]) == 0
        assert main(["audit", "--config", manifest, "--out", str(out2)]) == 0
        assert sha(out1 / "attachment_violations.csv") == sha(out2 / "attachment_violations.csv")

    def test_missing_registry_path(self, tmp_path, capsys):
        manifest = write_config(tmp_path, {"schema_version": 1, "audit": {}})
        assert main(["audit", "--config", manifest, "--out", str(tmp_path)]) == 1
        assert json.loads(capsys.readouterr().err)["kind"] == "ConfigError"

    @pytest.mark.parametrize(
        "package, kind",
        [
            ({"rule": "random_n", "n": 4, "seed": 3}, "ConfigError"),
            ({"rule": "random_n", "n": "x", "seed": 3, "underwriter_id": "uw1"},
             "ConfigError"),
            ({"rule": "forward_period", "underwriter_id": "uw1"}, "ConfigError"),
            ({"rule": "random_n", "n": 4, "seed": 3, "underwriter_id": "uw1",
              "public_fraction": "abc"}, "ConfigError"),
            ({"rule": "random_n", "n": -1, "seed": 3, "underwriter_id": "uw1"},
             "PackagingError"),
            # Counts are JSON integers, neither truncated nor read from a bool.
            ({"rule": "random_n", "n": 12.9, "seed": True, "underwriter_id": "uw1"}, "ConfigError"),
            ({"rule": "random_n", "n": 4, "seed": 7.5, "underwriter_id": "uw1"}, "ConfigError"),
            ({"rule": "forward_period", "from_year": 2.7, "underwriter_id": "uw1"}, "ConfigError"),
        ],
    )
    def test_bad_package_is_one_json_line(self, tmp_path, capsys, package, kind):
        manifest = write_config(
            tmp_path,
            {"schema_version": 1,
             "audit": {"registry_path": self.registry_file(tmp_path), "package": package}},
        )
        assert main(["audit", "--config", manifest, "--out", str(tmp_path)]) == 1
        assert error_line(capsys)["kind"] == kind
        assert not os.path.exists(tmp_path / "representativeness.csv")

    PACKAGE = {"rule": "random_n", "n": 4, "seed": 3, "underwriter_id": "uw1"}

    @pytest.mark.parametrize(
        "audit, field",
        [
            # float() reads true as threshold 1.0, "NaN" as one nothing is
            # below and "Infinity" as one everything is below.
            ({"significance": True}, "significance"),
            ({"significance": False}, "significance"),
            ({"significance": "NaN"}, "significance"),
            ({"significance": "Infinity"}, "significance"),
            ({"significance": 1.5}, "significance"),
            ({"significance": -0.01}, "significance"),
            ({"significance": [0.05]}, "significance"),
            ({"package": dict(PACKAGE, package_id=["x"])}, "package_id"),
            ({"package": dict(PACKAGE, package_id=5)}, "package_id"),
        ],
    )
    def test_bad_audit_field_is_refused_by_name(self, tmp_path, capsys, audit, field):
        manifest = write_config(
            tmp_path,
            {"schema_version": 1,
             "audit": {"registry_path": self.registry_file(tmp_path), **audit}},
        )
        assert main(["audit", "--config", manifest, "--out", str(tmp_path)]) == 1
        err = error_line(capsys)
        assert err["kind"] == "ConfigError"
        assert field in err["error"]
        assert not os.path.exists(tmp_path / "attachment_violations.csv")

    @pytest.mark.parametrize("significance", [0, "0.05", 1])
    def test_significance_bounds_run(self, tmp_path, significance):
        manifest = write_config(
            tmp_path,
            {"schema_version": 1,
             "audit": {"registry_path": self.registry_file(tmp_path),
                       "significance": significance, "package": self.PACKAGE}},
        )
        assert main(["audit", "--config", manifest, "--out", str(tmp_path)]) == 0
        threshold = read_rows(tmp_path / "representativeness.csv")[1][5]
        assert float(threshold) == float(significance)

    @pytest.mark.parametrize("line", ['{"din_id": "a"', '{"din_id": "a"}', "[1]",
                                      TERTIARY_RECORD, primary_line(vintage_year="2024"),
                                      primary_line(attached="false"),
                                      pytest.param("[" * 200000 + "]" * 200000,
                                                   id="nested-200000")])
    def test_malformed_registry_is_one_json_line(self, tmp_path, capsys, line):
        path = tmp_path / "registry.jsonl"
        path.write_text(line + "\n")
        manifest = write_config(
            tmp_path, {"schema_version": 1, "audit": {"registry_path": str(path)}}
        )
        assert main(["audit", "--config", manifest, "--out", str(tmp_path)]) == 1
        err = error_line(capsys)
        assert err["kind"] == "RegistryError"
        assert "registry line 1" in err["error"]

    def test_registry_that_is_not_utf8_is_one_json_line(self, tmp_path, capsys):
        path = tmp_path / "registry.jsonl"
        path.write_bytes(b'{"din_id": "\xff"}\n')
        manifest = write_config(
            tmp_path, {"schema_version": 1, "audit": {"registry_path": str(path)}}
        )
        assert main(["audit", "--config", manifest, "--out", str(tmp_path)]) == 1
        err = error_line(capsys)
        assert err["kind"] == "ConfigError"
        assert str(path) in err["error"]

    @pytest.mark.parametrize("multiple", ['"NaN"', '"sNaN"', '"Infinity"', '"-2"'])
    def test_bad_expected_multiple_is_one_json_line(self, tmp_path, capsys, multiple):
        record = json.loads(TERTIARY_RECORD) | {"kind": "primary"}
        good = json.dumps(record | {"expected_multiple": "1"})
        bad = json.dumps(record | {"din_id": "u"})[:-1] + f', "expected_multiple": {multiple}}}'
        path = tmp_path / "registry.jsonl"
        path.write_text(good + "\n" + bad + "\n")
        manifest = write_config(
            tmp_path, {"schema_version": 1, "audit": {"registry_path": str(path)}}
        )
        assert main(["audit", "--config", manifest, "--out", str(tmp_path)]) == 1
        err = error_line(capsys)
        assert err["kind"] == "RegistryError"
        assert err["error"].startswith("registry line 2: expected_multiple must be")


class TestConfigSchema:
    REGISTRY = str(Path(__file__).resolve().parent.parent / "configs" / "registry.jsonl")
    PACKAGE = {"rule": "random_n", "n": 4, "seed": 3, "underwriter_id": "uw-alpha"}

    # A mistyped key once ran another config: the default scenario, the
    # default depths, the grid alone, significance 0.05.
    @pytest.mark.parametrize("command, config, key, near", [
        ("simulate", {"senario": {"moc": 1}}, "senario", "scenario"),
        ("kraken", {"kraken": {"depth": [1, 2]}}, "depth", "depths"),
        ("sweep", {"sweep": {"grid": ["1.0"], "gird": 5}}, "gird", "grid"),
        ("audit", {"audit": {"registry_path": REGISTRY, "signifcance": 0.9}},
         "signifcance", "significance"),
        ("simulate", {"scenario": {"spread": {"loser_fractoin": 0.5}}},
         "loser_fractoin", "loser_fraction"),
        ("audit", {"audit": {"registry_path": REGISTRY,
                             "package": dict(PACKAGE, pacakge_id="x")}},
         "pacakge_id", "package_id"),
    ])
    def test_unknown_key_is_refused_with_the_nearest(self, tmp_path, capsys, command,
                                                     config, key, near):
        cfg = write_config(tmp_path, {"schema_version": 1, **config})
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 1
        err = error_line(capsys)
        assert err["kind"] == "ConfigError"
        assert f"no key {key!r}; did you mean {near!r}?" in err["error"]
        assert os.listdir(tmp_path) == ["config.json"]

    def test_a_key_of_the_other_package_rule_is_unknown(self, tmp_path, capsys):
        package = dict(self.PACKAGE, from_year=2020)
        cfg = write_config(tmp_path, {"schema_version": 1, "audit": {
            "registry_path": self.REGISTRY, "package": package}})
        assert main(["audit", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = error_line(capsys)
        assert err["kind"] == "ConfigError" and "no key 'from_year'" in err["error"]

    @pytest.mark.parametrize("sweep, named", [
        ({"grid": ["1.0"], "start": "0.5", "stop": "2.0", "step": "0.5"},
         "start, stop, step"),
        ({"grid": ["1.0"], "start": "0.5"}, "start"),
        ({"grid": ["1.0"], "step": "0.5"}, "step"),
    ])
    def test_a_sweep_naming_both_grids_is_refused(self, tmp_path, capsys, sweep, named):
        cfg = write_config(tmp_path, {"schema_version": 1, "sweep": sweep})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = error_line(capsys)
        assert err["kind"] == "ConfigError"
        assert err["error"].endswith(f"drop grid or {named}")
        with pytest.raises(ConfigError, match="not both"):
            _sweep_grid(sweep)

    @pytest.mark.parametrize("command, config, message", [
        ("sweep", {"sweep": {"start": True, "stop": "1", "step": "1"}},
         "sweep.start must be a number or a string, got True"),
        ("sweep", {"sweep": {"grid": [None]}},
         "each of sweep.grid must be a number or a string, got None"),
        ("audit", {"audit": {"registry_path": 5}},
         "audit.registry_path must be a string, got 5"),
        ("audit", {"audit": {"registry_path": REGISTRY, "package": [PACKAGE]}},
         "audit.package must be a JSON object"),
        ("audit", {"audit": {"registry_path": REGISTRY,
                             "package": dict(PACKAGE, underwriter_id=1)}},
         "audit.package.underwriter_id must be a string, got 1"),
        ("audit", {"audit": {"registry_path": REGISTRY,
                             "package": dict(PACKAGE, n=4.0)}},
         "audit.package.n must be an integer, got 4.0"),
        ("audit", {"audit": {"registry_path": REGISTRY,
                             "package": dict(PACKAGE, rule="hand_picked")}},
         "audit.package rule must be one of forward_period, random_n"),
        ("audit", {"audit": {"package": PACKAGE}}, "audit needs registry_path"),
        ("kraken", {"kraken": {"depths": [1], "insurance_price": "NaN"}},
         "kraken.insurance_price must be a finite decimal"),
    ])
    def test_a_value_not_of_its_declared_type_is_refused(self, tmp_path, capsys, command,
                                                         config, message):
        cfg = write_config(tmp_path, {"schema_version": 1, **config})
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 1
        err = error_line(capsys)
        assert err["kind"] == "ConfigError" and message in err["error"]

    def test_a_command_reads_only_its_own_sections(self, tmp_path):
        # Another command's section, however malformed, is not read.
        cfg = write_config(tmp_path, {"schema_version": 1, "audit": 5, "sweep": [],
                                      "kraken": {"depths": [1]}})
        assert main(["kraken", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert len(read_rows(tmp_path / "kraken_curves.csv")) == 3

    @pytest.mark.parametrize("config", [
        {"scenario": {"n_funds": 4, "spread": None}},
        {"scenario": {"n_funds": 4, "target_classical_return": None}},
        {"audit": {"registry_path": REGISTRY, "package": {}}},
    ], ids=["null-spread", "null-target", "empty-package"])
    def test_nulls_and_an_empty_package_read_as_defaults(self, tmp_path, config):
        command = "audit" if "audit" in config else "simulate"
        cfg = write_config(tmp_path, {"schema_version": 1, **config})
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0
        assert not os.path.exists(tmp_path / "representativeness.csv")

    def test_scenario_keys_are_the_dataclass_fields(self):
        assert list(SCHEMA["scenario"]) == [f.name for f in fields(ScenarioConfig)]
        assert list(SCHEMA["scenario.spread"]) == [f.name for f in fields(SpreadParams)]
        assert list(SCHEMA["config"]) == ["schema_version", "scenario", "kraken", "sweep",
                                          "audit"]


README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def readme_table(header: str) -> list[list[str]]:
    """The cells of each body row of the README table headed by header,
    with their backticks stripped."""
    lines = README.splitlines()
    start = lines.index(header)
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            return rows
        rows.append([cell.strip().strip("`") for cell in line.strip("|").split("|")])
    return rows


class TestReadme:
    def test_scenario_table_names_exactly_the_fields(self):
        table = readme_table("| field | default | meaning |")
        assert [row[0] for row in table] == [f.name for f in fields(ScenarioConfig)]
        spread = README.split("`spread` sub-fields:")[1].split("\n\n")[0]
        assert re.findall(r"`(\w+)` \(", spread) == [f.name for f in fields(SpreadParams)]

    def test_cli_table_names_every_declared_key(self):
        table = readme_table("| section | key | JSON type | default |")
        declared = [(section, key) for section in ("kraken", "sweep", "audit", "audit.package")
                    for key in SCHEMA[section]]
        declared += [("audit.package", f.name) for rule in cli.PACKAGE_RULES.values()
                     for f in fields(rule)]
        assert sorted((row[0], row[1]) for row in table) == sorted(declared)


class TestParser:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["paint"])
        assert exc.value.code == 2

    def test_format_csv_only(self):
        # CSV is the only output, so there is no --format to choose it.
        for fmt in ("parquet", "csv"):
            with pytest.raises(SystemExit):
                main(["simulate", "--format", fmt])
