"""CLI smoke tests (python -m repro ...)."""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

#: One command per purpose: the whole front door.
COMMANDS = ["demo", "qps", "figures", "loadtest", "obs-report", "obs-watch"]


def _real_audit(capsys, *argv) -> dict:
    """``loadtest --mode real`` + ``argv``; the audit of a clean run."""
    import json

    assert main(["loadtest", "--mode", "real", *argv]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["errored"] == 0 and out["audit"]["wrong_bytes"] == 0
    return out["audit"]


class TestCli:
    def test_demo(self, capsys):
        assert main(["demo", "--records", "16", "--record-bytes", "32"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "query" in out

    def test_demo_index_wraps(self, capsys):
        assert main(["demo", "--records", "8", "--record-bytes", "16", "--index", "100"]) == 0

    def test_qps(self, capsys):
        assert main(["qps", "--db-gib", "2", "--batch", "64"]) == 0
        out = capsys.readouterr().out
        assert "QPS" in out and "RowSel" in out

    def test_qps_rejects_unknown_size(self, capsys):
        assert main(["qps", "--db-gib", "3"]) == 2

    def test_qps_prints_hint_and_update_models(self, capsys):
        assert main(["qps"]) == 0
        out = capsys.readouterr().out
        assert "hintpir: modeled on IVE, 2 GiB DB" in out and "vs full pass" in out
        assert "refresh dominates the client's wire budget beyond 3.00%" in out
        assert "plain updates: modeled on IVE, 2 GiB DB" in out
        assert "1.00%" in out and "dirty polys" in out

    def test_qps_tier_that_outgrows_one_system_says_so(self, capsys):
        """The batch and keyword stores replicate records, so at 64 GiB they
        exceed one system's LPDDR; the other tables still print."""
        assert main(["qps", "--db-gib", "64"]) == 0
        out = capsys.readouterr().out
        assert out.count("not modeled: preprocessed DB") == 2
        assert "hintpir: modeled on IVE, 64 GiB DB" in out
        assert "plain updates: modeled on IVE, 64 GiB DB" in out

    def test_figures(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out and "bench_fig12_throughput" in out

    def test_area(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "Table II, modeled" in out
        assert "sysNTTU" in out and "chip total" in out

    def test_workloads(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "Table III, modeled" in out
        for name in ("Vcall", "Comm", "Fsys"):
            assert name in out

    def test_loadtest_sim_reports_json_metrics(self, capsys):
        import json

        assert main(["loadtest", "--mode", "sim", "--queries", "500"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["completed"] == 500
        lat = out["metrics"]["latency"]
        assert 0 < lat["p50_s"] <= lat["p95_s"] <= lat["p99_s"]
        assert out["metrics"]["achieved_qps"] > 0

    def test_loadtest_real_crypto(self, capsys):
        import json

        assert (
            main(
                [
                    "loadtest",
                    "--mode",
                    "real",
                    "--queries",
                    "6",
                    "--records",
                    "8",
                    "--rate",
                    "100",
                ]
            )
            == 0
        )
        out = json.loads(capsys.readouterr().out)
        assert out["completed"] == 6 and out["errored"] == 0

    def test_loadtest_sim_rejects_unknown_db_size(self, capsys):
        assert main(["loadtest", "--mode", "sim", "--db-gib", "3"]) == 2

    def test_loadtest_zipf_distribution(self, capsys):
        import json

        assert (
            main(
                [
                    "loadtest",
                    "--mode",
                    "sim",
                    "--queries",
                    "500",
                    "--distribution",
                    "zipf",
                    "--zipf-a",
                    "1.5",
                ]
            )
            == 0
        )
        out = json.loads(capsys.readouterr().out)
        assert out["distribution"] == "zipf"
        assert out["completed"] == 500

    def test_serve_accepts_backend(self, capsys):
        audit = _real_audit(
            capsys, "--records", "8", "--shards", "2", "--queries", "4",
            "--backend", "eager",
        )
        assert audit["decoded_correct"] == 4

    def test_unknown_backend_exits_2_listing_registered(self, capsys):
        from repro.he.backend import backend_names

        for unknown in ("warp-drive", "planned"):
            assert (
                main(["loadtest", "--mode", "real", "--records", "8",
                      "--queries", "2", "--backend", unknown])
                == 2
            )
            err = capsys.readouterr().err
            assert f"unknown compute backend '{unknown}'" in err
            for name in backend_names():
                assert name in err

    def test_loadtest_unknown_backend_exits_2(self, capsys):
        assert (
            main(["loadtest", "--mode", "real", "--queries", "2",
                  "--records", "8", "--backend", "nope"])
            == 2
        )
        assert "unknown compute backend" in capsys.readouterr().err

    def test_serve_accepts_seed(self, capsys):
        audit = _real_audit(
            capsys, "--records", "8", "--shards", "2", "--queries", "4",
            "--seed", "11",
        )
        assert audit["decoded_correct"] == 4

    def test_batchpir_round_trip_and_model(self, capsys):
        audit = _real_audit(
            capsys, "--serving", "batchpir", "--records", "64",
            "--record-bytes", "16", "--max-batch", "8", "--queries", "8",
        )
        assert audit["decoded_correct"] == 8
        assert main(["qps"]) == 0
        out = capsys.readouterr().out
        assert "batchpir: modeled on IVE" in out and "speedup" in out

    def test_batchpir_rejects_unknown_db_size(self, capsys):
        argv = ["loadtest", "--mode", "sim", "--serving", "batchpir", "--db-gib", "3"]
        assert main(argv) == 2

    def test_batchpir_seed_threads_into_cuckoo_config(self, capsys):
        audit = _real_audit(
            capsys, "--serving", "batchpir", "--records", "64",
            "--record-bytes", "16", "--max-batch", "4", "--queries", "8",
            "--seed", "7",
        )
        assert audit["decoded_correct"] == 8

    def test_kvpir_round_trip_and_model(self, capsys):
        audit = _real_audit(
            capsys, "--serving", "kvpir", "--records", "64",
            "--record-bytes", "16", "--max-batch", "4", "--queries", "8",
        )
        assert audit["decoded_correct"] == 8
        assert main(["qps"]) == 0
        out = capsys.readouterr().out
        assert "kvpir: modeled on IVE" in out and "overhead" in out

    def test_kvpir_rejects_unknown_db_size(self, capsys):
        argv = ["loadtest", "--mode", "sim", "--serving", "kvpir", "--db-gib", "3"]
        assert main(argv) == 2

    def test_loadtest_sim_kvpir_serving(self, capsys):
        import json

        assert (
            main(
                ["loadtest", "--mode", "sim", "--queries", "400",
                 "--serving", "kvpir"]
            )
            == 0
        )
        out = json.loads(capsys.readouterr().out)
        assert out["serving"] == "kvpir"
        assert out["completed"] == 400

    @pytest.mark.parametrize("tier", ["plain", "batchpir", "kvpir", "hintpir"])
    def test_loadtest_real_serves_and_audits_every_tier(self, tier, capsys):
        import json

        argv = ["loadtest", "--mode", "real", "--serving", tier, "--queries", "8",
                "--records", "16", "--shards", "2", "--max-batch", "4"]
        assert main(argv) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["completed"] == 8 and out["errored"] == 0
        assert out["audit"]["decoded_correct"] == 8
        assert out["audit"]["wrong_bytes"] == 0
        assert ("hint_downloads" in out["audit"]) == (tier == "hintpir")

    @pytest.mark.parametrize("tier", ["plain", "hintpir"])
    def test_loadtest_publishes_epochs_mid_traffic(self, tier, capsys):
        import json

        argv = ["loadtest", "--mode", "real", "--serving", tier, "--queries", "40",
                "--records", "32", "--record-bytes", "24", "--rate", "300",
                "--shards", "2", "--window-ms", "20", "--publish-period", "0.03"]
        assert main(argv) == 0
        audit = json.loads(capsys.readouterr().out)["audit"]
        assert audit["epochs_published"] >= 1
        assert audit["wrong_bytes"] == 0
        assert audit["decoded_correct"] + audit["typed_refusals"] == 40

    @pytest.mark.parametrize("tier", ["batchpir", "kvpir", "hintpir"])
    def test_loadtest_cluster_refuses_hostless_cells(self, tier, capsys):
        assert main(["loadtest", "--mode", "cluster", "--serving", tier]) == 2
        err = capsys.readouterr().err
        assert f"no host for --serving {tier} in --mode cluster" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["loadtest", "--mode", "real", "--serving", "hintpir",
             "--publish-period", "0"],
            ["loadtest", "--health-out", "unused", "--health-interval", "0"],
            ["loadtest", "--mode", "real", "--serving", "hintpir",
             "--publish-period", "0.05", "--publish-churn", "2.0"],
            ["obs-watch", "unused", "--interval", "-1"],
            ["obs-watch", "unused", "--interval", "0"],
        ],
    )
    def test_bad_periods_and_fractions_exit_2(self, argv, capsys):
        """A zero period used to spin its timer task forever and a churn
        above 1 died in ``Generator.choice``; both are parse errors now."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert f"error: argument {argv[-2]}: must be" in capsys.readouterr().err

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_one_front_door_per_purpose(self, capsys):
        sub = next(
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert list(sub.choices) == COMMANDS
        for command in COMMANDS:
            with pytest.raises(SystemExit) as exit_info:
                main([command, "--help"])
            assert exit_info.value.code == 0

    def test_loadtest_bad_argument_leaves_no_task_pending(self):
        """A typed error after the deployment is built used to leave every
        shard's dispatcher task pending when the event loop closed."""
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-m", "repro", "loadtest", "--mode", "sim",
             "--distribution", "zipf", "--zipf-a", "1.0", "--queries", "10"],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 2
        assert "error: Zipf exponent must be greater than 1" in done.stderr
        assert "Task was destroyed" not in done.stderr
        assert "Traceback" not in done.stderr
