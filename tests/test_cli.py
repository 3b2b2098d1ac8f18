"""CLI smoke tests (python -m repro ...)."""

import pytest

from repro.cli import build_parser, main


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

    def test_figures(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out and "bench_fig12_throughput" in out

    def test_area(self, capsys):
        assert main(["area"]) == 0
        out = capsys.readouterr().out
        assert "sysNTTU" in out and "chip total" in out

    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("Vcall", "Comm", "Fsys"):
            assert name in out

    def test_serve_real_crypto_smoke(self, capsys):
        assert (
            main(["serve", "--records", "8", "--shards", "2", "--queries", "8"]) == 0
        )
        out = capsys.readouterr().out
        assert "byte-correct" in out and "OK" in out

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

    def test_batchpir_round_trip_and_model(self, capsys):
        assert (
            main(["batchpir", "--records", "64", "--record-bytes", "16", "--k", "8"])
            == 0
        )
        out = capsys.readouterr().out
        assert "OK" in out
        assert "speedup" in out

    def test_batchpir_rejects_unknown_db_size(self, capsys):
        assert (
            main(["batchpir", "--records", "32", "--k", "4", "--db-gib", "3"]) == 2
        )

    def test_batchpir_seed_threads_into_cuckoo_config(self, capsys):
        assert (
            main(
                [
                    "batchpir", "--records", "64", "--record-bytes", "16",
                    "--k", "4", "--seed", "7",
                ]
            )
            == 0
        )
        assert "OK" in capsys.readouterr().out

    def test_serve_accepts_backend(self, capsys):
        assert (
            main(
                ["serve", "--records", "8", "--shards", "2", "--queries", "4",
                 "--backend", "eager"]
            )
            == 0
        )
        assert "OK" in capsys.readouterr().out

    def test_unknown_backend_exits_2_listing_registered(self, capsys):
        from repro.he.backend import backend_names

        assert (
            main(["serve", "--records", "8", "--queries", "2",
                  "--backend", "warp-drive"])
            == 2
        )
        err = capsys.readouterr().err
        assert "unknown compute backend 'warp-drive'" in err
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
        assert (
            main(
                ["serve", "--records", "8", "--shards", "2", "--queries", "4",
                 "--seed", "11"]
            )
            == 0
        )
        assert "OK" in capsys.readouterr().out

    def test_kvpir_round_trip_and_model(self, capsys):
        assert (
            main(["kvpir", "--keys", "64", "--value-bytes", "16", "--k", "4"]) == 0
        )
        out = capsys.readouterr().out
        assert "OK" in out
        assert "KeyNotFound" in out
        assert "overhead" in out

    def test_kvpir_rejects_unknown_db_size(self, capsys):
        assert main(["kvpir", "--keys", "32", "--k", "4", "--db-gib", "3"]) == 2

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
            ["hintpir", "--churn", "2"],
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
