"""Smoke, verifier and trace tests of the end-to-end benchmark.

The benchmark runs as users run it — ``run.py`` in subprocesses, all
workloads shrunk by ``--smoke`` — and the tests read its result and span
files.  The verifier tests drive deployments in-process so they can hand
the verify step a flipped byte and a swapped epoch.
"""

import asyncio
import importlib.util
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
E2E_NAMES = [m["name"] for m in SPEC["end_to_end"]]
LAYER_NAMES = [m["name"] for m in SPEC["per_layer"]]
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
EXACT = ("online_bytes_per_rec", "offline_bytes_per_client")
SEED = 5
TRACED = "plain_n256_serve"


def load_run_module():
    spec = importlib.util.spec_from_file_location("e2e_run", HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = load_run_module()
import e2e_layers  # noqa: E402  (run.py put this directory on sys.path)
import e2e_workloads  # noqa: E402


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Two untraced smoke runs of everything and one traced run, side by side."""
    out = tmp_path_factory.mktemp("e2e")
    base = [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", str(SEED)]
    procs = {
        "a": subprocess.Popen(base + ["--out", str(out / "a")], stdout=subprocess.PIPE),
        "b": subprocess.Popen(base + ["--out", str(out / "b")], stdout=subprocess.PIPE),
        "traced": subprocess.Popen(
            base + ["--trace", "1", "--workload", TRACED, "--out", str(out / "traced")],
            stdout=subprocess.PIPE,
        ),
    }
    stdout = {}
    for name, proc in procs.items():
        stdout[name] = proc.communicate(timeout=120)[0].decode()
        assert proc.returncode == 0, stdout[name]
    return out, stdout


def result(out: Path, run_name: str, workload: str, traced: bool = False) -> dict:
    suffix = ".traced.json" if traced else ".json"
    return json.loads((out / run_name / (workload + suffix)).read_text())


def test_benchmark_json_names_the_workloads_and_a_setup_metric():
    assert WORKLOAD_NAMES == list(e2e_workloads.WORKLOADS)
    assert len(LAYER_NAMES) == 55
    for name in E2E_NAMES + LAYER_NAMES + WORKLOAD_NAMES:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_every_workload_reports_every_end_to_end_metric_verified(smoke):
    out, stdout = smoke
    for workload in WORKLOAD_NAMES:
        run_a = result(out, "a", workload)
        assert sorted(run_a["end_to_end"]) == sorted(E2E_NAMES)
        assert run_a["end_to_end"]["verified_share"] == 1.0
        assert run_a["correct"] and run_a["failed"] == 0 and run_a["attempted"] > 0
        assert all(value > 0 for value in run_a["end_to_end"].values())
        for pin in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            assert run_a["env"]["thread_pins"][pin] == "1"
        assert {"git_sha", "numpy", "blas", "nproc", "affinity", "seed", "backend"} <= set(
            run_a["env"]
        )
        assert {"loadavg", "steal_jiffies"} <= set(run_a["proc"]["start"])
    # The last stdout line of a single-workload run is the driver's JSON object.
    last = json.loads(stdout["traced"].strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert sorted(last["metrics"]) == sorted(LAYER_NAMES)


def test_exact_metrics_repeat_bit_for_bit(smoke):
    out, _ = smoke
    for workload in WORKLOAD_NAMES:
        first, second = result(out, "a", workload), result(out, "b", workload)
        for metric in EXACT:
            assert first["end_to_end"][metric] == second["end_to_end"][metric]
    traced = result(out, "traced", TRACED, traced=True)["per_layer"]
    again = e2e_layers.arch_probe()
    for metric in ("arch.sim_qps_2gib_b64", "arch.sim_qps_32gib_b64"):
        assert traced[metric] == again[metric]


def test_spans_form_request_trees_and_the_budgets_follow_from_them(smoke):
    out, _ = smoke
    traced = result(out, "traced", TRACED, traced=True)
    assert sorted(traced["per_layer"]) == sorted(LAYER_NAMES)
    lines = (out / "traced" / f"{TRACED}.spans.jsonl").read_text().splitlines()
    spans = [json.loads(line) for line in lines]
    chrome = json.loads((out / "traced" / f"{TRACED}.trace.json").read_text())
    assert len(chrome["traceEvents"]) == len(spans) > 0
    children: dict = {}
    for span in spans:
        if span["parent"] is None:
            assert span["request"] == span["id"]  # a root of its own tree
        else:
            parent = spans[span["parent"]]
            assert span["request"] == parent["request"]
            assert parent["start_s"] <= span["start_s"] <= span["end_s"] <= parent["end_s"]
            children.setdefault(span["parent"], []).append(span)

    def duration(span):
        return span["end_s"] - span["start_s"]

    for parent_id, kids in children.items():
        assert sum(map(duration, kids)) <= duration(spans[parent_id]) * (1 + 1e-9)
    # serve: what is left of a solo request after encode, queue wait, service, decode.
    solo = [s for s in spans if s["name"] == "request" and s["phase"] == "solo" and s["ok"]]
    shares = [1 - sum(map(duration, children[s["id"]])) / duration(s) for s in solo]
    assert {c["name"] for c in children[solo[0]["id"]]} == {
        "client.encode", "serve.queue_wait", "serve.service", "client.decode"
    }
    assert traced["per_layer"]["serve.unattributed_share"] == pytest.approx(
        statistics.median(shares), abs=1e-9
    )
    # pir: the fastest production answer against the fastest sum of staged stages.
    answers, staged = [], []
    for replay in (s for s in spans if s["name"] == "pir.replay"):
        named = {c["name"]: c for c in children[replay["id"]]}
        stages = children[named["pir.staged_answer"]["id"]]
        assert [c["name"] for c in stages] == ["pir.expand", "pir.rowsel", "pir.coltor"]
        answers.append(duration(named["pir.answer"]))
        staged.append(sum(map(duration, stages)))
    assert traced["per_layer"]["pir.unattributed_share"] == pytest.approx(
        1 - min(staged) / min(answers), abs=1e-9
    )


def test_a_flipped_byte_fails_the_run(monkeypatch, tmp_path, capsys):
    decode, calls = e2e_workloads.Served.decode, []

    def flipped(self, request, result):
        record = decode(self, request, result)
        calls.append(record)
        return bytes([record[0] ^ 1]) + record[1:] if len(calls) == 10 else record

    monkeypatch.setattr(e2e_workloads.Served, "decode", flipped)
    outcome = run.run_workload("plain_n256_serve", SEED, 0.0, trace=False, smoke=True)
    assert outcome["end_to_end"]["verified_share"] < 1.0 and not outcome["correct"]
    assert run.report(outcome, tmp_path, env={}) != 0
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["failed"] > 0


def test_a_swapped_epoch_is_not_verified():
    workload = e2e_workloads.WORKLOADS["hint_publish_serve"]
    inputs = workload.inputs(SEED, smoke=True, paced_s=0.1)
    rewritten = inputs.logs[0][0][0][0]

    async def drive():
        dep = await workload.deploy(inputs, None)
        try:
            dep.publish_next(None)
            at_answer_epoch = await dep.round_trip(rewritten, None)
            dep.truth = lambda index, result: dep.truth_at[result.response.epoch - 1][index]
            at_swapped_epoch = await dep.round_trip(rewritten, None)
        finally:
            await dep.close()
        return at_answer_epoch[2], at_swapped_epoch[2]

    assert asyncio.run(drive()) == (True, False)
