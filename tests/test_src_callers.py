"""Nothing uncalled: every functional-stack definition has a ``src/`` reference.

Every function (``def`` and ``async def``), class, public method and
module-level name binding defined in the functional stack — ``he``,
``pir``, ``hashing``, the four tiers, ``mutate``, ``serve``,
``cluster``, ``obs``, ``params.py``, ``errors.py``, and the CLI — must be named
somewhere in ``src/repro`` outside its own body — ``__init__``
re-exports do not count — or appear in ``ALLOWED`` with the reason it
stays.  The match is by name (an ``ast.Name``, an attribute access or a
``from`` import), so a method is "called" when anything in ``src/``
accesses an attribute of that name: coarse, stdlib-only, and enough to
catch a layer that nothing reaches.  The model stack (``arch``,
``sched``, ``systems``, ``analysis``, ``baselines``) is out of scope:
what calls a model is a paper figure, and ROADMAP's "Hold the model to
the code" item decides that surface.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
SCOPES = (
    "he", "pir", "hashing", "batchpir", "kvpir", "hintpir", "mutate",
    "serve", "cluster", "obs", "params.py", "errors.py", "cli.py",
)

_ORACLE = "per-poly oracle surface the stacked kernels are compared against in "
_E2E = "pinned by the frozen benchmarks/e2e (e2e_layers.py)"
_BINDING = (
    "name binding of RealCryptoBackend the frozen benchmarks/e2e "
    "(e2e_workloads.py) imports; goes with Benchmark v2 (b)"
)
_LIBRARY = "one-object client+server round trip of the library API, used in "
_MODSWITCH = (
    "response compression, off every serving path; its adopt-or-delete "
    "call belongs to the online_bytes_per_rec perf item (ROADMAP)"
)

#: ``module.Class.method`` -> why it stays without a ``src/`` caller.
ALLOWED = {
    # -- the per-poly oracle, entered from tests and bench_hotpath ---------
    "pir.server.PirServer.answer_reference": _ORACLE
    + "tests/pir/test_hotpath_equiv.py, test_window_parity.py and benchmarks/bench_hotpath.py",
    "he.subs.generate_subs_key": _ORACLE
    + "tests/he/test_subs.py, tests/he/test_batched.py, tests/pir/test_expand.py",
    "he.gadget.Gadget.recompose": _ORACLE
    + "tests/he/test_gadget_rgsw.py (decompose round trip)",
    "he.bfv.BfvContext.encode_plain": _ORACLE
    + "tests/he/test_bfv.py (plain_mul operands)",
    "he.poly.RingContext.constant": _ORACLE
    + "tests/he/test_poly.py, test_batched.py and tests/pir/test_hotpath_equiv.py",
    "he.sampling.Sampler.uniform_poly": _ORACLE
    + "tests/he/test_bfv.py, test_gadget_rgsw.py and benchmarks/bench_he_micro.py",
    "he.ntt.NttContext.negacyclic_convolution": _ORACLE
    + "tests/he/test_ntt.py (NTT product vs schoolbook)",
    "he.ntt.naive_negacyclic_convolution": "schoolbook reference the NTT itself "
    "is checked against in tests/he/test_ntt.py, test_poly.py, test_bfv.py",
    "he.bfv.BfvContext.noise_budget_bits": "noise check of tests/he/test_noise.py, "
    "tests/pir/test_paper_scale.py, test_failure_injection.py, tests/batchpir/test_padding.py",
    # -- called by the import system or the event loop ---------------------
    "he.backend.__getattr__": "PEP 562 module hook behind the lazy "
    "``DEFAULT_BACKEND`` attribute; tests/he, tests/pir import that name",
    "serve.workers._InstantSelector.select": "called by asyncio's selector "
    "event loop on every idle wait; this override is the virtual clock",
    # -- pinned by the frozen benchmark ------------------------------------
    "he.backend.ComputeBackend.rowsel": _E2E,
    "he.backend.PLAN_MAX_N": _E2E,
    "he.batched.BfvCiphertextVec.from_cts": _E2E,
    "he.rgsw.rgsw_encrypt": _E2E + "; also tests/he/test_gadget_rgsw.py",
    "kvpir.client.KvPlan.num_slots_probed": _E2E + "; benchmarks/bench_kvpir.py",
    "params.PirParams.functional": "the paper-shaped N = 2^12 ring of the "
    "frozen benchmarks/e2e (plain_n4096_direct), benchmarks/bench_hotpath.py "
    "and the tests/pir paper-scale and parity tests",
    "kvpir.serving.KvCryptoBackend": _BINDING,
    "hintpir.serving.HintCryptoBackend": _BINDING,
    # -- out of scope for the kernel consolidation -------------------------
    "pir.protocol.PirProtocol.retrieve_compressed": _MODSWITCH,
    "he.modswitch.ModulusSwitcher.compression_ratio": _MODSWITCH,
    "he.modswitch.ModulusSwitcher.noise_after_switch": _MODSWITCH,
    "he.publickey.encrypt_public": "public-key upload path of "
    "tests/he/test_modswitch_publickey.py, off every serving path like modswitch",
    # -- paper baselines and models with a benchmark or example caller -----
    "he.modmath.montgomery_modmul_area_units": "Section III area model input "
    "of benchmarks/bench_ablation.py",
    "pir.simplepir.SimplePirClient": "Table IV baseline client of "
    "benchmarks/bench_table4_other_schemes.py and tests/pir/test_simplepir.py",
    "pir.simplepir.SimplePirClient.recover": "Table IV baseline client of "
    "benchmarks/bench_table4_other_schemes.py and tests/pir/test_simplepir.py",
    "pir.naive.NaiveOneHotPir": "Section II-A one-hot baseline the query-size "
    "claim is measured against in tests/pir/test_naive.py",
    "pir.naive.query_size_ratio": "Section II-A one-hot baseline the query-size "
    "claim is measured against in tests/pir/test_naive.py",
    "pir.database.PirDatabase.raw_bytes": "printed by examples/quickstart.py; "
    "tests/pir/test_layout_database.py",
    "he.modmath.find_ntt_primes": "builds the off-preset (30/31-bit) rings of "
    "tests/he/test_batched.py, test_plan_parity.py, test_modmath_rns.py",
    "obs.profile.profiled": "scoped-profiler context manager of "
    "benchmarks/bench_hotpath.py, tests/pir/test_hotpath_equiv.py and "
    "tests/obs/test_profile.py",
    # -- per-tier library entry points; real traffic reaches each tier
    # through its ServeRegistry (``repro loadtest --serving``) ------------
    "batchpir.server.BatchPirProtocol": _LIBRARY
    + "the README Quickstart, benchmarks/bench_batchpir.py and bench_kvpir.py",
    "batchpir.server.BatchPirProtocol.retrieve_batch": _LIBRARY
    + "the README Quickstart and tests/batchpir/test_batch_e2e.py",
    "batchpir.layout.BatchLayout.replication_factor": "cuckoo storage overhead "
    "printed by benchmarks/bench_batchpir.py; tests/batchpir/test_layout.py",
    "kvpir.server.KvPirProtocol": _LIBRARY
    + "the README Quickstart, benchmarks/bench_kvpir.py and bench_hotpath.py",
    "kvpir.server.KvPirProtocol.lookup": _LIBRARY
    + "the README Quickstart and benchmarks/bench_kvpir.py (typed miss)",
    "hintpir.protocol.HintPirProtocol": _LIBRARY
    + "the README Quickstart and tests/hintpir/test_hint_protocol.py",
    "hintpir.protocol.HintPirProtocol.fetch": _LIBRARY
    + "the README Quickstart and tests/hintpir/test_hint_protocol.py",
}


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _scope_files():
    for scope in SCOPES:
        path = SRC / scope
        for file in [path] if path.is_file() else sorted(path.rglob("*.py")):
            if file.name != "__init__.py":
                yield file


def _definitions():
    """``(qualified name, bare name, file, first line, last line)`` in scope."""
    for path in _scope_files():
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, _FUNCTIONS + (ast.ClassDef,)):
                yield f"{module}.{node.name}", node.name, path, node.lineno, node.end_lineno
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, _FUNCTIONS) and not item.name.startswith("_"):
                        yield (
                            f"{module}.{node.name}.{item.name}", item.name,
                            path, item.lineno, item.end_lineno,
                        )
            # Module-level bindings (constants, aliases); dunders are the
            # import system's (``__all__``).
            targets = node.targets if isinstance(node, ast.Assign) else (
                [node.target] if isinstance(node, ast.AnnAssign) else []
            )
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    yield (
                        f"{module}.{target.id}", target.id,
                        path, node.lineno, node.end_lineno,
                    )


def _references():
    """``name -> [(file, line)]`` over every non-``__init__`` file of ``src/repro``."""
    refs: dict[str, list] = {}
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            for name in names:
                refs.setdefault(name, []).append((path, node.lineno))
    return refs


def _unreferenced() -> set[str]:
    refs = _references()
    return {
        qualified
        for qualified, name, path, first, last in _definitions()
        if not any(
            file != path or not first <= line <= last
            for file, line in refs.get(name, [])
        )
    }


def test_every_functional_stack_definition_has_a_src_caller():
    orphans = _unreferenced() - set(ALLOWED)
    assert not orphans, (
        f"defined under src/repro/{{{','.join(SCOPES)}}} but never referenced "
        f"from src/repro: {sorted(orphans)} — delete them, or allowlist "
        "each with its reason"
    )


def test_the_allowlist_is_current_and_reasoned():
    stale = set(ALLOWED) - _unreferenced()
    assert not stale, f"allowlisted but referenced from src/ (or gone): {sorted(stale)}"
    assert all(len(reason) > 20 for reason in ALLOWED.values())


def test_the_gate_sees_async_defs_and_every_scope():
    names = {qualified for qualified, *_ in _definitions()}
    assert "serve.loadgen.run_open_loop" in names  # an ``async def``
    assert "cluster.coordinator.ClusterCoordinator.aclose" in names
    assert "params.PirParams.small" in names and "errors.ReproError" in names
    assert "cli._deploy" in names and "cli._audit" in names
    assert not any("Registry" in entry or entry.startswith("mutate.") for entry in ALLOWED)
