"""Nothing uncalled: every ``he``/``pir`` definition has a ``src/`` reference.

Every function, class and public method defined under ``src/repro/he``
and ``src/repro/pir`` must be named somewhere in ``src/repro`` outside
its own body — ``__init__`` re-exports do not count — or appear in
``ALLOWED`` with the reason it stays.  The match is by name (an
``ast.Name``, an attribute access or a ``from`` import), so a method is
"called" when anything in ``src/`` accesses an attribute of that name:
coarse, stdlib-only, and enough to catch a layer that nothing reaches.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
SCOPES = ("he", "pir")

_ORACLE = "per-poly oracle surface the stacked kernels are compared against in "
_E2E = "pinned by the frozen benchmarks/e2e (e2e_layers.py)"
_MODSWITCH = (
    "response compression, off every serving path; its adopt-or-delete "
    "call belongs to the online_bytes_per_rec perf item (ROADMAP)"
)
_OWN_TEST = "no src/ caller; exercised by its own unit test in "

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
    # -- called by the import system ---------------------------------------
    "he.backend.__getattr__": "PEP 562 module hook behind the lazy "
    "``DEFAULT_BACKEND`` attribute; tests/he, tests/pir import that name",
    # -- pinned by the frozen benchmark ------------------------------------
    "he.backend.ComputeBackend.rowsel": _E2E,
    "he.batched.BfvCiphertextVec.from_cts": _E2E,
    "he.rgsw.rgsw_encrypt": _E2E + "; also tests/he/test_gadget_rgsw.py",
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
    # -- tested leaves: deleting them deletes their tests; left to the
    # -- repo-wide orphan sweep on the ROADMAP ------------------------------
    "he.modmath.centered": _OWN_TEST + "tests/he/test_modmath_rns.py",
    "he.modmath.find_ntt_primes": "builds the off-preset (30/31-bit) rings of "
    "tests/he/test_batched.py, test_plan_parity.py, test_modmath_rns.py",
    "he.rns.RnsBasis.from_rns_centered": _OWN_TEST + "tests/he/test_modmath_rns.py",
    "he.rns.RnsBasis.to_rns_int64": _OWN_TEST + "tests/he/test_modmath_rns.py",
    "he.noise.decryptable": _OWN_TEST + "tests/he/test_noise.py",
    "he.noise.tightness_bits": _OWN_TEST + "tests/he/test_noise.py",
    "pir.layout.RecordLayout.pack_poly": _OWN_TEST + "tests/pir/test_layout_database.py",
    "pir.layout.RecordLayout.record_to_plane_chunks": _OWN_TEST
    + "tests/pir/test_layout_database.py",
    "pir.simplepir.db_matrix_shape": _OWN_TEST + "tests/pir/test_simplepir.py",
}


def _definitions():
    """``(qualified name, bare name, file, first line, last line)`` in scope."""
    for scope in SCOPES:
        for path in sorted((SRC / scope).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            module = ".".join(path.relative_to(SRC).with_suffix("").parts)
            tree = ast.parse(path.read_text())
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    yield f"{module}.{node.name}", node.name, path, node.lineno, node.end_lineno
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                            yield (
                                f"{module}.{node.name}.{item.name}", item.name,
                                path, item.lineno, item.end_lineno,
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


def test_every_he_and_pir_definition_has_a_src_caller():
    orphans = _unreferenced() - set(ALLOWED)
    assert not orphans, (
        "defined under src/repro/he or src/repro/pir but never referenced "
        f"from src/repro: {sorted(orphans)} — delete them, or allowlist "
        "each with its reason"
    )


def test_the_allowlist_is_current_and_reasoned():
    stale = set(ALLOWED) - _unreferenced()
    assert not stale, f"allowlisted but referenced from src/ (or gone): {sorted(stale)}"
    assert all(len(reason) > 20 for reason in ALLOWED.values())
