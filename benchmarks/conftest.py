"""Shared helpers for the figure/table reproduction benchmarks.

Every benchmark prints a paper-vs-measured table straight to the terminal
(bypassing capture) and records its compute time via pytest-benchmark.
"""

import pytest

from repro.analysis.figures import params_for_gb  # noqa: F401 — the benches import it from here


@pytest.fixture()
def report(capsys):
    """Print a rendered table to the real terminal, bypassing capture."""

    def _print(title: str, lines):
        with capsys.disabled():
            print()
            print("=" * 78)
            print(title)
            print("-" * 78)
            for line in lines:
                print(line)
            print("=" * 78)

    return _print


def run_once(benchmark, func, *args, **kwargs):
    """Time one execution (these are model evaluations, not microkernels)."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
