"""Guard tests on the public API surface and repository consistency.

These catch the drift that silently breaks downstream users: ``__all__``
entries that don't resolve, documented bench targets that don't exist, and
solver registry entries without implementations.
"""

from __future__ import annotations

import importlib
import re
import shlex
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

# documents whose `python -m repro ...` commands must parse
CLI_DOCS = ("DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md")


def documented_cli_commands(text: str) -> list[str]:
    """The argv (after ``python -m repro``) of every command in ``text``.

    Fenced blocks are read line by line with ``\\`` continuations joined;
    inline code spans may wrap across lines.
    """
    spans = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", text, re.M | re.S):
        spans += re.sub(r"\\\n\s*", " ", block).splitlines()
    prose = re.sub(r"^```.*?^```", "", text, flags=re.M | re.S)
    spans += [" ".join(s.split()) for s in re.findall(r"`([^`]+)`", prose)]
    return [
        span.split("python -m repro", 1)[1].split(" #", 1)[0].strip()
        for span in spans
        if "python -m repro" in span
    ]


PACKAGES = [
    "repro",
    "repro.cluster",
    "repro.model",
    "repro.trace",
    "repro.core",
    "repro.core.placement",
    "repro.engine",
    "repro.fleet",
    "repro.training",
    "repro.analysis",
]


class TestAllExports:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_entries_resolve(self, package):
        mod = importlib.import_module(package)
        assert hasattr(mod, "__all__"), f"{package} has no __all__"
        for name in mod.__all__:
            assert hasattr(mod, name), f"{package}.__all__ lists missing {name!r}"

    def test_version_string(self):
        import repro

        parts = repro.__version__.split(".")
        assert len(parts) == 3 and all(p.isdigit() for p in parts)

    def test_quickstart_docstring_imports_work(self):
        """The README/module quickstart names must exist on the package."""
        import repro

        for name in (
            "ExFlowOptimizer",
            "InferenceConfig",
            "paper_model",
            "wilkes3",
            "MarkovRoutingModel",
            "compare_modes",
            "make_decode_workload",
        ):
            assert hasattr(repro, name)


class TestSolverRegistry:
    def test_registry_covers_docs(self):
        from repro.core.placement import SOLVERS, solve_placement  # noqa: F401

        # every advertised solver has an implementation reachable by name
        import numpy as np

        from repro.config import ClusterConfig
        from repro.trace.markov import MarkovRoutingModel

        trace = MarkovRoutingModel.with_affinity(4, 3, 0.5).sample(
            200, np.random.default_rng(0)
        )
        cluster = ClusterConfig(num_nodes=1, gpus_per_node=2)
        for strategy in SOLVERS:
            p = solve_placement(strategy, trace, cluster)
            assert p.num_gpus == 2


class TestDocsConsistency:
    def test_design_bench_targets_exist(self):
        """Every bench file DESIGN.md names must exist in benchmarks/."""
        design = (REPO_ROOT / "DESIGN.md").read_text()
        import re

        for name in re.findall(r"bench_[a-z0-9_]+\.py", design):
            assert (REPO_ROOT / "benchmarks" / name).exists(), f"missing {name}"

    def test_experiments_bench_targets_exist(self):
        experiments = (REPO_ROOT / "EXPERIMENTS.md").read_text()
        import re

        for name in re.findall(r"bench_[a-z0-9_]+\.py", experiments):
            assert (REPO_ROOT / "benchmarks" / name).exists(), f"missing {name}"

    def test_every_bench_documented(self):
        """Every benchmark file appears in EXPERIMENTS.md or DESIGN.md."""
        docs = (REPO_ROOT / "EXPERIMENTS.md").read_text() + (
            REPO_ROOT / "DESIGN.md"
        ).read_text()
        for path in sorted((REPO_ROOT / "benchmarks").glob("bench_*.py")):
            assert path.name in docs, f"{path.name} is undocumented"

    @pytest.mark.parametrize("doc", CLI_DOCS)
    def test_documented_cli_commands_parse(self, doc):
        """Every documented command parses, and every preset it runs exists."""
        from repro.cli import build_parser
        from repro.scenarios import list_scenarios

        commands = documented_cli_commands((REPO_ROOT / doc).read_text())
        assert commands, f"{doc} documents no `python -m repro` command"
        parser = build_parser()
        presets = set(list_scenarios())
        for command in commands:
            try:
                args = parser.parse_args(shlex.split(command))
            except SystemExit:
                pytest.fail(f"{doc}: `python -m repro {command}` does not parse")
            if args.command == "run" and args.name and not args.name.endswith(".json"):
                assert args.name in presets, f"{doc}: unknown preset in `{command}`"

    def test_examples_exist_and_have_docstrings(self):
        examples = sorted((REPO_ROOT / "examples").glob("*.py"))
        assert len(examples) >= 3
        assert (REPO_ROOT / "examples" / "quickstart.py").exists()
        for path in examples:
            assert path.read_text().lstrip().startswith('"""'), f"{path.name} undocumented"
