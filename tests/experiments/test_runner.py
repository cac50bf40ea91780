"""Full-report runner smoke tests."""

import pytest

from repro.cli import main
from repro.experiments.runner import run_all
from repro.sweep import cache as cache_module


class TestRunner:
    def test_fast_report_contains_all_sections(self):
        report = run_all(fast=True)
        for marker in (
            "Figure 4",
            "Figure 7",
            "CCR table",
            "Figure 11",
            "Question 2b",
            "Question 3",
            "Paper-reported values",
        ):
            assert marker in report

    def test_fast_report_has_key_numbers(self):
        report = run_all(fast=True)
        assert "0.0530" in report  # CCR table
        assert "18,000" in report  # paper break-even row
        assert "$1,800" in report  # monthly archive storage

    def test_main_entrypoint(self, capsys):
        assert main(["report", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "Reproduction report" in out


class TestWarmRerun:
    @pytest.fixture
    def isolated_default_cache(self, monkeypatch):
        """A fresh in-memory default cache, restored after the test."""
        monkeypatch.delenv(cache_module.CACHE_DIR_ENV, raising=False)
        cache_module.reset_default_cache()
        yield cache_module.default_cache()
        cache_module.reset_default_cache()

    def test_warm_rerun_is_identical_and_all_hits(
        self, isolated_default_cache
    ):
        cold = run_all(fast=True)
        misses = isolated_default_cache.stats()["misses"]
        assert misses > 0
        warm = run_all(fast=True)
        assert warm == cold
        assert isolated_default_cache.stats()["misses"] == misses


class TestFullRunner:
    def test_full_report_covers_all_figures(self):
        """The non-fast report includes all three workloads (slower: runs
        the whole evaluation, ~15 s)."""
        report = run_all(fast=False)
        for marker in ("Figure 5", "Figure 6", "Figure 8", "Figure 9"):
            assert marker in report
        assert "montage-4deg" in report


class TestExtensionsFlag:
    def test_extensions_section(self, capsys):
        assert main(["report", "--fast", "--extensions"]) == 0
        captured = capsys.readouterr()
        report = captured.out
        assert "Extension / ablation studies" in report
        assert "Billing-granularity ablation" in report
        assert "Task-clustering ablation" in report
        # Wall-clock columns stay off the reproducible report.
        assert "Service-at-scale ablation" in report
        assert "speedup" not in report and "fluid wall" not in report
        assert "Service-at-scale timings" in captured.err
