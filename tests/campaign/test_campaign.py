"""Campaign orchestrator: policies, provenance, resume, audit, CLI.

The differential and byte-identity properties live in
``test_campaign_properties.py``; the injected-corruption audits in
``test_campaign_audit_negative.py``.  This module covers the concrete
machinery: policy semantics, the provenance log's prefix-verified
append, checkpointed resume executing only the missing plates, and the
``python -m repro campaign`` entry point.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil

import pytest

from repro.audit import audit_campaign
from repro.campaign import (
    BUDGET,
    IMMEDIATE,
    SWEEP,
    CampaignConfig,
    ProvenanceLog,
    ProvenanceMismatchError,
    attempt_seed,
    canonical_line,
    policy_by_name,
    read_records,
    run_campaign,
)
from repro.campaign.orchestrator import SEED_STRIDE, _pool_makespan
from repro.cli import main
from repro.montage import campaign_plates
from repro.montage.generator import montage_workflow
from repro.sweep.cache import SimCache


def plates(n: int = 3, name: str = "c-plate") -> tuple:
    return tuple(
        montage_workflow(0.4, jitter=0.05, seed=i, name=f"{name}{i:02d}")
        for i in range(n)
    )


def config(**overrides) -> CampaignConfig:
    kwargs = dict(n_processors=2, n_pools=2, probability=0.0, base_seed=3)
    kwargs.update(overrides)
    return CampaignConfig(**kwargs)


#: High enough that every attempt of a ~40-task plate fails (success
#: would need every task to survive p = 0.9 with no retries).
ALWAYS_FAIL = dict(probability=0.9, max_task_retries=0)


class TestPolicies:
    def test_lookup(self):
        assert policy_by_name("immediate") is IMMEDIATE
        assert policy_by_name("sweep") is SWEEP
        assert policy_by_name("budget") is BUDGET
        with pytest.raises(ValueError, match="unknown resubmission"):
            policy_by_name("bogus")

    def test_only_budget_gates_on_cost(self):
        assert IMMEDIATE.allows_resubmission(1e9, 1.0)
        assert SWEEP.allows_resubmission(1e9, 1.0)
        assert BUDGET.allows_resubmission(0.5, 1.0)
        assert not BUDGET.allows_resubmission(1.0, 1.0)
        # No budget configured: even the budget policy never abandons.
        assert BUDGET.allows_resubmission(1e9, None)

    def test_seed_ladder(self):
        assert attempt_seed(3, 0) == 3
        assert attempt_seed(3, 2) == 3 + 2 * SEED_STRIDE
        # Pure in both arguments — resume re-derives the same seeds.
        assert attempt_seed(3, 2) == attempt_seed(3, 2)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="pool"):
            CampaignConfig(n_pools=0)
        with pytest.raises(ValueError, match="max_plate_attempts"):
            CampaignConfig(max_plate_attempts=0)
        with pytest.raises(ValueError, match="cost_budget"):
            CampaignConfig(cost_budget=-1.0)

    @pytest.mark.parametrize(
        ("overrides", "message"),
        [
            ({"probability": 1.5}, "failure probability must be in"),
            ({"probability": math.nan}, "failure probability must be in"),
            ({"max_task_retries": -1}, "max_retries must be"),
            ({"n_processors": 0}, "need at least one processor"),
            ({"n_processors": 2.5}, "n_processors must be an integer"),
            ({"bandwidth_bytes_per_sec": -1.0}, "bandwidth must be positive"),
            ({"n_pools": 2.5}, "n_pools must be an integer >= 1, got 2.5"),
            ({"n_pools": True}, "n_pools must be an integer >= 1, got True"),
            ({"max_plate_attempts": math.nan},
             "max_plate_attempts must be an integer >= 1, got nan"),
            ({"cost_budget": math.nan},
             "cost_budget must be finite and > 0, got nan"),
            ({"cost_budget": math.inf},
             "cost_budget must be finite and > 0, got inf"),
        ],
        ids=["p1.5", "p-nan", "retries-1", "P0", "P2.5", "bw-1",
             "pools2.5", "pools-bool", "attempts-nan", "budget-nan",
             "budget-inf"],
    )
    def test_bad_run_parameters_rejected_before_the_log(
        self, tmp_path, overrides, message
    ):
        # Checked only inside the run, these wrote the log's header line
        # first, and a corrected re-run on the same log then failed with
        # ProvenanceMismatchError at line 1.
        log_path = tmp_path / "campaign.jsonl"
        p = plates(1)
        with pytest.raises(ValueError, match=message):
            run_campaign(
                p, "sweep", config(**overrides), cache=SimCache(),
                log=ProvenanceLog(log_path),
            )
        assert not log_path.exists() or log_path.read_bytes() == b""
        result = run_campaign(
            p, "sweep", config(), cache=SimCache(), log=ProvenanceLog(log_path)
        )
        assert result.n_completed == 1

    def test_fingerprint_sensitivity(self):
        p = plates(2)
        a = config().fingerprint(p, SWEEP)
        assert a == config().fingerprint(p, SWEEP)
        assert a != config().fingerprint(p, IMMEDIATE)
        assert a != config(base_seed=4).fingerprint(p, SWEEP)
        assert a != config().fingerprint(p[:1], SWEEP)

    def test_pool_makespan(self):
        # Greedy least-loaded, lowest index first: 5|4+3 -> 7.
        assert _pool_makespan([5.0, 4.0, 3.0], 2) == 7.0
        assert _pool_makespan([], 2) == 0.0
        assert _pool_makespan([2.0, 2.0], 1) == 4.0


class TestRunCampaign:
    def test_failure_free_campaign_completes_in_one_pass(self):
        result = run_campaign(plates(3), "sweep", config(), cache=SimCache())
        assert result.n_completed == 3
        assert result.n_abandoned == 0
        assert result.n_passes == 1
        assert all(o.attempts == 1 for o in result.outcomes)
        assert all(o.seed == 3 for o in result.outcomes)
        records = result.log.records()
        assert records[0]["kind"] == "header"
        assert records[-1]["kind"] == "summary"
        report = audit_campaign(result.log)
        assert report.ok, report.summary()

    def test_all_failing_campaign_exhausts_retry_budget(self):
        result = run_campaign(
            plates(2),
            "sweep",
            config(max_plate_attempts=2, **ALWAYS_FAIL),
            cache=SimCache(),
        )
        assert result.n_completed == 0
        assert result.n_abandoned == 2
        assert result.total_attempts == 4
        assert {o.abandoned_reason for o in result.outcomes} == {
            "retry-budget"
        }
        # Every attempt was billed at the plate's failure-free baseline.
        attempts = [
            r for r in result.log.records() if r["kind"] == "attempt"
        ]
        assert all(r["outcome"] == "failed" for r in attempts)
        assert all(r["billed_cost"] > 0 for r in attempts)
        assert audit_campaign(result.log).ok

    def test_budget_policy_abandons_resubmissions(self):
        result = run_campaign(
            plates(2),
            "budget",
            config(cost_budget=1e-6, **ALWAYS_FAIL),
            cache=SimCache(),
        )
        # Pass 0 bills both plates past the budget; pass 1 abandons.
        assert result.n_completed == 0
        assert {o.abandoned_reason for o in result.outcomes} == {
            "cost-budget"
        }
        assert result.total_attempts == 2
        assert audit_campaign(result.log).ok

    def test_immediate_and_sweep_bill_identically(self):
        cfg = config(max_plate_attempts=2, **ALWAYS_FAIL)
        a = run_campaign(plates(3), "immediate", cfg, cache=SimCache())
        b = run_campaign(plates(3), "sweep", cfg, cache=SimCache())
        # Same passes, seeds and bills; only the modeled schedule
        # differs — barriers can only slow a campaign down.
        assert a.total_billed == b.total_billed
        assert [r for r in a.log.records() if r["kind"] == "attempt"] == [
            r for r in b.log.records() if r["kind"] == "attempt"
        ]
        assert a.completion_seconds <= b.completion_seconds

    def test_duplicate_plates_rejected(self):
        p = plates(2)
        with pytest.raises(ValueError, match="distinct content"):
            run_campaign((p[0], p[0]), "sweep", config(), cache=SimCache())
        clone = p[1].copy(name=p[0].name)
        with pytest.raises(ValueError, match="distinct names"):
            run_campaign((p[0], clone), "sweep", config(), cache=SimCache())

    def test_empty_campaign_rejected(self):
        with pytest.raises(ValueError, match="at least one plate"):
            run_campaign((), "sweep", config(), cache=SimCache())


class _Killed(Exception):
    pass


def _kill_after(n: int):
    """An on_attempt hook that raises after the n-th billed attempt."""
    seen = [0]

    def hook(_record):
        seen[0] += 1
        if seen[0] >= n:
            raise _Killed

    return hook


class TestResume:
    def test_resume_executes_only_missing_plates(self, tmp_path):
        p = plates(4)
        cfg = config(max_plate_attempts=2, **ALWAYS_FAIL)
        ref_events: list[str] = []
        ref = run_campaign(
            p,
            "sweep",
            cfg,
            cache=SimCache(tmp_path / "ref-cache"),
            log=ProvenanceLog(tmp_path / "ref.jsonl"),
            progress=ref_events.append,
        )
        ref_executed = sum("executed" in e for e in ref_events)

        # Kill during the pass-0 billing loop, before the second pass's
        # grid has been dispatched.
        log_path = tmp_path / "campaign.jsonl"
        cache_dir = tmp_path / "cache"
        killed_events: list[str] = []
        with pytest.raises(_Killed):
            run_campaign(
                p,
                "sweep",
                cfg,
                cache=SimCache(cache_dir),
                log=ProvenanceLog(log_path),
                on_attempt=_kill_after(2),
                progress=killed_events.append,
            )
        killed_executed = sum("executed" in e for e in killed_events)
        killed_lines = log_path.read_text().splitlines()
        assert 0 < len(killed_lines) < len(ref.log.lines)
        assert killed_executed < ref_executed

        events: list[str] = []
        resumed = run_campaign(
            p,
            "sweep",
            cfg,
            cache=SimCache(cache_dir),
            log=ProvenanceLog(log_path),
            progress=events.append,
        )
        # Everything the killed run checkpointed is answered from the
        # cache; only the pass it never reached is executed.
        n_checkpointed = sum("from checkpoint" in e for e in events)
        n_executed = sum("executed" in e for e in events)
        assert n_checkpointed == killed_executed
        assert n_executed == ref_executed - killed_executed
        assert n_executed > 0
        # The interrupted prefix was verified, the tail appended, and
        # the final log is byte-identical to the uninterrupted one.
        assert resumed.log.replayed == len(killed_lines)
        assert log_path.read_bytes() == (tmp_path / "ref.jsonl").read_bytes()
        assert audit_campaign(log_path).ok

    def test_resume_through_corrupt_checkpoint(self, tmp_path):
        p = plates(3)
        cfg = config(max_plate_attempts=2, **ALWAYS_FAIL)
        log_path = tmp_path / "campaign.jsonl"
        cache_dir = tmp_path / "cache"
        with pytest.raises(_Killed):
            run_campaign(
                p,
                "sweep",
                cfg,
                cache=SimCache(cache_dir),
                log=ProvenanceLog(log_path),
                on_attempt=_kill_after(3),
            )
        # One plate checkpoint rots on disk between kill and resume.
        blob = next(iter(sorted(cache_dir.glob("*/*.blob.pkl"))))
        blob.write_bytes(b"rotten")
        resumed = run_campaign(
            p,
            "sweep",
            cfg,
            cache=SimCache(cache_dir),
            log=ProvenanceLog(log_path),
        )
        assert blob.with_suffix(".corrupt").exists()
        assert resumed.n_abandoned == 3
        assert audit_campaign(log_path).ok

    def test_resume_after_torn_last_line(self, tmp_path):
        # A kill can land anywhere in ProvenanceLog.emit's append or in
        # a checkpoint write.  Cut the log at every line boundary,
        # halfway through every line and just before every newline, and
        # truncate one checkpoint blob at a few offsets: each resume
        # re-derives the uninterrupted run byte for byte.
        p = plates(2)
        ref_path = tmp_path / "ref.jsonl"
        ref_cache = tmp_path / "ref-cache"
        ref_run = run_campaign(p, "sweep", config(),
                               cache=SimCache(ref_cache),
                               log=ProvenanceLog(ref_path))
        ref = ref_path.read_bytes()
        lines = ref.splitlines(keepends=True)
        assert len(lines) > 3
        starts = [sum(map(len, lines[:i])) for i in range(len(lines) + 1)]
        cuts = set(starts)
        for start, line in zip(starts, lines):
            cuts |= {start + len(line) // 2, start + len(line) - 1}
        blob = sorted(ref_cache.glob("*/*.blob.pkl"))[0]
        size = blob.stat().st_size
        runs = [(cut, None) for cut in sorted(cuts)]
        runs += [(starts[2], at) for at in (0, 1, size // 2, size - 1)]

        def terminal(result):
            return [getattr(result, f.name)
                    for f in dataclasses.fields(result) if f.name != "log"]

        for n, (cut, blob_at) in enumerate(runs):
            log_path = tmp_path / f"campaign-{n}.jsonl"
            log_path.write_bytes(ref[:cut])
            cache = SimCache()
            if blob_at is not None:
                cache_dir = tmp_path / f"cache-{n}"
                shutil.copytree(ref_cache, cache_dir)
                torn = cache_dir / blob.relative_to(ref_cache)
                torn.write_bytes(blob.read_bytes()[:blob_at])
                cache = SimCache(cache_dir)
            resumed = run_campaign(p, "sweep", config(), cache=cache,
                                   log=ProvenanceLog(log_path))
            if blob_at is not None:
                assert torn.with_suffix(".corrupt").exists()
            assert resumed.log.replayed == ref[:cut].count(b"\n")
            assert log_path.read_bytes() == ref, (cut, blob_at)
            assert audit_campaign(log_path).ok
            assert terminal(resumed) == terminal(ref_run)

    def test_divergent_resume_raises(self, tmp_path):
        p = plates(2)
        log_path = tmp_path / "campaign.jsonl"
        run_campaign(
            p,
            "sweep",
            config(),
            cache=SimCache(),
            log=ProvenanceLog(log_path),
        )
        with pytest.raises(ProvenanceMismatchError, match="diverges"):
            run_campaign(
                p,
                "sweep",
                config(base_seed=99),
                cache=SimCache(),
                log=ProvenanceLog(log_path),
            )


class TestProvenanceLog:
    def test_roundtrip_and_counters(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = ProvenanceLog(path)
        log.emit({"kind": "header", "b": 1})
        log.emit({"kind": "attempt", "seq": 0})
        assert len(log) == 2
        assert log.replayed == 0
        assert read_records(path) == log.records()

        reopened = ProvenanceLog(path)
        reopened.emit({"kind": "header", "b": 1})
        reopened.emit({"kind": "attempt", "seq": 0})
        assert reopened.replayed == 2
        reopened.emit({"kind": "attempt", "seq": 1})
        assert reopened.replayed == 2
        assert len(reopened) == 3
        with pytest.raises(ProvenanceMismatchError, match="diverges"):
            # The existing line at this position says seq 0.
            ProvenanceLog(path).emit({"kind": "header", "b": 2})

    def test_canonical_line_is_key_order_independent(self):
        assert canonical_line({"a": 1, "b": 2}) == canonical_line(
            {"b": 2, "a": 1}
        )

    def test_read_records_rejects_garbage(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"kind":"header"}\nnot json\n')
        with pytest.raises(ProvenanceMismatchError, match="not valid JSON"):
            read_records(path)

    def test_memory_log_has_no_path(self):
        log = ProvenanceLog()
        log.emit({"kind": "header"})
        assert log.path is None
        assert log.lines == (canonical_line({"kind": "header"}),)


class TestCampaignPlates:
    def test_distinct_fingerprints_and_names(self):
        p = campaign_plates(4, degree=0.4)
        assert len({wf.fingerprint() for wf in p}) == 4
        assert len({wf.name for wf in p}) == 4

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            campaign_plates(0, degree=0.4)
        with pytest.raises(ValueError, match="jitter"):
            campaign_plates(2, degree=0.4, jitter=0.0)


class TestCampaignCli:
    def test_campaign_command_with_audit(self, tmp_path, capsys):
        code = main(
            [
                "campaign",
                "--plates", "2",
                "--degree", "0.4",
                "--policy", "sweep",
                "--probability", "0",
                "--processors", "2",
                "--cache", str(tmp_path / "cache"),
                "--log", str(tmp_path / "log.jsonl"),
                "--audit",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "completed" in out
        assert "OK" in out
        assert json.loads(
            (tmp_path / "log.jsonl").read_text().splitlines()[0]
        )["kind"] == "header"

    def test_campaign_command_budget_policy(self, tmp_path, capsys):
        code = main(
            [
                "campaign",
                "--plates", "2",
                "--degree", "0.4",
                "--policy", "budget",
                "--cost-budget", "1e-6",
                "--probability", "0.9",
                "--max-task-retries", "0",
                "--processors", "2",
                "--cache", str(tmp_path / "cache"),
                "--audit",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "abandoned" in out


@pytest.mark.slow
def test_policy_study_provenance_audits_clean():
    """2 plates x 2 policies x 5 seeds through the orchestrator, with
    every campaign's provenance log reconciled by the audit oracle."""
    from repro.experiments.ablations import campaign_policy_study

    study = campaign_policy_study(
        n_plates=2, policies=("immediate", "sweep"), n_seeds=5
    )
    assert [row[0] for row in study.raw] == ["immediate", "sweep"]
    assert [row[-1] for row in study.raw] == [0, 0]  # audit violations
