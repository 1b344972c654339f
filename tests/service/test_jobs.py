"""Job spec normalization / identity and the job state machine."""

from __future__ import annotations

import pytest

from repro.service.jobs import (
    LEGAL_TRANSITIONS,
    VALID_JOB_KINDS,
    IllegalTransition,
    Job,
    JobError,
    JobSpec,
    JobState,
)


class TestSpecNormalization:
    def test_defaults_fill_in(self):
        spec = JobSpec("run").normalized()
        assert spec.payload["policy"] == "vulcan"
        assert spec.payload["epochs"] > 0

    def test_explicit_defaults_hash_identically(self):
        """{"kind": "run"} and the fully spelled-out default are one job."""
        bare = JobSpec("run")
        spelled = JobSpec("run", {"policy": "vulcan", "mix": "paper",
                                  "epochs": 12, "accesses": 2000, "seed": 1})
        assert bare.job_id() == spelled.job_id()

    def test_different_seed_different_id(self):
        assert JobSpec("run", {"seed": 1}).job_id() != JobSpec("run", {"seed": 2}).job_id()

    def test_kind_disambiguates(self):
        assert JobSpec("run").job_id() != JobSpec("sweep").job_id()

    def test_unknown_kind_rejected(self):
        with pytest.raises(JobError, match="unknown job kind"):
            JobSpec("explode").normalized()

    def test_unknown_payload_key_rejected(self):
        with pytest.raises(JobError, match="unknown run payload keys"):
            JobSpec("run", {"epcohs": 5}).normalized()

    @pytest.mark.parametrize("payload", [
        {"policy": "nope"},
        {"mix": "nope"},
        {"epochs": 0},
        {"epochs": "ten"},
        {"seed": True},
    ])
    def test_bad_run_payloads(self, payload):
        with pytest.raises(JobError):
            JobSpec("run", payload).normalized()

    @pytest.mark.parametrize("payload", [
        {"fast_gb": []},
        {"fast_gb": [-1.0]},
        {"seeds": []},
        {"seeds": [1.5]},
        {"workers": 0},
        {"workers": 99},
        {"derived_seeds": 1},
    ])
    def test_bad_sweep_payloads(self, payload):
        with pytest.raises(JobError):
            JobSpec("sweep", payload).normalized()

    def test_sweep_fast_gb_coerced_to_float(self):
        """8 (int) and 8.0 (float) mean the same grid — same id."""
        assert (JobSpec("sweep", {"fast_gb": [8]}).job_id()
                == JobSpec("sweep", {"fast_gb": [8.0]}).job_id())

    def test_scenario_needs_name_xor_spec(self):
        with pytest.raises(JobError, match="exactly one of"):
            JobSpec("scenario").normalized()
        with pytest.raises(JobError, match="exactly one of"):
            JobSpec("scenario", {"name": "churn", "spec": {}}).normalized()

    def test_scenario_unknown_name(self):
        with pytest.raises(JobError, match="unknown scenario"):
            JobSpec("scenario", {"name": "not-a-scenario"}).normalized()

    def test_scenario_canned_name_ok(self):
        spec = JobSpec("scenario", {"name": "churn"}).normalized()
        assert spec.payload["name"] == "churn"

    def test_from_dict_round_trip(self):
        spec = JobSpec.from_dict({"kind": "run", "payload": {"seed": 3}})
        again = JobSpec.from_dict(spec.to_dict())
        assert again.job_id() == spec.job_id()

    def test_from_dict_rejects_extras(self):
        with pytest.raises(JobError, match="unknown job spec keys"):
            JobSpec.from_dict({"kind": "run", "priority": 9})

    def test_all_kinds_valid(self):
        named = {"scenario": {"name": "churn"}, "fleet": {"name": "balanced_trio"}}
        for kind in VALID_JOB_KINDS:
            JobSpec(kind, named.get(kind, {})).normalized()

    def test_fleet_needs_name_xor_spec(self):
        with pytest.raises(JobError, match="exactly one of"):
            JobSpec("fleet").normalized()
        with pytest.raises(JobError, match="exactly one of"):
            JobSpec("fleet", {"name": "balanced_trio", "spec": {}}).normalized()

    def test_fleet_unknown_name(self):
        with pytest.raises(JobError, match="unknown fleet scenario"):
            JobSpec("fleet", {"name": "not-a-fleet"}).normalized()

    def test_fleet_unknown_placer(self):
        with pytest.raises(JobError, match="unknown placer"):
            JobSpec("fleet", {"name": "balanced_trio", "placer": "bogus"}).normalized()

    def test_fleet_invalid_inline_spec(self):
        with pytest.raises(JobError, match="invalid fleet spec"):
            JobSpec("fleet", {"spec": {"name": "x"}}).normalized()

    def test_fleet_workers_is_an_unknown_key(self):
        with pytest.raises(JobError, match="unknown fleet payload keys"):
            JobSpec("fleet", {"name": "balanced_trio", "workers": 1}).normalized()

    def test_fleet_canned_name_hashes_stably(self):
        a = JobSpec("fleet", {"name": "balanced_trio"})
        b = JobSpec("fleet", {"name": "balanced_trio", "seed": None})
        assert a.job_id() == b.job_id()


class TestStateMachine:
    def _job(self, state: JobState) -> Job:
        job = Job(job_id="j", spec=JobSpec("run").normalized(), state=state)
        return job

    def test_every_legal_transition_applies(self):
        for frm, tos in LEGAL_TRANSITIONS.items():
            for to in tos:
                job = self._job(frm)
                job.transition(to)
                assert job.state is to

    def test_every_illegal_transition_raises(self):
        for frm in JobState:
            for to in set(JobState) - set(LEGAL_TRANSITIONS[frm]):
                job = self._job(frm)
                with pytest.raises(IllegalTransition):
                    job.transition(to)
                assert job.state is frm, "failed transition must not mutate"

    def test_done_is_frozen(self):
        assert LEGAL_TRANSITIONS[JobState.DONE] == ()

    def test_running_sets_timestamps_and_attempts(self):
        job = self._job(JobState.PENDING)
        job.transition(JobState.RUNNING, at=10.0)
        assert job.started_at == 10.0 and job.attempts == 1
        job.transition(JobState.DONE, at=12.0)
        assert job.finished_at == 12.0

    def test_requeue_resets_to_clean_slate(self):
        job = self._job(JobState.PENDING)
        job.transition(JobState.RUNNING)
        job.error = {"kind": "crash"}
        job.cancel_requested = True
        job.transition(JobState.PENDING)
        assert job.started_at is None and job.finished_at is None
        assert job.error is None and not job.cancel_requested
        job.transition(JobState.RUNNING)
        assert job.attempts == 2

    def test_terminal_property(self):
        assert JobState.DONE.terminal and JobState.FAILED.terminal
        assert JobState.CANCELLED.terminal
        assert not JobState.PENDING.terminal and not JobState.RUNNING.terminal
