"""End-to-end service contracts: dedup, determinism, restart recovery.

These are the acceptance criteria of the control plane in miniature:
identical submissions share one computation and return byte-identical
results; a service job's metrics are bit-identical to the same spec
run through the CLI recipes; and a stop/restart cycle loses and
duplicates nothing thanks to the journal.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.harness.recipes import run_summary_json, standard_run
from repro.service import ServiceClient, TieringService

QUICK = {"policy": "vulcan", "mix": "paper", "epochs": 2, "accesses": 100, "seed": 5}


def canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


class TestDedup:
    def test_identical_submissions_compute_once(self, tmp_path):
        with TieringService(tmp_path / "svc", workers=2) as svc:
            client = ServiceClient(svc.url)
            first = client.submit("run", QUICK)
            second = client.submit("run", QUICK)
            jid = first["job"]["job_id"]
            assert second["job"]["job_id"] == jid
            assert not first["deduped"] and second["deduped"]
            final = client.wait(jid, timeout=60)
            assert final["state"] == "done"
            assert final["attempts"] == 1, "dedup must not re-run the work"
            assert canonical(client.result(jid)) == canonical(client.result(jid))

    def test_resubmit_after_restart_hits_result_cache(self, tmp_path):
        data = tmp_path / "svc"
        with TieringService(data, workers=1) as svc:
            r1 = ServiceClient(svc.url).run_to_completion("run", QUICK, timeout=60)
        # fresh process state, same data dir: the journal already knows the
        # job and the result cache already holds its payload
        with TieringService(data, workers=1) as svc:
            client = ServiceClient(svc.url)
            sub = client.submit("run", QUICK)
            assert sub["deduped"] and sub["job"]["state"] == "done"
            assert canonical(client.result(sub["job"]["job_id"])) == canonical(r1)

    def test_cache_disabled_still_correct(self, tmp_path):
        with TieringService(tmp_path / "svc", workers=1, use_cache=False) as svc:
            r = ServiceClient(svc.url).run_to_completion("run", QUICK, timeout=60)
            assert r["kind"] == "run"


class TestDeterminismContract:
    def test_service_run_matches_cli_recipe(self, tmp_path):
        """The exact payload ``repro run --json`` prints, bit for bit."""
        with TieringService(tmp_path / "svc", workers=1) as svc:
            got = ServiceClient(svc.url).run_to_completion("run", QUICK, timeout=60)
        res = standard_run(QUICK["policy"], QUICK["mix"], QUICK["epochs"],
                           QUICK["accesses"], QUICK["seed"])
        want = run_summary_json(res, mix=QUICK["mix"], seed=QUICK["seed"])
        service_view = {k: v for k, v in got.items() if k not in ("kind", "result")}
        assert canonical(service_view) == canonical(want)

    def test_result_round_trips_experiment(self, tmp_path):
        from repro.harness.experiment import ExperimentResult

        with TieringService(tmp_path / "svc", workers=1) as svc:
            got = ServiceClient(svc.url).run_to_completion("run", QUICK, timeout=60)
        res = ExperimentResult.from_dict(got["result"])
        assert set(res.workloads) and res.policy_name == QUICK["policy"]

    def test_service_fleet_matches_cli_recipe(self, tmp_path):
        """``repro fleet run --json`` and a service fleet job, bit for bit."""
        from repro.harness.recipes import fleet_run

        fleet_payload = {
            "spec": {
                "name": "svc-fleet",
                "n_rounds": 2,
                "epochs_per_round": 2,
                "seed": 5,
                "nodes": [{"node_id": "n0", "fast_gb": 4.0},
                          {"node_id": "n1", "fast_gb": 4.0}],
                "workloads": [
                    {"key": "a", "kind": "memcached", "service": "LC",
                     "rss_pages": 120, "n_threads": 1, "accesses_per_thread": 400},
                    {"key": "b", "kind": "microbench", "service": "BE",
                     "rss_pages": 90, "n_threads": 1, "accesses_per_thread": 400},
                ],
            },
        }
        with TieringService(tmp_path / "svc", workers=1) as svc:
            got = ServiceClient(svc.url).run_to_completion(
                "fleet", fleet_payload, timeout=120)
        want = fleet_run(spec=fleet_payload["spec"]).to_dict()
        service_view = {k: v for k, v in got.items() if k != "kind"}
        assert canonical(service_view) == canonical(want)


class TestRestartRecovery:
    def test_clean_stop_requeues_inflight_and_restart_finishes(self, tmp_path):
        """Stop mid-flight, restart on the same journal: every job lands
        DONE exactly once — zero lost, zero duplicated."""
        data = tmp_path / "svc"
        specs = [{**QUICK, "seed": s, "epochs": 4, "accesses": 1500} for s in range(1, 5)]
        svc = TieringService(data, workers=1)
        svc.start()
        client = ServiceClient(svc.url)
        ids = [client.submit("run", s)["job"]["job_id"] for s in specs]
        assert len(set(ids)) == len(specs)
        svc.stop()  # likely mid-job: in-flight work is re-queued, not lost

        with TieringService(data, workers=2) as svc2:
            client = ServiceClient(svc2.url)
            states = {jid: client.wait(jid, timeout=120)["state"] for jid in ids}
            assert set(states.values()) == {"done"}
            assert client.healthz()["jobs"]["total"] == len(specs)
            for jid in ids:
                assert client.result(jid)["kind"] == "run"

    def test_recovered_attempt_counts_both_tries(self, tmp_path):
        data = tmp_path / "svc"
        svc = TieringService(data, workers=1)
        svc.start()
        client = ServiceClient(svc.url)
        jid = client.submit("run", {**QUICK, "epochs": 6, "accesses": 2000})["job"]["job_id"]
        # wait until the worker actually claims it so the stop interrupts it
        for _ in range(1000):
            if client.job(jid)["state"] != "pending":
                break
            time.sleep(0.05)
        svc.stop()
        # a clean stop journals the RUNNING -> PENDING requeue itself, so
        # replay sees a pending job (recovered-list is for hard crashes)
        with TieringService(data, workers=1) as svc2:
            client = ServiceClient(svc2.url)
            if client.job(jid)["state"] == "done":
                pytest.skip("job finished before stop could interrupt it")
            final = client.wait(jid, timeout=120)
            assert final["state"] == "done" and final["attempts"] >= 2
