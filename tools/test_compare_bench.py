#!/usr/bin/env python3
"""Smoke tests for the perf-regression gate itself (tools/compare_bench.py).

The gate guards every CI run; a regression in its gate/skip/warn logic
would silently disable perf protection, so it is regression-tested here.
Run under ctest as `python3 -m unittest test_compare_bench` from tools/
(registered in the top-level CMakeLists.txt), or standalone the same way.
"""

import json
import os
import sys
import tempfile
import unittest
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare_bench  # noqa: E402


def summary(spaces_p50=None, mc=None, inc=None, pooled=None, scaling=None,
            svc=None, sscale=None, soa=None, net=None, refit=None):
    """Builds a minimal BENCH_micro.json-shaped dict."""
    out = {"bench": "micro_decision", "unit": "ms"}
    out["spaces"] = [
        {
            "space": space,
            "lookahead": [{"la": la, "p50_ms": p50}
                          for (la, p50) in entries],
        }
        for space, entries in (spaces_p50 or {}).items()
    ]
    out["multi_constraint"] = mc or []
    out["incremental_refit"] = inc or []
    out["pooled_decision"] = pooled or []
    out["decision_scaling"] = scaling or []
    out["session_throughput"] = svc or []
    out["session_scaling"] = sscale or []
    out["soa_predict"] = soa or []
    out["net_throughput"] = net or []
    out["branch_refit"] = refit or []
    return out


def refit_entry(space="scout_0", history=14, fit_p50_us=20.0):
    return {"space": space, "history": history, "fits": 2000,
            "fit_p50_us": fit_p50_us, "closed_one_per_tree": 4.0,
            "closed_two_per_tree": 3.4, "scanned_per_tree": 5.3}


def net_entry(space="scout_0", sessions=64, clients=8, shards=2,
              ms_per_decision=6.0, tell_p99=3.0, wire=None):
    out = {"space": space, "optimizer": "lynceus_la1", "sessions": sessions,
           "clients": clients, "shards": shards,
           "ms_per_decision": ms_per_decision,
           "decisions_per_sec": 1000.0 / ms_per_decision,
           "tell_p50_ms": tell_p99 / 2.0, "tell_p99_ms": tell_p99}
    if wire is not None:  # None mimics a pre-negotiation summary
        out["wire"] = wire
    return out


def soa_entry(space="tensorflow_cnn", node_walk=8.0, batch=2.0,
              decision_la2=40.0):
    return {"space": space, "node_walk_p50_ms": node_walk,
            "soa_p50_ms": batch,
            "speedup_p50": node_walk / batch if batch else 0.0,
            "decision_la2_p50_ms": decision_la2}


class CompareBenchTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)
        # The gate appends to GITHUB_STEP_SUMMARY when set; keep the test
        # hermetic.
        self.env = mock.patch.dict(os.environ, {}, clear=False)
        self.env.start()
        self.addCleanup(self.env.stop)
        os.environ.pop("GITHUB_STEP_SUMMARY", None)
        os.environ.pop("BENCH_GATE_MODE", None)

    def run_gate(self, baseline, new, extra_args=()):
        base_path = os.path.join(self.tmp.name, "base.json")
        new_path = os.path.join(self.tmp.name, "new.json")
        with open(base_path, "w") as f:
            json.dump(baseline, f)
        with open(new_path, "w") as f:
            json.dump(new, f)
        argv = ["compare_bench.py", f"--baseline={base_path}",
                f"--new={new_path}", *extra_args]
        with mock.patch.object(sys, "argv", argv):
            return compare_bench.main()

    def test_identical_summaries_pass(self):
        s = summary(spaces_p50={"tf": [(0, 2.0), (1, 5.0)]})
        self.assertEqual(self.run_gate(s, s), 0)

    def test_uniform_slowdown_is_machine_speed_not_regression(self):
        base = summary(spaces_p50={"tf": [(0, 2.0), (1, 5.0), (2, 20.0)]})
        new = summary(spaces_p50={"tf": [(0, 6.0), (1, 15.0), (2, 60.0)]})
        self.assertEqual(self.run_gate(base, new), 0)

    def test_single_entry_regression_fails(self):
        base = summary(spaces_p50={"tf": [(0, 2.0), (1, 5.0), (2, 20.0)]})
        new = summary(spaces_p50={"tf": [(0, 2.0), (1, 5.0), (2, 40.0)]})
        self.assertEqual(self.run_gate(base, new), 1)

    def test_warn_mode_reports_without_failing(self):
        base = summary(spaces_p50={"tf": [(0, 2.0), (1, 5.0), (2, 20.0)]})
        new = summary(spaces_p50={"tf": [(0, 2.0), (1, 5.0), (2, 40.0)]})
        self.assertEqual(self.run_gate(base, new, ["--mode=warn"]), 0)

    def test_sub_noise_floor_regression_only_warns(self):
        # The regressed entry's *baseline* sits under the 1 ms noise floor.
        base = summary(spaces_p50={"tf": [(0, 0.05), (1, 5.0), (2, 20.0)]})
        new = summary(spaces_p50={"tf": [(0, 0.5), (1, 5.0), (2, 20.0)]})
        self.assertEqual(self.run_gate(base, new), 0)

    def test_section_only_in_one_file_is_skipped(self):
        base = summary(spaces_p50={"tf": [(1, 5.0), (2, 20.0)]})
        new = summary(
            spaces_p50={"tf": [(1, 5.0), (2, 20.0)]},
            inc=[{"space": "tf", "la": 1, "p50_ms": 999.0}])
        self.assertEqual(self.run_gate(base, new), 0)

    def test_zero_worker_pooled_entries_are_skipped_not_gated(self):
        # A workers==0 entry measures an inline pool (1-core host); even a
        # wild difference must not trip the gate.
        base = summary(
            spaces_p50={"tf": [(1, 5.0), (2, 20.0)]},
            pooled=[{"space": "tf", "la": 2, "workers": 0, "p50_ms": 1.0}])
        new = summary(
            spaces_p50={"tf": [(1, 5.0), (2, 20.0)]},
            pooled=[{"space": "tf", "la": 2, "workers": 0, "p50_ms": 500.0}])
        self.assertEqual(self.run_gate(base, new), 0)

    def test_zero_worker_scaling_entries_are_skipped_not_gated(self):
        base = summary(
            spaces_p50={"tf": [(1, 5.0), (2, 20.0)]},
            scaling=[{"space": "tf", "la": 2, "mode": "roots+branch",
                      "workers": 0, "p50_ms": 1.0}])
        new = summary(
            spaces_p50={"tf": [(1, 5.0), (2, 20.0)]},
            scaling=[{"space": "tf", "la": 2, "mode": "roots+branch",
                      "workers": 0, "p50_ms": 500.0}])
        self.assertEqual(self.run_gate(base, new), 0)

    def test_nonzero_worker_scaling_regression_fails(self):
        entries = {"tf": [(0, 2.0), (1, 5.0), (2, 20.0)]}
        base = summary(
            spaces_p50=entries,
            scaling=[{"space": "tf", "la": 2, "mode": "branch",
                      "workers": 1, "p50_ms": 10.0}])
        new = summary(
            spaces_p50=entries,
            scaling=[{"space": "tf", "la": 2, "mode": "branch",
                      "workers": 1, "p50_ms": 30.0}])
        self.assertEqual(self.run_gate(base, new), 1)

    def test_mismatched_worker_counts_skip_instead_of_comparing(self):
        # 1-core dev-box baseline (w1) vs multi-core CI run (w3): no common
        # scaling key, so nothing is gated and nothing fails.
        entries = {"tf": [(1, 5.0), (2, 20.0)]}
        base = summary(
            spaces_p50=entries,
            scaling=[{"space": "tf", "la": 2, "mode": "branch",
                      "workers": 1, "p50_ms": 25.0}])
        new = summary(
            spaces_p50=entries,
            scaling=[{"space": "tf", "la": 2, "mode": "branch",
                      "workers": 3, "p50_ms": 9.0}])
        self.assertEqual(self.run_gate(base, new), 0)

    def test_mc_incremental_cases_key_on_constraint_count(self):
        # Same space/la with different constraint counts must be distinct
        # gate entries (the "constraints" key tells them apart), and a
        # regression in one of them must still fail the gate.
        entries = {"tf": [(0, 2.0), (1, 5.0), (2, 20.0)]}
        inc_base = [
            {"space": "scout_0", "la": 1, "p50_ms": 3.0},
            {"space": "scout_0", "constraints": 1, "la": 1, "p50_ms": 8.0},
            {"space": "scout_0", "constraints": 2, "la": 1, "p50_ms": 30.0},
        ]
        base = summary(spaces_p50=entries, inc=inc_base)
        flat, notes = compare_bench.load_entries(base)
        self.assertIn("inc/scout_0/la1", flat)
        self.assertIn("inc/mc/scout_0/c1/la1", flat)
        self.assertIn("inc/mc/scout_0/c2/la1", flat)
        self.assertEqual(notes, [])

        inc_new = [dict(e) for e in inc_base]
        inc_new[2] = dict(inc_new[2], p50_ms=90.0)
        new = summary(spaces_p50=entries, inc=inc_new)
        self.assertEqual(self.run_gate(base, new), 1)

    def test_session_throughput_keys_on_sessions_and_cache_mode(self):
        entries = {"tf": [(0, 2.0), (1, 5.0)]}
        svc_base = [
            {"space": "scout_0", "optimizer": "lynceus_la1", "sessions": 1,
             "cache": "shared", "ms_per_decision": 4.0},
            {"space": "scout_0", "optimizer": "lynceus_la1", "sessions": 64,
             "cache": "per-session", "ms_per_decision": 5.0},
        ]
        base = summary(spaces_p50=entries, svc=svc_base)
        flat, notes = compare_bench.load_entries(base)
        self.assertIn("svc/scout_0/s1/shared", flat)
        self.assertIn("svc/scout_0/s64/per-session", flat)
        self.assertEqual(flat["svc/scout_0/s1/shared"], 4.0)
        self.assertEqual(notes, [])

    def test_session_throughput_regression_fails(self):
        entries = {"tf": [(0, 2.0), (1, 5.0), (2, 20.0)]}
        svc_base = [{"space": "scout_0", "optimizer": "lynceus_la1",
                     "sessions": 8, "cache": "shared",
                     "ms_per_decision": 5.0}]
        base = summary(spaces_p50=entries, svc=svc_base)
        svc_new = [dict(svc_base[0], ms_per_decision=25.0)]
        new = summary(spaces_p50=entries, svc=svc_new)
        self.assertEqual(self.run_gate(base, new), 1)
        self.assertEqual(self.run_gate(base, base), 0)

    def test_session_scaling_keys_on_sessions_and_workers(self):
        entries = {"tf": [(0, 2.0), (1, 5.0)]}
        sscale = [
            {"space": "scout_0", "sessions": 64, "workers": 0,
             "ms_per_decision": 0.3},
            {"space": "scout_0", "sessions": 64, "workers": 3,
             "ms_per_decision": 0.1},
        ]
        flat, notes = compare_bench.load_entries(
            summary(spaces_p50=entries, sscale=sscale))
        self.assertIn("sscale/scout_0/s64/w3", flat)
        self.assertEqual(flat["sscale/scout_0/s64/w3"], 0.1)
        # workers == 0 is the FIFO reference: noted, never gated.
        self.assertNotIn("sscale/scout_0/s64/w0", flat)
        self.assertEqual(len(notes), 1)
        self.assertIn("sscale/scout_0/s64/w0", notes[0])

    def test_zero_worker_session_scaling_entries_are_skipped_not_gated(self):
        entries = {"tf": [(1, 5.0), (2, 20.0)]}
        base = summary(
            spaces_p50=entries,
            sscale=[{"space": "scout_0", "sessions": 64, "workers": 0,
                     "ms_per_decision": 0.1}])
        new = summary(
            spaces_p50=entries,
            sscale=[{"space": "scout_0", "sessions": 64, "workers": 0,
                     "ms_per_decision": 50.0}])
        self.assertEqual(self.run_gate(base, new), 0)

    def test_nonzero_worker_session_scaling_regression_fails(self):
        entries = {"tf": [(0, 2.0), (1, 5.0), (2, 20.0)]}
        base = summary(
            spaces_p50=entries,
            sscale=[{"space": "scout_0", "sessions": 64, "workers": 3,
                     "ms_per_decision": 5.0}])
        new = summary(
            spaces_p50=entries,
            sscale=[{"space": "scout_0", "sessions": 64, "workers": 3,
                     "ms_per_decision": 25.0}])
        self.assertEqual(self.run_gate(base, new), 1)
        self.assertEqual(self.run_gate(base, base), 0)

    def test_net_throughput_keys_on_wire_sessions_clients_and_shards(self):
        entries = {"tf": [(0, 2.0), (1, 5.0)]}
        flat, notes = compare_bench.load_entries(
            summary(spaces_p50=entries,
                    net=[net_entry(sessions=8, clients=1, wire="json"),
                         net_entry(sessions=64, clients=8, wire="json"),
                         net_entry(sessions=64, clients=8, wire="binary",
                                   ms_per_decision=4.0, tell_p99=2.0)]))
        self.assertIn("net/scout_0/json/s8/c1/sh2/decision", flat)
        self.assertIn("net/scout_0/json/s8/c1/sh2/tell_p99", flat)
        self.assertIn("net/scout_0/json/s64/c8/sh2/decision", flat)
        self.assertEqual(flat["net/scout_0/json/s64/c8/sh2/decision"], 6.0)
        self.assertEqual(flat["net/scout_0/json/s64/c8/sh2/tell_p99"], 3.0)
        # The binary twin of the same shape is a distinct key, never
        # compared against the json numbers.
        self.assertEqual(flat["net/scout_0/binary/s64/c8/sh2/decision"], 4.0)
        self.assertEqual(flat["net/scout_0/binary/s64/c8/sh2/tell_p99"], 2.0)
        self.assertEqual(notes, [])

    def test_net_throughput_wire_defaults_to_json_for_old_baselines(self):
        # Summaries written before encoding negotiation existed carry no
        # "wire" field; they must land on the same key as new json runs
        # so history stays comparable.
        entries = {"tf": [(0, 2.0), (1, 5.0)]}
        flat, _ = compare_bench.load_entries(
            summary(spaces_p50=entries, net=[net_entry(wire=None)]))
        self.assertIn("net/scout_0/json/s64/c8/sh2/decision", flat)
        base = summary(spaces_p50=entries, net=[net_entry(wire=None)])
        new = summary(spaces_p50=entries,
                      net=[net_entry(wire="json", ms_per_decision=30.0)])
        self.assertEqual(self.run_gate(base, new), 1)

    def test_net_throughput_decision_regression_fails(self):
        entries = {"tf": [(0, 2.0), (1, 5.0), (2, 20.0)]}
        base = summary(spaces_p50=entries, net=[net_entry()])
        new = summary(spaces_p50=entries,
                      net=[net_entry(ms_per_decision=30.0)])
        self.assertEqual(self.run_gate(base, new), 1)
        self.assertEqual(self.run_gate(base, base), 0)

    def test_net_throughput_tell_p99_regression_fails(self):
        entries = {"tf": [(0, 2.0), (1, 5.0), (2, 20.0)]}
        base = summary(spaces_p50=entries, net=[net_entry(tell_p99=3.0)])
        new = summary(spaces_p50=entries, net=[net_entry(tell_p99=15.0)])
        self.assertEqual(self.run_gate(base, new), 1)

    def test_soa_predict_keys_batch_walk_and_decision(self):
        flat, notes = compare_bench.load_entries(
            summary(spaces_p50={"tf": [(0, 2.0)]}, soa=[soa_entry()]))
        self.assertEqual(flat["soa/tensorflow_cnn/batch"], 2.0)
        self.assertEqual(flat["soa/tensorflow_cnn/node_walk"], 8.0)
        self.assertEqual(flat["soa/tensorflow_cnn/decision_la2"], 40.0)
        self.assertEqual(notes, [])

    def test_soa_batch_regression_fails(self):
        # The flat batch route regressing (node walk and decision steady)
        # must trip the gate even though the speedup ratio alone would
        # still look healthy.
        entries = {"tf": [(0, 2.0), (1, 5.0), (2, 20.0)]}
        base = summary(spaces_p50=entries, soa=[soa_entry(batch=2.0)])
        new = summary(spaces_p50=entries, soa=[soa_entry(batch=6.0)])
        self.assertEqual(self.run_gate(base, new), 1)
        self.assertEqual(self.run_gate(base, base), 0)

    def test_soa_decision_regression_fails(self):
        entries = {"tf": [(0, 2.0), (1, 5.0), (2, 20.0)]}
        base = summary(spaces_p50=entries, soa=[soa_entry(decision_la2=40.0)])
        new = summary(spaces_p50=entries, soa=[soa_entry(decision_la2=120.0)])
        self.assertEqual(self.run_gate(base, new), 1)

    def test_soa_entry_without_decision_key_is_batch_and_walk_only(self):
        # Synthetic-grid entries carry no decision dataset, so the LA=2
        # decision key is optional per entry — absent key means absent
        # gate entry, not a crash.
        e = soa_entry(space="grid_64x64")
        del e["decision_la2_p50_ms"]
        flat, notes = compare_bench.load_entries(
            summary(spaces_p50={"tf": [(0, 2.0)]}, soa=[e]))
        self.assertEqual(flat["soa/grid_64x64/batch"], 2.0)
        self.assertEqual(flat["soa/grid_64x64/node_walk"], 8.0)
        self.assertNotIn("soa/grid_64x64/decision_la2", flat)
        self.assertEqual(notes, [])

    def test_missing_soa_section_is_skipped_not_failed(self):
        # Old baselines predate the section: schema growth must not fail.
        entries = {"tf": [(0, 2.0), (1, 5.0)]}
        base = summary(spaces_p50=entries)
        new = summary(spaces_p50=entries, soa=[soa_entry()])
        self.assertEqual(self.run_gate(base, new), 0)

    def test_branch_refit_keys_on_space_and_history_in_ms(self):
        flat, notes = compare_bench.load_entries(
            summary(refit=[refit_entry(history=8, fit_p50_us=12.0),
                           refit_entry(history=14, fit_p50_us=20.0),
                           refit_entry(space="tensorflow_cnn",
                                       fit_p50_us=31.0)]))
        self.assertEqual(flat["refit/scout_0/h8"], 0.012)
        self.assertEqual(flat["refit/scout_0/h14"], 0.02)
        self.assertEqual(flat["refit/tensorflow_cnn/h14"], 0.031)
        self.assertEqual(notes, [])

    def test_branch_refit_regression_warns_under_the_noise_floor(self):
        # A branch refit costs tens of microseconds: under the default
        # 1 ms floor a regression warns, and with the floor lowered it
        # fails like any other entry.
        entries = {"tf": [(0, 2.0), (1, 5.0), (2, 20.0)]}
        base = summary(spaces_p50=entries, refit=[refit_entry()])
        new = summary(spaces_p50=entries,
                      refit=[refit_entry(fit_p50_us=60.0)])
        self.assertEqual(self.run_gate(base, new), 0)
        self.assertEqual(
            self.run_gate(base, new, ["--noise-floor-ms=0.001"]), 1)
        self.assertEqual(
            self.run_gate(base, base, ["--noise-floor-ms=0.001"]), 0)

    def test_no_common_entries_is_a_pass(self):
        base = summary(spaces_p50={"tf": [(0, 2.0)]})
        new = summary(spaces_p50={"scout": [(0, 2.0)]})
        self.assertEqual(self.run_gate(base, new), 0)


if __name__ == "__main__":
    unittest.main()
