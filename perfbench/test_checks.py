"""Each output check trips on a doctored result.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import checks


def load_raw():
    slice_ = {"offered": 8192, "completed": 8192, "ok": 8192, "err": 0,
              "timeout": 0, "shed": 0}
    return {
        "workload": "zk-closed",
        "attempted": 16384,
        "failed": 0,
        "checks": {
            "slices": [dict(slice_), dict(slice_)],
            "issued": 16384,
            "fixed_slices": 16,
            "twin_slices": [dict(slice_), dict(slice_)],
            "virt_p50_p99_ns": [4426876.0, 4883887.0],
            "twin_virt_p50_p99_ns": [4397963.0, 4853945.0],
            "detected": 3,
            "injected": 3,
            "detected_by": ["probe:zk-rw"] * 3,
            "reports_pre_inject": 0,
        },
    }


def faultspace_raw():
    def world(kind, expect, detected, ok, false_alarms=0):
        return {"kind": kind, "world_kind": kind, "id_match": True,
                "expect": expect, "detected": detected,
                "false_alarms": false_alarms, "ok": ok}
    return {
        "workload": "faultspace",
        "attempted": 4,
        "failed": 0,
        "checks": {"worlds": [
            world("scenario", True, True, True),
            # a graded miss: counted in coverage and ok_ratio, not a check failure
            world("scenario", True, False, False),
            world("fault-free", False, False, True),
            world("fleet", True, True, True),
        ]},
    }


class Checks(unittest.TestCase):
    def assertTrips(self, raw, fragment):
        failures, _ = checks.check(raw)
        self.assertTrue(any(fragment in f for f in failures),
                        f"{fragment!r} not in {failures}")

    def assertCounted(self, raw, fragment):
        failures, misses = checks.check(raw)
        self.assertEqual(failures, [])
        self.assertTrue(any(fragment in m for m in misses),
                        f"{fragment!r} not in {misses}")

    def test_good_results_pass(self):
        self.assertEqual(checks.check(load_raw()), ([], []))
        self.assertEqual(checks.check(faultspace_raw()),
                         ([], ["1 worlds miss their oracle"]))

    def test_unaccounted_request(self):
        raw = load_raw()
        raw["checks"]["slices"][1]["completed"] -= 1
        raw["checks"]["slices"][1]["ok"] -= 1
        self.assertTrips(raw, "offered but")

    def test_reply_kinds_do_not_add_up(self):
        raw = load_raw()
        raw["checks"]["slices"][0]["ok"] -= 1
        self.assertTrips(raw, "ok + err + timeout")

    def test_timed_requests_differ_from_completed(self):
        raw = load_raw()
        raw["checks"]["issued"] += 1
        self.assertTrips(raw, "requests timed")

    def test_twin_drove_other_slices(self):
        raw = load_raw()
        raw["checks"]["twin_slices"].pop()
        self.assertTrips(raw, "wd-off twin drove")

    def test_virtual_latency_moved(self):
        for q in (0, 1):
            raw = load_raw()
            raw["checks"]["virt_p50_p99_ns"][q] *= 1.05
            self.assertTrips(raw, "of the wd-off twin's")

    def test_fault_not_detected(self):
        raw = load_raw()
        raw["checks"]["detected"] = 2
        self.assertCounted(raw, "not detected")

    def test_report_before_injection(self):
        raw = load_raw()
        raw["checks"]["reports_pre_inject"] = 1
        self.assertCounted(raw, "before injection")

    def test_outcome_of_another_world(self):
        raw = faultspace_raw()
        raw["checks"]["worlds"][0]["id_match"] = False
        self.assertTrips(raw, "another world")
        raw = faultspace_raw()
        raw["checks"]["worlds"][2]["kind"] = "scenario"
        self.assertTrips(raw, "another world")

    def test_grade_disagrees_with_oracle(self):
        for k in (0, 1, 2):
            raw = faultspace_raw()
            world = raw["checks"]["worlds"][k]
            world["ok"] = not world["ok"]
            self.assertTrips(raw, "disagrees with its oracle")

    def test_nothing_ran(self):
        raw = load_raw()
        raw["checks"]["slices"] = []
        raw["checks"]["twin_slices"] = []
        raw["checks"]["issued"] = 0
        self.assertTrips(raw, "no timed slice")
        raw = faultspace_raw()
        raw["checks"]["worlds"] = []
        self.assertTrips(raw, "no world ran")
        raw = faultspace_raw()
        raw["attempted"] = 0
        self.assertTrips(raw, "nothing attempted")


if __name__ == "__main__":
    unittest.main()
