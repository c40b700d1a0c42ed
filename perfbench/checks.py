"""Output checks on one run's raw measurements (the JSON bench.exe prints).

check(raw) returns (failures, misses). Failures mean the run's outputs
cannot be trusted: a request unaccounted for, a twin that replayed other
work, a world graded against another world's oracle. Misses are the
watchdog's own detection outcomes, a fault not detected or a report before
injection; like a faultspace world that misses its oracle, they are counted
in the coverage and specificity metrics rather than failing the run.
"""


# The watchdog's modelled latency cost: wd-on request latency in virtual
# time stays within this share of the wd-off twin's, at p50 and p99. The
# two are not bit-identical: hook statements cost virtual time (zk-closed
# p50 +0.7%), and on cs-open-read some slices' p99 cross one of Loadgen's
# 12.5% histogram buckets.
VIRT_TOLERANCE = 0.02


def _check_load(c):
    failures = []
    slices = c.get("slices", [])
    if not slices:
        failures.append("no timed slice ran")
    for k, s in enumerate(slices):
        if s["completed"] + s["shed"] != s["offered"]:
            failures.append(f"slice {k}: {s['offered']} offered but "
                            f"{s['completed']} completed + {s['shed']} shed")
        if s["ok"] + s["err"] + s["timeout"] != s["completed"]:
            failures.append(f"slice {k}: ok + err + timeout != completed")
    issued = sum(s["completed"] for s in slices)
    if c.get("issued") != issued:
        failures.append(f"{c.get('issued')} requests timed but {issued} completed")
    # the twin replays the slices the modelled metrics are read over
    twin = c.get("twin_slices", [])
    replayed = min(len(slices), c.get("fixed_slices", 0))
    if len(twin) != replayed:
        failures.append(f"wd-off twin drove {len(twin)} slices, not {replayed}")
    on, off = c.get("virt_p50_p99_ns", []), c.get("twin_virt_p50_p99_ns", [])
    if len(on) != 2 or len(off) != 2:
        failures.append("virtual p50/p99 missing")
    else:
        for q, a, b in zip(("p50", "p99"), on, off):
            if abs(a - b) > VIRT_TOLERANCE * b:
                failures.append(f"virtual {q} {a} ns is not within "
                                f"{VIRT_TOLERANCE:.0%} of the wd-off twin's {b} ns")
    misses = []
    if c.get("detected", 0) < c.get("injected", 1):
        misses.append(f"injected fault not detected in "
                      f"{c.get('injected', 1) - c.get('detected', 0)} of "
                      f"{c.get('injected', 1)} detection runs")
    if c.get("reports_pre_inject", 0) != 0:
        misses.append(f"{c['reports_pre_inject']} reports before injection")
    return failures, misses


def _check_faultspace(c):
    failures = []
    worlds = c.get("worlds", [])
    if not worlds:
        failures.append("no world ran")
    for k, w in enumerate(worlds):
        if not w["id_match"] or w["kind"] != w["world_kind"]:
            failures.append(f"world {k}: outcome belongs to another world")
            continue
        if w["kind"] == "scenario":
            graded = w["detected"] == w["expect"] and w["false_alarms"] == 0
        elif w["kind"] == "fault-free":
            graded = not w["expect"] and w["false_alarms"] == 0
        else:
            continue  # fleet worlds are graded by the fleet verdict
        if w["ok"] != graded:
            failures.append(f"world {k}: ok={w['ok']} disagrees with its oracle")
    missed = sum(not w["ok"] for w in worlds)
    return failures, [f"{missed} worlds miss their oracle"] if missed else []


def check(raw):
    checks = raw.get("checks", {})
    if raw.get("workload") == "faultspace":
        failures, misses = _check_faultspace(checks)
    else:
        failures, misses = _check_load(checks)
    if raw.get("attempted", 0) < 1:
        failures.append("nothing attempted")
    return failures, misses
