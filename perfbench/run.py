#!/usr/bin/env python3
"""Repository benchmark: builds perfbench_driver, runs one workload, checks
every result for exactness and prints the metrics.

    python3 perfbench/run.py --workload uts_sim --seed 1 --seconds 25 --trace 0

--workload all runs the four workloads one after another, each in its own
process, and exits non-zero if any of them does.

Run from the repository root. --trace 0 prints the end-to-end metrics of
BENCHMARK.json; --trace 1 prints the per-layer metrics (a separate run whose
traced reps wrap every lb::Work in a timing decorator). The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Exit codes: 0 all checks passed; 1 a correctness check failed or the driver
crashed or timed out (the JSON line is still printed, with correct=false); 2
bad arguments; 3 the driver could not be built or started (no JSON line).
A rep that does not terminate before the driver's watchdog has no result to
check: it counts in "failed", gives no number, and does not fail the run.
See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("uts_sim", "bb_sim", "uts_threads", "uts_sharded")
SIM_WORKLOADS = ("uts_sim", "bb_sim", "uts_sharded")

# Overlay message types reported per type (lb::MsgType values 0..10).
MSG_TYPES = ("size_up", "size_down", "req_down", "req_up", "req_bridge",
             "no_work", "work", "terminate", "probe", "probe_ack", "bound")

# Counters a simulator rep must repeat exactly, rep to rep and traced vs
# untraced (the determinism canary and the decorator-neutrality check).
EXACT_KEYS = ("sim_time_s", "last_compute_s", "units", "messages", "events",
              "work_requests", "work_transfers", "sent_by_type", "best_bound",
              "shards", "windows", "queueing_delay_s")

# The machine-speed reference's typical time (driver.cpp, class Reference)
# on the machine the benchmark was defined on (4-core Intel Xeon VM). setup_s is reported in seconds of that
# machine: host seconds scaled by REF_NOMINAL_S / the rep's reference time.
REF_NOMINAL_S = 0.046



def fail(msg, code=3):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build_driver():
    """Configure once, then an incremental build on every run."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"repository sources not found under {ROOT / 'src'}")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench_driver",
                  "-j", str(min(4, os.cpu_count() or 1))])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode
            except OSError as e:
                fail(f"cannot run {cmd[0]}: {e}")
            if rc != 0:
                tail = log_path.read_text(errors="replace").splitlines()[-20:]
                fail("build failed:\n" + "\n".join(tail))
    return out / "perfbench_driver"


def cache_value(out, key):
    cache = out / "CMakeCache.txt"
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return ""


def fingerprint(out, seed):
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = cache_value(out, "CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler or "unknown"
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True).stdout.strip() or "none"
    except OSError:
        sha = "none"
    # The checkout the benchmark runs in may not be a git repository: the
    # digest of the compiled sources identifies the code either way.
    digest = hashlib.sha1()
    for path in sorted(list((ROOT / "src").rglob("*")) + list(HERE.rglob("*"))):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {"cpu": cpu, "nproc": os.cpu_count(), "build_type": cache_value(out, "CMAKE_BUILD_TYPE"),
            "compiler": version, "git_sha": sha, "source_sha1": digest.hexdigest(), "seed": seed}


def median(xs):
    return statistics.median(xs) if xs else 0.0


def exact_tuple(rep):
    return json.dumps([rep.get(k) for k in EXACT_KEYS])


def judge(workload, reps):
    """Marks each rep ok or not; returns (wrong, aborted), the reasons of the
    reps that make the run incorrect and of the reps that aborted.

    A rep is wrong when it fails its own exactness check, or — simulator
    workloads — when its exact counters differ from those of the untraced
    reps of the same schedule (determinism canary; for traced reps, decorator
    neutrality). Aborted reps take part in the canary too: the watchdog trips
    at the same event in every rep of a schedule.
    """
    wrong, aborted = [], []
    for rep in reps:
        rep["ok"] = not rep["check"] and not rep["aborted"]
        if rep["check"]:
            wrong.append(f"rep {rep['rep']}: {rep['check']}")
        elif rep["aborted"]:
            aborted.append(f"rep {rep['rep']} (schedule {rep['run_seed']}): {rep['aborted']}")
    if workload in SIM_WORKLOADS:
        for seed in {r["run_seed"] for r in reps}:
            group = [r for r in reps if r["run_seed"] == seed and not r["check"]]
            tuples = [exact_tuple(r) for r in group if not r["traced"]]
            common = max(set(tuples), key=tuples.count) if tuples else None
            for rep in group:
                if exact_tuple(rep) != common:
                    rep["ok"] = False
                    what = "traced run changed the exact counters" if rep["traced"] \
                        else "exact counters differ between reps of one schedule"
                    wrong.append(f"rep {rep['rep']}: {what}")
    return wrong, aborted


def per_schedule(reps):
    """One rep per schedule: the exact counters are a function of the
    schedule, so each counts once however many reps the time budget ran."""
    first = {}
    for r in reps:
        first.setdefault(r["run_seed"], r)
    return list(first.values())


def end_to_end(workload, ref, seq, reps):
    sim = workload in SIM_WORKLOADS
    first = reps[0]
    return {
        # Set-up time in seconds of the reference machine (REF_NOMINAL_S):
        # raw set-up is a fraction of a millisecond to tens of milliseconds,
        # and it drifts with the machine's speed like every host time.
        "setup_s": [r["setup_s"] * REF_NOMINAL_S / r["ref_s"] for r in reps],
        # Host CPU cost in units of the frozen reference traversals timed
        # around the same rep: the machine's speed drift cancels out, and
        # the yardstick shares no code with the program. CPU time, not wall
        # time, because how many cores a multi-threaded run gets on a shared
        # host varies from minute to minute (host.wall_s and
        # sharded.cores_busy in the traced run show it).
        "cpu_vs_ref": [r["cpu_s"] / r["ref_s"] for r in reps],
        # Simulator: the paper's speedup, sequential simulated time over
        # simulated time to termination. Threads: the frozen sequential
        # traversal's host time over overlay host time, rep by rep.
        "speedup": ([seq["seq_sim_time_s"] / r["sim_time_s"] for r in per_schedule(reps)]
                    if sim else [r["frozen_seq_wall_s"] / r["wall_s"] for r in reps]),
        "messages": [r["messages"] for r in (per_schedule(reps) if sim else reps)],
        # Memory the first backend call added to the process, over n.
        # Later reps only raise the high-water mark through allocator
        # fragmentation, which would tie the figure to the time budget.
        "bytes_per_peer": [(first["rss_peak_after"] - first["rss_before"]) / ref["peers"]],
    }


def per_layer(workload, ref, seq, untraced, traced):
    sim = workload in SIM_WORKLOADS
    threads = ref["peers"] if not sim else 0
    bb = workload == "bb_sim"
    m = {}

    def put(name, unit, fn, reps=traced):
        vals = [fn(r) for r in reps]
        m[name] = (median(vals), unit, len(vals))

    def work_s(r):
        return 1e-9 * (r["step_ns"] + r["split_ns"] + r["merge_ns"] + r["observe_ns"])

    def self_s(r):
        return r["cpu_s"] - r["setup_cpu_s"] - work_s(r) if sim else 0.0

    put("engine_protocol.self_s", "s", self_s)
    put("engine_protocol.ns_per_event", "ns",
        lambda r: 1e9 * self_s(r) / r["events"] if sim else 0.0)
    put("simnet.events", "count", lambda r: r.get("events", 0))
    put("simnet.queueing_delay_us", "us", lambda r: 1e6 * r.get("queueing_delay_s", 0.0))
    put("sharded.windows", "count", lambda r: r.get("windows", 0))
    put("sharded.us_per_window", "us",
        lambda r: 1e6 * (r["wall_s"] - r["setup_s"]) / r["windows"] if r.get("windows") else 0.0)
    put("sharded.cores_busy", "cores", lambda r: r["cpu_s"] / r["wall_s"])
    put("lb.sim_time_s", "s", lambda r: r.get("sim_time_s", 0.0))
    for i, name in enumerate(MSG_TYPES):
        put(f"lb.msgs.{name}", "count", lambda r, i=i: r["sent_by_type"][i] if sim else 0)
    put("lb.work_requests", "count", lambda r: r["work_requests"])
    put("lb.work_transfers", "count", lambda r: r["work_transfers"])
    put("lb.request_success", "ratio",
        lambda r: r["work_transfers"] / r["work_requests"] if r["work_requests"] else 0.0)
    put("lb.termination_tail_s", "s",
        lambda r: r["sim_time_s"] - r["last_compute_s"] if sim else 0.0)
    put("lb.idle_frac", "ratio", lambda r: r.get("idle_frac", 0.0))
    put("lb.search_ratio", "ratio", lambda r: r["units"] / seq["seq_units"])
    put("bb.bound_improvements", "count", lambda r: r["bound_improvements"])
    put("bb.observe_bound_calls", "count", lambda r: r["observe_calls"])
    for prefix, on in (("uts", not bb), ("bb", bb)):
        put(f"{prefix}.step_calls", "count", lambda r, on=on: r["step_calls"] if on else 0)
        put(f"{prefix}.step_s", "s", lambda r, on=on: 1e-9 * r["step_ns"] if on else 0.0)
        put(f"{prefix}.ns_per_node", "ns",
            lambda r, on=on: r["step_ns"] / r["step_units"] if on and r["step_units"] else 0.0)
        put(f"{prefix}.step_p50_us", "us", lambda r, on=on: 1e-3 * r["step_p50_ns"] if on else 0.0)
        put(f"{prefix}.step_p99_us", "us", lambda r, on=on: 1e-3 * r["step_p99_ns"] if on else 0.0)
    put("work.split_calls", "count", lambda r: r["split_calls"])
    put("work.split_null_frac", "ratio",
        lambda r: r["split_null"] / r["split_calls"] if r["split_calls"] else 0.0)
    put("work.split_s", "s", lambda r: 1e-9 * r["split_ns"])
    put("work.merge_calls", "count", lambda r: r["merge_calls"])
    put("work.merge_s", "s", lambda r: 1e-9 * r["merge_ns"])
    put("work.units_per_transfer", "units",
        lambda r: r["split_units"] / (r["split_calls"] - r["split_null"])
        if r["split_calls"] > r["split_null"] else 0.0)
    put("overlay.build_s", "s", lambda r: r["overlay_build_s"])
    put("runtime.kernel_frac", "ratio",
        lambda r: 1e-9 * r["step_ns"] / (threads * r["wall_s"]) if threads else 0.0)
    put("runtime.overhead_s", "s", lambda r: r["cpu_s"] - work_s(r) if threads else 0.0)
    put("runtime.idle_s", "s", lambda r: threads * r["wall_s"] - r["cpu_s"] if threads else 0.0)
    put("runtime.shutdown_s", "s", lambda r: r["wall_s"] - r["done_s"] if threads else 0.0)
    put("runtime.messages", "count", lambda r: r["messages"] if threads else 0)
    put("runtime.work_transfers", "count", lambda r: r["work_transfers"] if threads else 0)
    put("runtime.one_thread_tax", "ratio",
        lambda r: r["one_thread_wall_s"] / seq["seq_wall_s"] if threads else 0.0)
    put("steal.pool_wall_s", "s", lambda r: r["pool_wall_s"] if threads else 0.0, untraced)
    put("steal.speedup_vs_pool", "x",
        lambda r: r["pool_wall_s"] / r["wall_s"] if threads else 0.0, untraced)
    put("host.wall_s", "s", lambda r: r["wall_s"], untraced)
    put("host.cpu_s", "s", lambda r: r["cpu_s"], untraced)
    put("host.units_per_s", "1/s", lambda r: r["units"] / r["wall_s"], untraced)
    put("host.seq_wall_s", "s", lambda r: seq["seq_wall_s"], [seq])
    put("host.ref_s", "s", lambda r: r["ref_s"], untraced)
    put("host.setup_s", "s", lambda r: r["setup_s"], untraced)
    base = median([r["wall_s"] for r in untraced])
    m["trace.overhead_frac"] = (median([r["wall_s"] for r in traced]) / base - 1.0
                                if base else 0.0, "ratio", len(traced))
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if args.workload == "all":
        # One process per workload, so peak RSS stays per workload.
        codes = [subprocess.run([sys.executable, __file__, "--workload", w, "--seed",
                                 str(args.seed), "--seconds", str(args.seconds), "--trace",
                                 str(args.trace)]).returncode for w in WORKLOADS]
        sys.exit(max(codes))

    driver = build_driver()
    fp = fingerprint(driver.parent, args.seed)
    print("# fingerprint: " + json.dumps(fp))
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    started = time.monotonic()
    timeout = args.seconds + 120
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
        stdout, stderr, crashed = proc.stdout, proc.stderr, proc.returncode != 0
    except subprocess.TimeoutExpired as e:
        # subprocess.run has killed the driver and waited for it.
        stdout = e.stdout.decode(errors="replace") if e.stdout else ""
        stderr = f"perfbench: driver exceeded {timeout}s\n"
        crashed = True
    lines = [json.loads(l) for l in stdout.splitlines() if l.startswith("{")]
    ref = next((l for l in lines if l["kind"] == "ref"), None)
    reps = [l for l in lines if l["kind"] == "rep"]
    seq = next((l for l in lines if l["kind"] == "seq"), None)
    if crashed or ref is None or seq is None:
        # A crash (e.g. an OLB_CHECK abort inside the program) or a wedged
        # run is a failed run: the rep it was in counts as attempted.
        sys.stderr.write(stderr[-2000:])
        attempted = len(reps) + 1
        print(json.dumps({"correct": False, "attempted": attempted, "failed": attempted - sum(
            1 for r in reps if not r["check"] and not r["aborted"]), "metrics": {}}))
        sys.exit(1)

    wrong, aborted = judge(args.workload, reps)
    if seq["check"]:
        wrong.append(f"sequential reference: {seq['check']}")
    good = [r for r in reps if r["ok"]]
    untraced = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    # The sequential reference counts as one more checked operation.
    attempted = len(reps) + 1
    failed = len(reps) - len(good) + (1 if seq["check"] else 0)
    correct = not wrong and bool(untraced) and (args.trace == 0 or bool(traced))

    print(f"# {args.workload}: seed {args.seed}, {len(reps)} reps in "
          f"{time.monotonic() - started:.1f}s ({len(untraced)} untraced, "
          f"{len(traced)} traced ok), {failed} failed")
    for why in wrong:
        print(f"# FAIL {why}")
    for why in aborted:
        print(f"# ABORTED {why}")

    metrics = {}
    if correct:
        # BENCHMARK.json is the contract: print exactly its metrics, with
        # its units.
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        declared = {m["name"]: m["unit"] for m in
                    spec["end_to_end" if args.trace == 0 else "per_layer"]}
        if args.trace == 0:
            rows = [(name, median(vals), declared.get(name), len(vals))
                    for name, vals in end_to_end(args.workload, ref, seq, untraced).items()]
        else:
            rows = [(name, v, unit, n) for name, (v, unit, n)
                    in per_layer(args.workload, ref, seq, untraced, traced).items()]
        measured = {name: unit for name, _, unit, _ in rows}
        if measured != declared:
            fail("metrics differ from BENCHMARK.json: " + ", ".join(
                sorted(set(measured.items()) ^ set(declared.items()))))
        for name, value, unit, n in rows:
            print(f"{name:32s} {value:16.6g} {unit:6s} (median of {n})")
            metrics[name] = {"value": value, "unit": unit}

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    results = build_dir() / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"fingerprint": fp, "ref": ref, "reps": reps, "seq": seq,
                               "result": result}, indent=1))
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
