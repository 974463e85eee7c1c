#!/usr/bin/env python3
"""Co-simulation throughput benchmark of the vsgpu simulator.

Builds bench/perf (the simulator libraries plus the vsgpu_bench binary)
from the checkout this file sits in, runs named workloads of
co-simulations, checks every result, and prints each metric by name
with its unit and sample count.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

  run_bench.py [--workload NAME|all] [--seed S] [--seconds T]
               [--trace 0|1 | --traced] [--build DIR] [--results FILE]
  run_bench.py compare --base BUILD_A --head BUILD_B [--pairs 10]
               [--seed 7] [--workload NAME ...] [--seconds T]
  run_bench.py smoke [--binary PATH] [--build DIR]
  run_bench.py record [--build DIR]
  run_bench.py build [--build DIR]

--trace 0 (the default) reports the end-to-end metrics, --trace 1 the
per-layer metrics of the stage-timed composed loop.  BUILD_A / BUILD_B
are benchmark build directories (`run_bench.py build --build DIR` in
each checkout).  `record` rewrites reference_digests.json from seed 0.
Standard library only.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
DEFAULT_BUILD = os.path.join(ROOT, ".bench_build", "perf")
REFERENCE = os.path.join(HERE, "reference_digests.json")
WORKLOADS = ["hotspot-cross", "atomic-vrm", "pg-cross", "table3-sweep"]
NUM_SMS = 16
# A hung vsgpu_bench is killed after this long.
BINARY_TIMEOUT_S = 170

# Stages of the composed loop (composed_loop.hh), in loop order.
STAGES = ["gpu", "power", "coupling", "circuit", "observe", "control",
          "hypervisor", "bookkeeping"]
# The in-program profiler's loop stages; its "power" stage spans the
# composed loop's power and coupling stages.
PROFILE_STAGES = {"gpu": ["gpu"], "power+coupling": ["power", "coupling"],
                  "circuit": ["circuit"], "observe": ["observe"],
                  "control": ["control"], "hypervisor": ["hypervisor"],
                  "bookkeeping": ["bookkeeping"]}

E2E_UNITS = {"cycles_per_s": "cycles/s", "wall_s": "s", "setup_s": "s",
             "run_ms_p50": "ms", "run_ms_p75": "ms", "peak_rss_mb": "MB"}
LAYER_UNITS = dict(
    [(f"{s}.ns_per_cycle", "ns/cycle") for s in STAGES] +
    [(f"{s}.share", "ratio") for s in STAGES] +
    [("gpu.cycles", "cycles"), ("gpu.instructions", "count"),
     ("gpu.throttled_frac", "ratio"), ("gpu.l1_hit_ratio", "ratio"),
     ("gpu.dram_accesses", "count"), ("circuit.refactorizations", "count"),
     ("control.trigger_frac", "ratio"), ("control.engagements", "count"),
     ("hv.gate_requests", "count"), ("hv.gating_denials", "count"),
     ("hv.veto_skips", "count"), ("setup.pds_build_ms", "ms"),
     ("setup.run_init_ms", "ms"), ("exec.busy_frac", "ratio"),
     ("exec.tail_ms", "ms"), ("exec.setups_built", "count"),
     ("exec.setup_hits", "count"), ("trace.coverage", "ratio"),
     ("trace.loop_ratio", "ratio"), ("profile.share_gap_pts", "pts")])


def log(*args):
    print(*args, file=sys.stderr, flush=True)


class BenchError(Exception):
    """A failure that leaves no result to print."""


# ----------------------------------------------------------------------
# Build and run vsgpu_bench
# ----------------------------------------------------------------------

def build(build_dir):
    """Configure (once) and build vsgpu_bench; @return the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError(f"simulator sources not found under {ROOT}/src; "
                         "run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", build_dir, "--target", "vsgpu_bench",
              "-j", jobs]]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "vsgpu_bench")


def run_binary(binary, workload, seed, seconds, traced, tiny):
    """Run one vsgpu_bench process; @return (exit code, its standard
    output, peak RSS MB)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode",
           "traced" if traced else "run", "--size",
           "tiny" if tiny else "full"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    watchdog = threading.Timer(BINARY_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def percentile(values, q):
    """Linear-interpolation percentile, q in [0, 1]."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def load_reference():
    with open(REFERENCE) as f:
        return json.load(f)


def check(raw, seed, reference):
    """@return failure strings, one per failed co-simulation."""
    failures = []
    refs = None
    if reference and seed == 0 and raw["size"] == reference["size"]:
        refs = reference["digests"].get(raw["workload"])
    for c in raw["cosims"]:
        why = []
        if not c["finished"]:
            why.append("did not finish within the cycle cap")
        if c["instructions"] != c["expected_instructions"]:
            why.append(f"retired {c['instructions']} of "
                       f"{c['expected_instructions']} instructions")
        if not c["sane"]:
            why.append("energy books out of range")
        if refs and c["round"] == 0 and c["digest"] != refs[c["index"]]:
            why.append(f"digest {c['digest']} != reference "
                       f"{refs[c['index']]}")
        if c["round"] == 0 and c["index"] == 0 and \
                c["digest"] != raw["warmup_digest"]:
            why.append("digest differs from the warm-up run of the "
                       "same inputs")
        if raw["mode"] == "traced" and c["traced_digest"] != c["digest"]:
            why.append(f"traced digest {c['traced_digest']} != untraced "
                       f"{c['digest']}")
        if why:
            failures.append(
                f"{raw['workload']} round {c['round']} index {c['index']} "
                f"({c['bench']} on {c['pds']}, input seed {c['seed']}): "
                + "; ".join(why))
    return failures


def setup_sum(cs, key):
    """Sum over electrical configurations (one per PDS kind in every
    workload) of the median set-up probe."""
    per_kind = {}
    for c in cs:
        per_kind.setdefault(c["pds"], []).append(c[key])
    return sum(statistics.median(v) for v in per_kind.values())


def e2e_metrics(raw, rss_mb):
    """@return {name: (value, sample count)}."""
    cs = raw["cosims"]
    n = len(cs)
    run_ms = [c["run_ns"] / 1e6 for c in cs]
    rounds = raw["rounds"]
    per_round = {}
    for c in cs:
        cycles, ns = per_round.get(c["round"], (0, 0))
        per_round[c["round"]] = (cycles + c["cycles"], ns + c["run_ns"])
    return {
        "cycles_per_s": (statistics.median(cycles / ns * 1e9 for cycles, ns
                                           in per_round.values()),
                         len(rounds)),
        "wall_s": (statistics.median(r["wall_ns"] for r in rounds) / 1e9,
                   len(rounds)),
        "setup_s": (setup_sum(cs, "setup_ns") / 1e9, n),
        "run_ms_p50": (statistics.median(run_ms), n),
        "run_ms_p75": (percentile(run_ms, 0.75), n),
        "peak_rss_mb": (rss_mb, 1),
    }


def layer_metrics(raw):
    """@return {name: (value, sample count)}."""
    cs = raw["cosims"]
    n = len(cs)
    cycles = sum(c["cycles"] for c in cs)
    stage_ns = {s: sum(c["stage_ns"][s] for c in cs) for s in STAGES}
    stage_sum = sum(stage_ns.values())
    m = {}
    for s in STAGES:
        m[f"{s}.ns_per_cycle"] = stage_ns[s] / cycles
        m[f"{s}.share"] = stage_ns[s] / stage_sum
    decisions = sum(c["ctl_decisions"] for c in cs)
    mem = sum(c["mem_accesses"] for c in cs)
    m.update({
        "gpu.cycles": cycles / n,
        "gpu.instructions": sum(c["instructions"] for c in cs) / n,
        "gpu.throttled_frac": sum(c["throttled_cycles"] for c in cs) /
        (cycles * NUM_SMS),
        "gpu.l1_hit_ratio": sum(c["l1_hits"] for c in cs) / mem
        if mem else 0.0,
        "gpu.dram_accesses": sum(c["dram_accesses"] for c in cs) / n,
        "circuit.refactorizations":
            sum(c["refactorizations"] for c in cs) / n,
        "control.trigger_frac": sum(c["ctl_triggered"] for c in cs) /
        decisions if decisions else 0.0,
        "control.engagements": sum(c["ctl_engagements"] for c in cs) / n,
        "hv.gate_requests": sum(c["hv_gate_requests"] for c in cs) / n,
        "hv.gating_denials": sum(c["hv_gating_denials"] for c in cs) / n,
        "hv.veto_skips": sum(c["hv_veto_skips"] for c in cs) / n,
        "setup.pds_build_ms": setup_sum(cs, "setup_build_ns") / 1e6,
        "setup.run_init_ms": statistics.median(c["init_ns"] for c in cs)
        / 1e6,
        "exec.busy_frac": sum(r["busy_ns"] for r in raw["rounds"]) /
        sum(r["wall_ns"] * raw["threads"] for r in raw["rounds"]),
        "exec.tail_ms": statistics.median(r["tail_ns"]
                                          for r in raw["rounds"]) / 1e6,
        "exec.setups_built": raw["exec"]["setups_built"],
        "exec.setup_hits": raw["exec"]["setup_hits"],
        "trace.coverage": stage_sum / sum(c["loop_ns"] for c in cs),
        "trace.loop_ratio": sum(c["traced_ns"] for c in cs) /
        sum(c["run_ns"] for c in cs),
    })
    prof = raw["profile_ns"]
    prof_sum = sum(prof.values())
    m["profile.share_gap_pts"] = 100.0 * max(
        abs(prof[p] / prof_sum - sum(m[f"{s}.share"] for s in parts))
        for p, parts in PROFILE_STAGES.items())
    counts = {"exec.busy_frac": len(raw["rounds"]),
              "exec.tail_ms": len(raw["rounds"]),
              "exec.setups_built": 1, "exec.setup_hits": 1}
    return {k: (v, counts.get(k, n)) for k, v in m.items()}


def measure(binary, workload, seed, seconds, traced, tiny=False,
            reference=None):
    """Run and check one workload; @return its result record."""
    code, out, rss_mb = run_binary(binary, workload, seed, seconds,
                                   traced, tiny)
    if code != 0:
        return {"workload": workload, "seed": seed, "trace": int(traced),
                "correct": False, "attempted": 1, "failed": 1,
                "failures": [f"{workload}: vsgpu_bench exited with {code}"],
                "metrics": {}, "units": {}, "samples": {}}
    raw = json.loads(out)
    failures = check(raw, seed, reference)
    measured = layer_metrics(raw) if traced else e2e_metrics(raw, rss_mb)
    units = LAYER_UNITS if traced else E2E_UNITS
    return {"workload": workload, "seed": seed, "trace": int(traced),
            "correct": not failures, "attempted": len(raw["cosims"]),
            "failed": len(failures), "failures": failures,
            "rounds": len(raw["rounds"]),
            "metrics": {k: v for k, (v, _) in measured.items()},
            "samples": {k: n for k, (_, n) in measured.items()},
            "units": {k: units[k] for k in measured}, "raw": raw}


def report(res):
    print(f"workload {res['workload']}  seed {res['seed']}  "
          f"trace {res['trace']}  co-simulations {res['attempted']}  "
          f"rounds {res.get('rounds', 0)}")
    for name, value in res["metrics"].items():
        print(f"  {name:<28} {value:>16.6g} {res['units'][name]:<9}"
              f" (n={res['samples'][name]})")
    print(f"  {'failed_frac':<28} {res['failed'] / res['attempted']:>16.6g}"
          f" {'ratio':<9} (n={res['attempted']})")
    for line in res["failures"]:
        print("  FAIL " + line)


def contract_line(results):
    """The last stdout line: one result, or all workloads' merged."""
    if len(results) == 1:
        res = results[0]
        metrics = {k: {"value": v, "unit": res["units"][k]}
                   for k, v in res["metrics"].items()}
    else:
        metrics = {f"{r['workload']}/{k}": {"value": v,
                                            "unit": r["units"][k]}
                   for r in results for k, v in r["metrics"].items()}
    return json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics})


def write_results(path, results):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as f:
        json.dump([{k: v for k, v in r.items() if k != "raw"}
                   for r in results], f, indent=1)
        f.write("\n")


def run_seconds_default():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)["run_seconds"]
    except (OSError, ValueError, KeyError):
        return 20


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def cmd_run(argv):
    ap = argparse.ArgumentParser(prog="run_bench.py")
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--traced", action="store_true",
                    help="same as --trace 1")
    ap.add_argument("--build", default=DEFAULT_BUILD)
    ap.add_argument("--results", default=None)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    traced = bool(args.trace) or args.traced
    seconds = args.seconds if args.seconds is not None \
        else run_seconds_default()
    build_dir = os.path.abspath(args.build)
    binary = build(build_dir)
    reference = load_reference()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = []
    for w in workloads:
        res = measure(binary, w, args.seed, seconds, traced,
                      reference=reference)
        report(res)
        results.append(res)
    results_path = args.results or os.path.join(
        build_dir, "results",
        f"{args.workload}-s{args.seed}-t{int(traced)}.json")
    write_results(results_path, results)
    log(f"results written to {results_path}")
    print(contract_line(results))
    return 0 if all(r["correct"] for r in results) else 1


def bounds_of():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def verdict(base, head, better, bound):
    """Paired-comparison verdict: "improved" needs at least ten pairs,
    nine tenths of them won, and a median gain beyond the base's
    inter-quartile range; a spread wider than the bound leaves the
    metric "unresolved" unless every head run beats every base run."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    med_b, med_h = statistics.median(base), statistics.median(head)
    q_b = statistics.quantiles(base, n=4)
    iqr_b = q_b[2] - q_b[0]
    q_h = statistics.quantiles(head, n=4)
    spread = max(iqr_b / abs(med_b), (q_h[2] - q_h[0]) / abs(med_h))
    worse_by = -sign * (med_h - med_b) / abs(med_b)
    all_better = (min(head) > max(base)) if sign > 0 else \
        (max(head) < min(base))
    if len(base) >= 10 and wins >= math.ceil(0.9 * len(base)) and \
            sign * (med_h - med_b) > 0 and abs(med_h - med_b) > iqr_b:
        v = "improved"
    elif spread > bound and not all_better:
        v = "unresolved"
    elif worse_by > bound:
        v = "worse"
    else:
        v = "no-worse"
    return v, wins, (med_b, q_b), (med_h, q_h)


def cmd_compare(argv):
    ap = argparse.ArgumentParser(prog="run_bench.py compare")
    ap.add_argument("--base", required=True, help="base build directory")
    ap.add_argument("--head", required=True, help="head build directory")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--workload", nargs="+", default=WORKLOADS,
                    choices=WORKLOADS)
    ap.add_argument("--results", default=None)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be >= 2")
    seconds = args.seconds if args.seconds is not None \
        else run_seconds_default()
    binaries = {side: os.path.join(os.path.abspath(d), "vsgpu_bench")
               for side, d in (("base", args.base), ("head", args.head))}
    for side, d in binaries.items():
        if not os.access(d, os.X_OK):
            raise BenchError(f"no vsgpu_bench in the {side} build {d}")
    bounds = bounds_of()
    samples = {(w, side): [] for w in args.workload
               for side in ("base", "head")}
    ok = True
    for p in range(args.pairs):
        order = ("base", "head") if p % 2 == 0 else ("head", "base")
        for w in args.workload:
            for side in order:
                res = measure(binaries[side], w, args.seed, seconds, False)
                ok = ok and res["correct"]
                for line in res["failures"]:
                    print(f"  FAIL [{side} pair {p}] {line}")
                samples[(w, side)].append(res["metrics"])
                log(f"pair {p} {w} {side}: "
                    f"{res['metrics'].get('cycles_per_s', 0):.0f} cycles/s")
    rows = []
    print(f"{'workload':<14} {'metric':<13} {'base median [q1,q3]':<34}"
          f" {'head median [q1,q3]':<34} {'wins':<6} verdict")
    for w in args.workload:
        for name, (better, bound) in bounds.items():
            base = [m[name] for m in samples[(w, "base")] if name in m]
            head = [m[name] for m in samples[(w, "head")] if name in m]
            if len(base) < 2 or len(head) != len(base):
                continue
            v, wins, (mb, qb), (mh, qh) = verdict(base, head, better, bound)
            cells = [f"{med:.6g} [{q[0]:.4g},{q[2]:.4g}]"
                     for med, q in ((mb, qb), (mh, qh))]
            print(f"{w:<14} {name:<13} {cells[0]:<34} {cells[1]:<34}"
                  f" {f'{wins}/{len(base)}':<6} {v}")
            rows.append({"workload": w, "metric": name, "verdict": v,
                         "wins": wins, "pairs": len(base),
                         "base": {"median": mb, "q1": qb[0], "q3": qb[2]},
                         "head": {"median": mh, "q1": qh[0], "q3": qh[2]}})
    if args.results:
        write_results(args.results, [{"compare": rows}])
    return 0 if ok else 1


def cmd_smoke(argv):
    ap = argparse.ArgumentParser(prog="run_bench.py smoke")
    ap.add_argument("--binary", default=None)
    ap.add_argument("--build", default=DEFAULT_BUILD)
    args = ap.parse_args(argv)
    binary = args.binary or build(os.path.abspath(args.build))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for traced in (False, True):
        declared = spec["per_layer" if traced else "end_to_end"]
        for w in WORKLOADS:
            res = measure(binary, w, 0, 0, traced, tiny=True)
            report(res)
            problems += res["failures"]
            line = json.loads(contract_line([res]))
            if sorted(line) != ["attempted", "correct", "failed",
                                "metrics"]:
                problems.append(f"{w}: result keys {sorted(line)}")
            if res["attempted"] != 2:
                problems.append(f"{w}: {res['attempted']} co-simulations, "
                                "expected 2")
            for m in declared:
                got = line["metrics"].get(m["name"])
                if got is None:
                    problems.append(f"{w}: metric {m['name']} missing")
                elif got["unit"] != m["unit"]:
                    problems.append(f"{w}: {m['name']} unit {got['unit']}"
                                    f" != {m['unit']}")
                elif not math.isfinite(got["value"]):
                    problems.append(f"{w}: {m['name']} = {got['value']}")
    for p in problems:
        print("SMOKE FAIL " + p)
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 0 if not problems else 1


def cmd_record(argv):
    ap = argparse.ArgumentParser(prog="run_bench.py record")
    ap.add_argument("--build", default=DEFAULT_BUILD)
    args = ap.parse_args(argv)
    binary = build(os.path.abspath(args.build))
    digests = {}
    for w in WORKLOADS:
        res = measure(binary, w, 0, 0, False)
        if res["failures"]:
            raise BenchError(f"{w}: run failed: {res['failures']}")
        digests[w] = [c["digest"] for c in res["raw"]["cosims"]
                      if c["round"] == 0]
    with open(REFERENCE, "w") as f:
        json.dump({"size": "full", "seed": 0, "digests": digests}, f,
                  indent=1)
        f.write("\n")
    log(f"wrote {REFERENCE}")
    return 0


def cmd_build(argv):
    ap = argparse.ArgumentParser(prog="run_bench.py build")
    ap.add_argument("--build", default=DEFAULT_BUILD)
    args = ap.parse_args(argv)
    print(build(os.path.abspath(args.build)))
    return 0


def main(argv):
    commands = {"compare": cmd_compare, "smoke": cmd_smoke,
                "record": cmd_record, "build": cmd_build}
    try:
        if argv and argv[0] in commands:
            return commands[argv[0]](argv[1:])
        return cmd_run(argv)
    except BenchError as e:
        log(f"run_bench.py: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
