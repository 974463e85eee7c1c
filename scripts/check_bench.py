#!/usr/bin/env python3
"""Compare fresh bench results against a recorded trajectory and
fail on regressions.

Usage (solver benches, BENCH_circuit.json):
  check_bench.py --trajectory BENCH_circuit.json
                 --microbench GBENCH.json
                 [--tolerance 0.10] [--record --note "..."]

Usage (observability overhead, BENCH_obs.json):
  check_bench.py --trajectory BENCH_obs.json --obs OBS.json
                 [--record --note "..."]

Usage (paired co-simulation compare, BENCH_cosim.json):
  check_bench.py --trajectory BENCH_cosim.json --cosim CMP.json
                 [--record --note "..."]

The cosim gate reads what `bench/perf/run_bench.py compare --results
CMP.json` writes: one row per (workload, end-to-end metric) with its
paired verdict ("improved", "no-worse", "unresolved" or "worse"; see
run_bench.py's verdict()) and the base and head median and quartiles.
It fails when any row is "worse" or when the file holds no rows, and
prints every row with its head/base ratio of medians.  Both sides of
a compare run on the same host in alternating pairs, so a verdict is a
ratio against the entry's own base, never a raw rate that drifts
between hosts and over time.  --record appends the rows as one
trajectory entry (entries reconstructed from older change notes carry
"backfilled": true and leave unrecorded quartiles null).

The obs gate reads the JSON written by `scripts/bench_obs.py` and
enforces the trajectory's hard "overhead_budget": the fully-armed
observability path (time-series sampling + stage profiler) may not
slow the co-simulation loop by more than that fraction.  The
disabled-path costs (ns per ProfileScope / trace point with the
global gates off) are recorded as machine-local trend context, with
a generous "disabled_ns_ceiling" sanity bound so an accidentally
heavyweight disabled path still fails somewhere.

Wall-clock times are not comparable across machines, so the gate
works on *ratios* (dense time / sparse time for the same kernel on
the same machine), which are stable: a >tolerance drop in any
recorded speedup ratio fails the check, as does violating a hard
floor from the trajectory's "floors" table (e.g. the fig09
worst-transient circuit engine must stay >= 5x).

Input (stdlib only, no third-party deps): the google-benchmark JSON
written by `perf_microbench --benchmark_out=PATH
--benchmark_out_format=json`.  fig09_circuit_speedup is the ratio of
BM_Fig09ReplayDense to BM_Fig09ReplaySparse: paper Fig. 9's
worst-case imbalance (layer 0 halted half way through 16,800 steps)
replayed through the circuit engine alone on the cross-layer 0.2x
netlist.

--record appends the fresh numbers as a new trajectory entry instead
of gating, so the trajectory file is grown by the same tool that
checks it.
"""

import argparse
import datetime
import json
import sys

# microbench ratio name -> (numerator bench, denominator bench)
KERNEL_RATIOS = {
    "solve_speedup": ("BM_SolverSolveDense", "BM_SolverSolveSparse"),
    "step_speedup": ("BM_TransientStepDense", "BM_TransientStep"),
    "refactor_speedup": ("BM_SolverRefactorDense",
                         "BM_SolverRefactorSparse"),
    "fig09_circuit_speedup": ("BM_Fig09ReplayDense",
                              "BM_Fig09ReplaySparse"),
}
# raw kernel times recorded (ns) for human trend-reading only
KERNEL_TIMES = (
    "BM_SolverStamp", "BM_SolverSymbolic", "BM_SolverRefactorSparse",
    "BM_SolverRefactorDense", "BM_SolverSolveSparse",
    "BM_SolverSolveDense", "BM_TransientStep", "BM_TransientStepDense",
)


def fail(msg: str) -> None:
    print(f"check_bench: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        fail(f"{path}: {err}")
    raise AssertionError("unreachable")


def bench_times(doc: dict, path: str) -> dict:
    times = {}
    for bench in doc.get("benchmarks", []):
        name = bench.get("name", "")
        # Skip aggregate rows (mean/median/stddev repetitions).
        if bench.get("run_type") == "aggregate":
            continue
        times[name] = float(bench["cpu_time"])
    if not times:
        fail(f"{path}: no benchmark entries")
    return times


def fresh_metrics(path: str) -> dict:
    """Collect {metric: value} from a microbench JSON file."""
    times = bench_times(load_json(path), path)
    fresh = {}
    for ratio, (num, den) in KERNEL_RATIOS.items():
        if num not in times or den not in times:
            fail(f"{path}: missing {num} or {den}")
        fresh[ratio] = times[num] / times[den]
    fresh["kernels_ns"] = {
        name: round(times[name], 1)
        for name in KERNEL_TIMES if name in times
    }
    return fresh


def gate(trajectory: dict, fresh: dict, tolerance: float) -> None:
    entries = trajectory.get("entries", [])
    if not entries:
        fail("trajectory has no entries to compare against")
    ref_ratios = entries[-1].get("kernel_ratios", {})

    checked = 0
    for name, want in sorted(ref_ratios.items()):
        if name not in fresh:
            continue
        got = fresh[name]
        limit = want * (1.0 - tolerance)
        status = "ok" if got >= limit else "REGRESSION"
        print(f"check_bench: {name}: recorded {want:.2f}x, "
              f"fresh {got:.2f}x (limit {limit:.2f}x) {status}")
        if got < limit:
            fail(f"{name} regressed: {got:.2f}x < "
                 f"{limit:.2f}x ({want:.2f}x - {tolerance:.0%})")
        checked += 1
    if checked == 0:
        fail("no fresh metrics overlap the recorded trajectory")

    for name, floor in trajectory.get("floors", {}).items():
        if name not in fresh:
            continue
        got = fresh[name]
        print(f"check_bench: {name}: floor {floor:.2f}x, "
              f"fresh {got:.2f}x "
              f"{'ok' if got >= floor else 'BELOW FLOOR'}")
        if got < floor:
            fail(f"{name} = {got:.2f}x violates the hard floor "
                 f"{floor:.2f}x")
    print("check_bench: OK")


def record(trajectory: dict, fresh: dict, path: str,
           note: str) -> None:
    entry = {
        "date": datetime.date.today().isoformat(),
        "note": note,
    }
    ratios = {k: round(v, 3) for k, v in fresh.items()
              if k in KERNEL_RATIOS}
    if ratios:
        entry["kernel_ratios"] = ratios
    if "kernels_ns" in fresh:
        entry["kernels_ns"] = fresh["kernels_ns"]
    trajectory.setdefault("entries", []).append(entry)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trajectory, fh, indent=2)
        fh.write("\n")
    print(f"check_bench: recorded entry {entry['date']} to {path}")


def obs_fresh(path: str) -> dict:
    """Validate and summarize a `bench_obs.py` JSON file."""
    doc = load_json(path)
    if doc.get("schema") != "vsgpu-bench-obs-v1":
        fail(f"{path}: schema is not vsgpu-bench-obs-v1")
    for key in ("baseline_sec", "observed_sec", "overhead_frac"):
        if key not in doc:
            fail(f"{path}: missing '{key}'")
    if float(doc["baseline_sec"]) <= 0.0:
        fail(f"{path}: non-positive baseline_sec")
    return doc


def obs_gate(trajectory: dict, fresh: dict) -> None:
    budget = float(trajectory.get("overhead_budget", 0.02))
    overhead = float(fresh["overhead_frac"])
    print(f"check_bench: obs overhead {overhead:+.2%} "
          f"(baseline {fresh['baseline_sec']:.3f}s, observed "
          f"{fresh['observed_sec']:.3f}s, budget {budget:.0%})")
    if overhead > budget:
        fail(f"observability overhead {overhead:+.2%} exceeds the "
             f"hard budget {budget:.0%}")
    ceiling = float(trajectory.get("disabled_ns_ceiling", 50.0))
    for key in ("profile_scope_disabled_ns",
                "trace_scope_disabled_ns"):
        if key not in fresh:
            continue
        got = float(fresh[key])
        status = "ok" if got <= ceiling else "ABOVE CEILING"
        print(f"check_bench: {key}: {got:.2f} ns "
              f"(ceiling {ceiling:.0f} ns) {status}")
        if got > ceiling:
            fail(f"{key} = {got:.2f} ns violates the disabled-path "
                 f"ceiling {ceiling:.0f} ns")
    print("check_bench: OK")


def obs_record(trajectory: dict, fresh: dict, path: str,
               note: str) -> None:
    entry = {
        "date": datetime.date.today().isoformat(),
        "note": note,
    }
    for key in ("benchmark", "instrs", "cycles", "sample_every_sec",
                "baseline_sec", "observed_sec", "overhead_frac",
                "profile_scope_disabled_ns",
                "trace_scope_disabled_ns"):
        if key in fresh:
            entry[key] = fresh[key]
    trajectory.setdefault("entries", []).append(entry)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trajectory, fh, indent=2)
        fh.write("\n")
    print(f"check_bench: recorded entry {entry['date']} to {path}")


def cosim_fresh(path: str) -> list:
    """Collect the rows of a `run_bench.py compare --results` file."""
    doc = load_json(path)
    rows = []
    for entry in doc if isinstance(doc, list) else [doc]:
        rows.extend(entry.get("compare", []))
    if not rows:
        fail(f"{path} holds no comparison rows")
    for r in rows:
        for key in ("workload", "metric", "verdict", "wins", "pairs",
                    "base", "head"):
            if key not in r:
                fail(f"{path}: a row lacks '{key}'")
    return rows


def cosim_gate(trajectory: dict, rows: list) -> None:
    if not isinstance(trajectory.get("entries"), list):
        fail("trajectory has no entries list")
    worse = 0
    for r in rows:
        mb, mh = r["base"]["median"], r["head"]["median"]
        ratio = mh / mb if mb else float("nan")
        status = "WORSE" if r["verdict"] == "worse" else r["verdict"]
        print(f"check_bench: {r['workload']:<14} {r['metric']:<13} "
              f"base {mb:.6g} head {mh:.6g} (x{ratio:.3f}) "
              f"wins {r['wins']}/{r['pairs']} {status}")
        worse += r["verdict"] == "worse"
    if worse:
        fail(f"{worse} metric(s) worse than the base")
    print(f"check_bench: OK, none of {len(rows)} rows is worse")


def cosim_record(trajectory: dict, rows: list, path: str,
                 note: str) -> None:
    entry = {
        "date": datetime.date.today().isoformat(),
        "note": note,
        "rows": [
            {"workload": r["workload"], "metric": r["metric"],
             "verdict": r["verdict"], "wins": r["wins"],
             "pairs": r["pairs"],
             "base": {k: r["base"][k] for k in ("median", "q1", "q3")},
             "head": {k: r["head"][k] for k in ("median", "q1", "q3")}}
            for r in rows
        ],
    }
    trajectory.setdefault("entries", []).append(entry)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trajectory, fh, indent=2)
        fh.write("\n")
    print(f"check_bench: recorded entry {entry['date']} "
          f"({len(rows)} rows) to {path}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trajectory", required=True)
    parser.add_argument("--microbench")
    parser.add_argument("--obs",
                        help="bench_obs.py JSON to gate against a "
                             "BENCH_obs.json trajectory")
    parser.add_argument("--cosim",
                        help="run_bench.py compare --results JSON to "
                             "gate or record into BENCH_cosim.json")
    parser.add_argument("--tolerance", type=float, default=0.10)
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--note", default="")
    args = parser.parse_args()

    trajectory = load_json(args.trajectory)
    if args.cosim:
        rows = cosim_fresh(args.cosim)
        if args.record:
            cosim_record(trajectory, rows, args.trajectory, args.note)
        else:
            cosim_gate(trajectory, rows)
        return
    if args.obs:
        fresh = obs_fresh(args.obs)
        if args.record:
            obs_record(trajectory, fresh, args.trajectory, args.note)
        else:
            obs_gate(trajectory, fresh)
        return
    if not args.microbench:
        fail("pass --microbench, --obs or --cosim")
    fresh = fresh_metrics(args.microbench)
    if args.record:
        record(trajectory, fresh, args.trajectory, args.note)
    else:
        gate(trajectory, fresh, args.tolerance)


if __name__ == "__main__":
    main()
