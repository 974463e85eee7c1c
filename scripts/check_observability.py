#!/usr/bin/env python3
"""Validate the observability outputs of one simulator run.

Usage: check_observability.py [--stats STATS.json]
                              [--trace TRACE.json]
                              [--summary SUMMARY.json]
                              [--timeseries SERIES.json]
                              [--profile-required]
                              [--flight FLIGHT.json]

At least one input is required.  --summary and --profile-required
need --stats (they validate against the stats dump's manifest and
embedded profile section); the other inputs stand alone, so a CI
crash fixture can validate just its --flight dump.

Checks (stdlib only, no third-party deps):
  stats   parses as JSON; carries a manifest with a tool, a 16-hex
          config fingerprint, and a seed; has counters from each of
          the gpu / sim / control / hypervisor / exec layers; every
          entry carries name/kind/unit/desc; no unknown top-level
          keys.
  trace   parses as Chrome trace_event JSON; spans have
          non-negative durations; at least a few distinct phase
          spans and one pool span exist; every event names a known
          category; 'i' events carry the scope field.
  summary scenario summary JSON embeds the same manifest
          fingerprint as the stats dump.
  timeseries  vsgpu-timeseries-v1 document: per-run window arrays
          align with window_cycles, every channel carries all four
          aggregate arrays of the right length, "count"-unit
          channels are monotone across windows (they record
          cumulative counters), and no channel carries an unknown
          key.
  profile the stats dump embeds a vsgpu-profile-v2 section whose
          named loop stages attribute >= 95% of the sampled loop
          time (--profile-required makes its absence an error).
  flight  vsgpu-flight-v1 crash dump: run identity present, record
          cycles non-decreasing, counts consistent with capacity.

Exits non-zero with a message on the first failed check.
"""

import argparse
import json
import sys

REQUIRED_LAYERS = ("gpu.", "sim.", "circuit.", "control.",
                   "hypervisor.", "exec.")
KNOWN_KINDS = {"scalar", "counter", "formula"}
KNOWN_CATEGORIES = {"phase", "pool", "ctl", "hv"}
MIN_PHASE_SPAN_KINDS = 4

STATS_TOP_KEYS = {"manifest", "profile", "stats"}
SERIES_TOP_KEYS = {"schema", "sample_every_sec", "dt_sec",
                   "window_cycles", "runs"}
SERIES_RUN_KEYS = {"label", "time_sec", "cycles", "channels"}
SERIES_CHANNEL_KEYS = {"name", "unit", "desc", "min", "max", "mean",
                       "p99"}
PROFILE_TOP_KEYS = {"schema", "runs", "stride_cycles", "cycles",
                    "sampled_cycles", "loop_ns", "wall_ns", "stages"}
PROFILE_LOOP_STAGES = ("gpu", "power", "circuit", "control",
                       "hypervisor", "observe", "bookkeeping")
PROFILE_STAGES = ("setup", "finalize") + PROFILE_LOOP_STAGES + (
    "circuit.assemble", "circuit.solve", "circuit.refactor",
    "circuit.update")
FLIGHT_TOP_KEYS = {"schema", "subject", "config_fingerprint",
                   "capacity", "recorded", "records"}
PROFILE_MIN_LOOP_COVERAGE = 0.95


def fail(msg: str) -> None:
    print(f"check_observability: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_manifest(manifest: dict, context: str) -> str:
    for key in ("tool", "version", "build", "subject",
                "config_fingerprint", "seed", "scale"):
        if key not in manifest:
            fail(f"{context}: manifest lacks '{key}'")
    fp = manifest["config_fingerprint"]
    if len(fp) != 16 or any(c not in "0123456789abcdef" for c in fp):
        fail(f"{context}: config_fingerprint '{fp}' is not 16 hex")
    int(manifest["seed"])  # must parse
    return fp


def check_no_unknown_keys(doc: dict, known: set, context: str) -> None:
    unknown = sorted(set(doc) - known)
    if unknown:
        fail(f"{context}: unknown top-level keys {unknown}")


def check_stats(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    check_no_unknown_keys(doc, STATS_TOP_KEYS, path)
    if "manifest" not in doc:
        fail(f"{path}: no manifest block")
    fingerprint = check_manifest(doc["manifest"], path)
    stats = doc.get("stats")
    if not isinstance(stats, list) or not stats:
        fail(f"{path}: empty or missing stats array")
    names = set()
    for entry in stats:
        for key in ("name", "kind", "unit", "desc"):
            if key not in entry:
                fail(f"{path}: stat entry lacks '{key}': {entry}")
        if entry["kind"] not in KNOWN_KINDS:
            fail(f"{path}: unknown stat kind '{entry['kind']}'")
        if entry["name"] in names:
            fail(f"{path}: duplicate stat '{entry['name']}'")
        names.add(entry["name"])
    for layer in REQUIRED_LAYERS:
        if not any(n.startswith(layer) for n in names):
            fail(f"{path}: no stats under the '{layer}' hierarchy")
    if sorted(names) != [e["name"] for e in stats]:
        fail(f"{path}: stats are not sorted by name")
    print(f"check_observability: {path}: {len(stats)} stats, "
          f"fingerprint {fingerprint}")
    return fingerprint


def check_trace(path: str) -> None:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: empty or missing traceEvents")
    phase_span_names = set()
    pool_spans = 0
    for event in events:
        if event.get("ph") not in ("X", "i"):
            fail(f"{path}: unexpected event phase: {event}")
        if event.get("cat") not in KNOWN_CATEGORIES:
            fail(f"{path}: unknown category: {event}")
        if event.get("pid") != 1 or "tid" not in event:
            fail(f"{path}: event lacks pid/tid: {event}")
        if event["ph"] == "X":
            if event.get("dur", -1.0) < 0.0 or event.get("ts", -1.0) < 0.0:
                fail(f"{path}: span with negative ts/dur: {event}")
            if event["cat"] == "phase":
                phase_span_names.add(event["name"])
            if event["name"] == "pool.task":
                pool_spans += 1
        else:
            if event.get("s") != "t":
                fail(f"{path}: instant without thread scope: {event}")
    if len(phase_span_names) < MIN_PHASE_SPAN_KINDS:
        fail(f"{path}: only {sorted(phase_span_names)} phase spans; "
             f"want >= {MIN_PHASE_SPAN_KINDS} distinct")
    if pool_spans == 0:
        fail(f"{path}: no pool.task spans")
    print(f"check_observability: {path}: {len(events)} events, "
          f"{len(phase_span_names)} phase span kinds, "
          f"{pool_spans} pool spans")


def check_summary(path: str, stats_fingerprint: str) -> None:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if "manifest" not in doc:
        fail(f"{path}: summary has no manifest block")
    fingerprint = check_manifest(doc["manifest"], path)
    if fingerprint != stats_fingerprint:
        fail(f"{path}: summary fingerprint {fingerprint} != stats "
             f"fingerprint {stats_fingerprint}")
    print(f"check_observability: {path}: manifest matches stats dump")


def check_channel(ch: dict, windows: int, context: str) -> None:
    unknown = sorted(set(ch) - SERIES_CHANNEL_KEYS)
    if unknown:
        fail(f"{context}: unknown channel keys {unknown}")
    for key in ("name", "unit", "desc"):
        if not isinstance(ch.get(key), str):
            fail(f"{context}: channel lacks string '{key}': {ch}")
    name = ch["name"]
    for agg in ("min", "max", "mean", "p99"):
        values = ch.get(agg)
        if not isinstance(values, list) or len(values) != windows:
            fail(f"{context}: channel '{name}' aggregate '{agg}' "
                 f"is not a {windows}-window array")
        for v in values:
            if not isinstance(v, (int, float)):
                fail(f"{context}: channel '{name}' has a non-number "
                     f"in '{agg}'")
    for i in range(windows):
        # Relative slack: the mean is a rounded sum/count and may
        # land a few ulps outside [min, max].
        eps = 1e-9 * max(abs(ch["min"][i]), abs(ch["max"][i]), 1.0)
        if not (ch["min"][i] - eps <= ch["mean"][i]
                <= ch["max"][i] + eps):
            fail(f"{context}: channel '{name}' window {i} violates "
                 f"min <= mean <= max")
    if ch["unit"] == "count":
        # Count channels record cumulative counters: the window
        # maxima must be non-decreasing, and no window may dip below
        # the previous window's maximum.
        for i in range(1, windows):
            if ch["max"][i] < ch["max"][i - 1]:
                fail(f"{context}: count channel '{name}' max "
                     f"decreases at window {i}")
            if ch["min"][i] < ch["max"][i - 1]:
                fail(f"{context}: count channel '{name}' window {i} "
                     f"dips below the previous window's max")


def check_timeseries(path: str) -> None:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    check_no_unknown_keys(doc, SERIES_TOP_KEYS, path)
    if doc.get("schema") != "vsgpu-timeseries-v1":
        fail(f"{path}: schema is not vsgpu-timeseries-v1")
    window_cycles = doc.get("window_cycles")
    if not isinstance(window_cycles, int) or window_cycles < 1:
        fail(f"{path}: bad window_cycles {window_cycles!r}")
    runs = doc.get("runs")
    if not isinstance(runs, list) or not runs:
        fail(f"{path}: empty or missing runs array")
    labels = [run.get("label") for run in runs]
    if labels != sorted(labels):
        fail(f"{path}: runs are not sorted by label")
    if len(set(labels)) != len(labels):
        fail(f"{path}: duplicate run labels")
    total_channels = 0
    for run in runs:
        context = f"{path}: run '{run.get('label')}'"
        check_no_unknown_keys(run, SERIES_RUN_KEYS, context)
        cycles = run.get("cycles")
        times = run.get("time_sec")
        if not isinstance(cycles, list) or not cycles:
            fail(f"{context}: empty cycles array")
        if len(times) != len(cycles):
            fail(f"{context}: time_sec/cycles length mismatch")
        # Window alignment: every window but the (possibly partial)
        # last one closes exactly window_cycles after its
        # predecessor.
        for i, c in enumerate(cycles):
            expected = (i + 1) * window_cycles
            if i + 1 < len(cycles) and c != expected:
                fail(f"{context}: window {i} closes at cycle {c}, "
                     f"expected {expected}")
        if cycles[-1] > len(cycles) * window_cycles:
            fail(f"{context}: final window overruns the cadence")
        channels = run.get("channels")
        if not isinstance(channels, list) or not channels:
            fail(f"{context}: no channels")
        for ch in channels:
            check_channel(ch, len(cycles), context)
        total_channels += len(channels)
    print(f"check_observability: {path}: {len(runs)} runs, "
          f"{total_channels} channels, window {window_cycles} cycles")


def check_profile(doc: dict, path: str, required: bool) -> None:
    profile = doc.get("profile")
    if profile is None:
        if required:
            fail(f"{path}: no profile section (--profile-required)")
        return
    check_no_unknown_keys(profile, PROFILE_TOP_KEYS, path)
    if profile.get("schema") != "vsgpu-profile-v2":
        fail(f"{path}: profile schema is not vsgpu-profile-v2")
    for key in ("runs", "cycles", "sampled_cycles", "loop_ns"):
        if not isinstance(profile.get(key), int) or profile[key] <= 0:
            fail(f"{path}: profile '{key}' is not a positive int")
    stages = profile.get("stages")
    names = [s.get("name") for s in stages]
    if names != list(PROFILE_STAGES):
        fail(f"{path}: profile stages {names} != expected "
             f"{list(PROFILE_STAGES)}")
    for stage in stages:
        hist = stage.get("hist")
        if not isinstance(hist, list) or len(hist) != 24:
            fail(f"{path}: stage '{stage['name']}' hist is not "
                 f"24 buckets")
        if sum(hist) != stage.get("samples"):
            fail(f"{path}: stage '{stage['name']}' hist does not "
                 f"sum to its sample count")
    by_name = {s["name"]: s for s in stages}
    loop_ns = sum(by_name[n]["ns"] for n in PROFILE_LOOP_STAGES)
    coverage = loop_ns / profile["loop_ns"]
    if coverage < PROFILE_MIN_LOOP_COVERAGE:
        fail(f"{path}: profile loop stages cover only "
             f"{coverage:.1%} of sampled loop time "
             f"(floor {PROFILE_MIN_LOOP_COVERAGE:.0%})")
    print(f"check_observability: {path}: profile covers "
          f"{coverage:.1%} of loop time over "
          f"{profile['sampled_cycles']} sampled cycles")


def check_flight(path: str) -> None:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    check_no_unknown_keys(doc, FLIGHT_TOP_KEYS, path)
    if doc.get("schema") != "vsgpu-flight-v1":
        fail(f"{path}: schema is not vsgpu-flight-v1")
    fp = doc.get("config_fingerprint", "")
    if len(fp) != 16 or any(c not in "0123456789abcdef" for c in fp):
        fail(f"{path}: config_fingerprint '{fp}' is not 16 hex")
    if not doc.get("subject"):
        fail(f"{path}: empty subject")
    records = doc.get("records")
    if not isinstance(records, list) or not records:
        fail(f"{path}: empty records array")
    if len(records) > doc.get("capacity", 0):
        fail(f"{path}: more records than capacity")
    if doc.get("recorded", 0) < len(records):
        fail(f"{path}: recorded count below held records")
    last_cycle = -1
    for rec in records:
        if not rec.get("tag"):
            fail(f"{path}: record without tag: {rec}")
        if rec.get("cycle", -1) < last_cycle:
            fail(f"{path}: record cycles go backwards at {rec}")
        last_cycle = rec["cycle"]
    print(f"check_observability: {path}: {len(records)} records, "
          f"subject '{doc['subject']}'")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--stats")
    parser.add_argument("--trace")
    parser.add_argument("--summary")
    parser.add_argument("--timeseries")
    parser.add_argument("--profile-required", action="store_true")
    parser.add_argument("--flight")
    args = parser.parse_args()

    if not (args.stats or args.timeseries or args.flight
            or args.trace):
        parser.error("pass at least one of --stats, --trace, "
                     "--timeseries, --flight")
    if args.summary and not args.stats:
        parser.error("--summary needs --stats (the manifests are "
                     "cross-checked)")
    if args.profile_required and not args.stats:
        parser.error("--profile-required needs --stats (the profile "
                     "section lives in the stats dump)")

    if args.stats:
        fingerprint = check_stats(args.stats)
        with open(args.stats, encoding="utf-8") as fh:
            check_profile(json.load(fh), args.stats,
                          args.profile_required)
        if args.summary:
            check_summary(args.summary, fingerprint)
    if args.trace:
        check_trace(args.trace)
    if args.timeseries:
        check_timeseries(args.timeseries)
    if args.flight:
        check_flight(args.flight)
    print("check_observability: OK")


if __name__ == "__main__":
    main()
