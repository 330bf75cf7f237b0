#!/usr/bin/env python3
"""Gates on the pinned paper outputs and the mfwctl CLI contract.

Each function decorated with @gate is one check, and tests/CMakeLists.txt
registers each as its own ctest test: label `gate` for the deterministic
byte/sha/schema/diff/CLI checks (run by every `ctest`), label `perf` for the
host-timing floors (registered in Release trees only). Run one by hand with
the arguments `ctest -V -R <test>` prints:

    python3 tests/gates.py <check> source=<repo> mfwctl=<path> ...
"""

import collections
import hashlib
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

# sha256 of the timeline CSV of the fig6 barrier run (tools/baselines/
# fig6.yaml). Every path through the simulator must reproduce it: plain,
# watched (bus + monitor) and flight-recorded.
FIG6_SHA = "6a0ee1a4f8f0ff2f84bb1d51a74d2f6869d3cf26fbf820d86669eea18881ac62"

# Fig. 6-shaped slice for the report check: barrier scheduling so the
# download stage dominates the makespan as in the paper's timeline.
REPORT_YAML = """\
workflow:
  satellite: terra
  span: {year: 2022, first_day: 1, last_day: 1}
  max_files: 12
  daytime_only: true
  scheduling: barrier
download:
  workers: 3
preprocess:
  nodes: 4
  workers_per_node: 8
"""

# Starved preprocess (1 node x 4 workers) under a declared queue-wait SLO.
CHAOS_YAML = """\
workflow:
  max_files: 24
preprocess:
  nodes: 1
  workers_per_node: 4
slo:
  - name: pp-queue
    stage: preprocess
    metric: queue_wait_p99
    threshold: 5
    window: 120
"""

# sha256 of the stdout of the cross-facility surfaces (facilities, pipeline
# templates, the campaign broker), as (tool, argv...) -> digest.
FACILITY_OUTPUTS = {
    ("cross_facility",):
        "af73cc6ee3c94cc1c09b5730a78e0cd684f61e42ad1cf9b7e61ba8bfaec2e43f",
    ("mfwctl", "registry"):
        "1d634032ad9bfb4fd582b79ac788e916be5222e1064a6181d0d991e231f4fc92",
    ("mfwctl", "facilities"):
        "b9cfb9656f977c446d2aacecad8fc787377b95455aa78bc37d32fac801068d19",
    ("mfwctl", "run-template", "aicca-scaling", "--facility", "nersc"):
        "5aea2e1c6262b92eee358b86b1ca61e31c0540f4adf20fdd302033d8fdd15676",
    ("mfwctl", "plan", "--builtin", "--facility", "alcf"):
        "fbfbb41c46a7e81992636ebb7c5aeacbe0eeb487c2ef820b581f4d9dad514325",
}

GATES = {}
ARGS = {}  # source=<repo> plus <target>=<built binary>, from the command line


def gate(fn):
    GATES[fn.__name__] = fn
    return fn


class GateFailure(Exception):
    pass


def check(ok, message):
    if not ok:
        raise GateFailure(message)


def tool(name):
    return ARGS[name]


def baseline(name):
    return Path(ARGS["source"]) / "tools" / "baselines" / name


def run(*argv, want=0):
    """Runs argv; fails the gate unless it exits `want`."""
    argv = [str(a) for a in argv]
    proc = subprocess.run(argv, capture_output=True, text=True)
    check(proc.returncode == want,
          f"{' '.join(argv)} exited {proc.returncode}, want {want}\n"
          f"{proc.stdout}{proc.stderr}")
    return proc


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_fig6_sha(csv, what):
    actual = sha256(csv)
    check(actual == FIG6_SHA,
          f"{what} fig6 CSV drifted from the seed\n"
          f"  expected {FIG6_SHA}\n  actual   {actual}")
    print(f"OK: {what} fig6 run is bit-for-bit the seed ({FIG6_SHA[:12]}...)")


def report_json(config, out):
    out.write_text(run(tool("mfwctl"), "report", config, "--json",
                       "--quiet").stdout)
    return out


# -- paper-run pins -----------------------------------------------------------

@gate
def fig6_sha_run(tmp):
    run(tool("mfwctl"), "run", baseline("fig6.yaml"), "--csv", tmp / "fig6.csv")
    check_fig6_sha(tmp / "fig6.csv", "plain")


@gate
def fig6_sha_watch(tmp):
    """Watching must not perturb the run; its health stream must validate
    and a clean run must raise no alert."""
    out = run(tool("mfwctl"), "watch", baseline("fig6.yaml"), "--quiet",
              "--csv", tmp / "fig6.csv", "--health-out", tmp / "clean.json")
    check_fig6_sha(tmp / "fig6.csv", "watched")
    health = (tmp / "clean.json").read_text()
    check('"schema": "mfw.health/v1"' in health,
          f"--health-out is missing the mfw.health/v1 schema\n{health}")
    for section in ('"rules":', '"alerts":', '"stages":', '"dropped_events":'):
        check(section in health, f"--health-out is missing the {section} section")
    alerts = [line for line in out.stdout.splitlines() if line.startswith("alert ")]
    check(not alerts, f"clean run raised {len(alerts)} alert(s), expected 0\n"
          + "\n".join(alerts))
    print("OK: health stream carries mfw.health/v1; clean run raises no alert")


@gate
def fig6_sha_flight(tmp):
    """The flight recorder must not perturb the run, and its dump must be
    Chrome-trace JSON."""
    run(tool("mfwctl"), "run", baseline("fig6.yaml"), "--csv", tmp / "fig6.csv",
        "--flight-out", tmp / "flight.json", "--quiet")
    check_fig6_sha(tmp / "fig6.csv", "flight-recorded")
    doc = json.loads((tmp / "flight.json").read_text())
    events = doc["traceEvents"]
    check(events, "flight dump has no events")
    check(all(e["ph"] in ("X", "i", "M") for e in events), "bad phase")
    meta = doc["flight"]
    check(meta["reason"] == "end-of-run", meta)
    check(meta["seen"] >= meta["retained"] > 0, meta)
    print(f"OK: flight dump is Chrome-trace JSON ({len(events)} events, "
          f"{meta['retained']} retained of {meta['seen']} seen)")


@gate
def baseline_diff(tmp):
    """fig6 barrier and streaming reports diff clean against the committed
    baselines; a regression names the stage that caused it. After an
    intentional change, refresh with `mfwctl report tools/baselines/fig6.yaml
    --json --quiet > tools/baselines/fig6_barrier_report.json` (and likewise
    for fig6_streaming.yaml)."""
    for mode, config in (("barrier", "fig6.yaml"),
                         ("streaming", "fig6_streaming.yaml")):
        current = report_json(baseline(config), tmp / f"{mode}.json")
        proc = subprocess.run([tool("mfwctl"), "diff",
                               str(baseline(f"fig6_{mode}_report.json")),
                               str(current), "--gate"],
                              capture_output=True, text=True)
        print(proc.stdout, end="")
        check(proc.returncode == 0,
              f"fig6 {mode} run regressed vs its baseline (exit "
              f"{proc.returncode}; see the ranked attribution above)")
    print("OK: fig6 runs diff clean against the committed baselines")


# -- obs reports --------------------------------------------------------------

@gate
def report_schema(tmp):
    """The report's critical path tiles the makespan, and its dominant stage
    is the longest stage span (what the rendered timeline shows)."""
    (tmp / "fig6.yaml").write_text(REPORT_YAML)
    report = json.loads(report_json(tmp / "fig6.yaml",
                                    tmp / "report.json").read_text())
    check(report["schema"] == "mfw.trace_report/v1", report.get("schema"))
    check(report["processes"], "no processes analyzed")
    for proc in report["processes"]:
        name, makespan, path = (proc["process"], proc["makespan"],
                                proc["critical_path"])
        check(makespan > 0, f"{name}: empty makespan")
        check(path["length"] <= makespan * 1.001,
              f"{name}: critical path {path['length']} exceeds makespan "
              f"{makespan}")
        check(path["coverage"] >= 0.9, f"{name}: critical path covers only "
              f"{path['coverage']:.1%} of the makespan")
        stages = {s["stage"]: s for s in proc["stages"]}
        check(proc["dominant_stage"] in stages, proc["dominant_stage"])
        longest = max(stages.values(), key=lambda s: s["end"] - s["start"])
        check(proc["dominant_stage"] == longest["stage"],
              f"{name}: dominant {proc['dominant_stage']} != longest stage "
              f"span {longest['stage']}")
        by_stage = {e["stage"]: e["seconds"] for e in path["by_stage"]}
        check(path["dominant_stage"] == max(by_stage, key=by_stage.get),
              f"{name}: critical-path dominant stage disagrees with by_stage")
        print(f"OK: {name}: dominant={proc['dominant_stage']} "
              f"coverage={path['coverage']:.1%} "
              f"path_dominant={path['dominant_stage']}")


@gate
def bounded_telemetry(tmp):
    """A 2-day campaign under the bounded recorder (kStatsOnly retention +
    rollups) drops spans, caps its exemplars and rolls up every span."""
    run(tool("archive_campaign"), "--days", 2, "--quick",
        "--report-out", tmp / "rollup.json", "--out", tmp / "campaign.json")
    rollup = json.loads((tmp / "rollup.json").read_text())
    campaign = json.loads((tmp / "campaign.json").read_text())
    rec = rollup["recorder"]
    check(rec["observed_spans"] > 1000, rec)
    check(rec["dropped_spans"] > 0, "bounded mode dropped nothing")
    check(rec["retained_spans"] <= 4096, rec)  # the exemplar cap
    check(rec["retained_spans"] + rec["dropped_spans"] == rec["observed_spans"],
          rec)
    check(rollup["rollup"]["spans_seen"] == rec["observed_spans"],
          "rollup sink missed spans")
    check(rollup["rollup"]["series"], "no rollup series")
    check(campaign["obs"]["observed_spans"] == rec["observed_spans"],
          "campaign and rollup disagree on observed spans")
    print(f"OK: bounded telemetry: {rec['observed_spans']} observed, "
          f"{rec['retained_spans']} retained, {rec['dropped_spans']} dropped, "
          f"{len(rollup['rollup']['series'])} rollup series")


@gate
def trace_stages(tmp):
    """fig6_timeline --trace-out is Chrome-trace JSON in which both
    scheduling modes carry the download/preprocess/inference stage spans."""
    trace_json = tmp / "fig6_trace.json"
    run(tool("fig6_timeline"), "--max-files", 6, "--trace-out", trace_json)
    events = json.loads(trace_json.read_text())["traceEvents"]
    check(events, "trace has no events")
    process_names = {e["pid"]: e["args"]["name"] for e in events
                     if e["ph"] == "M" and e["name"] == "process_name"}
    stage_spans = collections.defaultdict(set)
    for e in events:
        if e["ph"] == "X" and e.get("cat") == "stage":
            check(e["dur"] >= 0, f"negative duration: {e}")
            stage_spans[e["pid"]].add(e["name"])
    seen = set()
    for pid, stages in stage_spans.items():
        name = process_names.get(pid, f"pid{pid}")
        missing = {"download", "preprocess", "inference"} - stages
        check(not missing, f"process {name} missing stage spans: {missing}")
        seen.add(name)
    missing = {"eoml-barrier", "eoml-streaming"} - seen
    check(not missing, f"missing traced workflow runs: {missing}")
    print(f"OK: trace has {len(events)} events, processes {sorted(seen)}")


# -- diff and lineage ---------------------------------------------------------

@gate
def diff_determinism(tmp):
    a = report_json(baseline("fig6.yaml"), tmp / "a.json")
    b = report_json(baseline("fig6.yaml"), tmp / "b.json")
    check(a.read_bytes() == b.read_bytes(),
          "two runs of the same config produced different reports")
    verdict = run(tool("mfwctl"), "diff", a, b, "--gate").stdout
    check("no regression" in verdict,
          f"identical reruns did not report 'no regression'\n{verdict}")
    print("OK: identical reruns diff clean")


@gate
def diff_attribution(tmp):
    """An injected 2x preprocess is gated (exit 3) with >= 90% of the
    makespan delta attributed to preprocess."""
    slow = tmp / "fig6_slow.yaml"
    slow.write_text(baseline("fig6.yaml").read_text() +
                    "preprocess:\n  cost_scale: 2.0\n")
    a = report_json(baseline("fig6.yaml"), tmp / "a.json")
    b = report_json(slow, tmp / "slow.json")
    run(tool("mfwctl"), "diff", a, b, "--json", "--out", tmp / "diff.json",
        "--gate", want=3)
    doc = json.loads((tmp / "diff.json").read_text())
    check(doc["schema"] == "mfw.trace_diff/v1", doc.get("schema"))
    p = doc["processes"][0]
    check(p["regression"], "regression flag not set")
    top = p["findings"][0]
    check(top["kind"] == "stage", top)
    check(top["stage"] == "preprocess", f"top finding is {top['stage']}")
    check(top["share"] >= 0.9, f"preprocess share {top['share']:.3f} < 0.9")
    print(f"OK: diff ranks preprocess top with {100 * top['share']:.1f}% of "
          f"the {p['delta_s']:+.2f}s delta")


@gate
def diff_bad_input(tmp):
    """Truncated and wrong-schema reports exit nonzero, naming the problem."""
    a = report_json(baseline("fig6.yaml"), tmp / "a.json")
    text = a.read_text()
    bad = {"truncated": (text[:200], "truncated"),
           "wrong_schema": (text.replace("mfw.trace_report/v1",
                                         "mfw.trace_report/v2"),
                            "unsupported report schema")}
    for name, (content, want) in bad.items():
        path = tmp / f"{name}.json"
        path.write_text(content)
        proc = subprocess.run([tool("mfwctl"), "diff", str(path), str(a)],
                              capture_output=True, text=True)
        check(proc.returncode != 0, f"diff accepted a {name} report")
        err = proc.stdout + proc.stderr
        check(want in err, f"{name} error message lacks '{want}': {err}")
    print("OK: truncated and wrong-schema reports exit nonzero with clear errors")


@gate
def lineage_hops(tmp):
    out = run(tool("mfwctl"), "lineage", baseline("fig6.yaml"),
              "--granule", "terra.A2022001.s0008", "--quiet").stdout
    for hop in ("download", "granule.ready", "preprocess", "inference"):
        check(hop in out, f"lineage timeline lacks a {hop} hop\n{out}")
    print("OK: lineage prints the full causal chain for a granule")


# -- declarative layer and live health ----------------------------------------

@gate
def facility_outputs(tmp):
    """The facility, template and campaign-broker outputs stay byte for
    byte what they were."""
    for (name, *argv), want in FACILITY_OUTPUTS.items():
        command = [tool(name), *argv]
        proc = subprocess.run(command, capture_output=True)
        check(proc.returncode == 0,
              f"{' '.join(command)} exited {proc.returncode}\n"
              f"{proc.stderr.decode(errors='replace')}")
        actual = hashlib.sha256(proc.stdout).hexdigest()
        check(actual == want,
              f"{' '.join(command)} stdout drifted\n"
              f"  expected {want}\n  actual   {actual}\n"
              f"{proc.stdout.decode(errors='replace')}")
        print(f"OK: {name} {' '.join(argv)} ({want[:12]}...)")


@gate
def plan_builtin(tmp):
    plan = run(tool("mfwctl"), "plan", "--builtin").stdout
    for stage in ("download", "preprocess", "monitor", "inference", "shipment"):
        check(f"  {stage} [" in plan,
              f"mfwctl plan --builtin is missing stage '{stage}'\n{plan}")
    print("OK: mfwctl plan --builtin lists the five pipeline stages")


@gate
def policy_sweep(tmp):
    out = tmp / "BENCH_policies.json"
    run(tool("policy_sweep"), "--quick", "--out", out)
    lines = out.read_text().splitlines()
    check(any('"schema": "mfw.policies/v1"' in line for line in lines),
          "policy sweep JSON is missing the mfw.policies/v1 schema")

    def lines_with(field):
        return sum(1 for line in lines if f'"{field}": ' in line)

    points = lines_with("policy")
    check(points >= 2, f"quick sweep produced {points} points, expected >= 2")
    for field in ("makespan", "utilization", "p99_queue_wait",
                  "deadline_misses"):
        populated = lines_with(field)
        check(populated == points,
              f"field '{field}' populated in {populated}/{points} points")
    print(f"OK: quick sweep wrote {points} populated mfw.policies/v1 points")


@gate
def health_chaos(tmp):
    """A starved preprocess under a declared SLO fires pp-queue, attributed
    to queue-wait, on stdout and in the health stream."""
    (tmp / "chaos.yaml").write_text(CHAOS_YAML)
    out = run(tool("mfwctl"), "watch", tmp / "chaos.yaml", "--quiet",
              "--health-out", tmp / "chaos.json").stdout
    check(re.search(r"^alert firing +rule=pp-queue .*cause=queue-wait", out,
                    re.MULTILINE),
          f"starved preprocess did not fire pp-queue with cause=queue-wait\n"
          f"{out}")
    health = (tmp / "chaos.json").read_text()
    check('"state": "firing"' in health,
          f"chaos health stream has no firing alert\n{health}")
    check('"cause": "queue-wait"' in health,
          "chaos health stream lost the queue-wait attribution")
    print("OK: injected queue pressure fires pp-queue with cause=queue-wait")


# -- int8 inference and serving -----------------------------------------------

@gate
def int8_agreement(tmp):
    """On a trained model the fused plan is bitwise the layer path and int8
    42-class assignment agrees on >= 99% of tiles."""
    out = run(tool("ablation_latent"), "--int8-check").stdout
    lines = out.splitlines()
    start = next((i for i, line in enumerate(lines)
                  if "Int8 inference audit" in line), None)
    check(start is not None, f"ablation_latent printed no int8 audit\n{out}")
    audit = "\n".join(lines[start:start + 3])
    print(audit)
    check("bitwise IDENTICAL" in audit,
          "fused fp32 plan is not bitwise identical to the layer path")
    int8_line = next((line for line in audit.splitlines()
                      if "int8  vs layers" in line), "")
    agreement = re.search(r"[0-9.]*$", int8_line).group()
    check(agreement and float(agreement) >= 0.99,
          f"int8 42-class agreement {agreement!r} below the 0.99 floor")
    print(f"OK: fused bitwise identity + int8 agreement {agreement} >= 0.99")


@gate
def fig1_tile_budget(tmp):
    out = run(tool("fig1_swath"), "--encode-path", "int8",
              "--tile-budget", 32).stdout
    line = next((line for line in out.splitlines() if "within budget" in line),
                "")
    print(line)
    check("within budget: yes" in line,
          "fig1_swath int8 run exceeded its tile budget")


@gate
def serve_bench(tmp):
    """Every sharded answer matches the brute-force oracle, the document
    carries mfw.serve/v1, and the Zipf workload clears a 0.30 hit rate."""
    out = tmp / "serve_bench.json"
    run(tool("mfwctl"), "serve-bench", "--tiles", 60000, "--requests", 40000,
        "--check", "--quiet", "--out", out)
    doc = json.loads(out.read_text())
    check(doc.get("schema") == "mfw.serve/v1",
          f"bad schema marker {doc.get('schema')!r}")
    check(doc.get("doc") == "serve_bench", f"bad doc marker {doc.get('doc')!r}")
    queries, mismatches = doc["check"]["queries"], doc["check"]["mismatches"]
    check(queries >= 100, f"only {queries} oracle queries ran")
    check(mismatches == 0, f"{mismatches} oracle mismatches")
    hit_rate = doc["load"]["cache_hit_rate"]
    print(f"oracle: {queries} queries, 0 mismatches; "
          f"cache hit rate {hit_rate:.3f} (floor 0.30)")
    check(hit_rate >= 0.30, "cache hit rate below the 0.30 floor")
    resp = doc["example_response"]
    check(resp.get("schema") == "mfw.serve/v1" and "matched" in resp,
          "example query response missing schema/matched fields")


# -- CLI contract -------------------------------------------------------------

def check_rejected(argv, message):
    """mfwctl must refuse argv with exit 2, `message` and usage on stderr."""
    proc = run(tool("mfwctl"), *argv, want=2)
    check(message in proc.stderr,
          f"mfwctl {' '.join(map(str, argv))} did not say {message!r}\n"
          f"{proc.stderr}")
    check("usage" in proc.stderr.lower(),
          f"mfwctl {' '.join(map(str, argv))} did not print usage")


@gate
def cli_unknown_flags(tmp):
    fig6 = baseline("fig6.yaml")
    for argv in (["report", fig6, "--bogus"],
                 ["trace", fig6, "--frobnicate", "x"],
                 ["run", fig6, "--json"],
                 ["run-template", "aicca-daily", "--bogus"],
                 ["watch", fig6, "--bogus"],
                 ["plan", "--builtin", "--bogus"],
                 ["sweep", "--builtin", "--frobnicate"],
                 ["serve-bench", "--bogus-flag"]):
        flag = next(a for a in argv if str(a).startswith("--") and
                    a != "--builtin")
        check_rejected(argv, f"unknown flag '{flag}' for command '{argv[0]}'")
    print("OK: every command rejects unknown flags with usage + exit 2")


@gate
def cli_numeric_flags(tmp):
    """Numeric flags reject non-numbers, trailing garbage, negative values,
    counts beyond int range and a zero flight ring before anything is
    allocated or started."""
    fig6 = baseline("fig6.yaml")
    for argv in (["serve-bench", "--tiles", "abc"],
                 ["serve-bench", "--tiles", "-5"],
                 ["serve-bench", "--threads", "-1"],
                 ["serve-bench", "--requests", "12x"],
                 ["serve-bench", "--seed", "1.5"],
                 ["serve-bench", "--days", "99999999999"],
                 ["run", fig6, "--flight-capacity", "-1"],
                 ["run", fig6, "--flight-capacity", "0"],
                 ["watch", fig6, "--flight-capacity", "0"],
                 ["watch", fig6, "--interval", "abc"],
                 ["watch", fig6, "--window", "-1"],
                 ["report", fig6, "--straggler-k", "2x"],
                 ["lineage", fig6, "--top", "abc"],
                 ["sweep", "--builtin", "--facilities", "1,-1"],
                 ["sweep", "--builtin", "--loads", "1,abc"]):
        check_rejected(argv, f"flag '{argv[-2]}' expects")
    print("OK: numeric flags reject garbage and negatives with usage + exit 2")


# -- host-timing floors (label perf, Release trees only) ----------------------

@gate
def substrate_floors(tmp):
    """The fast substrates beat the naive oracles: >= 10x on SharedResource
    churn, >= 5x on FlowLink churn."""
    out = tmp / "BENCH_sim_smoke.json"
    run(tool("archive_campaign"), "--quick", "--out", out)
    churn = json.loads(out.read_text())["churn_vs_naive"]
    resource, link = churn["resource"]["speedup"], churn["link"]["speedup"]
    print(f"resource churn speedup: {resource:.1f}x (floor 10x)\n"
          f"link churn speedup:     {link:.1f}x (floor 5x)")
    check(resource >= 10.0 and link >= 5.0,
          "substrate churn speedup below floor")


@gate
def int8_floors(tmp):
    """int8 gemm and int8 encode are each >= 2x their fp32 counterparts."""
    out = tmp / "BENCH_int8_smoke.json"
    run(tool("micro_kernels"),
        "--benchmark_filter=BM_Sgemm/8/72/1024|BM_GemmS8/8/72/1024|"
        "BM_RiccEncode(Fp32|Int8)",
        "--benchmark_min_time=0.2", f"--benchmark_out={out}",
        "--benchmark_out_format=json")
    doc = json.loads(out.read_text())
    check(doc["context"].get("mfw_build_type") == "Release",
          "micro_kernels is not a Release build")
    rate = {b["name"]: b["items_per_second"] for b in doc["benchmarks"]}
    gemm = rate["BM_GemmS8/8/72/1024"] / rate["BM_Sgemm/8/72/1024"]
    encode = rate["BM_RiccEncodeInt8"] / rate["BM_RiccEncodeFp32"]
    print(f"int8 gemm over fp32 sgemm [8x72x1024]: {gemm:.2f}x (floor 2.0)\n"
          f"int8 encode over fp32 encode:          {encode:.2f}x (floor 2.0)")
    check(gemm >= 2.0, "gemm_s8 speedup below the 2x floor")
    check(encode >= 2.0, "int8 encode speedup below the 2x floor")


@gate
def micro_substrates(tmp):
    """The substrate micro benchmarks run clean (numbers are tracked by
    tools/bench_sim.sh, not thresholded here)."""
    run(tool("micro_substrates"),
        "--benchmark_filter=BM_(EngineScheduleRun|SharedResourceChurn|"
        "FlowLinkChurn)",
        "--benchmark_min_time=0.05")


def main(argv):
    if len(argv) < 2 or argv[1] not in GATES:
        print(f"usage: {argv[0]} <{'|'.join(GATES)}> source=<repo> "
              "<target>=<binary>...", file=sys.stderr)
        return 2
    ARGS.update(arg.split("=", 1) for arg in argv[2:])
    with tempfile.TemporaryDirectory(prefix="mfw-gate-") as tmp:
        try:
            GATES[argv[1]](Path(tmp))
        except GateFailure as failure:
            print(f"FAIL: {failure}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
