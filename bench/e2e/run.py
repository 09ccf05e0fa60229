#!/usr/bin/env python3
"""End-to-end study benchmark.

Builds study_bench from the checkout, runs StudySpec workloads through
it in fresh processes and reports host-time metrics.  See README.md.

One run, one JSON result line on stdout (the last line):

    python3 bench/e2e/run.py --workload rf-grid --seed 7 --seconds 25 --trace 0

--trace 1 reports the per-layer ledger of a traced re-execution instead
of the end-to-end metrics.  Without --workload, every workload runs
RUNS_PER_SET times per set (same seed, so digests must agree) and a table of
medians and quartiles is printed; --trace adds one traced run each and
--out writes everything, with host info, as JSON.  --smoke shrinks every
workload to one cell and four injections to check this script itself.
"""

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
WORKLOADS = ("ace-grid", "rf-grid", "replay-grid", "stuck-grid")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 25
RUNS_PER_SET = 5
# A timing run overruns --seconds by about a pair (three 8 s pairs when
# its three-pair minimum does not fit); a traced run takes under a
# minute.  The margin covers both.
RUN_MARGIN_S = 120
STRUCTURES = ("rf", "lds", "srf", "pred", "simt", "l1d", "l1i", "l2")
LAYERS = ("bench", "spec", "workloads", "ace", "pack", "orch", "inject",
          "store", "export")

E2E_UNITS = {"study_s": "s", "setup_s": "s"}
LAYER_UNITS = {
    "peak_rss_mib": "MiB",
    "spec.load_s": "s", "workloads.build_s": "s",
    "ace.golden_s": "s", "ace.golden_runs": "count",
    "sim.golden_cycles": "cycles", "sim.golden_warp_insts": "count",
    "sim.winst_per_s": "1/s",
    "pack.build_s": "s", "pack.count": "count", "pack.golden_ratio": "ratio",
    "pack.peak_kib": "KiB", "pack.full_kib": "KiB",
    "inject.n": "count", "inject.s": "s", "inject.ms_p50": "ms",
    "inject.ms_p99": "ms", "inject.prefilter_s": "s", "inject.restore_s": "s",
    "inject.replay_s": "s", "inject.hash_s": "s",
    "inject.dead_window_hits": "count", "inject.residency_hits": "count",
    "inject.hash_converge_hits": "count", "inject.shortcut_frac": "ratio",
    **{f"inject.{s}.{k}": u for s in STRUCTURES
       for k, u in (("n", "count"), ("s", "s"), ("shortcut_frac", "ratio"))},
    "inj_per_s": "1/s",
    "orch.shards": "count", "orch.worker_s": "s", "orch.busy_frac": "ratio",
    "orch.shard_s_p50": "s", "orch.shard_s_max": "s",
    "store.append_s": "s", "store.bytes": "B", "store.load_s": "s",
    "export.json_s": "s", "export.csv_s": "s",
    "verify.legacy_checked": "count", "verify.legacy_mismatch": "count",
    "verify.shard_mismatch": "count",
    "trace.wall_s": "s", "trace.overhead_frac": "ratio",
    "trace.attributed_frac": "ratio",
    **{f"self.{layer}_s": "s" for layer in LAYERS},
}


# ------------------------------------------------------------- statistics --

def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values, p):
    """Nearest-rank p-th percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p / 100.0 * len(ordered))) - 1]


def tail_percentile(values):
    """(p, value) for the highest whole percentile above the median with
    at least ten samples beyond it, or None when there is none."""
    n = len(values)
    for p in range(99, 50, -1):
        if n - math.ceil(p / 100.0 * n) >= 10:
            return p, percentile(values, p)
    return None


def self_times(spans):
    """Seconds of each layer's spans not covered by their child spans.

    spans: dicts with id, parent (None for a root), layer and dur (us).
    """
    covered = {}
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] = covered.get(s["parent"], 0.0) + s["dur"]
    out = {}
    for s in spans:
        own = s["dur"] - covered.get(s["id"], 0.0)
        out[s["layer"]] = out.get(s["layer"], 0.0) + own * 1e-6
    return out


def digest_problems(digests, expected=None):
    """Why a set of run digests is not acceptable ([] when it is)."""
    problems = []
    if len(set(digests)) > 1:
        problems.append("digests differ between runs: " +
                        ", ".join(sorted(set(digests))))
    if expected is not None and digests and digests[0] != expected:
        problems.append(f"digest {digests[0]} != pinned {expected}")
    return problems


def ratio(a, b):
    return a / b if b else 0.0


# ------------------------------------------------------------ the program --

def build_dir():
    """$CARGO_TARGET_DIR, or .bench_build; relative to the repository."""
    return os.path.join(REPO, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configure (once) and build study_bench; returns its path."""
    out = build_dir()
    if not any(os.path.exists(os.path.join(out, f))
               for f in ("Makefile", "build.ninja")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, stderr=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "--target", "study_bench", "-j2"],
                   stdout=sys.stderr, stderr=sys.stderr, check=True)
    return os.path.join(out, "study_bench")


def expected_digest(workload, seed, smoke):
    with open(os.path.join(HERE, "expected.json")) as f:
        pinned = json.load(f)
    if seed != pinned["seed"]:
        return None
    return pinned["smoke" if smoke else "digests"].get(workload)


def run_once(binary, workload, seed, seconds, trace, smoke=False):
    """One fresh study_bench process: its JSON document (with its spans
    when traced), or an error document."""
    work = os.path.join(build_dir(), "runs", f"{workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    spec = os.path.join(HERE, "workloads", workload + ".json")
    trace_file = os.path.join(work, "trace.json")
    cmd = [binary, f"--spec={spec}", f"--seed={seed}",
           f"--seconds={seconds}", f"--work-dir={work}"]
    if trace:
        cmd.append(f"--trace={trace_file}")
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=seconds + RUN_MARGIN_S)
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        doc["returncode"] = proc.returncode
        if trace and proc.returncode == 0:
            with open(trace_file) as f:
                doc["spans"] = [
                    {"id": e["args"]["id"], "parent": e["args"].get("parent"),
                     "layer": e["cat"], "name": e["name"], "dur": e["dur"],
                     "structure": e["args"].get("structure")}
                    for e in json.load(f)["traceEvents"]]
    except (subprocess.TimeoutExpired, ValueError, IndexError, OSError) as e:
        doc = {"returncode": -1, "errors": [f"study_bench failed: {e}"],
               "studies_attempted": 1, "studies_failed": 1}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return doc


def e2e_metrics(doc):
    return {"study_s": statistics.median(doc["study_s"]),
            "setup_s": statistics.median(doc["setup_s"])}


def ledger(doc):
    """Every per-layer metric of one traced run."""
    spans = doc["spans"]
    c = doc["counters"]

    def seconds(pred):
        return sum(s["dur"] for s in spans if pred(s)) * 1e-6

    def layer(name):
        return seconds(lambda s: s["layer"] == name)

    def call(name):
        return seconds(lambda s: s["name"] == name)

    inject_ms = [s["dur"] * 1e-3 for s in spans if s["layer"] == "inject"]
    m = dict(c)
    m["peak_rss_mib"] = doc["peak_rss_kib"] / 1024.0
    m["spec.load_s"] = layer("spec")
    m["workloads.build_s"] = layer("workloads")
    m["ace.golden_s"] = layer("ace")
    m["sim.winst_per_s"] = ratio(c["sim.golden_warp_insts"], m["ace.golden_s"])
    m["pack.build_s"] = layer("pack")
    m["pack.golden_ratio"] = ratio(m["pack.build_s"], m["ace.golden_s"])
    m["inject.n"] = len(inject_ms)
    m["inject.s"] = layer("inject")
    m["inject.ms_p50"] = percentile(inject_ms, 50)
    m["inject.ms_p99"] = percentile(inject_ms, 99)
    hits = (c["inject.dead_window_hits"] + c["inject.residency_hits"] +
            c["inject.hash_converge_hits"])
    m["inject.shortcut_frac"] = ratio(hits, doc["ref_injections"])
    for name in STRUCTURES:
        mine = [s["dur"] for s in spans
                if s["layer"] == "inject" and s["structure"] == name]
        m[f"inject.{name}.n"] = len(mine)
        m[f"inject.{name}.s"] = sum(mine) * 1e-6
        m[f"inject.{name}.shortcut_frac"] = ratio(doc["shortcuts"][name],
                                                  len(mine))
    m["inj_per_s"] = ratio(doc["ref_injections"], doc["ref_study_s"])
    m["orch.worker_s"] = doc["worker_s"]
    m["orch.busy_frac"] = ratio(doc["worker_s"] + doc["ace_wall_s"],
                                doc["jobs"] * doc["ref_study_s"])
    m["orch.shard_s_p50"] = percentile(doc["shard_s"], 50)
    m["orch.shard_s_max"] = max(doc["shard_s"], default=0.0)
    m["store.append_s"] = call("writeShardRecord")
    m["store.load_s"] = call("readShardStore")
    m["export.json_s"] = call("writeStudyJson")
    m["export.csv_s"] = call("writeStudyCsv")
    for name, value in self_times(spans).items():
        m[f"self.{name}_s"] = value
    m["trace.wall_s"] = seconds(lambda s: s["parent"] is None)
    m["trace.attributed_frac"] = 1.0 - ratio(m.get("self.bench_s", 0.0),
                                             m["trace.wall_s"])
    m["trace.overhead_frac"] = ratio(doc["traced_study_s"],
                                     doc["untraced_jobs1_s"]) - 1.0
    return {k: m.get(k, 0.0) for k in LAYER_UNITS}


def result_line(doc, workload, seed, trace, smoke=False):
    """The result object of one run: correctness, counts and metrics."""
    problems = list(doc.get("errors", []))
    metrics = {}
    if doc["returncode"] == 0:
        problems += digest_problems([doc["digest"]],
                                    expected_digest(workload, seed, smoke))
        values = ledger(doc) if trace else e2e_metrics(doc)
        units = LAYER_UNITS if trace else E2E_UNITS
        metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    for p in problems:
        print(f"{workload}: {p}", file=sys.stderr)
    ok = doc["returncode"] == 0 and not problems
    return {"correct": ok,
            "attempted": max(1, doc.get("studies_attempted", 1)),
            "failed": max(doc.get("studies_failed", 0), 0 if ok else 1),
            "metrics": metrics}


# ----------------------------------------------------------- summary mode --

def host_info():
    def cache(key):
        try:
            with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
                for line in f:
                    if line.startswith(key + ":"):
                        return line.split("=", 1)[1].strip()
        except OSError:
            pass
        return "unknown"

    def first_line(cmd):
        try:
            out = subprocess.run(cmd, capture_output=True, text=True,
                                 cwd=HERE, timeout=10)
            return out.stdout.splitlines()[0] if out.returncode == 0 else "unknown"
        except (OSError, IndexError, subprocess.TimeoutExpired):
            return "unknown"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f
                        if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "compiler": first_line([cache("CMAKE_CXX_COMPILER"), "--version"]),
            "build_type": cache("CMAKE_BUILD_TYPE"),
            "commit": first_line(["git", "describe", "--always", "--dirty"]),
            "python": platform.python_version()}


def summarize_set(workload, docs, seed, smoke):
    """Median, quartiles and n of every end-to-end metric over one set."""
    good = [d for d in docs if d["returncode"] == 0]
    attempted = sum(max(1, d.get("studies_attempted", 1)) for d in docs)
    failed = sum(d.get("studies_failed", 0) for d in docs)
    problems = [p for d in docs for p in d.get("errors", [])]
    problems += digest_problems([d["digest"] for d in good],
                                expected_digest(workload, seed, smoke))
    series = {k: [e2e_metrics(d)[k] for d in good] for k in E2E_UNITS}
    series["peak_rss_mib"] = [d["peak_rss_kib"] / 1024.0 for d in good]
    units = dict(E2E_UNITS, peak_rss_mib="MiB")
    if any(d["injections"] for d in good):
        series["inj_per_s"] = [d["injections"] / s
                               for d, s in zip(good, series["study_s"])]
        units["inj_per_s"] = "1/s"
    metrics = {}
    for name, values in series.items():
        if not values:
            continue
        q1, med, q3 = quartiles(values)
        metrics[name] = {"unit": units[name], "median": med, "q1": q1,
                         "q3": q3, "n": len(values), "values": values}
        tail = tail_percentile(values)
        if tail:
            metrics[name][f"p{tail[0]}"] = tail[1]
    metrics["fail_frac"] = {"unit": "ratio", "median": ratio(failed, attempted),
                            "n": attempted}
    return {"metrics": metrics, "problems": problems,
            "digest": good[0]["digest"] if good else None,
            "correct": not problems and len(good) == len(docs)}


def print_set(workload, label, summary):
    print(f"\n{workload} {label}  digest {summary['digest']}")
    for name, m in summary["metrics"].items():
        if "q1" in m:
            print(f"  {name:14s} {m['unit']:6s} median {m['median']:<12.6g} "
                  f"q1 {m['q1']:<12.6g} q3 {m['q3']:<12.6g} n {m['n']}")
        else:
            print(f"  {name:14s} {m['unit']:6s} {m['median']:<12.6g} "
                  f"of {m['n']} studies")
    for p in summary["problems"]:
        print(f"  FAIL {p}")


def summary_mode(binary, args):
    seconds = 0 if args.smoke else args.seconds
    runs = 1 if args.smoke else RUNS_PER_SET
    report = {"host": host_info(), "seed": args.seed, "seconds": seconds,
              "runs_per_set": runs, "workloads": {}}
    ok = True
    for workload in WORKLOADS:
        entry = report["workloads"][workload] = {"sets": []}
        for k in range(args.sets):
            docs = [run_once(binary, workload, args.seed, seconds, False,
                             args.smoke) for _ in range(runs)]
            summary = summarize_set(workload, docs, args.seed, args.smoke)
            print_set(workload, f"set {k + 1} ({runs} runs, seed {args.seed})",
                      summary)
            entry["sets"].append(summary)
            ok = ok and summary["correct"]
        if args.trace or args.smoke:
            line = result_line(run_once(binary, workload, args.seed, seconds,
                                        True, args.smoke),
                               workload, args.seed, True, args.smoke)
            entry["trace"] = line
            ok = ok and line["correct"]
            print(f"  traced run: correct {line['correct']}")
            if args.trace:
                for name, m in line["metrics"].items():
                    print(f"    {name:30s} {m['unit']:6s} {m['value']:.6g}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run one workload once and print its result line")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1,
                    default=0)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--out", help="write the summary as JSON")
    ap.add_argument("--smoke", action="store_true",
                    help="one cell, four injections per structure")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0 or args.sets < 1:
        ap.error("--seed and --seconds must not be negative, --sets positive")
    # SystemExit makes subprocess.run kill and reap its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: cannot build study_bench: {e}", file=sys.stderr)
        return 1
    if args.workload is None:
        return summary_mode(binary, args)
    doc = run_once(binary, args.workload, args.seed, args.seconds,
                   args.trace, args.smoke)
    line = result_line(doc, args.workload, args.seed, args.trace, args.smoke)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
