#!/usr/bin/env python3
"""End-to-end scan benchmark (see README.md in this directory).

One run, from the root of a checkout:

    python3 scanbench/run.py --workload guard_sc --seed 1 --seconds 40 --trace 0

builds the library, `decamctl` and the `scanbench` driver from source into
.bench_build/, generates the workload's corpus from the seed, runs the
measured rounds (1-lane pass, fresh `decamctl scan` processes, 4-lane
window) and, with --trace 1, the traced pass; checks every output and prints
each metric with its unit. The last line of stdout is the JSON result:
end-to-end metrics with --trace 0, the per-layer table with --trace 1.

    python3 scanbench/run.py --steadiness --runs 10 [--workload W ...]

runs each workload of BENCHMARK.json (or each --workload) --runs times on
consecutive seeds and prints, per end-to-end metric, the median, the
quartiles and the spread against the bound in BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "scanbench"
OUT_DIR = ROOT / ".bench_out"
# Every workload the driver knows. BENCHMARK.json lists the ones a change is
# judged on; sanitize_full runs on request (README.md, "Workloads").
WORKLOADS = ("guard_sc", "sanitize_full", "defended_scan")


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the driver and decamctl from source."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("library sources (src/) not found next to %s"
                         % BENCH_DIR.name)
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    # Compilers and every later child keep their scratch files in the
    # checkout too.
    scratch = BUILD_DIR.parent / "tmp"
    scratch.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    log_path = BUILD_DIR.parent / "scanbench-build.log"
    with open(log_path, "w") as build_log:
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(BUILD_DIR), "-j4", "--target",
                      "scanbench", "decamctl"])
        for step in steps:
            code, _ = run_child(step, 700, stdout=build_log,
                                stderr=subprocess.STDOUT)
            if code != 0:
                raise BenchError("build failed (%s), see %s"
                                 % (" ".join(step[:2]), log_path))
    return BUILD_DIR / "scanbench", BUILD_DIR / "decamctl"


def run_child(command, timeout, **streams):
    """Runs `command` in a process group of its own and waits for it. On
    timeout the whole group is killed (compilers under cmake, decamctl under
    the driver) and reaped before BenchError is raised. Returns (exit code,
    stderr text if piped)."""
    with subprocess.Popen(command, start_new_session=True, text=True,
                          **streams) as child:
        try:
            _, err = child.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            raise BenchError("%s timed out after %d s"
                             % (" ".join(command[:2]), timeout))
    return child.returncode, err


def run_driver(binary, *args, timeout):
    code, err = run_child([str(binary), *args], timeout,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    if code != 0:
        raise BenchError("%s %s failed: %s" % (binary.name, args[0],
                                               err.strip()))


def cold_scans(result, out):
    """The fresh `decamctl scan --json` processes of the measured rounds,
    each compared with the in-process outcome for the same file. Returns
    ({geometry: [ms, ...]}, mismatches)."""
    corpus = result["corpus"]
    cold = result["cold"]
    times = {}
    mismatches = 0
    for k, (image, ms, code) in enumerate(zip(cold["image"], cold["ms"],
                                              cold["exit"])):
        entry = corpus[image]
        times.setdefault(entry["category"], []).append(ms)
        stdout = (out / "cold" / ("%d.json" % k)).read_text()
        if not same_cold_outcome(code, stdout, entry["outcome"]):
            mismatches += 1
            log("cold scan mismatch on %s: exit %d, %s"
                % (entry["file"], code, stdout[:200]))
    return times, mismatches


def same_cold_outcome(code, stdout, expected):
    """decamctl's verdict and scores equal the in-process outcome; an
    in-process error must be decamctl's load/scan failure (exit 1)."""
    if expected["verdict"] == "error":
        return code == 1
    if code not in (0, 3):
        return False
    try:
        report = json.loads(stdout)
    except ValueError:
        return False
    scores = [d["score"] for d in report["detectors"]]
    return (report["verdict"] == expected["verdict"]
            and scores == expected["scores"]
            and code == (3 if expected["verdict"] == "attack" else 0))


def measure(workload, seed, seconds, trace):
    """One full run; returns (end_to_end, per_layer, info). per_layer is
    None unless `trace`."""
    scanbench, decamctl = build()
    out = OUT_DIR / workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    start = time.perf_counter()
    run_driver(scanbench, "corpus", "--workload", workload, "--seed",
               str(seed), "--out", str(out), timeout=30)
    corpus_s = time.perf_counter() - start
    run_driver(scanbench, "run", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace)),
               "--decamctl", str(decamctl), "--out", str(out),
               timeout=60 + 2 * seconds)
    with open(out / "result.json") as handle:
        result = json.load(handle)
    spans = stats.read_spans(out / "spans.tsv") if trace else []
    cold_ms, cold_mismatches = cold_scans(result, out)

    corpus = result["corpus"]
    lat1, lat4 = result["lat1"], result["lat4"]
    ok1 = stats.ok_samples(lat1)
    attacks = [e for e in corpus if e["label"] != "benign"
               and e["outcome"]["verdict"] != "error"]
    benign = [e for e in corpus if e["label"] == "benign"
              and e["outcome"]["verdict"] != "error"]
    errors = sum(e["outcome"]["verdict"] == "error" for e in corpus)
    expected_errors = sum(e["outcome"]["verdict"] == "error"
                          and min(e["width"], e["height"]) <= 224
                          for e in corpus)
    top = stats.highest_percentile(len(ok1))

    end_to_end = {
        "setup_s": statistics.median(result["setup_s"]),
        "scan_p50_ms": stats.median_image_mean(lat1),
        "scan_p95_ms": stats.percentile(ok1, 95),
        # The mix's mean of each geometry's median fresh-process time.
        "cold_scan_ms": statistics.fmean(
            statistics.median(v) for v in cold_ms.values()),
        "throughput_1t_img_s": len(lat1["ms"]) / lat1["wall_s"],
        "throughput_4t_img_s": stats.window_throughput(lat4),
        "peak_rss_mb": result["peak_rss_mb"],
        "tpr": sum(e["outcome"]["verdict"] == "attack" for e in attacks)
        / max(len(attacks), 1),
        "tnr": sum(e["outcome"]["verdict"] == "benign" for e in benign)
        / max(len(benign), 1),
        "verdict_share": 1.0 - errors / len(corpus),
    }
    per_layer = stats.layer_metrics(result, spans) if trace else None

    checks = dict(result["checks"])
    checks["cold_vs_in_process"] = cold_mismatches
    if trace:
        checks["span_additivity"] = len(stats.additivity_errors(
            spans, stats.self_times(spans)))
    # Errors on images larger than the CNN geometry are failures; the
    # thumbnails' error is the known defect verdict_share reports.
    checks["unexpected_errors"] = errors - expected_errors
    problems = [name for name, count in checks.items() if count]
    if top is None or top < 95:
        problems.append("only %d latency samples, p95 needs 200" % len(ok1))
    info = {
        "checks": checks,
        "problems": problems,
        "failed": sum(checks.values()),
        "attempted": len(lat1["ms"]) + len(lat4["ms"])
        + len(stats.scan_roots(spans)) + len(result["cold"]["ms"]),
        "latency_samples": len(ok1),
        "highest_percentile": top,
        "scan_errors": errors,
        "corpus_images": len(corpus),
        "corpus_s": corpus_s,
        "host_probe": result["host_probe"],
    }
    return end_to_end, per_layer, info


def print_run(workload, seed, end_to_end, per_layer, info, trace):
    probe = info["host_probe"]
    print("workload %s seed %d: %d images (generated in %.1f s, untimed), "
          "%d latency samples (p%g is the highest percentile with >= 10 "
          "beyond it), %d scan errors"
          % (workload, seed, info["corpus_images"], info["corpus_s"],
             info["latency_samples"], info["highest_percentile"] or 0,
             info["scan_errors"]))
    print("host_probe start: scalar_ns_per_iter=%.4f memcpy_gb_per_s=%.3f, "
          "end: scalar_ns_per_iter=%.4f memcpy_gb_per_s=%.3f (recorded only)"
          % (probe["scalar_ns_per_iter"], probe["memcpy_gb_per_s"],
             probe["scalar_ns_per_iter_end"], probe["memcpy_gb_per_s_end"]))
    print("checks " + " ".join("%s=%d" % kv for kv in info["checks"].items()))
    spec = stats.PER_LAYER if trace else stats.END_TO_END
    values = per_layer if trace else end_to_end
    for name, unit, better in spec:
        print("  %-36s %14.6g %-6s (%s is better)"
              % (name, values[name], unit, better))
    for problem in info["problems"]:
        print("CHECK FAILED: %s" % problem)
    line = {
        "correct": not info["problems"],
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, _ in spec},
    }
    schema = stats.validate_result(line, {n: u for n, u, _ in spec})
    if schema:
        raise BenchError("result line breaks the schema: %s" % schema)
    print(json.dumps(line))


def steadiness(workloads, runs, first_seed, seconds):
    with open(ROOT / "BENCHMARK.json") as handle:
        bench = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = workloads or [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        samples = {name: [] for name, _, _ in stats.END_TO_END}
        probes = []
        for seed in range(first_seed, first_seed + runs):
            end_to_end, _, info = measure(workload, seed, seconds, False)
            for name in samples:
                samples[name].append(end_to_end[name])
            probe = info["host_probe"]
            probes.append(max(probe["scalar_ns_per_iter"],
                              probe["scalar_ns_per_iter_end"]))
            log("%s seed %d: probe=%.3f ns/iter %.2f GB/s %s%s" % (
                workload, seed, probes[-1],
                min(probe["memcpy_gb_per_s"], probe["memcpy_gb_per_s_end"]),
                " ".join(
                    "%s=%.4g" % (k, v) for k, v in end_to_end.items()),
                "" if not info["problems"] else
                " PROBLEMS " + ", ".join(info["problems"])))
        print("%s: %d runs, seeds %d..%d, host probe median %.3f ns/iter"
              % (workload, runs, first_seed, first_seed + runs - 1,
                 statistics.median(probes)))
        print("  %-22s %-6s %12s %12s %12s %8s %6s  %s"
              % ("metric", "unit", "median", "q1", "q3", "spread", "bound",
                 "verdict"))
        for name, unit, _ in stats.END_TO_END:
            median, q1, q3, spread = stats.quartile_spread(samples[name])
            bound = bounds[name]
            verdict = ("steady" if spread < bound / 3 else
                       "within bound" if spread <= bound else "UNSTEADY")
            if name == "setup_s":
                verdict += " (spread not gated)"
            print("  %-22s %-6s %12.6g %12.6g %12.6g %8.4f %6.3f  %s"
                  % (name, unit, median, q1, q3, spread, bound, verdict))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    try:
        if args.steadiness:
            steadiness(args.workload, args.runs, args.seed,
                       args.seconds)
            return 0
        if not args.workload or len(args.workload) != 1:
            parser.error("exactly one --workload for a single run")
        workload = args.workload[0]
        end_to_end, per_layer, info = measure(workload, args.seed,
                                              args.seconds, args.trace == 1)
        print_run(workload, args.seed, end_to_end, per_layer, info,
                  args.trace)
        return 0
    except (BenchError, subprocess.TimeoutExpired, OSError) as error:
        log("scanbench: %s" % error)
        return 1


if __name__ == "__main__":
    sys.exit(main())
