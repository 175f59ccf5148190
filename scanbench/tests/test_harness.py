"""Self-tests of the scan benchmark harness.

    python3 -m unittest discover scanbench/tests

The corpus test builds the driver (as run.py does) on first use.
"""

import filecmp
import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402
import stats  # noqa: E402


class PercentileRuleTest(unittest.TestCase):
    def test_highest_percentile_keeps_ten_samples_beyond_it(self):
        self.assertIsNone(stats.highest_percentile(19))
        self.assertEqual(stats.highest_percentile(20), 50.0)
        self.assertEqual(stats.highest_percentile(99), 50.0)
        self.assertEqual(stats.highest_percentile(100), 90.0)
        self.assertEqual(stats.highest_percentile(199), 90.0)
        self.assertEqual(stats.highest_percentile(200), 95.0)
        self.assertEqual(stats.highest_percentile(999), 95.0)
        self.assertEqual(stats.highest_percentile(1000), 99.0)
        self.assertEqual(stats.highest_percentile(10000), 99.9)

    def test_percentile_interpolates_linearly(self):
        values = [float(v) for v in range(1, 101)]  # 1..100, shuffled below
        values = values[50:] + values[:50]
        self.assertAlmostEqual(stats.percentile(values, 50), 50.5)
        self.assertAlmostEqual(stats.percentile(values, 95), 95.05)
        self.assertEqual(stats.percentile(values, 0), 1.0)
        self.assertEqual(stats.percentile(values, 100), 100.0)
        self.assertEqual(stats.percentile([7.0], 95), 7.0)

    def test_median_image_mean_averages_each_image_first(self):
        lat = {"image": [0, 1, 2, 0, 2, 2, 3],
               "ms": [10.0, 5.0, 100.0, 30.0, 100.0, 40.0, 1.0],
               "error": [0, 0, 0, 0, 0, 0, 1]}
        # Image means 20, 5 and 80; image 3 only failed. The raw median
        # of the successful samples would be 35.
        self.assertEqual(stats.median_image_mean(lat), 20.0)

    def test_quartile_spread_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 9.0, 10.5, 12.0, 9.5, 10.2, 11.1, 9.9, 10.4]
        median, q1, q3, spread = stats.quartile_spread(values)
        self.assertAlmostEqual(median, 10.3)
        self.assertAlmostEqual(spread, (q3 - q1) / median)
        self.assertLess(q1, median)
        self.assertLess(median, q3)


def span(image, sid, parent, name, start, end, **extra):
    row = {"image": image, "id": sid, "parent": parent, "name": name,
           "start_ns": start, "end_ns": end, "width": 0, "height": 0,
           "bytes": 0, "failed": 0}
    row.update(extra)
    return row


class SpanArithmeticTest(unittest.TestCase):
    def test_self_time_subtracts_children_and_sums_to_wall(self):
        spans = [
            span(0, 0, -1, "scan", 0, 100_000),
            span(0, 1, 0, "imaging.decode", 10_000, 40_000),
            span(0, 2, 1, "inner", 15_000, 25_000),
            span(0, 3, 0, "metrics.mse", 50_000, 70_000),
        ]
        selfs = stats.self_times(spans)
        self.assertEqual(selfs, {0: 50_000, 1: 20_000, 2: 10_000, 3: 20_000})
        self.assertEqual(sum(selfs.values()), 100_000)
        self.assertEqual(stats.additivity_errors(spans, selfs), [])

    def test_overlapping_or_escaping_children_count_once(self):
        spans = [
            span(0, 0, -1, "scan", 0, 100),
            span(0, 1, 0, "a", 10, 60),
            span(0, 2, 0, "b", 40, 80),     # overlaps a
            span(0, 3, 0, "c", 90, 130),    # runs past the parent
        ]
        selfs = stats.self_times(spans)
        self.assertEqual(selfs[0], 100 - 70 - 10)

    def test_additivity_flags_a_lost_interval(self):
        spans = [span(0, 0, -1, "scan", 0, 1_000_000),
                 span(0, 1, 0, "a", 0, 500_000)]
        selfs = stats.self_times(spans)
        selfs[0] = 0  # a remainder that went missing
        self.assertEqual(stats.additivity_errors(spans, selfs), [0])

    def test_layer_metrics_from_a_synthetic_trace(self):
        spans = [
            span(0, 0, -1, "scan", 0, 10_000_000, width=4, height=4),
            span(0, 1, 0, "imaging.decode", 0, 2_000_000, bytes=4_000),
            span(0, 2, 0, "imaging.round_trip", 2_000_000, 6_000_000,
                 width=1000, height=1000),
            span(0, 3, 0, "signal.spectrum", 6_000_000, 9_000_000,
                 width=448, height=448),
            span(1, 4, -1, "core.calibrate", 0, 3_000_000),
        ]
        result = {
            "lanes": 4,
            "traced": {"stages_built": 2},
            "lat1": {"image": [0, 0], "ms": [10.0, 10.0], "error": [0, 0],
                     "minor_faults": 6},
            "lat4": {"ms": [20.0, 20.0], "error": [0, 0], "window": [0, 1],
                     "start_s": [0.0, 0.5], "end_s": [1.0, 2.5],
                     "windows_s": [1.5, 0.5]},
            "cache": {"kernel": {"hits": 3, "misses": 1},
                      "fft_plan": {"hits": 0, "misses": 0},
                      "bluestein_plan": {"hits": 0, "misses": 2}},
        }
        out = stats.layer_metrics(result, spans)
        self.assertEqual(set(out), {name for name, _, _ in stats.PER_LAYER})
        self.assertEqual(out["imaging.decode.calls"], 1)
        self.assertAlmostEqual(out["imaging.decode.mb_per_s"], 2.0)
        self.assertAlmostEqual(out["imaging.round_trip.ms_per_img"], 4.0)
        self.assertAlmostEqual(out["imaging.round_trip.ns_per_px"], 4.0)
        self.assertEqual(out["signal.spectrum.bluestein_share"], 1.0)
        self.assertEqual(out["core.vote.members_scored_per_img"], 0)
        self.assertEqual(out["core.context.stages_built_per_img"], 2)
        self.assertAlmostEqual(out["trace.unattributed_share"], 0.1)
        self.assertAlmostEqual(out["trace.overhead_share"], 0.0)
        self.assertEqual(out["core.calibrate.calls"], 1)
        self.assertAlmostEqual(out["core.calibrate.ms_per_img"], 3.0)
        # The second scan starts as its own window closes: no busy time there.
        self.assertAlmostEqual(out["runtime.pool.busy_share"], 1.0 / 8.0)
        self.assertAlmostEqual(out["runtime.lane_slowdown"], 2.0)
        self.assertEqual(out["mem.minor_faults_per_img"], 3.0)
        self.assertAlmostEqual(out["imaging.kernel_cache.hit_ratio"], 0.75)
        self.assertEqual(out["signal.fft_plan_cache.hit_ratio"], 1.0)
        self.assertEqual(out["signal.bluestein_plan_cache.hit_ratio"], 0.0)
        self.assertAlmostEqual(stats.window_throughput(result["lat4"]), 0.5)


class SchemaTest(unittest.TestCase):
    def setUp(self):
        with open(BENCH_DIR.parent / "BENCHMARK.json") as handle:
            self.bench = json.load(handle)

    def test_benchmark_json_names_what_the_harness_prints(self):
        self.assertEqual(
            [(m["name"], m["unit"], m["better"])
             for m in self.bench["end_to_end"]], stats.END_TO_END)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"])
             for m in self.bench["per_layer"]], stats.PER_LAYER)
        listed = [w["name"] for w in self.bench["workloads"]]
        self.assertLessEqual(set(listed), set(run.WORKLOADS))
        self.assertEqual(len(set(listed)), len(listed))
        self.assertEqual(self.bench["paths"], [BENCH_DIR.name])
        bounds = {m["name"]: m["bound"] for m in self.bench["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])
        self.assertLessEqual(max(bounds.values()), 0.25)

    def good_line(self):
        return {"correct": True, "attempted": 10, "failed": 0,
                "metrics": {name: {"value": 1.5, "unit": unit}
                            for name, unit, _ in stats.END_TO_END}}

    def test_validate_accepts_a_good_line(self):
        units = {name: unit for name, unit, _ in stats.END_TO_END}
        self.assertEqual(stats.validate_result(self.good_line(), units), [])

    def test_validate_rejects_broken_lines(self):
        units = {name: unit for name, unit, _ in stats.END_TO_END}
        broken = []
        line = self.good_line()
        del line["metrics"]["tpr"]
        broken.append(line)
        line = self.good_line()
        line["metrics"]["tpr"]["unit"] = "%"
        broken.append(line)
        line = self.good_line()
        line["extra"] = 1
        broken.append(line)
        line = self.good_line()
        line["attempted"] = 0
        broken.append(line)
        line = self.good_line()
        line["failed"] = 1.5
        broken.append(line)
        line = self.good_line()
        line["metrics"]["setup_s"]["value"] = math.nan
        broken.append(line)
        line = self.good_line()
        line["metrics"]["extra_metric"] = {"value": 1.0, "unit": "s"}
        broken.append(line)
        for line in broken:
            self.assertNotEqual(stats.validate_result(line, units), [], line)


class CorpusDeterminismTest(unittest.TestCase):
    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        scanbench, _ = run.build()
        base = run.OUT_DIR / "selftest"
        shutil.rmtree(base, ignore_errors=True)
        dirs = {}
        for name, seed in (("a", 7), ("b", 7), ("c", 8)):
            dirs[name] = base / name
            subprocess.run([str(scanbench), "corpus", "--workload",
                            "sanitize_full", "--seed", str(seed), "--out",
                            str(dirs[name])], check=True, timeout=170)
        try:
            names = sorted(p.name for p in dirs["a"].iterdir())
            self.assertEqual(names, sorted(p.name for p in dirs["b"].iterdir()))
            images = [n for n in names if n != "corpus.tsv"]
            self.assertGreater(len(images), 0)
            match, mismatch, errors = filecmp.cmpfiles(
                dirs["a"], dirs["b"], names, shallow=False)
            self.assertEqual((mismatch, errors), ([], []))
            scan = [n for n in images if n.startswith("scan_")]
            # Names repeat across seeds (formats may not); no content does.
            same, differ, _ = filecmp.cmpfiles(dirs["a"], dirs["c"], scan,
                                               shallow=False)
            self.assertEqual(same, [])
            self.assertGreater(len(differ), 0)
            # The calibration set is the installation's: seed-independent.
            calibration = [n for n in images if n.startswith("calib_")]
            same, _, _ = filecmp.cmpfiles(dirs["a"], dirs["c"], calibration,
                                          shallow=False)
            self.assertEqual(sorted(same), sorted(calibration))
        finally:
            shutil.rmtree(base, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
