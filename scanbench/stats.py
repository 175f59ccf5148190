"""Metric arithmetic of the scan benchmark: percentiles, span self times,
the per-layer table, the steadiness spread and the result-line schema.

Pure functions over the raw samples that `scanbench run` writes; run.py
calls them and tests/test_harness.py checks them.
"""

import math
import statistics

# (name, unit, better) of every end-to-end metric, in print order.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("scan_p50_ms", "ms", "lower"),
    ("scan_p95_ms", "ms", "lower"),
    ("cold_scan_ms", "ms", "lower"),
    ("throughput_1t_img_s", "img/s", "higher"),
    ("throughput_4t_img_s", "img/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("tpr", "ratio", "higher"),
    ("tnr", "ratio", "higher"),
    ("verdict_share", "ratio", "higher"),
]

# Layers whose spans the traced pass records, with the per-pixel metric
# where the layer's cost scales with the image plane.
SPAN_LAYERS = [
    ("imaging.decode", False),
    ("imaging.round_trip", True),
    ("imaging.rank_filter", True),
    ("signal.spectrum", True),
    ("metrics.mse", False),
    ("metrics.ssim", False),
    ("cv.csp", False),
    ("core.defense", False),
    ("core.vote", False),
]

CACHES = [
    ("imaging.kernel_cache", "kernel"),
    ("signal.fft_plan_cache", "fft_plan"),
    ("signal.bluestein_plan_cache", "bluestein_plan"),
]


def _per_layer_spec():
    spec = []
    for layer, per_px in SPAN_LAYERS:
        spec.append((layer + ".calls", "count", "lower"))
        spec.append((layer + ".ms_per_img", "ms", "lower"))
        if per_px:
            spec.append((layer + ".ns_per_px", "ns/px", "lower"))
    spec += [
        ("imaging.decode.mb_per_s", "MB/s", "higher"),
        ("imaging.decode.failures", "count", "lower"),
        ("signal.spectrum.bluestein_share", "ratio", "lower"),
        ("core.defense.applies_per_img", "count", "lower"),
        ("core.vote.members_scored_per_img", "count", "lower"),
        ("core.context.calls", "count", "lower"),
        ("core.context.stages_built_per_img", "count", "lower"),
        ("core.calibrate.calls", "count", "lower"),
        ("core.calibrate.ms_per_img", "ms", "lower"),
        ("mem.minor_faults_per_img", "count", "lower"),
        ("runtime.pool.calls", "count", "higher"),
        ("runtime.pool.busy_share", "ratio", "higher"),
        ("runtime.lane_slowdown", "ratio", "lower"),
        ("trace.calls", "count", "lower"),
        ("trace.unattributed_share", "ratio", "lower"),
        ("trace.overhead_share", "ratio", "lower"),
    ]
    for layer, _ in CACHES:
        spec.append((layer + ".calls", "count", "lower"))
        spec.append((layer + ".hit_ratio", "ratio", "higher"))
    return spec


PER_LAYER = _per_layer_spec()

# Per image, the span self times plus the unattributed remainder must sum to
# the traced wall time within this share of it (plus one microsecond).
ADDITIVITY_BOUND = 0.01

STANDARD_PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)


def highest_percentile(count, min_beyond=10):
    """The highest standard percentile with at least `min_beyond` of
    `count` samples beyond it, or None when even the median has fewer."""
    best = None
    for p in STANDARD_PERCENTILES:
        if count * (100.0 - p) / 100.0 >= min_beyond - 1e-9:
            best = p
    return best


def percentile(values, p):
    """Linear-interpolated percentile (p in [0, 100]) of a sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def quartile_spread(values):
    """(median, q1, q3, (q3 - q1) / median) as the steadiness check takes
    them, from statistics.quantiles(values, n=4)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / abs(median) if median else math.inf
    return median, q1, q3, spread


def self_times(spans):
    """Self time (ns) of every span: its duration minus the part of its
    interval that its child spans cover. `spans` are dicts with id, parent,
    start_ns and end_ns; returns {id: self_ns}."""
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    result = {}
    for span in spans:
        start, end = span["start_ns"], span["end_ns"]
        covered = 0
        cursor = start
        for child in sorted(children.get(span["id"], []),
                            key=lambda c: c["start_ns"]):
            lo = max(child["start_ns"], cursor)
            hi = min(child["end_ns"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span["id"]] = (end - start) - covered
    return result


def read_spans(path):
    spans = []
    with open(path) as handle:
        header = handle.readline().rstrip("\n").split("\t")
        for line in handle:
            row = dict(zip(header, line.rstrip("\n").split("\t")))
            for key in row:
                if key != "name":
                    row[key] = int(row[key])
            spans.append(row)
    return spans


def additivity_errors(spans, selfs):
    """Scan images whose span self times do not sum to the root's wall time
    within ADDITIVITY_BOUND; returns the offending image ids."""
    totals = {}
    for span in spans:
        totals[span["image"]] = totals.get(span["image"], 0) + selfs[span["id"]]
    return [root["image"] for root in scan_roots(spans)
            if abs(totals[root["image"]] - (root["end_ns"] - root["start_ns"]))
            > ADDITIVITY_BOUND * (root["end_ns"] - root["start_ns"]) + 1000]


def scan_roots(spans):
    """The root span of every traced scan image."""
    return [s for s in spans if s["parent"] == -1 and s["name"] == "scan"]


def is_pow2(n):
    return n > 0 and n & (n - 1) == 0


def layer_metrics(result, spans):
    """The per-layer table of one traced run."""
    selfs = self_times(spans)
    roots = scan_roots(spans)
    images = max(len(roots), 1)
    by_name = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
    out = {}
    for layer, per_px in SPAN_LAYERS:
        group = by_name.get(layer, [])
        self_ns = sum(selfs[s["id"]] for s in group)
        out[layer + ".calls"] = len(group)
        out[layer + ".ms_per_img"] = self_ns / 1e6 / images
        if per_px:
            pixels = sum(s["width"] * s["height"] for s in group)
            out[layer + ".ns_per_px"] = self_ns / pixels if pixels else 0.0
    decode = by_name.get("imaging.decode", [])
    decode_s = sum(selfs[s["id"]] for s in decode) / 1e9
    out["imaging.decode.mb_per_s"] = (
        sum(s["bytes"] for s in decode) / 1e6 / decode_s if decode_s else 0.0)
    out["imaging.decode.failures"] = sum(s["failed"] for s in decode)
    spectrum = by_name.get("signal.spectrum", [])
    spectrum_px = sum(s["width"] * s["height"] for s in spectrum)
    bluestein_px = sum(s["width"] * s["height"] for s in spectrum
                       if not (is_pow2(s["width"]) and is_pow2(s["height"])))
    out["signal.spectrum.bluestein_share"] = (
        bluestein_px / spectrum_px if spectrum_px else 0.0)
    traced = result["traced"]
    out["core.defense.applies_per_img"] = (
        len(by_name.get("core.defense", [])) / images)
    out["core.vote.members_scored_per_img"] = sum(
        len(by_name.get(name, []))
        for name in ("metrics.mse", "metrics.ssim", "cv.csp")) / images
    out["core.context.calls"] = sum(
        len(by_name.get(name, []))
        for name in ("imaging.round_trip", "imaging.rank_filter",
                     "signal.spectrum"))
    out["core.context.stages_built_per_img"] = traced["stages_built"] / images
    calibrate = by_name.get("core.calibrate", [])
    out["core.calibrate.calls"] = len(calibrate)
    out["core.calibrate.ms_per_img"] = (
        sum(s["end_ns"] - s["start_ns"] for s in calibrate) / 1e6
        / len(calibrate) if calibrate else 0.0)
    out["mem.minor_faults_per_img"] = (
        result["lat1"]["minor_faults"] / len(result["lat1"]["ms"]))
    lat4 = result["lat4"]
    windows = lat4["windows_s"]
    out["runtime.pool.calls"] = len(lat4["ms"])
    out["runtime.pool.busy_share"] = sum(
        max(0.0, min(end, windows[w]) - start)
        for w, start, end in zip(lat4["window"], lat4["start_s"],
                                 lat4["end_s"])
    ) / (result["lanes"] * sum(windows))
    out["runtime.lane_slowdown"] = (
        statistics.median(ok_samples(lat4))
        / statistics.median(ok_samples(result["lat1"])))
    root_ns = sum(r["end_ns"] - r["start_ns"] for r in roots)
    out["trace.calls"] = len(spans)
    out["trace.unattributed_share"] = (
        sum(selfs[r["id"]] for r in roots) / root_ns if root_ns else 0.0)
    untraced = per_image_median(result["lat1"])
    untraced_ns = sum(untraced[r["image"]] for r in roots) * 1e6
    out["trace.overhead_share"] = root_ns / untraced_ns - 1.0
    for layer, key in CACHES:
        hits = result["cache"][key]["hits"]
        lookups = hits + result["cache"][key]["misses"]
        out[layer + ".calls"] = lookups
        # No lookup at all means nothing missed.
        out[layer + ".hit_ratio"] = hits / lookups if lookups else 1.0
    return out


def window_throughput(lat4):
    """Scans per second finished inside the 4-lane windows, each timed from
    its own start."""
    windows = lat4["windows_s"]
    return sum(end <= windows[w] for w, end in zip(lat4["window"],
                                                   lat4["end_s"])
               ) / sum(windows)


def ok_samples(lat):
    return [ms for ms, err in zip(lat["ms"], lat["error"]) if not err]


def median_image_mean(lat):
    """Median over images of each image's mean latency across the passes,
    successful scans only. The median of the raw samples lies inside one
    geometry's cluster, which the host's slow spells split into a fast and
    a slow half, so it jumps between the two as the share of slow time
    crosses a threshold. Averaging each image first makes it move smoothly
    with that share."""
    by_image = {}
    for image, ms, err in zip(lat["image"], lat["ms"], lat["error"]):
        if not err:
            by_image.setdefault(image, []).append(ms)
    return statistics.median(statistics.fmean(v) for v in by_image.values())


def per_image_median(lat1):
    by_image = {}
    for image, ms in zip(lat1["image"], lat1["ms"]):
        by_image.setdefault(image, []).append(ms)
    return {image: statistics.median(v) for image, v in by_image.items()}


def validate_result(obj, names_units):
    """Problems with one result line against the contract: exactly the keys
    correct/attempted/failed/metrics, whole counts, and exactly the metrics
    in `names_units` ({name: unit}), each a finite number with its unit."""
    problems = []
    if not isinstance(obj, dict):
        return ["result is not an object"]
    if set(obj) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("keys are %s" % sorted(obj))
        return problems
    if not isinstance(obj["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(obj[key], int) or isinstance(obj[key], bool) \
                or obj[key] < 0:
            problems.append("%s is not a whole number" % key)
    if isinstance(obj["attempted"], int) and obj["attempted"] < 1:
        problems.append("attempted is below 1")
    metrics = obj["metrics"]
    if not isinstance(metrics, dict):
        return problems + ["metrics is not an object"]
    if set(metrics) != set(names_units):
        problems.append("metric names differ: missing %s, extra %s" % (
            sorted(set(names_units) - set(metrics)),
            sorted(set(metrics) - set(names_units))))
    for name, entry in metrics.items():
        if not isinstance(entry, dict) or set(entry) != {"value", "unit"}:
            problems.append("%s is not {value, unit}" % name)
            continue
        value = entry["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append("%s value is not a finite number" % name)
        if name in names_units and entry["unit"] != names_units[name]:
            problems.append("%s unit %r, expected %r" % (
                name, entry["unit"], names_units[name]))
    return problems
