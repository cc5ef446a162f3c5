#!/usr/bin/env python3
"""Host-time benchmark of the hsumma simulator.

Run from the repository root:

  python3 hostbench/run.py --workload figs_closed --seed 1 --seconds 20 --trace 0
  python3 hostbench/run.py --workload p2p_scale --trace 1 --out results.jsonl
  python3 hostbench/run.py --regen-goldens      # rewrite hostbench/goldens/

The script builds hostbench/ (Release) into .bench_build/hostbench, then runs
the workload's iterations for --seconds, each in a fresh process (p2p_scale
runs its two points in two processes per iteration, so each point's peak RSS
is its own). Every simulated result is checked against hostbench/goldens/.
setup_s is the median over SETUP_RUNS set-up-only processes per run, each
timed from its start to the start of its timed phase. Beside the iterations
runs `hostbench probe`, a fixed reference kernel; the gated times are CPU
times rescaled from the host speed it measured to REF_MS (README.md says
why).
Human-readable lines (the run manifest, every metric with its unit, the
failure ratio) come first; the last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones. The exit
code is 0 only when every operation passed its check.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hostbench")
BINARY = os.path.join(BUILD, "hostbench")
GOLDENS = os.path.join(HERE, "goldens")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ["figs_closed", "lookahead_chain", "p2p_scale", "noise_store"]
# Per-process time limit: far above any iteration, so only a hang trips it.
ITERATION_TIMEOUT_S = 150
# Set-up-only processes per run; setup_s is their median.
SETUP_RUNS = 15
# CPU ms of one repetition of the probe's reference kernel on the host the
# seed baseline was measured on (README.md). norm_cpu_s rescales a run's
# CPU time to a host of that speed.
REF_MS = 6.0
# Seconds the probe may take to stop once its stdin closes.
PROBE_STOP_S = 10
# Layers whose span self time counts as accounted for: every layer but the
# benchmark's own (its roots and whatever no layer span covers).
LAYERS = ("mpc", "core", "exec", "store")


class BenchError(Exception):
    """A failure that must end the run without a result line."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("simulator sources not found under %s/src" % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    command = ["cmake", "--build", BUILD, "--target", "hostbench", "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")


def run_binary(args):
    """Run the benchmark binary and return its JSON result. The binary
    times its set-up from --spawn-ns, read just before it starts."""
    try:
        spawn = ["--spawn-ns", str(time.monotonic_ns())]
        done = subprocess.run([BINARY] + args + spawn, stdout=subprocess.PIPE,
                              text=True, timeout=ITERATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("hostbench %s timed out" % " ".join(args))
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise BenchError("hostbench %s exited %d" %
                         (" ".join(args), done.returncode))
    return json.loads(lines[-1])


def start_probe():
    """Start `hostbench probe`, which repeats a fixed reference kernel
    beside the iterations until its stdin closes, and wait until its own
    set-up is done."""
    probe = subprocess.Popen([BINARY, "probe"], stdin=subprocess.PIPE,
                             stdout=subprocess.PIPE, text=True)
    if probe.stdout.readline().strip() != "ready":
        stop_probe(probe)
        raise BenchError("the host speed probe did not start")
    return probe


def stop_probe(probe):
    """Stop the probe and return the median CPU ms of its kernel."""
    try:
        out, _ = probe.communicate(timeout=PROBE_STOP_S)
    except subprocess.TimeoutExpired:
        probe.kill()
        probe.communicate()
        raise BenchError("the host speed probe did not stop")
    if probe.returncode != 0 or not out.strip():
        raise BenchError("the host speed probe exited %d" % probe.returncode)
    return json.loads(out.strip().splitlines()[-1])["ref_ms"]


def base_args(opts):
    args = ["run", "--workload", opts.workload, "--seed", str(opts.seed),
            "--goldens", GOLDENS,
            "--store-dir", os.path.join(BUILD, "store-%d" % os.getpid())]
    return args + (["--tiny"] if opts.tiny else [])


def run_setup(opts):
    """One set-up-only process (every point of the workload): its set-up
    time from process start."""
    return run_binary(base_args(opts) + ["--setup-only"])["setup_s"]


def run_iteration(opts, traced, counters):
    """One iteration: one process, or one per point for p2p_scale."""
    points = ["summa", "hsumma"] if opts.workload == "p2p_scale" else [""]
    parts = []
    for point in points:
        args = base_args(opts)
        if point:
            args += ["--point", point]
        if opts.plant_mismatch:
            args.append("--plant-mismatch")
        if traced:
            spans = "spans-%s%s.json" % (opts.workload,
                                         "-" + point if point else "")
            args += ["--trace", "--spans", os.path.join(BUILD, spans)]
        if counters:
            args.append("--counters")
        result = run_binary(args)
        result["point"] = point
        parts.append(result)
    return merge_points(parts)


# Counters merged by maximum; every other per-point value is summed (a
# point reports zero for what belongs to the other point).
MAX_KEYS = {"desim.heap_peak", "mpc.rank_pages"}


def merge_points(parts):
    """Fold the per-point processes of one iteration into one record."""
    if len(parts) == 1:
        return parts[0]
    merged = {"attempted": 0, "failed": 0, "failures": [], "wall_s": 0.0,
              "cpu_s": 0.0, "events": 0, "peak_rss_kb": 0, "layers": {},
              "manifest": parts[0]["manifest"]}
    layers = merged["layers"]
    for part in parts:
        for key in ("attempted", "failed", "wall_s", "cpu_s", "events"):
            merged[key] += part[key]
        merged["failures"] += part["failures"]
        merged["peak_rss_kb"] = max(merged["peak_rss_kb"], part["peak_rss_kb"])
        layers["core.rss_mb." + part["point"]] = part["peak_rss_kb"] / 1024.0
        for key, value in part["layers"].items():
            if key in MAX_KEYS:
                layers[key] = max(layers.get(key, 0), value)
            else:
                layers[key] = layers.get(key, 0) + value
    run_s = layers["core.run_s.summa"] + layers["core.run_s.hsumma"]
    layers["desim.ns_per_event"] = 1e9 * run_s / merged["events"]
    # Both points simulate identical events, so this is a host-time ratio.
    layers["core.hsumma_over_summa"] = (layers["core.run_s.hsumma"] /
                                        layers["core.run_s.summa"])
    return merged


def git(*args):
    try:
        done = subprocess.run(["git", "-C", ROOT] + list(args),
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def make_manifest(opts, binary_manifest):
    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if commit else None
    manifest = dict(binary_manifest)
    manifest.update({
        "commit": commit or "unknown",
        "dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "workload": opts.workload,
        "seed": opts.seed,
        "seconds": opts.seconds,
        "tiny": opts.tiny,
    })
    manifest["comparable"] = (manifest["build_type"] == "Release"
                              and not manifest["asserts"] and not opts.tiny)
    return manifest


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(records, setups, ref_ms):
    """The gated metrics. Time is CPU time rescaled from the host speed the
    probe measured during the run (ref_ms) to the reference speed (REF_MS):
    on a shared host both the wall clock and the CPU time of a fixed piece
    of work drift with what other guests run, and the probe drifts with
    them."""
    scale = REF_MS / ref_ms
    return {
        "norm_cpu_s": scale * median([r["cpu_s"] for r in records]),
        "events_per_norm_s": median([r["events"] / r["cpu_s"]
                                     for r in records]) / scale,
        # A mean: an iteration's peak RSS takes one of two values about
        # 0.7 MB apart (whether a worker thread gets a malloc arena of its
        # own), and the median of such a mix jumps between them.
        "peak_rss_mb": statistics.mean([r["peak_rss_kb"] / 1024.0
                                        for r in records]),
        "setup_s": median(setups),
    }


def raw_times(records, ref_ms):
    """The measured times the gated ones derive from (printed, not gated)."""
    return {
        "cpu_s": median([r["cpu_s"] for r in records]),
        "wall_s": median([r["wall_s"] for r in records]),
        "events_per_s": median([r["events"] / r["wall_s"] for r in records]),
        "ref_ms": ref_ms,
    }


def unit_of(name, units):
    """The unit of a metric: BENCHMARK.json's, else read off its name."""
    if name in units:
        return units[name]
    if name.startswith("events_per_"):
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    for suffix, unit in (("_us", "us"), ("_s", "s"), ("_mb", "MB")):
        if name.endswith(suffix) or ("%s." % suffix) in name:
            return unit
    if name.endswith(".bytes") or name.endswith("_bytes"):
        return "B"
    return "ratio" if "ratio" in name or "frac" in name else "count"


def per_layer(untraced, traced):
    """Every per-layer figure: the median over traced iterations (counters
    only the first traced iteration collects come from it alone)."""
    values = {}
    for record in traced:
        wall = record["wall_s"]
        for key, value in list(record["layers"].items()):
            if key.startswith("self_s."):
                record["layers"]["self_frac." + key[7:]] = value / wall
    for name in sorted({k for r in traced for k in r["layers"]}):
        values[name] = median([r["layers"][name] for r in traced
                               if name in r["layers"]])
    values["desim.events"] = traced[0]["events"]
    values["trace.overhead_frac"] = (
        median([r["wall_s"] for r in traced]) /
        median([r["wall_s"] for r in untraced]) - 1.0)
    values["trace.accounted_frac"] = sum(
        values.get("self_frac." + layer, 0.0) for layer in LAYERS)
    return values


def run(opts):
    with open(SPEC) as spec_file:
        spec = json.load(spec_file)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] +
             spec["per_layer"]}
    build()
    goldens = os.path.join(GOLDENS, opts.workload + ".json")
    if not os.path.isfile(goldens):
        raise BenchError("missing %s" % goldens)

    # With --trace 1, untraced and traced iterations alternate: the traced
    # ones give the per-layer numbers, the pair gives the tracing overhead.
    untraced, traced = [], []
    start = time.monotonic()
    setups = [run_setup(opts) for _ in range(SETUP_RUNS)]
    probe = start_probe()
    try:
        while True:
            want_trace = opts.trace == 1 and len(traced) < len(untraced)
            record = run_iteration(opts, want_trace, want_trace and not traced)
            (traced if want_trace else untraced).append(record)
            elapsed = time.monotonic() - start
            done = len(untraced) + len(traced)
            need_pair = opts.trace == 1 and not traced
            if not need_pair and elapsed + elapsed / done > opts.seconds:
                break
    finally:
        ref_ms = stop_probe(probe)

    records = untraced + traced
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    manifest = make_manifest(opts, records[0]["manifest"])
    print("manifest " + json.dumps(manifest, sort_keys=True))
    if not manifest["comparable"]:
        print("WARNING: %s build%s: figures are not comparable with "
              "Release runs" % (manifest["build_type"],
                                " at --tiny sizes" if opts.tiny else ""))
    for record in records:
        for failure in record["failures"]:
            print("FAILED " + failure)
    print("iterations %d untraced, %d traced" % (len(untraced), len(traced)))

    e2e = end_to_end(untraced, setups, ref_ms)
    layers = per_layer(untraced, traced) if traced else {}
    printed = (list(e2e.items()) + list(raw_times(untraced, ref_ms).items()) +
               list(layers.items()))
    for name, value in printed:
        print("metric %-28s %.9g %s" % (name, value, unit_of(name, units)))
    if opts.workload == "noise_store":
        # noise_store's own end-to-end figures, from the untraced iterations.
        for name in ("publish_s", "replay_s", "replay_p50_us",
                     "replay_p99_us"):
            value = median([r["layers"][name] for r in untraced])
            print("metric %-28s %.9g %s" % (name, value, unit_of(name, {})))
        print("replay latency samples per iteration: %d" %
              untraced[0]["layers"]["replay_samples"])
    print("fail_ratio %.6g (%d failed of %d attempted operations)" %
          (failed / attempted if attempted else 0.0, failed, attempted))

    if opts.trace == 1:
        chosen = {m["name"]: layers.get(m["name"], 0.0)
                  for m in spec["per_layer"]}
    else:
        chosen = e2e
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in chosen.items()},
    }
    if opts.out:
        with open(opts.out, "a") as out:
            out.write(json.dumps(dict(result, manifest=manifest,
                                      trace=opts.trace,
                                      raw=raw_times(untraced, ref_ms))) +
                      "\n")
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


def regen_goldens():
    """Rewrite goldens/<workload>.json from the direct engine path at the
    default seed. Only for a deliberate physics change, recorded as such."""
    build()
    for workload in WORKLOADS:
        goldens = {"seed": 1}
        for size in ("full", "tiny"):
            args = ["goldens", "--workload", workload, "--seed", "1"]
            if size == "tiny":
                args.append("--tiny")
            done = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                                  text=True, check=True)
            goldens[size] = json.loads(done.stdout)
        with open(os.path.join(GOLDENS, workload + ".json"), "w") as out:
            json.dump(goldens, out, indent=0, sort_keys=True)
            out.write("\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the result and manifest as "
                        "one JSON line to this file (for compare.py)")
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes (self-test only; not comparable)")
    parser.add_argument("--plant-mismatch", action="store_true",
                        help="corrupt one golden (self-test only)")
    parser.add_argument("--regen-goldens", action="store_true")
    opts = parser.parse_args()
    try:
        if opts.regen_goldens:
            return regen_goldens()
        if opts.workload is None:
            parser.error("--workload is required")
        return run(opts)
    except BenchError as error:
        log("hostbench: %s" % error)
        return 2
    finally:
        shutil.rmtree(os.path.join(BUILD, "store-%d" % os.getpid()),
                      ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
