#!/usr/bin/env python3
"""qmcbench: the repository benchmark.

    python3 qmcbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Run from the root of a checkout. The first call builds the harness
(qmcbench/harness.cpp against the repository's qmcxx library) into
$CARGO_TARGET_DIR, or .bench_build when that is unset. One call runs one
workload in one harness process, checks its outputs, and prints the
metrics; the last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 gives the end-to-end metrics, --trace 1 the per-layer ones.
Lines before it give the provenance block and a readable table. --out
appends the full record (result, provenance, detail) as one JSON line,
which compare.py reads.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True  # leave the checkout's sources as they are
sys.path.insert(0, HERE)
import stats  # noqa: E402

# Why each workload exists is recorded in BENCHMARK.json. Crowd size,
# warm-up, minimum generations and set-up repetitions are constants of
# the harness, which reports the warm-up and crowd size in its output.
# `feedback` is
# DriverConfig::feedback: nio32's population sits at the branching clamp
# (2 x target) either way, while graphite-32's wanders with the seed
# under the default 0.1, and its generation times with it; 1.0 holds its
# mean population at the target.
WORKLOADS = {
    "graphite_vmc_sp": dict(spec="specs/graphite.json", precision="single", method="vmc",
                            threads=1, walkers=8, feedback=0.1, checkpoint=False),
    "nio32_dmc_dp": dict(spec="specs/nio32.json", precision="double", method="dmc",
                         threads=4, walkers=16, feedback=0.1, checkpoint=False),
    "graphite32_dmc_dp_ckpt": dict(spec="specs/graphite-32.json", precision="double",
                                   method="dmc", threads=2, walkers=16, feedback=1.0,
                                   checkpoint=True),
}
SIGMA_BOUND = 5  # allowed distance from the reference energy, in reference sigmas
# Allowed relative deviation of the initial population's energy from the
# reference: room for reordered sums in the working precision only.
INITIAL_RTOL = {"double": 1e-9, "single": 1e-4}
TIME_LIMIT = 170  # seconds one harness process may take

MB = 1024.0 * 1024.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---- build ------------------------------------------------------------------

def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(bdir):
    """Configure once, then bring the harness up to date. Returns the
    harness path, or None when the build fails."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "qmcbench_harness", "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            log(r.stdout[-4000:])
            log("qmcbench: build failed: " + " ".join(cmd))
            return None
    return os.path.join(bdir, "qmcbench_harness")


# ---- provenance -------------------------------------------------------------

def cmake_cache(bdir):
    out = {}
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            for line in f:
                key, sep, val = line.rstrip("\n").partition("=")
                if sep and ":" in key and not line.startswith(("//", "#")):
                    out[key.split(":", 1)[0]] = val
    except OSError:
        pass
    return out


def source_digest():
    """sha256 over the files that make up the measured program, for
    checkouts that are not git repositories."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "specs", "qmcbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if not f.endswith(".pyc"))
        for p in files:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def git_sha():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def cpu_info():
    model, isa = None, []
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, val = line.partition(":")
                key = key.strip()
                if key == "model name" and model is None:
                    model = val.strip()
                elif key == "flags" and not isa:
                    isa = [x for x in val.split()
                           if x.startswith(("sse", "ssse", "avx", "fma", "f16c", "bmi", "amx"))]
    except OSError:
        pass
    return model, isa


def rep_summary(values):
    q1, med, q3 = stats.quartiles(values)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3}


def provenance(bdir, wl, name, args, raw, reps):
    cache = cmake_cache(bdir)
    btype = cache.get("CMAKE_BUILD_TYPE", "")
    model, isa = cpu_info()
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "compiler": {"path": cache.get("CMAKE_CXX_COMPILER"), "version": raw.get("compiler")},
        "build_type": btype,
        "flags": " ".join(x for x in (cache.get("CMAKE_CXX_FLAGS", ""),
                                      cache.get("CMAKE_CXX_FLAGS_" + btype.upper(), "")) if x),
        "cmake_options": {k: v for k, v in cache.items() if k.startswith("QMCXX_")},
        "cpu_model": model,
        "isa": isa,
        "nproc": os.cpu_count(),
        "threads": wl["threads"],
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "repetitions": {k: rep_summary(v) for k, v in reps.items() if v},
    }


# ---- metrics ------------------------------------------------------------------

def window(run, warmup):
    """Measured generations: (per-generation seconds, walkers) after the
    warm-up, timed between consecutive on_generation callbacks."""
    gens = run["gens"]
    times = [run["t_start"]] + [g[0] for g in gens]
    dts = [times[i + 1] - times[i] for i in range(warmup, len(gens))]
    return dts, [g[4] for g in gens[warmup:]]


def energy_check(run, warmup, reference, seed, precision):
    """Energy checks against the committed reference, at its seed.

    The mean local energy of the initial population (the Hamiltonian on
    the seed's starting configurations, before any move) must match the
    committed one to INITIAL_RTOL[precision], which leaves room for
    reordered floating-point sums and nothing else.

    The mean generation energy over the reference's number of
    generations after warm-up must lie within SIGMA_BOUND reference
    sigmas of the committed mean. The reference sigma is the spread of
    this mean over seeds: the series is short and still equilibrating,
    so its own reblocked error is dominated by the trend and is too wide
    to catch a wrong energy. On nio32_dmc_dp even the seed spread is too
    wide to catch a 1.2x kinetic energy; the initial-energy check is
    what catches it there.

    Returns (detail, list of failures)."""
    if reference is None:
        return None, ["no committed reference"]
    n = reference["generations"]
    es = [g[1] for g in run["gens"][warmup:warmup + n]]
    if len(es) < n:
        return None, ["fewer than %d measured generations" % n]
    mean = statistics.fmean(es)
    detail = {"mean": mean, "reblocked_sigma": stats.reblocked_sigma(es, min_blocks=2),
              "initial_energy": run["initial_energy"]}
    if seed != reference["seed"]:
        return detail, []
    why = []
    e0 = reference["initial_energy"]
    detail["initial_rel_dev"] = abs(run["initial_energy"] - e0) / abs(e0)
    if detail["initial_rel_dev"] > INITIAL_RTOL[precision]:
        why.append("initial energy %.12g differs from the reference %.12g by %.3g of it" % (
            run["initial_energy"], e0, detail["initial_rel_dev"]))
    detail["z"] = abs(mean - reference["mean"]) / reference["sigma"]
    if detail["z"] > SIGMA_BOUND:
        why.append("mean energy %.6f is %.2f sigma from the reference %.6f" % (
            mean, detail["z"], reference["mean"]))
    return detail, why


def end_to_end(raw, wl, reference, seed):
    run = raw["runs"][-1]
    dts, nws = window(run, raw["warmup"])
    samples = sum(nws)
    win = run["win_t1"] - run["win_t0"]
    gen_ms = [1e3 * d for d in dts]
    p, tail, beyond = stats.tail_percentile(gen_ms)
    setup = [sum(s.values()) for s in raw["setups"]]
    failures = list(raw["failures"]) + list(run["failures"])
    if not run["win_done"]:
        failures.append("measured window did not complete")
    detail = {"tail_percentile": p, "tail_beyond": beyond, "generations": len(gen_ms),
              "samples": samples, "peak_rss_end_mb": raw["max_rss_kb"] / 1024.0}
    energy, why = energy_check(run, raw["warmup"], reference, seed, wl["precision"])
    detail["energy"] = energy
    failures += ["energy check: " + w for w in why]
    metrics = {
        "samples_per_s": (samples / win if win > 0 else 0.0, "1/s"),
        "gen_ms_p50": (statistics.median(gen_ms), "ms"),
        "gen_ms_tail": (tail, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (run["rss_kb"] / 1024.0, "MB"),
        "cpu_ms_per_sample": (1e3 * (run["cpu1"] - run["cpu0"]) / samples if samples else 0.0,
                              "ms"),
    }
    reps = {"setup_s": setup, "gen_ms": gen_ms}
    return metrics, failures, detail, reps, len(run["gens"])


def computed_kernel_metrics(sizes, crowd):
    """Bytes moved and floating-point operations of the spline and
    min-image kernels, computed from array sizes (cache misses ignored)."""
    w = sizes["tr_bytes"]
    norb = sizes["orbitals"]
    pairs = sizes["electrons"] + sizes["ions"]  # AA + AB row per move
    # 4x4x4 coefficient lines per position: vgh does 20 flops per line
    # and orbital (value, 3 gradients, 6 hessians), v does 2.
    vgh_bytes = crowd * (64 + 10) * norb * w
    v_bytes = crowd * (64 + 1) * norb * w
    # Per pair: 3 loads, 4 stores; ~21 flops on the orthorhombic path,
    # ~150 with the general cell's reduced wrap and 8-corner search.
    flops_pair = 21 if sizes["orthorhombic"] else 150
    return {
        "wavefunction.spo.vgh_bytes_computed": (vgh_bytes, "B"),
        "wavefunction.spo.vgh_flop_computed": (crowd * 64 * 20 * norb, "flop"),
        "wavefunction.spo.v_bytes_computed": (v_bytes, "B"),
        "particle.min_image_bytes_computed": (pairs * 7 * w, "B"),
        "particle.min_image_flop_computed": (pairs * flops_pair, "flop"),
    }


def per_layer(raw, wl):
    failures = list(raw["failures"])
    for r in raw["runs"]:
        failures += r["failures"]
    spans = raw["spans"]
    runs = {r["label"]: r for r in raw["runs"]}
    untraced, traced = runs["untraced"], runs["traced"]
    one = runs.get("one_thread")
    sizes = raw["sizes"]
    nel = sizes["electrons"]
    warmup = raw["warmup"]

    # Replay fidelity: generation 0 of the first crowd, bitwise.
    rep = raw["replay"]
    if (rep["energy_mismatch"] or rep["position_mismatch"] or rep["logpsi_mismatch"]
            or rep["accepted_replay"] != rep["accepted_driver"]):
        failures.append("replay fidelity: %s" % json.dumps(
            {k: rep[k] for k in ("energy_mismatch", "position_mismatch", "logpsi_mismatch",
                                 "accepted_replay", "accepted_driver")}))

    # Decomposition invariance: the same chain with timers off and on,
    # and on one thread, must give bitwise-identical generation energies.
    for other in [traced] + ([one] if one else []):
        n = min(len(untraced["gens"]), len(other["gens"]))
        a = [g[1] for g in untraced["gens"][:n]]
        b = [g[1] for g in other["gens"][:n]]
        if n == 0 or a != b or statistics.fmean(a) != statistics.fmean(b):
            failures.append("energies differ between the %s and %s runs" % (
                untraced["label"], other["label"]))

    # Self times of the replayed generation, which must hold one span
    # per public call the replay makes.
    root = next(i for i, s in enumerate(spans) if s[0] == "replay.generation")
    expected = {"drivers.crowd_acquire": 1, "drivers.crowd_release": 1,
                "particle.mw_update": 1, "wavefunction.mw_evaluate_gl": 1,
                "wavefunction.drift_guard": 1}
    for name in ("particle.mw_prepare_move", "wavefunction.mw_eval_grad",
                 "particle.mw_make_move", "particle.mw_accept"):
        expected[name] = nel
    for comp in rep["components"]:
        for call in ("mw_ratio_grad", "mw_accept"):
            name = "wavefunction.%s.%s" % (comp, call)
            expected[name] = expected.get(name, 0) + nel
    for term in rep["hamiltonian"]:
        name = "hamiltonian." + term
        expected[name] = expected.get(name, 0) + rep["walkers"]
    wall, named, residual, problems = stats.sum_check(spans, root, expected)
    failures += ["replay span sum check: " + p for p in problems]
    st = stats.self_times(spans)
    by_name = {}
    for i in stats.subtree(spans, root):
        if i != root:
            by_name[spans[i][0]] = by_name.get(spans[i][0], 0.0) + st[i]

    def total(name):
        if name not in by_name:
            failures.append("no %s span in the replayed generation" % name)
        return by_name.get(name, 0.0)

    def durations(name):
        ds = [s[2] - s[1] for s in spans if s[0] == name]
        if not ds:
            failures.append("no %s span" % name)
        return ds or [0.0]

    us = 1e6 / nel  # per electron move, in microseconds
    def setup_median(step):
        return statistics.median(s[step] for s in raw["setups"])

    m = {
        "workloads.spec_parse_ms": (1e3 * setup_median("parse"), "ms"),
        "workloads.build_system_s": (setup_median("build"), "s"),
        "drivers.driver_ctor_ms": (1e3 * setup_median("ctor"), "ms"),
        "drivers.init_population_s": (setup_median("init"), "s"),
        "particle.mw_prepare_move_us": (total("particle.mw_prepare_move") * us, "us"),
        "particle.mw_make_move_us": (total("particle.mw_make_move") * us, "us"),
        "particle.mw_accept_us": (total("particle.mw_accept") * us, "us"),
        "particle.mw_update_ms": (1e3 * total("particle.mw_update"), "ms"),
        "particle.table_mb": (sizes["dist_table_bytes"] / MB, "MB"),
        "wavefunction.spo.mw_vgl_us": (
            1e6 * statistics.fmean(durations("wavefunction.spo.mw_vgl")), "us"),
        "wavefunction.spo.mw_v_us": (
            1e6 * statistics.fmean(durations("wavefunction.spo.mw_v")), "us"),
        "wavefunction.spo.table_mb": (sizes["spline_table_bytes"] / MB, "MB"),
        "wavefunction.mw_eval_grad_us": (total("wavefunction.mw_eval_grad") * us, "us"),
        "wavefunction.mw_evaluate_gl_ms": (1e3 * total("wavefunction.mw_evaluate_gl"), "ms"),
        "wavefunction.drift_guard_ms": (1e3 * total("wavefunction.drift_guard"), "ms"),
        "drivers.crowd_acquire_ms": (1e3 * total("drivers.crowd_acquire"), "ms"),
        "drivers.crowd_release_ms": (1e3 * total("drivers.crowd_release"), "ms"),
        "drivers.replay_gen_ms": (1e3 * wall, "ms"),
        "drivers.replay_residual_frac": (residual / wall, "ratio"),
    }
    for comp in ("j1", "j2", "det"):
        m["wavefunction.%s.mw_ratio_grad_us" % comp] = (
            total("wavefunction.%s.mw_ratio_grad" % comp) * us, "us")
        m["wavefunction.%s.mw_accept_us" % comp] = (
            total("wavefunction.%s.mw_accept" % comp) * us, "us")
    for term in ("Kinetic", "CoulombEE", "CoulombEI", "CoulombII", "NonLocalPP"):
        m["hamiltonian.%s_ms" % term] = (1e3 * total("hamiltonian." + term), "ms")
    rows = traced["drift_rows"]
    if rows:
        m["wavefunction.det.refresh_ratio"] = (traced["drift_refreshes"] / rows, "ratio")

    # Drivers and concurrency, over the traced run's measured window.
    gens = traced["gens"][warmup:]
    m["drivers.branch_ms"] = (1e3 * statistics.median(durations("drivers.branch")), "ms")
    m["drivers.population_mean"] = (statistics.fmean(g[4] for g in gens), "walkers")
    m["drivers.accept_ratio"] = (statistics.fmean(g[3] for g in gens), "ratio")
    dts_u, _ = window(untraced, warmup)
    dts_t, _ = window(traced, warmup)
    n = min(len(dts_u), len(dts_t))
    m["instrument.trace_overhead_frac"] = (sum(dts_t[:n]) / sum(dts_u[:n]) - 1.0, "ratio")
    if one:
        dts_1, _ = window(one, warmup)
        n1 = min(len(dts_1), len(dts_t))
        eff = sum(dts_1[:n1]) / (wl["threads"] * sum(dts_t[:n1]))
    else:
        eff = 1.0  # a 1-thread workload is its own 1-thread baseline
    m["concurrency.thread_eff"] = (eff, "ratio")
    m["drivers.traced_gen_ms_p50"] = (1e3 * statistics.median(dts_t), "ms")

    # Snapshot probes.
    m["io.snapshot_write_ms"] = (1e3 * statistics.median(durations("io.snapshot_write")), "ms")
    m["io.snapshot_read_ms"] = (1e3 * statistics.median(durations("io.snapshot_read")), "ms")
    m["io.snapshot_capture_ms"] = (
        1e3 * statistics.median(durations("io.snapshot_capture")), "ms")
    m["io.snapshot_mb"] = (raw["snapshot"]["bytes"] / MB, "MB")

    # Kernel buckets of the traced run, as shares of its thread time.
    thread_time = (traced["t_end"] - traced["t_start"]) * wl["threads"]
    named_frac = 0.0
    for name, (sec, _calls) in raw["kernels"].items():
        m["kernel.%s_frac" % name] = (sec / thread_time, "ratio")
        named_frac += sec / thread_time
    m["kernel.residual_frac"] = (1.0 - named_frac, "ratio")

    m.update(computed_kernel_metrics(sizes, raw["crowd"]))
    detail = {"replay": {"wall_s": wall, "named_s": named, "residual_s": residual},
              "replay_accepted": rep["accepted_per_walker"]}
    attempted = sum(len(r["gens"]) for r in raw["runs"]) + 1  # + the replayed generation
    return m, failures, detail, {"traced_gen_ms": [1e3 * d for d in dts_t]}, attempted


# ---- main ---------------------------------------------------------------------

def load_reference():
    with open(os.path.join(HERE, "reference.json")) as f:
        return json.load(f)


def run_workload(name, args, harness, bdir):
    """One harness process for one workload: prints the provenance block
    and the metric table, and returns the result object."""
    wl = WORKLOADS[name]
    scratch = os.path.join(bdir, "run-%d" % os.getpid())
    os.makedirs(scratch, exist_ok=True)
    cmd = [harness, "--spec", os.path.join(ROOT, wl["spec"]), "--precision", wl["precision"],
           "--method", wl["method"], "--threads", str(wl["threads"]),
           "--walkers", str(wl["walkers"]), "--feedback", str(wl["feedback"]),
           "--seconds", str(args.seconds),
           "--seed", str(args.seed), "--trace", str(args.trace), "--scratch", scratch]
    if wl["checkpoint"]:
        cmd += ["--checkpoint", os.path.join(scratch, "checkpoint.snap")]
    t0 = time.time()
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                           timeout=TIME_LIMIT)
        raw = json.loads(r.stdout) if r.returncode == 0 else None
        error = r.stderr.strip()[-2000:] if r.returncode != 0 else None
    except subprocess.TimeoutExpired:
        raw, error = None, "harness exceeded %d s" % TIME_LIMIT
    except ValueError as e:
        raw, error = None, "unreadable harness output: %s" % e
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    log("qmcbench: %s trace=%d seed=%d ran %.1f s" % (name, args.trace, args.seed,
                                                       time.time() - t0))
    if raw is not None and raw["error"]:
        error = raw["error"]

    names = BENCH_METRICS[args.trace]
    metrics, failures, detail, reps, attempted = {}, [], {}, {}, 1
    if error is None:
        try:
            if args.trace:
                metrics, failures, detail, reps, attempted = per_layer(raw, wl)
            else:
                metrics, failures, detail, reps, attempted = end_to_end(
                    raw, wl, load_reference().get(name), args.seed)
        except (KeyError, IndexError, StopIteration, ZeroDivisionError, ValueError) as e:
            error = "incomplete measurements: %r" % e
    if error is not None:
        failures = ["harness: " + error]
        if raw is not None:
            attempted = max(1, sum(len(r["gens"]) for r in raw.get("runs", [])))
    else:
        # Every metric BENCHMARK.json names is measured on every workload;
        # one that is not (a renamed span or component) is a failure.
        failures += ["metric %s was not produced" % n for n in names
                     if n not in metrics and n != "ok_frac"]
    # A failed check counts every generation of the invocation as failed.
    failed = attempted if failures else 0
    if args.trace == 0:
        metrics["ok_frac"] = (1.0 - failed / attempted, "ratio")
    for n in names:
        metrics.setdefault(n, (0.0, BENCH_UNITS[n]))  # reported, but the run is not correct

    prov = provenance(bdir, wl, name, args, raw or {}, reps)
    print(json.dumps({"provenance": prov}))
    for n in names:
        print("%-40s %14.6g %s" % (n, metrics[n][0], metrics[n][1]))
    if args.trace == 0 and detail.get("tail_percentile") is not None:
        print("gen_ms_tail is p%d of %d generations (%d beyond)" % (
            detail["tail_percentile"], detail["generations"], detail["tail_beyond"]))
    for f in failures:
        print("FAILED: " + f)
    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names}}
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps({"workload": name, "seed": args.seed, "trace": args.trace,
                                "result": result, "provenance": prov, "detail": detail,
                                "failures": failures}) + "\n")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                    help="one workload, or all of them one after another")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", help="append the full record to this JSON-lines file")
    args = ap.parse_args()

    bdir = build_dir()
    harness = build(bdir)
    if harness is None:
        return 1
    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args, harness, bdir)))
        return 0
    # All workloads: metric names are prefixed with the workload's.
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        print("== " + name)
        res = run_workload(name, args, harness, bdir)
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({name + "." + k: v for k, v in res["metrics"].items()})
    print(json.dumps(total))
    return 0


def _bench_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]},
            {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]})


BENCH_METRICS, BENCH_UNITS = _bench_metrics()

if __name__ == "__main__":
    sys.exit(main())
