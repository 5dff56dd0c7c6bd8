#!/usr/bin/env python3
"""Whole-run host benchmark of the M3 simulator.

Builds perfbench/m3perf from the simulator sources, runs one workload for
a host-time budget, checks every simulated output against the pins in
perfbench/pins.json and the paper-shape verdicts, prints every metric by
name with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the repository root):

    python3 perfbench/run.py --workload paper-suite|manycore|serving \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload W --record-pins   # re-pin W

--trace 0 reports the end-to-end host metrics; --trace 1 runs with the
metric registry (and, for serving, request tracing) on and reports the
per-layer metrics. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); the traced run's span tree is written
there as spans-<workload>.json.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINS = os.path.join(HERE, "pins.json")
WORKLOADS = ("paper-suite", "manycore", "serving")

SERVING_RATES = ("below", "near", "above")
REQ_CLASSES = ("echo", "kv")
REQ_PARTS = ("queue", "credit_stall", "noc", "server_queue", "service")

END_TO_END = [
    ("total_s", "s"),
    ("setup_s", "s"),
    ("run_s", "s"),
    ("teardown_s", "s"),
    ("events_per_s", "events/s"),
    ("peak_rss_mb", "MB"),
]

PHASES = ["gen", "libm3.construct", "libm3.simulate", "libm3.destroy",
          "linuxsim.construct", "linuxsim.simulate", "linuxsim.destroy"]


def phase_metric(phase):
    return "workloads.gen_s" if phase == "gen" else phase + "_s"


SPAN_KINDS = ["workload", "op"] + PHASES
REGISTRY = [
    ("sim.events_executed", "count"),
    ("sim.peak_pending", "count"),
    ("sim.callback_heap_fallbacks", "count"),
    ("noc.packets", "count"),
    ("noc.payload_bytes", "bytes"),
    ("noc.contention_stalls", "cycles"),
    ("dtu.msgs_sent", "count"),
    ("dtu.credit_denials", "count"),
    ("dtu.msgs_dropped", "count"),
    ("dtu.bytes_read", "bytes"),
    ("dtu.bytes_written", "bytes"),
    ("kernel.syscalls", "count"),
    ("kernel.vpes_created", "count"),
    ("kernel.ik_requests_sent", "count"),
    ("m3fs.cache.hits", "count"),
    ("m3fs.cache.misses", "count"),
]
PROBES = [
    ("sim.event_ns", "ns"),
    ("sim.fiber_switch_ns", "ns"),
    ("noc.send_ns", "ns"),
    ("dtu.msg_roundtrip_ns", "ns"),
    ("dtu.bulk_ns_per_kib", "ns/KiB"),
]


def per_layer_metrics():
    """(name, unit) of every per-layer metric, in report order."""
    out = [(phase_metric(PHASES[0]), "s"), ("mem.dram_init_s", "s"),
           ("m3fs.image_build_s", "s")]
    out += [(phase_metric(p), "s") for p in PHASES[1:]]
    out += REGISTRY + PROBES
    out += [("sim.run_ns_per_event", "ns"),
            ("dtu.send_success_ratio", "ratio"),
            ("m3fs.cache.hit_ratio", "ratio"),
            ("libm3.app_cycles", "cycles"),
            ("libm3.xfer_cycles", "cycles"),
            ("libm3.os_cycles", "cycles")]
    for rate in SERVING_RATES:
        out.append(("trace.%s.req_achieved_per_mcycle" % rate, "req/Mcycle"))
        for cls in REQ_CLASSES:
            pre = "trace.%s.%s." % (rate, cls)
            out += [(pre + "req_p50_cycles", "cycles"),
                    (pre + "req_p999_cycles", "cycles")]
            out += [(pre + "req_" + part, "cycles") for part in REQ_PARTS]
    out += [("trace.overhead_s", "s"), ("failed_share", "ratio")]
    out += [("span.%s.self_s" % k, "s") for k in SPAN_KINDS]
    return out


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build m3perf; return its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "libm3", "m3system.hh")):
        log("perfbench: simulator sources (src/) not found")
        return None
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    bdir = os.path.join(ROOT, target, "perfbench")
    jobs = str(max(1, min(8, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode:
            log("perfbench: build failed: " + " ".join(cmd))
            return None
    return bdir


def tail(xs):
    """Highest nearest-rank percentile with at least ten samples beyond
    it: (label, value), or None below eleven samples."""
    n = len(xs)
    if n < 11:
        return None
    k = n - 11
    return ("p%d" % (100 * (k + 1) // n), sorted(xs)[k])


# --- correctness ------------------------------------------------------

def verdicts(out):
    """The paper-shape checks of the fig3/5/6/7 benches, over the
    paper-suite outputs: (claim, holds, ops involved)."""
    w = {k: v["wall"] for k, v in out.items()}
    g = lambda k, f: out[k][f]
    other = lambda k: g(k, "busy") - g(k, "xfer")
    res = []

    def check(claim, ops, fn):
        res.append((claim, bool(fn()), ops))

    it = 64  # fig3_syscall iterations
    check("fig3: M3 syscall is ~200 cycles", ["fig3.syscall.m3"],
          lambda: 150 <= w["fig3.syscall.m3"] <= 260)
    check("fig3: Linux syscall is ~410 cycles", ["fig3.syscall.lx"],
          lambda: 390 <= w["fig3.syscall.lx"] <= 430)
    check("fig3: M3 syscall transfers are ~30 cycles", ["fig3.syscall.m3"],
          lambda: 15 <= g("fig3.syscall.m3", "xfer") // it <= 60)
    check("fig3: M3 syscall is about twice as fast as Linux",
          ["fig3.syscall.m3", "fig3.syscall.lx"],
          lambda: 1.7 < w["fig3.syscall.lx"] / w["fig3.syscall.m3"] < 2.6)
    fops = ["fig3.%s.%s" % (o, s) for o in ("read", "write", "pipe")
            for s in ("m3", "lx", "lx-hit")]
    check("fig3: M3 wins each file operation by >3x", fops,
          lambda: all(w["fig3.%s.lx" % o] > 3 * w["fig3.%s.m3" % o]
                      for o in ("read", "write", "pipe")))
    check("fig3: much of the difference is data transfers", fops,
          lambda: g("fig3.read.lx", "xfer") > 4 * g("fig3.read.m3", "xfer")
          and g("fig3.pipe.lx", "xfer") > 4 * g("fig3.pipe.m3", "xfer"))
    check("fig3: M3 has much less OS overhead on read", fops,
          lambda: other("fig3.read.lx") > 3 * other("fig3.read.m3"))
    check("fig3: Lx-$ sits between M3 and Lx", fops,
          lambda: w["fig3.read.m3"] < w["fig3.read.lx-hit"] <
          w["fig3.read.lx"])
    check("fig3: write costs more than read on Linux", fops,
          lambda: w["fig3.write.lx"] > w["fig3.read.lx"])
    check("fig3: the pipe is the most expensive op on Linux", fops,
          lambda: w["fig3.pipe.lx"] > max(w["fig3.read.lx"],
                                          w["fig3.write.lx"]))

    apps = ["cat+tr", "tar", "untar", "find", "sqlite"]
    ratio = lambda a: w["fig5.%s.m3" % a] / w["fig5.%s.lx" % a]
    bounds = {"cat+tr": (0.40, 0.65), "tar": (0.12, 0.30),
              "untar": (0.10, 0.26), "find": (1.0, 1.6), "sqlite": (0.80, 1.0)}
    for a in apps:
        lo, hi = bounds[a]
        ops = ["fig5.%s.%s" % (a, s) for s in ("m3", "lx", "lx-hit")]
        if a == "sqlite":
            check("fig5: sqlite M3/Lx in (0.80, 1.0]", ops,
                  lambda: lo < ratio(a) <= hi)
            check("fig5: sqlite is dominated by computation on both", ops,
                  lambda: all(g(k, "app") > g(k, "os") + g(k, "xfer")
                              for k in ("fig5.sqlite.m3", "fig5.sqlite.lx")))
        else:
            check("fig5: %s M3/Lx in (%.2f, %.2f)" % (a, lo, hi), ops,
                  lambda a=a, lo=lo, hi=hi: lo < ratio(a) < hi)

    norm = lambda b, n: w["fig6.%s.x%d" % (b, n)] / w["fig6.%s.x1" % b]
    f6 = ["fig6.%s.x%d" % (b, n) for b in apps for n in (1, 2, 4, 8, 16)]
    check("fig6: all benchmarks scale to 4 instances within 25%", f6,
          lambda: all(norm(b, 4) < 1.25 for b in apps))
    check("fig6: cat+tr shows nearly no degradation at 16", f6,
          lambda: norm("cat+tr", 16) < 1.2)
    check("fig6: sqlite stays acceptable at 16", f6,
          lambda: norm("sqlite", 16) < 1.5)
    check("fig6: find degrades significantly at 16", f6,
          lambda: norm("find", 16) > 1.5)
    check("fig6: find/untar degrade more than cat+tr/sqlite at 16", f6,
          lambda: norm("find", 16) > norm("cat+tr", 16)
          and norm("untar", 16) > norm("sqlite", 16))
    ds = lambda b, s, r="": "fig6.distfs.%s.s%d%s" % (b, s, r)
    dops = [k for k in out if k.startswith("fig6.distfs.")]
    sp = lambda b, s: w[ds(b, 1)] / w[ds(b, s)]
    cost = lambda b, s: w[ds(b, s, ".r2")] / w[ds(b, s)]
    check("fig6: 2 stripes beat one instance on tar and untar", dops,
          lambda: sp("tar", 2) > 1.0 and sp("untar", 2) > 1.0)
    check("fig6: 4 stripes deliver >= 1.6x tar/untar bandwidth", dops,
          lambda: sp("tar", 4) >= 1.6 and sp("untar", 4) >= 1.6)
    check("fig6: replication never speeds a run up", dops,
          lambda: all(cost(b, s) >= 1.0 for b in ("tar", "untar")
                      for s in (2, 4)))
    check("fig6: R=2 cost stays under 2x at 2 stripes", dops,
          lambda: cost("tar", 2) < 2.0 and cost("untar", 2) < 2.0)
    check("fig6: R=2 write amplification stays under 2.75x", dops,
          lambda: cost("tar", 4) < 2.75 and cost("untar", 4) < 2.75)

    f7 = ["fig7.fft.lx", "fig7.fft.m3", "fig7.fft.m3-accel"]
    check("fig7: the accelerator speeds the FFT up ~30x", f7,
          lambda: 20 < g("fig7.fft.m3", "app") / g("fig7.fft.m3-accel",
                                                   "app") < 40)
    check("fig7: M3 software beats the Linux chain", f7,
          lambda: w["fig7.fft.m3"] < w["fig7.fft.lx"])
    check("fig7: chain overhead is much smaller on M3", f7,
          lambda: g("fig7.fft.lx", "os") + g("fig7.fft.lx", "xfer") >
          3 * (g("fig7.fft.m3-accel", "os") + g("fig7.fft.m3-accel", "xfer")))
    check("fig7: with the accelerator, overhead dominates the FFT", f7,
          lambda: g("fig7.fft.m3-accel", "app") < w["fig7.fft.m3-accel"] // 2)
    return res


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def check_outputs(doc, pins):
    """Check outputs against pins, repeat determinism and verdicts.
    Returns (correct, attempted, failed, problems)."""
    ops = doc["ops"]
    problems = []
    failed = {o["name"]: o["failed"] for o in ops}
    for o in ops:
        name = o["name"]
        if o["differing_passes"]:
            problems.append("%s: outputs differ between passes" % name)
        if not o["pinned"]:
            continue
        got = dict(o["outputs"])
        want = dict(pins.get(name, {}))
        if "slo" in o:
            got["slo_sha256"] = sha(o["slo"])
        else:  # the SLO report exists only in traced runs
            want.pop("slo_sha256", None)
        if got != want:
            problems.append("%s: outputs differ from pin\n    got  %s\n"
                            "    want %s" % (name, json.dumps(got),
                                             json.dumps(want)))
            failed[name] = o["attempted"]
    if doc["workload"] == "paper-suite":
        out = {o["name"]: o["outputs"] for o in ops}
        att = {o["name"]: o["attempted"] for o in ops}
        for claim, holds, involved in verdicts(out):
            log("  [%s] %s" % ("PASS" if holds else "FAIL", claim))
            if not holds:
                problems.append("verdict failed: " + claim)
                for k in involved:
                    failed[k] = att[k]
    attempted = sum(o["attempted"] for o in ops)
    return not problems, attempted, sum(failed.values()), problems


# --- metrics ----------------------------------------------------------

def report(name, unit, value, samples=None):
    line = "%-44s %16.6g %-10s" % (name, value, unit)
    if samples is not None:
        line += " median of %d" % len(samples)
        t = tail(samples)
        if t:
            line += ", %s %.6g" % t
    print(line)


def pass_series(passes):
    """Per-pass end-to-end values of the untraced passes."""
    ph = lambda p, *ks: sum(p["phase_s"][k] for k in ks)
    s = {k: [] for k, _ in END_TO_END if k != "peak_rss_mb"}
    for p in passes:
        s["total_s"].append(p["total_s"])
        s["setup_s"].append(ph(p, "gen", "libm3.construct",
                               "linuxsim.construct"))
        s["run_s"].append(ph(p, "libm3.simulate", "linuxsim.simulate"))
        s["teardown_s"].append(ph(p, "libm3.destroy", "linuxsim.destroy"))
        s["events_per_s"].append(p["events"] / p["total_s"])
    return s


def end_to_end(doc):
    plain = [p for p in doc["passes"] if not p["traced"]]
    metrics = {}
    for name, unit in END_TO_END:
        if name == "peak_rss_mb":
            value, samples = doc["peak_rss_kb"] / 1024.0, None
        else:
            samples = pass_series(plain)[name]
            value = statistics.median(samples)
        report(name, unit, value, samples)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def per_layer(doc, attempted, failed):
    plain = [p for p in doc["passes"] if not p["traced"]]
    traced = [p for p in doc["passes"] if p["traced"]]
    reg = doc["registry"]
    vals, samples = {}, {}
    for ph in PHASES:
        key = phase_metric(ph)
        samples[key] = [p["phase_s"][ph] for p in plain]
        vals[key] = statistics.median(samples[key])
    vals["mem.dram_init_s"] = doc["mem.dram_init_s"]
    vals["m3fs.image_build_s"] = doc["m3fs.image_build_s"]
    for name, _ in REGISTRY:
        vals[name] = reg[name]
    for name, _ in PROBES:
        samples[name] = doc["probes"][name]
        vals[name] = statistics.median(samples[name])
    ev = reg["sim.events_executed"]
    vals["sim.run_ns_per_event"] = (
        vals["libm3.simulate_s"] * 1e9 / ev if ev else 0.0)
    sent, denied = reg["dtu.msgs_sent"], reg["dtu.credit_denials"]
    vals["dtu.send_success_ratio"] = sent / (sent + denied) if sent else 0.0
    hits, misses = reg["m3fs.cache.hits"], reg["m3fs.cache.misses"]
    vals["m3fs.cache.hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0)
    m3ops = [o["outputs"] for o in doc["ops"] if "app" in o["outputs"]
             and not o["name"].endswith((".lx", ".lx-hit"))]
    for part in ("app", "xfer", "os"):
        vals["libm3.%s_cycles" % part] = sum(o[part] for o in m3ops)
    slos = {o["name"].split(".", 1)[1]: json.loads(o["slo"])
            for o in doc["ops"] if "slo" in o}
    for rate in SERVING_RATES:
        slo = slos.get(rate, {})
        vals["trace.%s.req_achieved_per_mcycle" % rate] = slo.get(
            "achieved_per_mcycle", 0)
        for cls in REQ_CLASSES:
            c = slo.get("classes", {}).get(cls, {})
            pre = "trace.%s.%s." % (rate, cls)
            vals[pre + "req_p50_cycles"] = c.get("p50", 0)
            vals[pre + "req_p999_cycles"] = c.get("p999", 0)
            for part in REQ_PARTS:
                vals[pre + "req_" + part] = c.get("decomposition", {}).get(
                    part, 0)
    total = lambda ps: statistics.median(p["total_s"] for p in ps)
    vals["trace.overhead_s"] = total(traced) - total(plain)
    vals["failed_share"] = failed / attempted
    for k in SPAN_KINDS:
        vals["span.%s.self_s" % k] = doc["span_self_s"].get(k, 0.0)
    metrics = {}
    for name, unit in per_layer_metrics():
        report(name, unit, vals[name], samples.get(name))
        metrics[name] = {"value": vals[name], "unit": unit}
    return metrics


def host_info():
    mem_kb = 0
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    return {"host_cores": os.cpu_count(),
            "host_mem_gib": round(mem_kb / 2**20, 1)}


def run_m3perf(bdir, args, seconds, trace):
    cmd = [os.path.join(bdir, "m3perf"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if trace:
        cmd += ["--spans",
                os.path.join(bdir, "spans-%s.json" % args.workload)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=170)
    if proc.returncode:
        log("perfbench: m3perf exited with %d" % proc.returncode)
        return None
    return json.loads(proc.stdout)


def record_pins(doc):
    pins = {}
    if os.path.isfile(PINS):
        with open(PINS) as f:
            pins = json.load(f)
    entry = {}
    for o in doc["ops"]:
        if o["differing_passes"]:
            log("perfbench: %s is not deterministic; not pinned" % o["name"])
            return 1
        if o["pinned"]:
            entry[o["name"]] = dict(o["outputs"])
            if "slo" in o:
                entry[o["name"]]["slo_sha256"] = sha(o["slo"])
    pins["host"] = host_info()
    pins.setdefault("workloads", {})[doc["workload"]] = entry
    # One operation per line keeps pin changes readable in a diff.
    lines = ['{"host": %s,' % json.dumps(pins["host"], sort_keys=True),
             ' "workloads": {']
    wls = sorted(pins["workloads"])
    for i, wl in enumerate(wls):
        ops = pins["workloads"][wl]
        lines.append('  %s: {' % json.dumps(wl))
        names = sorted(ops)
        for j, name in enumerate(names):
            lines.append('   %s: %s%s' % (json.dumps(name), json.dumps(
                ops[name], sort_keys=True), "," if j + 1 < len(names) else ""))
        lines.append("  }" + ("," if i + 1 < len(wls) else ""))
    lines.append(" }}")
    with open(PINS, "w") as f:
        f.write("\n".join(lines) + "\n")
    log("perfbench: pinned %d operations of %s" % (len(entry),
                                                   doc["workload"]))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-pins", action="store_true",
                    help="write this workload's outputs to pins.json")
    args = ap.parse_args()

    bdir = build()
    if bdir is None:
        return 2
    if args.record_pins:
        doc = run_m3perf(bdir, args, 1, 1)
        return 1 if doc is None else record_pins(doc)

    doc = run_m3perf(bdir, args, args.seconds, args.trace)
    if doc is None:
        return 1
    pins = {}
    if os.path.isfile(PINS):
        with open(PINS) as f:
            pins = json.load(f).get("workloads", {}).get(args.workload, {})
    correct, attempted, failed, problems = check_outputs(doc, pins)
    for p in problems:
        log("perfbench: " + p)
    print("%s, seed %d, %d passes, %d operations, %d failed"
          % (args.workload, args.seed, len(doc["passes"]), attempted, failed))
    metrics = (per_layer(doc, attempted, failed) if args.trace
               else end_to_end(doc))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
