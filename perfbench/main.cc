/**
 * @file
 * m3perf: runs one benchmark workload for a host-time budget and prints
 * one JSON document with every pass's host times, every operation's
 * simulated outputs and, with --trace 1, the per-layer data: metric
 * registry counters, span self times and the isolated layer probes.
 * perfbench/run.py builds this program, checks the outputs against the
 * pins and turns the document into metrics.
 *
 * Usage:
 *   m3perf --workload paper-suite|manycore|serving --seed N --seconds S
 *          --trace 0|1 [--spans FILE]
 *
 * Every machine runs on the serial engine in this one host thread.
 */

#include <sys/resource.h>

#include <cstdio>
#include <fstream>
#include <map>

#include "perf.hh"
#include "probes.hh"
#include "trace/metrics.hh"
#include "trace/reqtrace.hh"

using namespace m3;

namespace perf
{

// --- JSON writer ------------------------------------------------------

namespace
{

std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

} // anonymous namespace

void
JsonObj::key(const std::string &k)
{
    if (!body.empty())
        body += ", ";
    body += quote(k) + ": ";
}

JsonObj &
JsonObj::num(const std::string &k, uint64_t v)
{
    key(k);
    body += std::to_string(v);
    return *this;
}

JsonObj &
JsonObj::real(const std::string &k, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    key(k);
    body += buf;
    return *this;
}

JsonObj &
JsonObj::flag(const std::string &k, bool v)
{
    key(k);
    body += v ? "true" : "false";
    return *this;
}

JsonObj &
JsonObj::str(const std::string &k, const std::string &v)
{
    key(k);
    body += quote(v);
    return *this;
}

JsonObj &
JsonObj::raw(const std::string &k, const std::string &json)
{
    key(k);
    body += json;
    return *this;
}

namespace
{

std::string
jsonList(const std::vector<double> &v)
{
    std::string out = "[";
    char buf[64];
    for (size_t i = 0; i < v.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%s%.17g", i ? ", " : "", v[i]);
        out += buf;
    }
    return out + "]";
}

// --- passes -----------------------------------------------------------

const char *const PHASE_NAMES[NumPhases] = {
    "gen",          "libm3.construct",    "libm3.simulate",
    "libm3.destroy", "linuxsim.construct", "linuxsim.simulate",
    "linuxsim.destroy",
};

/** Registry entries the traced pass reports (counters unless noted). */
const char *const REGISTRY_COUNTERS[] = {
    "sim.events_executed", "sim.callback_heap_fallbacks",
    "noc.packets",         "noc.payload_bytes",
    "noc.contention_stalls", "dtu.msgs_sent",
    "dtu.credit_denials",  "dtu.msgs_dropped",
    "dtu.bytes_read",      "dtu.bytes_written",
    "kernel.syscalls",     "kernel.vpes_created",
    "kernel.ik_requests_sent", "m3fs.cache.hits",
    "m3fs.cache.misses",
};

struct Pass
{
    bool traced = false;
    double total = 0;
    Ledger ledger;
    std::vector<OpResult> ops;
    std::map<std::string, uint64_t> registry;
};

Pass
runPass(const std::vector<Op> &ops, bool traced, bool reqTrace)
{
    Pass p;
    p.traced = traced;
    p.ledger.spansOn = traced;
    if (traced) {
        trace::Metrics::reset();
        trace::Metrics::enable();
        if (reqTrace)
            trace::ReqTrace::enable();
    }
    p.ledger.origin = Clock::now();
    {
        Scope root(p.ledger, "workload");
        for (const Op &op : ops) {
            Scope s(p.ledger, ("op:" + op.name).c_str());
            p.ops.push_back(op.run(p.ledger));
        }
    }
    p.total = secondsBetween(p.ledger.origin, Clock::now());
    if (traced) {
        for (const char *name : REGISTRY_COUNTERS)
            p.registry[name] = trace::Metrics::counter(name).value.load();
        p.registry["sim.peak_pending"] =
            trace::Metrics::gauge("sim.peak_pending").value.load();
        trace::Metrics::disable();
        trace::ReqTrace::disable();
    }
    return p;
}

std::string
passJson(const Pass &p)
{
    JsonObj phases;
    for (int i = 0; i < NumPhases; ++i)
        phases.real(PHASE_NAMES[i], p.ledger.phase[i]);
    return JsonObj()
        .flag("traced", p.traced)
        .real("total_s", p.total)
        .raw("phase_s", phases.done())
        .num("events", p.ledger.events)
        .done();
}

/** Self time of each span kind (the name up to ':'). */
std::map<std::string, double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<double> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        self[i] += spans[i].end - spans[i].start;
        if (spans[i].parent >= 0)
            self[spans[i].parent] -= spans[i].end - spans[i].start;
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans.size(); ++i)
        out[spans[i].name.substr(0, spans[i].name.find(':'))] += self[i];
    return out;
}

bool
writeSpans(const std::string &path, const std::vector<Span> &spans)
{
    std::ofstream f(path);
    if (!f)
        return false;
    // Ids count from 1; parent 0 is the root's (absent) parent.
    f << "{\"unit\": \"s\", \"spans\": [\n";
    for (size_t i = 0; i < spans.size(); ++i)
        f << JsonObj()
                 .num("id", i + 1)
                 .num("parent", static_cast<uint64_t>(spans[i].parent + 1))
                 .str("name", spans[i].name)
                 .real("start", spans[i].start)
                 .real("end", spans[i].end)
                 .done()
          << (i + 1 < spans.size() ? ",\n" : "\n");
    f << "]}\n";
    return static_cast<bool>(f);
}

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: m3perf --workload paper-suite|manycore|serving "
                 "--seed N --seconds S --trace 0|1 [--spans FILE]\n");
    std::exit(2);
}

} // anonymous namespace

} // namespace perf

int
main(int argc, char **argv)
{
    using namespace perf;
    std::string workload, spansPath;
    uint64_t seed = 0;
    double seconds = 0;
    int traceMode = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string a = argv[i];
        const char *v = argv[i + 1];
        if (a == "--workload")
            workload = v;
        else if (a == "--seed")
            seed = std::strtoull(v, nullptr, 10);
        else if (a == "--seconds")
            seconds = std::strtod(v, nullptr);
        else if (a == "--trace")
            traceMode = std::atoi(v);
        else if (a == "--spans")
            spansPath = v;
        else
            usage();
    }
    if (argc % 2 == 0 || seconds <= 0 || (traceMode != 0 && traceMode != 1))
        usage();

    std::vector<Op> ops;
    if (workload == "paper-suite")
        ops = paperSuite(seed);
    else if (workload == "manycore")
        ops = manycore(seed);
    else if (workload == "serving")
        ops = serving(seed);
    else
        usage();
    const bool traced = traceMode == 1;
    const bool reqTrace = workload == "serving";

    // Passes until the budget would be exceeded, at least two (repeat
    // determinism). A traced run alternates untraced and traced passes
    // and leaves part of the budget to the probes.
    std::vector<Pass> passes;
    const auto start = Clock::now();
    const double budget = traced ? 0.6 * seconds : seconds;
    double last = 0;
    uint64_t peakRssKb = 0;
    do {
        auto t0 = Clock::now();
        passes.push_back(runPass(ops, false, reqTrace));
        if (passes.size() == 1) {
            // The process has run exactly one workload pass so far.
            struct rusage ru;
            getrusage(RUSAGE_SELF, &ru);
            peakRssKb = static_cast<uint64_t>(ru.ru_maxrss);
        }
        if (traced)
            passes.push_back(runPass(ops, true, reqTrace));
        last = secondsBetween(t0, Clock::now());
    } while (passes.size() < 2 ||
             secondsBetween(start, Clock::now()) + last <= budget);

    // Per operation: totals over the passes, outputs of the first pass,
    // and how many later passes produced different outputs.
    std::string opsJson = "[";
    for (size_t i = 0; i < ops.size(); ++i) {
        uint64_t attempted = 0, failed = 0, differing = 0;
        const OpResult &first = passes[0].ops[i];
        std::string slo;
        for (const Pass &p : passes) {
            const OpResult &r = p.ops[i];
            attempted += r.attempted;
            failed += r.failed;
            if (r.outputs != first.outputs) {
                ++differing;
                failed += r.attempted - r.failed;
            }
            if (!r.slo.empty()) {
                if (!slo.empty() && r.slo != slo)
                    ++differing;
                slo = r.slo;
            }
        }
        JsonObj o;
        o.str("name", ops[i].name)
            .flag("pinned", ops[i].pinned)
            .num("attempted", attempted)
            .num("failed", failed)
            .num("differing_passes", differing)
            .raw("outputs", first.outputs);
        if (!slo.empty())
            o.str("slo", slo);
        opsJson += (i ? ",\n  " : "\n  ") + o.done();
    }
    opsJson += "\n]";

    std::string passesJson = "[";
    for (size_t i = 0; i < passes.size(); ++i)
        passesJson += (i ? ",\n  " : "\n  ") + passJson(passes[i]);
    passesJson += "\n]";

    JsonObj doc;
    doc.str("workload", workload)
        .num("seed", seed)
        .flag("traced", traced)
        .raw("passes", passesJson)
        .raw("ops", opsJson);

    if (traced) {
        const Pass &tp = passes.back();
        JsonObj reg;
        for (const auto &[k, v] : tp.registry)
            reg.num(k, v);
        JsonObj self;
        for (const auto &[k, v] : selfTimes(tp.ledger.spans))
            self.real(k, v);
        if (!spansPath.empty() && !writeSpans(spansPath, tp.ledger.spans)) {
            std::fprintf(stderr, "m3perf: cannot write %s\n",
                         spansPath.c_str());
            return 1;
        }

        // Isolated probes, sized by what the traced pass saw.
        SetupCost setup;
        for (const Op &op : ops) {
            if (!op.m3cfg)
                continue;
            SetupCost c = probeSetup(op.m3cfg());
            setup.dramInit += c.dramInit;
            setup.imageBuild += c.imageBuild;
        }
        JsonObj probes;
        probes.raw("sim.event_ns",
                   jsonList(probeEventNs(tp.registry.at("sim.peak_pending"))))
            .raw("sim.fiber_switch_ns", jsonList(probeFiberSwitchNs()))
            .raw("noc.send_ns", jsonList(probeNocSendNs(tp.ledger.maxNodes)))
            .raw("dtu.msg_roundtrip_ns", jsonList(probeDtuRoundTripNs()))
            .raw("dtu.bulk_ns_per_kib", jsonList(probeDtuBulkNsPerKiB()));
        doc.raw("registry", reg.done())
            .raw("span_self_s", self.done())
            .real("mem.dram_init_s", setup.dramInit)
            .real("m3fs.image_build_s", setup.imageBuild)
            .num("mesh_nodes", tp.ledger.maxNodes)
            .raw("probes", probes.done());
    }

    doc.num("peak_rss_kb", peakRssKb);
    std::printf("%s\n", doc.done().c_str());
    return 0;
}
