/**
 * @file
 * The serving workload: runOpenLoop's rpc service under Poisson clients
 * at three offered rates around its capacity (~488 req/Mcycle at 2000
 * service cycles), one rpc fan-in point with more clients than the
 * service ring has slots, and one unpinned point on an arrival seed
 * derived from the benchmark seed.
 *
 * The service and client programs live in an anonymous namespace of
 * src/workloads/openloop.cc. Compiling that file here (the benchmark's
 * build leaves it out of the simulator library) lets the benchmark run the
 * very same programs while it times the machine's constructor,
 * simulate() and destructor as separate calls.
 */

#include "workloads/openloop.cc"

#include "machines.hh"

using namespace m3;
using namespace m3::workloads;

namespace perf
{

namespace
{

constexpr uint64_t PINNED_SEED = 1;
constexpr uint32_t CLIENTS = 16;
constexpr uint32_t REQUESTS = 8000;  // per client
/** Offered rate r req/Mcycle from 16 clients: mean gap = 16e6 / r. */
constexpr uint64_t GAP_BELOW = 65574;  // 244 req/Mcycle, 0.5x capacity
constexpr uint64_t GAP_NEAR = 32787;   // 488 req/Mcycle, 1.0x
constexpr uint64_t GAP_ABOVE = 21858;  // 732 req/Mcycle, 1.5x
/** The fan-in point: one more client than the service's 32-slot ring. */
constexpr uint32_t FANIN_CLIENTS = 33;
constexpr uint32_t FANIN_REQUESTS = 50;

/** runOpenLoop's SLO report, from the request tracer's state. */
std::string
sloReport(const OpenLoopOpts &opts, uint64_t completed)
{
    const uint64_t totalReqs = uint64_t{opts.clients} * opts.requestsPerClient;
    const uint64_t firstGen = trace::ReqTrace::firstGenCycle();
    const uint64_t lastGen = trace::ReqTrace::lastGenCycle();
    const uint64_t lastEnd = trace::ReqTrace::lastEndCycle();
    const uint64_t span = lastGen > firstGen ? lastGen - firstGen : 1;
    const uint64_t tail = lastEnd > lastGen ? lastEnd - lastGen : 0;
    const uint64_t achievedSpan = lastEnd > firstGen ? lastEnd - firstGen : 1;
    std::string j = "{\"schema\": 1, \"workload\": \"openloop\", ";
    appendU64(j, "clients", opts.clients);
    appendU64(j, "requests_per_client", opts.requestsPerClient);
    appendU64(j, "mean_gap_cycles", opts.meanGapCycles);
    appendU64(j, "seed", opts.seed);
    appendU64(j, "service_cycles", opts.serviceCycles);
    appendU64(j, "kernels", opts.numKernels);
    appendU64(j, "requests", totalReqs);
    appendU64(j, "completed", completed);
    appendU64(j, "spans", trace::ReqTrace::spanCount());
    appendU64(j, "arrival_window_cycles", span);
    appendU64(j, "drain_tail_cycles", tail);
    appendU64(j, "offered_per_mcycle", totalReqs * 1000000 / span);
    appendU64(j, "achieved_per_mcycle", completed * 1000000 / achievedSpan);
    const bool sustainable = completed == totalReqs && tail * 10 <= span;
    j += "\"sustainable\": ";
    j += sustainable ? "true" : "false";
    j += ", \"classes\": ";
    j += trace::ReqTrace::sloJson();
    j += "}\n";
    return j;
}

/**
 * One open-loop machine (runOpenLoop's, serial engine). @p countDone
 * arms the request tracer for this machine even in an untraced pass, so
 * uncompleted requests can be counted.
 */
OpResult
runPoint(Ledger &l, const OpenLoopOpts &opts, bool countDone)
{
    const bool traced = trace::ReqTrace::on;
    if (countDone && !traced)
        trace::ReqTrace::enable();
    if (trace::ReqTrace::on)
        trace::ReqTrace::reset();

    uint32_t clsEcho = 0, clsKv = 0;
    M3SystemCfg cfg;
    {
        Scope s(l, "gen:inputs", Gen);
        clsEcho = trace::ReqTrace::registerClass("echo");
        clsKv = trace::ReqTrace::registerClass("kv");
        cfg.withFs = false;
        cfg.numKernels = opts.numKernels;
        cfg.appPes = opts.clients + 2;
    }

    auto boot = [&opts](M3System &sys) {
        const peid_t servicePe = sys.rootPe() + 1;
        kernel::Kernel::BootProgram prog;
        prog.pe = servicePe;
        prog.name = "rpc";
        Platform *plat = &sys.platform();
        const uint64_t serviceCycles = opts.serviceCycles;
        prog.main = [plat, servicePe, serviceCycles](vpeid_t id) {
            Env env(*plat, servicePe, id);
            int rc = rpcServiceMain(serviceCycles);
            env.vpeExit(rc);
        };
        sys.kernelInstance(sys.domainOfPe(servicePe))
            .addBootProgram(std::move(prog));
    };
    auto root = [opts, clsEcho, clsKv] {
        Env &env = Env::cur();
        std::vector<std::unique_ptr<VPE>> vpes;
        for (uint32_t c = 0; c < opts.clients; ++c) {
            auto v = std::make_unique<VPE>(env, "client" + std::to_string(c));
            if (v->err() != Error::None)
                return 10;
            uint32_t cls = (c % 2) == 0 ? clsEcho : clsKv;
            if (v->run([opts, c, cls] { return clientMain(opts, c, cls); }) !=
                Error::None)
                return 11;
            vpes.push_back(std::move(v));
        }
        int rc = 0;
        for (auto &v : vpes)
            rc |= v->wait();
        return rc;
    };
    MachineRun r = runM3(l, cfg, "openloop", root, boot);

    const uint64_t total = uint64_t{opts.clients} * opts.requestsPerClient;
    const bool known = trace::ReqTrace::on;
    const uint64_t completed = known ? trace::ReqTrace::completedCount() : 0;
    OpResult res;
    res.attempted = total;
    if (!r.finished || r.rc != 0)
        res.failed = known ? total - completed : total;
    JsonObj o;
    o.raw("rc", std::to_string(r.rc))
        .flag("finished", r.finished)
        .num("wall", r.endCycle)
        .num("events", r.events)
        .num("requests", total);
    if (countDone)
        o.num("completed", completed);
    res.outputs = o.done();
    if (traced)
        res.slo = sloReport(opts, completed);
    if (countDone && !traced)
        trace::ReqTrace::disable();
    return res;
}

Op
point(const std::string &name, bool pinned, const OpenLoopOpts &opts,
      bool countDone = false)
{
    return {name, pinned,
            [opts, countDone](Ledger &l) {
                return runPoint(l, opts, countDone);
            },
            [opts] {
                M3SystemCfg cfg;
                cfg.withFs = false;
                cfg.numKernels = opts.numKernels;
                cfg.appPes = opts.clients + 2;
                return cfg;
            }};
}

OpenLoopOpts
load(uint64_t gap, uint64_t seed)
{
    OpenLoopOpts o;
    o.clients = CLIENTS;
    o.requestsPerClient = REQUESTS;
    o.meanGapCycles = gap;
    o.seed = seed;
    o.serviceCycles = 2000;
    return o;
}

} // anonymous namespace

std::vector<Op>
serving(uint64_t seed)
{
    OpenLoopOpts fanin;
    fanin.clients = FANIN_CLIENTS;
    fanin.requestsPerClient = FANIN_REQUESTS;
    fanin.seed = PINNED_SEED;
    // The held-out arrival seed never equals the pinned one.
    const uint64_t heldOut = seed | (uint64_t{1} << 32);
    std::vector<Op> ops = {
        point("serving.below", true, load(GAP_BELOW, PINNED_SEED)),
        point("serving.near", true, load(GAP_NEAR, PINNED_SEED)),
        point("serving.above", true, load(GAP_ABOVE, PINNED_SEED)),
        point("serving.fanin", true, fanin, true),
        point("serving.heldout", false, load(GAP_NEAR, heldOut)),
    };
    return ops;
}

} // namespace perf
