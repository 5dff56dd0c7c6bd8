#include "machines.hh"

#include <algorithm>
#include <memory>

#include "libm3/vpe.hh"
#include "m3fs/client.hh"
#include "m3fs/distfs.hh"
#include "workloads/generators.hh"
#include "workloads/lx_replay.hh"
#include "workloads/m3_replay.hh"

using namespace m3;
using namespace m3::workloads;

namespace perf
{

OpResult
MachineRun::result(const std::vector<Cycles> *instances) const
{
    JsonObj o;
    o.raw("rc", std::to_string(rc))
        .flag("finished", finished)
        .num("wall", wall)
        .num("app", acct.total(Category::App))
        .num("xfer", acct.total(Category::Xfer))
        .num("os", acct.total(Category::Os))
        .num("busy", acct.totalBusy())
        .num("events", events);
    if (instances) {
        std::string list = "[";
        for (size_t i = 0; i < instances->size(); ++i)
            list += (i ? "," : "") + std::to_string((*instances)[i]);
        o.raw("instances", list + "]");
    }
    OpResult r;
    r.failed = (finished && rc == 0) ? 0 : 1;
    r.outputs = o.done();
    return r;
}

MachineRun
runM3(Ledger &l, M3SystemCfg cfg, const std::string &name,
      std::function<int()> root,
      const std::function<void(M3System &)> &boot)
{
    MachineRun r;
    std::unique_ptr<M3System> sys;
    {
        Scope s(l, "libm3.construct", M3Construct);
        sys = std::make_unique<M3System>(std::move(cfg));
        if (boot)
            boot(*sys);
        sys->runRoot(name, std::move(root));
    }
    {
        Scope s(l, "libm3.simulate", M3Simulate);
        r.finished = sys->simulate();
    }
    r.rc = r.finished ? sys->rootExitCode() : -1;
    r.endCycle = sys->now();
    r.acct = sys->appAccounting();
    r.events = sys->eventsExecuted();
    l.events += r.events;
    l.maxNodes = std::max(l.maxNodes, sys->platform().peCount() +
                                          sys->platform().dramModules());
    {
        Scope s(l, "libm3.destroy", M3Destroy);
        sys.reset();
    }
    return r;
}

MachineRun
runM3Mounted(Ledger &l, M3SystemCfg cfg, const std::string &name,
             std::function<int(Env &)> body)
{
    Cycles wall = 0;
    MachineRun r = runM3(l, std::move(cfg), name, [&wall, &body] {
        Env &env = Env::cur();
        if (m3fs::M3fsSession::mount(env, "/") != Error::None)
            return 100;
        env.acct().reset();
        Cycles t0 = env.platform.simulator().curCycle();
        int rc = body(env);
        wall = env.platform.simulator().curCycle() - t0;
        return rc;
    });
    r.wall = wall;
    return r;
}

MachineRun
runLx(Ledger &l, const lx::LinuxConfig &cfg, const FsSetup &setup,
      const std::string &name, std::function<int(lx::Process &)> body)
{
    MachineRun r;
    std::unique_ptr<lx::Machine> m;
    Cycles t0 = 0, t1 = 0;
    int rc = -1;
    bool done = false;
    {
        Scope s(l, "linuxsim.construct", LxConstruct);
        m = std::make_unique<lx::Machine>(cfg);
        applySetupToTmpfs(setup, m->fs());
        lx::Machine *mp = m.get();
        m->spawnInit(name, [&, mp](lx::Process &p) {
            p.accounting().reset();
            t0 = mp->now();
            rc = body(p);
            t1 = mp->now();
            done = true;
            return rc;
        });
    }
    {
        Scope s(l, "linuxsim.simulate", LxSimulate);
        m->simulate();
    }
    r.finished = done;
    r.rc = rc;
    r.wall = t1 - t0;
    r.acct = m->mergedAccounting();
    r.events = m->eventsExecuted();
    l.events += r.events;
    {
        Scope s(l, "linuxsim.destroy", LxDestroy);
        m.reset();
    }
    return r;
}

M3SystemCfg
traceCfg(const FsSetup &setup)
{
    // runners.cc makeM3Cfg with default M3RunOpts.
    M3RunOpts opts;
    M3SystemCfg cfg;
    cfg.appPes = opts.appPes;
    cfg.costs = opts.costs;
    cfg.fsCfg.appendBlocks = opts.fsAppendBlocks;
    cfg.fsCfg.backgroundZero = opts.fsBackgroundZero;
    applySetupToImage(setup, cfg.fsSpec);
    for (auto &f : cfg.fsSpec.files)
        f.blocksPerExtent = opts.fsBlocksPerExtent;
    cfg.fsSpec.totalBlocks = 32768;
    return cfg;
}

M3SystemCfg
microCfg(uint32_t appPes, const m3fs::FsImageSpec &spec)
{
    // micro.cc runMicroM3 with default M3RunOpts.
    M3RunOpts opts;
    M3SystemCfg cfg;
    cfg.appPes = appPes;
    cfg.costs = opts.costs;
    cfg.fsSpec = spec;
    cfg.fsCfg.appendBlocks = opts.fsAppendBlocks;
    cfg.fsCfg.backgroundZero = opts.fsBackgroundZero;
    return cfg;
}

namespace
{

/** runners.cc: give every path of @p w an instance-private prefix. */
Workload
namespaced(const Workload &w, uint32_t instance)
{
    std::string prefix = "/i" + std::to_string(instance);
    Workload out = w;
    out.setup.dirs.clear();
    out.setup.dirs.push_back(prefix);
    for (const std::string &d : w.setup.dirs)
        out.setup.dirs.push_back(prefix + d);
    for (auto &f : out.setup.files)
        f.path = prefix + f.path;
    for (auto &op : out.trace) {
        if (!op.path.empty())
            op.path = prefix + op.path;
        if (!op.path2.empty())
            op.path2 = prefix + op.path2;
    }
    return out;
}

CatTrParams
instanceCatTr(uint32_t i)
{
    CatTrParams p;
    p.root = "/i" + std::to_string(i);
    return p;
}

} // anonymous namespace

M3SystemCfg
scaleCfg(const ScaleOpts &o, std::vector<Workload> *perInstance)
{
    const bool isCatTr = o.bench == "cat+tr";
    const bool striped = o.stripes > 1;
    M3RunOpts defaults;
    std::vector<Workload> local;
    std::vector<Workload> &inst = perInstance ? *perInstance : local;
    inst.clear();
    if (!isCatTr) {
        Workload base;
        for (const Workload &w : makeAllTraceWorkloads(defaults.costs.compute))
            if (w.name == o.bench)
                base = w;
        if (base.name.empty())
            fatal("unknown scalability bench '%s'", o.bench.c_str());
        for (uint32_t i = 0; i < o.instances; ++i)
            inst.push_back(namespaced(base, i));
        if (o.ioChunk) {
            for (Workload &w : inst)
                for (TraceOp &op : w.trace)
                    if (op.kind == TraceOp::Kind::Sendfile &&
                        op.chunkSize == 4096)
                        op.chunkSize = o.ioChunk;
        }
    }

    M3SystemCfg cfg;
    cfg.appPes = 1 + o.instances * (isCatTr ? 2 : 1);
    cfg.costs = defaults.costs;
    cfg.fsInstances = o.fsInstances;
    cfg.distfsStripes = o.stripes;
    cfg.distfsUnitBlocks = o.unitBlocks;
    cfg.distfsReplicas = o.replicas;
    cfg.numKernels = o.numKernels;
    cfg.dramBytes =
        std::max<size_t>(256 * MiB, size_t(o.instances) * 16 * MiB);
    cfg.costs.spinDataTransfers = true;
    cfg.fsCfg.appendBlocks = defaults.fsAppendBlocks;
    cfg.fsSpec.totalBlocks = std::max<uint32_t>(65536, o.instances * 4096);
    cfg.fsSpec.totalInodes = std::max<uint32_t>(2048, o.instances * 128);
    if (!striped) {
        for (uint32_t i = 0; i < o.instances; ++i)
            applySetupToImage(isCatTr ? catTrSetup(instanceCatTr(i))
                                      : inst[i].setup,
                              cfg.fsSpec);
    }
    return cfg;
}

OpResult
runScale(Ledger &l, const ScaleOpts &o)
{
    std::vector<Workload> inst;
    M3SystemCfg cfg;
    {
        Scope s(l, "gen:inputs", Gen);
        cfg = scaleCfg(o, &inst);
    }
    const bool isCatTr = o.bench == "cat+tr";
    const bool striped = o.stripes > 1;
    const uint32_t n = o.instances;
    const uint32_t fsN = o.fsInstances;
    const uint32_t unitBlocks = o.unitBlocks;
    std::vector<Cycles> durations(n, 0);
    std::vector<int> rcs(n, -1);

    // runners.cc runM3Scalability's orchestrator, timeSetup off.
    auto root = [&] {
        Env &env = Env::cur();
        if (m3fs::M3fsSession::mount(env, "/") != Error::None)
            return 100;
        std::vector<std::unique_ptr<VPE>> vpes;
        for (uint32_t i = 0; i < n; ++i) {
            auto vpe = std::make_unique<VPE>(env, "inst" + std::to_string(i));
            if (vpe->err() != Error::None)
                return 101;
            std::string srv = M3SystemCfg::fsName(i % fsN);
            auto mountFs = [striped, srv, unitBlocks](Env &ienv) {
                if (striped)
                    return m3fs::DistfsSession::mount(
                        ienv, "/", M3SystemCfg::DISTFS_GROUP, unitBlocks);
                return m3fs::M3fsSession::mount(ienv, "/", srv);
            };
            const FsSetup vfsSetup =
                !striped ? FsSetup{}
                : isCatTr ? catTrSetup(instanceCatTr(i))
                          : inst[i].setup;
            const Trace *trace = isCatTr ? nullptr : &inst[i].trace;
            vpe->run([i, &durations, &rcs, trace, vfsSetup, mountFs,
                      striped] {
                Env &ienv = Env::cur();
                if (mountFs(ienv) != Error::None) {
                    rcs[i] = 200;
                    return 1;
                }
                if (striped && applySetupToVfs(ienv, vfsSetup) != 0) {
                    rcs[i] = 201;
                    return 1;
                }
                Cycles t0 = ienv.platform.simulator().curCycle();
                rcs[i] = trace ? replayTraceM3(ienv, *trace)
                               : catTrM3(ienv, instanceCatTr(i));
                durations[i] = ienv.platform.simulator().curCycle() - t0;
                return rcs[i];
            });
            vpes.push_back(std::move(vpe));
            Fiber::current()->sleep(2000);
        }
        int bad = 0;
        for (auto &vpe : vpes)
            if (vpe->wait() != 0)
                ++bad;
        return bad;
    };
    MachineRun r = runM3(l, std::move(cfg), "orchestrator", root);
    if (r.finished) {
        for (uint32_t i = 0; i < n; ++i)
            if (rcs[i] != 0 && r.rc == 0)
                r.rc = 300 + static_cast<int>(i);
    }
    Cycles sum = 0;
    for (Cycles d : durations)
        sum += d;
    r.wall = n ? sum / n : 0;
    return r.result(&durations);
}

} // namespace perf
