/**
 * @file
 * The paper-suite and manycore workloads: the Sec. 5 machines of
 * fig3_syscall, fig3_fileops, fig5_apps, fig6_scalability (single-kernel
 * table and the striped/replicated distfs tables) and fig7_accelerator,
 * and a 4-kernel, 4-m3fs tar/untar machine on the serial engine.
 */

#include <algorithm>
#include <memory>
#include <random>

#include "libm3/pipe.hh"
#include "libm3/vpe.hh"
#include "m3fs/client.hh"
#include "machines.hh"
#include "workloads/generators.hh"
#include "workloads/lx_replay.hh"
#include "workloads/m3_replay.hh"

using namespace m3;
using namespace m3::workloads;

namespace perf
{

namespace
{

constexpr uint32_t SYSCALL_ITERS = 64;  // fig3_syscall
constexpr size_t FILE_BYTES = 2 * MiB;  // Sec. 5.4
constexpr uint32_t BUF = 4096;
constexpr uint32_t MANYCORE_INSTANCES = 64;

/** The Linux flavours of the figures: Lx and Lx-$ (always hit). */
lx::LinuxConfig
lxCfg(bool hit)
{
    LxRunOpts opts;
    lx::LinuxConfig cfg;
    cfg.costs = opts.costs;
    cfg.compute = opts.compute;
    cfg.cacheAlwaysHit = hit;
    return cfg;
}

Workload
traceWorkload(const std::string &name)
{
    for (const Workload &w : makeAllTraceWorkloads(ComputeCosts{}))
        if (w.name == name)
            return w;
    fatal("unknown trace workload '%s'", name.c_str());
}

m3fs::FsImageSpec
readSpec()
{
    m3fs::FsImageSpec spec;
    spec.totalBlocks = 32768;
    spec.dirs = {"/data"};
    spec.files.push_back({"/data/file",
                          m3fs::FsImage::patternData(FILE_BYTES, 99),
                          0xffffffff});
    return spec;
}

m3fs::FsImageSpec
writeSpec()
{
    m3fs::FsImageSpec spec;
    spec.totalBlocks = 32768;
    spec.dirs = {"/data"};
    return spec;
}

// --- Fig. 3: micro-benchmarks (micro.cc bodies) ----------------------

int
m3Read(Env &env)
{
    Error e = Error::None;
    auto file = env.vfs().open("/data/file", FILE_R, e);
    if (!file)
        return 1;
    std::vector<uint8_t> buf(BUF);
    for (;;) {
        ssize_t n = file->read(buf.data(), buf.size());
        if (n < 0)
            return 2;
        if (n == 0)
            return 0;
    }
}

int
m3Write(Env &env)
{
    std::string rest;
    auto *sess =
        dynamic_cast<m3fs::M3fsSession *>(env.vfs().resolve("/x", rest));
    if (!sess)
        return 1;
    sess->appendBlocks = M3RunOpts{}.fsAppendBlocks;
    Error e = Error::None;
    auto file = env.vfs().open("/data/out", FILE_W | FILE_CREATE, e);
    if (!file)
        return 2;
    std::vector<uint8_t> buf(BUF, 0x5a);
    for (size_t done = 0; done < FILE_BYTES; done += buf.size())
        if (file->write(buf.data(), buf.size()) !=
            static_cast<ssize_t>(buf.size()))
            return 3;
    return 0;
}

int
m3Pipe(Env &env)
{
    Pipe pipe(env, /*creatorWrites=*/false);
    VPE child(env, "writer");
    if (child.err() != Error::None)
        return 1;
    if (pipe.delegateTo(child) != Error::None)
        return 2;
    child.run([] {
        Env &cenv = Env::cur();
        auto out = pipePeer(cenv, /*peerWrites=*/true);
        std::vector<uint8_t> b(BUF, 0x77);
        for (size_t done = 0; done < FILE_BYTES; done += b.size())
            if (out->write(b.data(), b.size()) !=
                static_cast<ssize_t>(b.size()))
                return 1;
        return 0;
    });
    auto in = pipe.host();
    std::vector<uint8_t> b(BUF);
    size_t got = 0;
    for (;;) {
        ssize_t n = in->read(b.data(), b.size());
        if (n < 0)
            return 3;
        if (n == 0)
            break;
        got += static_cast<size_t>(n);
    }
    if (child.wait() != 0)
        return 4;
    return got == FILE_BYTES ? 0 : 5;
}

int
lxRead(lx::Process &p)
{
    {
        Error e = Error::None;
        auto node = p.machine().fs().create("/file", false, e);
        if (!node)
            return 1;
        node->size = FILE_BYTES;
        for (size_t pg = 0; pg * lx::PAGE_SIZE < FILE_BYTES; ++pg)
            node->page(pg);
    }
    int fd = p.open("/file", 1);
    if (fd < 0)
        return 2;
    std::vector<uint8_t> b(BUF);
    for (;;) {
        ssize_t n = p.read(fd, b.data(), b.size());
        if (n < 0)
            return 3;
        if (n == 0)
            break;
    }
    p.close(fd);
    return 0;
}

int
lxWrite(lx::Process &p)
{
    int fd = p.open("/out", 2 | 4 | 8);
    if (fd < 0)
        return 1;
    std::vector<uint8_t> b(BUF, 0x5a);
    for (size_t done = 0; done < FILE_BYTES; done += b.size())
        if (p.write(fd, b.data(), b.size()) != static_cast<ssize_t>(b.size()))
            return 2;
    p.close(fd);
    return 0;
}

int
lxPipe(lx::Process &p)
{
    int fds[2];
    if (p.pipe(fds) != Error::None)
        return 1;
    int child = p.fork([fds](lx::Process &c) {
        c.close(fds[0]);
        std::vector<uint8_t> b(BUF, 0x77);
        for (size_t done = 0; done < FILE_BYTES; done += b.size())
            if (c.write(fds[1], b.data(), b.size()) !=
                static_cast<ssize_t>(b.size()))
                return 1;
        c.close(fds[1]);
        return 0;
    });
    p.close(fds[1]);
    std::vector<uint8_t> b(BUF);
    size_t got = 0;
    for (;;) {
        ssize_t n = p.read(fds[0], b.data(), b.size());
        if (n < 0)
            return 2;
        if (n == 0)
            break;
        got += static_cast<size_t>(n);
    }
    p.close(fds[0]);
    if (p.waitpid(child) != 0)
        return 3;
    return got == FILE_BYTES ? 0 : 4;
}

/** An M3 machine of the figures: configuration plus root body. */
struct M3Machine
{
    M3SystemCfg cfg;
    std::function<int(Env &)> body;
};

/** A Linux machine of the figures: tmpfs content plus init body. */
struct LxMachine
{
    FsSetup setup;
    std::function<int(lx::Process &)> body;
};

/**
 * An operation on the runners' mounted M3 root. @p prepare builds the
 * inputs (timed as generation); the measured cycles are divided by
 * @p per (iterations of a micro-benchmark).
 */
Op
m3Op(const std::string &name, std::function<M3Machine()> prepare,
     const char *root = "bench", uint32_t per = 1)
{
    Op op;
    op.name = name;
    op.run = [prepare, root, per](Ledger &l) {
        M3Machine m;
        {
            Scope s(l, "gen:inputs", Gen);
            m = prepare();
        }
        MachineRun r = runM3Mounted(l, std::move(m.cfg), root, m.body);
        r.wall /= per;
        return r.result();
    };
    op.m3cfg = [prepare] { return prepare().cfg; };
    return op;
}

/** The same for a Linux machine (Lx, or Lx-$ with @p hit). */
Op
lxOp(const std::string &name, bool hit, std::function<LxMachine()> prepare,
     const char *root = "bench", uint32_t per = 1)
{
    Op op;
    op.name = name + "." + (hit ? "lx-hit" : "lx");
    op.run = [prepare, hit, root, per](Ledger &l) {
        LxMachine m;
        {
            Scope s(l, "gen:inputs", Gen);
            m = prepare();
        }
        MachineRun r = runLx(l, lxCfg(hit), m.setup, root, m.body);
        r.wall /= per;
        return r.result();
    };
    return op;
}

int
m3Syscalls(Env &env)
{
    for (uint32_t i = 0; i < SYSCALL_ITERS; ++i)
        if (env.noop() != Error::None)
            return 1;
    return 0;
}

int
lxSyscalls(lx::Process &p)
{
    for (uint32_t i = 0; i < SYSCALL_ITERS; ++i)
        p.nullSyscall();
    return 0;
}

void
addMicro(std::vector<Op> &ops)
{
    ops.push_back(m3Op("fig3.syscall.m3",
                       [] { return M3Machine{microCfg(2, {}), m3Syscalls}; },
                       "micro", SYSCALL_ITERS));
    struct FileOp
    {
        const char *name;
        uint32_t appPes;
        m3fs::FsImageSpec (*spec)();
        int (*m3)(Env &);
        int (*lx)(lx::Process &);
    };
    const FileOp fileOps[] = {
        {"read", 2, readSpec, m3Read, lxRead},
        {"write", 2, writeSpec, m3Write, lxWrite},
        {"pipe", 3, [] { return m3fs::FsImageSpec{}; }, m3Pipe, lxPipe},
    };
    for (const FileOp &f : fileOps)
        ops.push_back(m3Op(
            std::string("fig3.") + f.name + ".m3",
            [f] { return M3Machine{microCfg(f.appPes, f.spec()), f.m3}; },
            "micro"));
    for (bool hit : {false, true}) {
        ops.push_back(lxOp("fig3.syscall", hit,
                           [] { return LxMachine{{}, lxSyscalls}; }, "micro",
                           SYSCALL_ITERS));
        for (const FileOp &f : fileOps)
            ops.push_back(lxOp(std::string("fig3.") + f.name, hit,
                               [f] { return LxMachine{{}, f.lx}; }, "micro"));
    }
}

// --- Fig. 5: application benchmarks ----------------------------------

void
addApps(std::vector<Op> &ops)
{
    const CatTrParams p;
    ops.push_back(m3Op("fig5.cat+tr.m3", [p] {
        return M3Machine{traceCfg(catTrSetup(p)),
                         [p](Env &env) { return catTrM3(env, p); }};
    }));
    for (bool hit : {false, true})
        ops.push_back(lxOp("fig5.cat+tr", hit, [p] {
            return LxMachine{catTrSetup(p), [p](lx::Process &proc) {
                                 return catTrLx(proc, p);
                             }};
        }));

    for (const char *name : {"tar", "untar", "find", "sqlite"}) {
        const std::string n = name;
        ops.push_back(m3Op("fig5." + n + ".m3", [n] {
            auto w = std::make_shared<const Workload>(traceWorkload(n));
            return M3Machine{traceCfg(w->setup), [w](Env &env) {
                                 return replayTraceM3(env, w->trace);
                             }};
        }));
        for (bool hit : {false, true})
            ops.push_back(lxOp("fig5." + n, hit, [n] {
                auto w = std::make_shared<const Workload>(traceWorkload(n));
                return LxMachine{w->setup, [w](lx::Process &proc) {
                                     return replayTraceLx(proc, w->trace);
                                 }};
            }));
    }
}

// --- Fig. 6: scalability, striped and replicated distfs --------------

void
addScale(std::vector<Op> &ops, const std::string &name, const ScaleOpts &o)
{
    ops.push_back({name, true, [o](Ledger &l) { return runScale(l, o); },
                   [o] { return scaleCfg(o, nullptr); }});
}

void
addScalability(std::vector<Op> &ops)
{
    for (const char *b : {"cat+tr", "tar", "untar", "find", "sqlite"})
        for (uint32_t n : {1u, 2u, 4u, 8u, 16u}) {
            ScaleOpts o;
            o.bench = b;
            o.instances = n;
            addScale(ops, "fig6." + o.bench + ".x" + std::to_string(n), o);
        }
    for (const char *b : {"tar", "untar"}) {
        for (uint32_t s : {1u, 2u, 4u})
            for (uint32_t r : {1u, 2u}) {
                if (r > 1 && s < 2)
                    continue;
                ScaleOpts o;
                o.bench = b;
                o.stripes = s;
                o.replicas = r;
                o.unitBlocks = 4;
                o.ioChunk = 16384;
                addScale(ops,
                         "fig6.distfs." + o.bench + ".s" + std::to_string(s) +
                             (r > 1 ? ".r" + std::to_string(r) : ""),
                         o);
            }
    }
}

// --- Fig. 7: FFT on a core and on the accelerator --------------------

void
addFft(std::vector<Op> &ops)
{
    FftParams lxP;
    lxP.binary = "/bin/fft-lx";
    ops.push_back(lxOp("fig7.fft", false, [lxP] {
        return LxMachine{fftSetup(lxP), [lxP](lx::Process &proc) {
                             return fftChainLx(proc, lxP);
                         }};
    }));
    for (bool accel : {false, true}) {
        FftParams p;
        p.useAccel = accel;
        p.binary = accel ? "/bin/fft-accel" : "/bin/fft-sw";
        ops.push_back(m3Op(accel ? "fig7.fft.m3-accel" : "fig7.fft.m3", [p] {
            registerFftProgram(p);
            M3Machine m{traceCfg(fftSetup(p)),
                        [p](Env &env) { return fftChainM3(env, p); }};
            if (p.useAccel)
                m.cfg.extraPes.push_back(PeDesc::accel("fft"));
            return m;
        }));
    }
}

void
shuffle(std::vector<Op> &ops, uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::shuffle(ops.begin(), ops.end(), rng);
}

} // anonymous namespace

std::vector<Op>
paperSuite(uint64_t seed)
{
    std::vector<Op> ops;
    addMicro(ops);
    addApps(ops);
    addScalability(ops);
    addFft(ops);
    shuffle(ops, seed);
    return ops;
}

std::vector<Op>
manycore(uint64_t)
{
    std::vector<Op> ops;
    for (const char *b : {"tar", "untar"}) {
        ScaleOpts o;
        o.bench = b;
        o.instances = MANYCORE_INSTANCES;
        o.numKernels = 4;
        o.fsInstances = 4;
        addScale(ops, "manycore." + o.bench + ".x" +
                          std::to_string(MANYCORE_INSTANCES),
                 o);
    }
    return ops;
}

} // namespace perf
