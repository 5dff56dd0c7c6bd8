#include "probes.hh"

#include <algorithm>
#include <cmath>
#include <memory>

#include "m3fs/fs_image.hh"
#include "pe/platform.hh"
#include "perf.hh"

using namespace m3;

namespace perf
{

namespace
{

/** Batches per probe: the median and a p75 with ten samples beyond. */
constexpr int SAMPLES = 41;

double
nsSince(Clock::time_point t0)
{
    return secondsBetween(t0, Clock::now()) * 1e9;
}

/** An event that reschedules itself while the shared budget lasts. */
struct Tick
{
    EventQueue *eq;
    uint64_t *left;
    Cycles delay;

    void
    operator()() const
    {
        if (*left) {
            --*left;
            eq->schedule(delay, *this);
        }
    }
};

} // anonymous namespace

std::vector<double>
probeEventNs(uint64_t depth)
{
    depth = std::max<uint64_t>(depth, 1);
    const uint64_t batch = std::max<uint64_t>(20000, 10 * depth);
    std::vector<double> out;
    for (int s = 0; s < SAMPLES; ++s) {
        EventQueue eq;
        uint64_t left = 0;
        for (uint64_t i = 0; i < depth; ++i)
            eq.schedule(1 + i % 97, Tick{&eq, &left, 1 + (i * 31) % 97});
        left = batch;
        auto t0 = Clock::now();
        eq.run();
        out.push_back(nsSince(t0) / static_cast<double>(batch + depth));
    }
    return out;
}

std::vector<double>
probeFiberSwitchNs()
{
    constexpr int SLEEPS = 5000;
    std::vector<double> out;
    for (int s = 0; s < SAMPLES; ++s) {
        Simulator sim;
        sim.run("switcher", [] {
            for (int i = 0; i < SLEEPS; ++i)
                Fiber::current()->sleep(1);
        });
        auto t0 = Clock::now();
        sim.simulate();
        out.push_back(nsSince(t0) / (2.0 * SLEEPS));  // out and back
    }
    return out;
}

std::vector<double>
probeNocSendNs(uint32_t nodes)
{
    constexpr uint32_t PACKETS = 4000;
    nodes = std::max<uint32_t>(nodes, 2);
    // Platform's near-square layout.
    const auto cols = static_cast<uint32_t>(
        std::ceil(std::sqrt(static_cast<double>(nodes))));
    const uint32_t rows = (nodes + cols - 1) / cols;
    std::vector<double> out;
    for (int s = 0; s < SAMPLES; ++s) {
        EventQueue eq;
        HwCosts hw;
        Noc noc(eq, hw, cols, rows);
        uint64_t delivered = 0;
        auto t0 = Clock::now();
        for (uint32_t i = 0; i < PACKETS; ++i)
            noc.send(static_cast<nocid_t>((i * 7919u) % nodes),
                     static_cast<nocid_t>((i * 104729u + 13) % nodes), 64,
                     [&delivered] { ++delivered; });
        eq.run();
        out.push_back(nsSince(t0) / PACKETS);
        if (delivered != PACKETS)
            panic("noc probe lost packets");
    }
    return out;
}

namespace
{

/** A two-PE platform whose construction the DTU probes keep untimed. */
struct DtuRig
{
    Simulator sim;
    std::unique_ptr<Platform> plat;

    DtuRig()
    {
        PlatformSpec spec = PlatformSpec::generalPurpose(2);
        spec.dramBytes = 4 * MiB;
        plat = std::make_unique<Platform>(sim, spec);
    }
};

} // anonymous namespace

std::vector<double>
probeDtuRoundTripNs()
{
    constexpr int MSGS = 500;
    DtuRig rig;
    Dtu &tx = rig.plat->pe(0).dtu();
    Dtu &rx = rig.plat->pe(1).dtu();
    RecvEpCfg ring;
    ring.bufAddr = rig.plat->pe(1).spm().alloc(4 * 128);
    ring.slotCount = 4;
    ring.slotSize = 128;
    ring.replyProtected = true;
    rx.configRecv(2, ring);
    SendEpCfg send;
    send.targetNode = 1;
    send.targetEp = 2;
    send.credits = CREDITS_UNLIMITED;
    send.maxMsgSize = 128;
    tx.configSend(2, send);
    spmaddr_t msg = rig.plat->pe(0).spm().alloc(64);

    std::vector<double> out;
    for (int s = 0; s < SAMPLES; ++s) {
        rig.sim.run("rx", [&rx] {
            for (int i = 0; i < MSGS; ++i) {
                rx.waitForMsg(2);
                int slot = rx.fetchMsg(2);
                rx.ackMsg(2, static_cast<uint32_t>(slot));
            }
        });
        rig.sim.run("tx", [&tx, msg] {
            for (int i = 0; i < MSGS; ++i) {
                while (tx.startSend(2, msg, 64) != Error::None)
                    Fiber::current()->sleep(10);
                tx.waitUntilIdle();
            }
        });
        auto t0 = Clock::now();
        rig.sim.simulate();
        out.push_back(nsSince(t0) / MSGS);
    }
    return out;
}

std::vector<double>
probeDtuBulkNsPerKiB()
{
    constexpr size_t CHUNK = 16 * KiB;
    constexpr size_t BYTES = 2 * MiB;
    DtuRig rig;
    Dtu &dtu = rig.plat->pe(0).dtu();
    MemEpCfg mem;
    mem.targetNode = rig.plat->dramNode();
    mem.offset = 0;
    mem.size = BYTES;
    mem.perms = MEM_RW;
    dtu.configMem(2, mem);
    spmaddr_t buf = rig.plat->pe(0).spm().alloc(CHUNK);

    std::vector<double> out;
    for (int s = 0; s < SAMPLES; ++s) {
        rig.sim.run("xfer", [&dtu, buf] {
            for (size_t done = 0; done < BYTES; done += CHUNK) {
                dtu.startRead(2, buf, done, CHUNK);
                dtu.waitUntilIdle();
            }
        });
        auto t0 = Clock::now();
        rig.sim.simulate();
        out.push_back(nsSince(t0) / (BYTES / KiB));
    }
    return out;
}

SetupCost
probeSetup(const M3SystemCfg &cfg)
{
    // M3System's memory layout: striped machines give every m3fs
    // instance its own module (image at offset 0), others stack the
    // images in module 0.
    const bool striped = cfg.distfsStripes > 1;
    const uint32_t fsCount =
        !cfg.withFs ? 0
        : striped   ? cfg.distfsStripes + cfg.distfsSpares
                    : cfg.fsInstances;
    const uint32_t modules = striped ? fsCount : 1;
    const Cycles latency = cfg.costs.hw.dramLatency;
    SetupCost c;
    for (uint32_t m = 0; m < modules; ++m) {
        auto t0 = Clock::now();
        auto dram = std::make_unique<Dram>(cfg.dramBytes, latency);
        c.dramInit += secondsBetween(t0, Clock::now());
        goff_t at = 0;
        for (uint32_t k = m; k < fsCount; k += modules) {
            auto t1 = Clock::now();
            auto image =
                std::make_unique<m3fs::FsImage>(*dram, at, cfg.fsSpec);
            c.imageBuild += secondsBetween(t1, Clock::now());
            if (!striped)
                at += image->sizeBytes();
        }
        auto t2 = Clock::now();
        dram.reset();
        c.dramInit += secondsBetween(t2, Clock::now());
    }
    return c;
}

} // namespace perf
