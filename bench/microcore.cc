/**
 * @file
 * google-benchmark micro-benchmarks of the simulator substrate itself:
 * event-queue throughput, fiber context switches, NoC packet routing and
 * the DTU message path. These measure host wall-clock performance (how
 * fast the simulation runs), not simulated cycles.
 */

#include <benchmark/benchmark.h>

#include <memory>

#include "pe/platform.hh"

namespace m3
{
namespace
{

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        int sink = 0;
        for (int i = 0; i < 1000; ++i)
            eq.schedule(static_cast<Cycles>(i % 97), [&sink] { ++sink; });
        eq.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

void
BM_FiberSwitch(benchmark::State &state)
{
    for (auto _ : state) {
        Simulator sim;
        sim.run("switcher", [] {
            for (int i = 0; i < 1000; ++i)
                Fiber::current()->sleep(1);
        });
        sim.simulate();
    }
    state.SetItemsProcessed(state.iterations() * 2000);  // 2 per sleep
}
BENCHMARK(BM_FiberSwitch);

void
BM_NocSend(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        HwCosts hw;
        Noc noc(eq, hw, 4, 4);
        int delivered = 0;
        for (int i = 0; i < 1000; ++i)
            noc.send(static_cast<nocid_t>(i % 16),
                     static_cast<nocid_t>((i * 7) % 16), 64,
                     [&delivered] { ++delivered; });
        eq.run();
        benchmark::DoNotOptimize(delivered);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_NocSend);

/**
 * A platform for the DTU benchmarks. Building one touches every page of
 * its DRAM, and destroying it unmaps them again, so both must stay
 * outside the timed region; each iteration therefore does a lot of DTU
 * work on one machine and runs a fixed number of times.
 */
struct Rig
{
    Simulator sim;
    Platform platform;

    explicit Rig(uint32_t pes)
        : platform(sim, PlatformSpec::generalPurpose(pes))
    {
    }
};

constexpr int RIG_ITERATIONS = 20;

void
BM_DtuMessageRoundTrip(benchmark::State &state)
{
    constexpr int MSGS = 2000;
    for (auto _ : state) {
        state.PauseTiming();
        auto rig = std::make_unique<Rig>(2);
        Dtu &tx = rig->platform.pe(0).dtu();
        Dtu &rx = rig->platform.pe(1).dtu();
        RecvEpCfg ring;
        ring.bufAddr = rig->platform.pe(1).spm().alloc(4 * 128);
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
        spmaddr_t msg = rig->platform.pe(0).spm().alloc(64);
        state.ResumeTiming();

        rig->sim.run("rx", [&] {
            for (int i = 0; i < MSGS; ++i) {
                rx.waitForMsg(2);
                int slot = rx.fetchMsg(2);
                rx.ackMsg(2, static_cast<uint32_t>(slot));
            }
        });
        rig->sim.run("tx", [&] {
            for (int i = 0; i < MSGS; ++i) {
                while (tx.startSend(2, msg, 64) != Error::None)
                    Fiber::current()->sleep(10);
                tx.waitUntilIdle();
            }
        });
        benchmark::DoNotOptimize(rig->sim.simulate());

        state.PauseTiming();
        rig.reset();
        state.ResumeTiming();
    }
    state.SetItemsProcessed(state.iterations() * MSGS);
}
BENCHMARK(BM_DtuMessageRoundTrip)->Iterations(RIG_ITERATIONS);

void
BM_DtuBulkTransfer(benchmark::State &state)
{
    constexpr int ROUNDS = 32;  // transfers of the full size per machine
    const size_t bytes = static_cast<size_t>(state.range(0));
    for (auto _ : state) {
        state.PauseTiming();
        auto rig = std::make_unique<Rig>(1);
        Dtu &dtu = rig->platform.pe(0).dtu();
        MemEpCfg mem;
        mem.targetNode = rig->platform.dramNode();
        mem.offset = 0;
        mem.size = 16 * MiB;
        mem.perms = MEM_RW;
        dtu.configMem(2, mem);
        spmaddr_t buf = rig->platform.pe(0).spm().alloc(16 * KiB);
        state.ResumeTiming();

        rig->sim.run("xfer", [&] {
            for (int r = 0; r < ROUNDS; ++r) {
                size_t done = 0;
                while (done < bytes) {
                    size_t chunk = std::min<size_t>(16 * KiB, bytes - done);
                    dtu.startRead(2, buf, done, chunk);
                    dtu.waitUntilIdle();
                    done += chunk;
                }
            }
        });
        benchmark::DoNotOptimize(rig->sim.simulate());

        state.PauseTiming();
        rig.reset();
        state.ResumeTiming();
    }
    state.SetBytesProcessed(state.iterations() * ROUNDS *
                            static_cast<int64_t>(bytes));
}
BENCHMARK(BM_DtuBulkTransfer)
    ->Arg(64 * 1024)
    ->Arg(1024 * 1024)
    ->Iterations(RIG_ITERATIONS);

} // anonymous namespace
} // namespace m3

BENCHMARK_MAIN();
