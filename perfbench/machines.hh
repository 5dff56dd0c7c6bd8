/**
 * @file
 * Timed machine runners. They build the same machines as
 * src/workloads/runners.cc and micro.cc, but construct, simulate and
 * destroy each one through separately timed calls, which the library
 * runners (one call per machine) cannot offer.
 */

#ifndef M3PERF_MACHINES_HH
#define M3PERF_MACHINES_HH

#include "linuxsim/machine.hh"
#include "perf.hh"
#include "workloads/runners.hh"

namespace perf
{

/** What one machine run produced. */
struct MachineRun
{
    bool finished = false;  //!< root exited (false: drained or hung)
    int rc = -1;
    m3::Cycles wall = 0;    //!< the measured phase, as the runners define it
    m3::Accounting acct;    //!< application accounting
    uint64_t events = 0;
    m3::Cycles endCycle = 0;  //!< simulated cycle when simulate() returned

    OpResult result(const std::vector<m3::Cycles> *instances = nullptr) const;
};

/**
 * Construct @p cfg, install @p root (after @p boot, which may add boot
 * programs), simulate and destroy, each call timed into @p l. The
 * caller fills in the measured cycles (wall) its root recorded.
 */
MachineRun runM3(Ledger &l, m3::M3SystemCfg cfg, const std::string &name,
                 std::function<int()> root,
                 const std::function<void(m3::M3System &)> &boot = {});

/** The runners' mounted root: mount "/", reset accounting, time @p body. */
MachineRun runM3Mounted(Ledger &l, m3::M3SystemCfg cfg,
                        const std::string &name,
                        std::function<int(m3::Env &)> body);

/** The runners' Linux machine: tmpfs set-up, then init runs @p body. */
MachineRun runLx(Ledger &l, const m3::lx::LinuxConfig &cfg,
                 const m3::workloads::FsSetup &setup,
                 const std::string &name,
                 std::function<int(m3::lx::Process &)> body);

/** The M3 configuration runners.cc builds for a trace/app workload. */
m3::M3SystemCfg traceCfg(const m3::workloads::FsSetup &setup);

/** The configuration micro.cc builds for a micro-benchmark. */
m3::M3SystemCfg microCfg(uint32_t appPes, const m3::m3fs::FsImageSpec &spec);

/** A Sec. 5.7 scalability machine (runM3Scalability without the
 *  multiplexing and engine-shard knobs). */
struct ScaleOpts
{
    std::string bench;
    uint32_t instances = 1;
    uint32_t fsInstances = 1;
    uint32_t numKernels = 1;
    uint32_t stripes = 1;
    uint32_t unitBlocks = 8;
    uint32_t replicas = 1;
    uint32_t ioChunk = 0;
};

/** The machine configuration of @p o (fills @p perInstance if given). */
m3::M3SystemCfg scaleCfg(const ScaleOpts &o,
                         std::vector<m3::workloads::Workload> *perInstance);

/** Run one scalability machine; wall is the average instance time. */
OpResult runScale(Ledger &l, const ScaleOpts &o);

} // namespace perf

#endif // M3PERF_MACHINES_HH
