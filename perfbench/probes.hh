/**
 * @file
 * Isolated layer probes. Each one times only the layer call it names:
 * building and destroying the probe's EventQueue, Noc, Simulator or
 * Platform stays outside the timed region. Every probe returns one
 * sample per batch so the caller can report a median and a tail.
 */

#ifndef M3PERF_PROBES_HH
#define M3PERF_PROBES_HH

#include <vector>

#include "libm3/m3system.hh"

namespace perf
{

/** EventQueue schedule + run, ns per event, at a steady @p depth. */
std::vector<double> probeEventNs(uint64_t depth);

/** Fiber sleep/resume on an otherwise idle Simulator, ns per switch. */
std::vector<double> probeFiberSwitchNs();

/** Noc::send plus delivery on a near-square mesh of @p nodes, ns/packet. */
std::vector<double> probeNocSendNs(uint32_t nodes);

/** DTU send, fetch and ack of a 64-byte message, ns per round trip. */
std::vector<double> probeDtuRoundTripNs();

/** DTU memory-endpoint reads in 16 KiB chunks, ns per KiB. */
std::vector<double> probeDtuBulkNsPerKiB();

/** Host seconds of one machine's DRAM modules (constructor and
 *  destructor) and of building its m3fs images on them. */
struct SetupCost
{
    double dramInit = 0;
    double imageBuild = 0;
};
SetupCost probeSetup(const m3::M3SystemCfg &cfg);

} // namespace perf

#endif // M3PERF_PROBES_HH
