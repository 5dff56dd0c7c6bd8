/**
 * @file
 * Shared types of the whole-run host benchmark: the per-pass host-time
 * ledger (phase sums plus an optional span tree), one operation's
 * checked result, the operation list of a workload, and a minimal JSON
 * writer. Host time is read only here, outside every simulator call.
 */

#ifndef M3PERF_PERF_HH
#define M3PERF_PERF_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "libm3/m3system.hh"

namespace perf
{

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Where a timed call spends host time. Gen and the constructors are
 *  set-up, the simulate calls are run time, the destructors teardown. */
enum Phase
{
    Gen,          //!< workload generators, image specs, machine configs
    M3Construct,  //!< M3System constructor + root install
    M3Simulate,   //!< M3System::simulate
    M3Destroy,    //!< M3System destructor
    LxConstruct,  //!< lx::Machine constructor + tmpfs set-up + init
    LxSimulate,   //!< lx::Machine::simulate
    LxDestroy,    //!< lx::Machine destructor
    NumPhases,
    NoPhase = NumPhases,
};

/** One host-time span of a traced pass (seconds since the pass began). */
struct Span
{
    std::string name;
    double start;
    double end;
    int parent;  //!< index into the span list, -1 for the root
};

/** Host-time accounting of one pass over a workload. */
struct Ledger
{
    Clock::time_point origin = Clock::now();
    double phase[NumPhases] = {};
    /** Engine events of every machine (M3 and Linux) of the pass. */
    uint64_t events = 0;
    /** Record spans (traced passes only). */
    bool spansOn = false;
    std::vector<Span> spans;
    int open = -1;  //!< innermost open span, -1 for none

    /** Largest machine of the pass: NoC nodes (probe sizing). */
    uint32_t maxNodes = 0;
};

/**
 * Times one call into a layer: adds the elapsed host time to @p phase
 * and, in a traced pass, records a span under the innermost open one.
 */
class Scope
{
  public:
    Scope(Ledger &l, const char *name, Phase phase = NoPhase)
        : l(l), ph(phase), t0(Clock::now())
    {
        if (l.spansOn) {
            idx = static_cast<int>(l.spans.size());
            l.spans.push_back({name, secondsBetween(l.origin, t0), 0,
                               l.open});
            l.open = idx;
        }
    }

    ~Scope()
    {
        auto t1 = Clock::now();
        if (ph != NoPhase)
            l.phase[ph] += secondsBetween(t0, t1);
        if (idx >= 0) {
            l.spans[idx].end = secondsBetween(l.origin, t1);
            l.open = l.spans[idx].parent;
        }
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Ledger &l;
    Phase ph;
    Clock::time_point t0;
    int idx = -1;
};

/** A flat JSON object under construction. */
class JsonObj
{
  public:
    JsonObj &num(const std::string &key, uint64_t v);
    JsonObj &real(const std::string &key, double v);
    JsonObj &flag(const std::string &key, bool v);
    JsonObj &str(const std::string &key, const std::string &v);
    /** @p json must already be a JSON value. */
    JsonObj &raw(const std::string &key, const std::string &json);
    std::string done() const { return "{" + body + "}"; }

  private:
    void key(const std::string &k);
    std::string body;
};

/** The checked result of one operation. */
struct OpResult
{
    /** Machine runs count 1; a serving point counts its requests. */
    uint64_t attempted = 1;
    /** Failures seen while running: nonzero rc, a drain without root
     *  exit, uncompleted requests. Pin and verdict failures are added by
     *  the checker. */
    uint64_t failed = 0;
    /** Simulated outputs (a JSON object), pinned per operation. */
    std::string outputs;
    /** Serving only, request tracing on: the SLO report. */
    std::string slo;
};

/** One operation of a workload: usually one machine, built, run and
 *  torn down. */
struct Op
{
    std::string name;
    /** Outputs are compared against pins (false: held-out point, checked
     *  for completion and repeat determinism only). */
    bool pinned = true;
    std::function<OpResult(Ledger &)> run;
    /** M3 machines: rebuilds the machine's configuration for the layer
     *  probes (DRAM and image build at the machine's sizes). */
    std::function<m3::M3SystemCfg()> m3cfg;
};

/** The operations of a workload. @p seed orders the paper suite and
 *  seeds the arrivals of serving's held-out point. */
std::vector<Op> paperSuite(uint64_t seed);
std::vector<Op> manycore(uint64_t seed);
std::vector<Op> serving(uint64_t seed);

} // namespace perf

#endif // M3PERF_PERF_HH
