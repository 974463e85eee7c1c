/**
 * @file
 * Observation of a co-simulation run, one cycle at a time.
 *
 * The loop hands every armed CycleObserver one read-only CycleView
 * per cycle, at its observe point: after the circuit step, before
 * control.  Observers never write back into the run, so arming any
 * of them leaves every result bit-identical.  makeObservers() arms
 * the channels the config and the global obs switches ask for: the
 * TraceSample log, wave capture, time series, flight recorder and
 * tracer (chunk spans plus controller and hypervisor instants).
 */

#ifndef VSGPU_SIM_OBSERVERS_HH
#define VSGPU_SIM_OBSERVERS_HH

#include <array>
#include <cstddef>
#include <memory>
#include <vector>

#include "sim/cosim.hh"

namespace vsgpu
{

class SmoothingController;
class TransientSim;

/** What an observer may read about the cycle being observed. */
struct CycleView
{
    const Gpu &gpu;
    const TransientSim &sim;
    /** SM rail voltages after this cycle's circuit step. */
    const std::array<double, config::numSMs> &rails;
    const SmoothingController *controller; ///< null without smoothing
    const DfsGovernor *dfs;                ///< null when detached
    const VsAwareHypervisor *hypervisor;   ///< null unless stacked
    Cycle cycle;      ///< the cycle being observed
    double railMin;   ///< min of rails (V)
    double railMax;   ///< max of rails (V)
    double load;      ///< total SM load power (W)
};

/** One observation channel of a run. */
class CycleObserver
{
  public:
    virtual ~CycleObserver() = default;

    /** Kernel @p index was just launched, at view.gpu.cycle(). */
    virtual void kernelLaunched(std::size_t, const CycleView &) {}

    /** One cycle, at the observe point. */
    virtual void observe(const CycleView &view) = 0;

    /** The loop is over: close open records and move outputs into
     *  @p result. */
    virtual void finish(const CycleView &, CosimResult &) {}
};

using CycleObservers = std::vector<std::unique_ptr<CycleObserver>>;

/**
 * Arm the observers @p cfg and the global obs switches enable for a
 * run on @p setup (empty when all are off).  Called before the
 * controller is built, so the flight recorder's crash dump is armed
 * for the control-model audit.
 */
CycleObservers makeObservers(const CosimConfig &cfg,
                             const PdsSetup &setup,
                             const TransientSim &sim, bool smoothing,
                             const DfsGovernor *dfs,
                             const PgGovernor *pg,
                             const VsAwareHypervisor *hypervisor);

} // namespace vsgpu

#endif // VSGPU_SIM_OBSERVERS_HH
