/**
 * @file
 * Per-cycle bookkeeping of a co-simulation run: rail-noise
 * statistics, the vertical-pair imbalance histogram, and energy by
 * category.  The energy split depends on the PDS kind, so it is
 * chosen once per run and each cycle is booked with one call.
 */

#ifndef VSGPU_SIM_BOOKKEEPING_HH
#define VSGPU_SIM_BOOKKEEPING_HH

#include <array>

#include "circuit/transient.hh"
#include "common/stats.hh"
#include "ivr/efficiency.hh"
#include "sim/metrics.hh"

namespace vsgpu
{

struct CosimConfig;
struct PdsSetup;
class SmoothingController;

/** One cycle's load-side power (W), as the power and coupling stages
 *  leave it. */
struct CycleLoad
{
    std::array<double, config::numSMs> sm{}; ///< per-SM power
    double total = 0.0;      ///< sum of sm
    double fake = 0.0;       ///< part spent on fake instructions
    double electrical = 0.0; ///< what the loads draw electrically
    double dccDrawn = 0.0;   ///< DCC compensation current power
};

/** Extremes and sum of one cycle's SM rail voltages. */
struct RailSummary
{
    double min = 1e9, max = -1e9, sum = 0.0;
};

/** Accumulates one run's statistics and energy. */
class Bookkeeper
{
  public:
    /** @param controller the run's smoothing controller, or null (its
     *  detectors, logic and DCC leakage are overhead).
     *  @param peakSmPower one SM's peak power (W), the imbalance scale. */
    Bookkeeper(const CosimConfig &cfg, const PdsSetup &setup,
               const SmoothingController *controller,
               double peakSmPower);

    /** Add one cycle's SM rail voltages to the noise statistics. */
    RailSummary rails(const std::array<double, config::numSMs> &volts);

    /** Add one cycle's SM power to the imbalance window. */
    void imbalance(const std::array<double, config::numSMs> &smPower);

    /** Add one cycle of @p dt seconds to @p energy. */
    void book(const TransientSim &sim, const CycleLoad &load,
              double dt, EnergyBreakdown &energy) const;

    /** Write the noise and imbalance statistics into @p result. */
    void fill(CosimResult &result) const;

  private:
    /** The PDS-kind-specific part of one cycle's power (W). */
    struct Split
    {
        double conversion = 0.0;
        double crIvr = 0.0;
        double overhead = 0.0;
        double wall = 0.0;
    };
    using SplitFn = Split (Bookkeeper::*)(const TransientSim &,
                                          const CycleLoad &) const;

    Split stacked(const TransientSim &sim, const CycleLoad &load) const;
    Split conventionalVrm(const TransientSim &sim,
                          const CycleLoad &load) const;
    Split singleLayerIvr(const TransientSim &sim,
                         const CycleLoad &load) const;

    const CosimConfig &cfg_;
    const PdsSetup &setup_;
    const SmoothingController *controller_;
    SplitFn split_;
    double peakSmPower_;
    const VsOverheads overheads_;
    const VrmModel vrm_;
    const SingleIvrModel singleIvr_;

    std::array<ReservoirSampler, config::numSMs> noise_{};
    std::size_t pooledCount_ = 0; ///< rail samples in pooledMean_
    double pooledMean_ = 0.0;     ///< running mean of every SM rail
    double minVoltage_ = 1e9;
    Histogram imbalance_{{0.0, 0.10, 0.20, 0.40, 10.0}};
    std::array<double, config::numSMs> windowPower_{};
    int windowFill_ = 0;
};

} // namespace vsgpu

#endif // VSGPU_SIM_BOOKKEEPING_HH
