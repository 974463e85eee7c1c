#include "sim/bookkeeping.hh"

#include <algorithm>
#include <cmath>

#include "common/check.hh"
#include "control/controller.hh"
#include "pdn/vs_pdn.hh"
#include "sim/pds_setup.hh"

namespace vsgpu
{

Bookkeeper::Bookkeeper(const CosimConfig &cfg, const PdsSetup &setup,
                       const SmoothingController *controller,
                       double peakSmPower)
    : cfg_(cfg), setup_(setup), controller_(controller),
      split_(cfg.pds.kind == PdsKind::ConventionalVrm
                 ? &Bookkeeper::conventionalVrm
             : cfg.pds.kind == PdsKind::SingleLayerIvr
                 ? &Bookkeeper::singleLayerIvr
                 : &Bookkeeper::stacked),
      peakSmPower_(peakSmPower)
{
}

RailSummary
Bookkeeper::rails(const std::array<double, config::numSMs> &volts)
{
    RailSummary r;
    // The pooled mean updates in local copies: a reservoir append may
    // alias a member double and would force each update of the pooled
    // mean through memory.  The recurrence is RunningStats::add's, so
    // meanVoltage keeps its bits.
    std::size_t pooledCount = pooledCount_;
    double pooledMean = pooledMean_;
    for (std::size_t sm = 0; sm < config::numSMs; ++sm) {
        const double v = volts[sm];
        VSGPU_CHECK_FINITE(v); // the PDS solve went unstable
        r.sum += v;
        noise_[sm].add(v);
        ++pooledCount;
        pooledMean += (v - pooledMean) / static_cast<double>(pooledCount);
        r.min = std::min(r.min, v);
        r.max = std::max(r.max, v);
    }
    pooledCount_ = pooledCount;
    pooledMean_ = pooledMean;
    minVoltage_ = std::min(minVoltage_, r.min);
    return r;
}

void
Bookkeeper::imbalance(const std::array<double, config::numSMs> &smPower)
{
    for (std::size_t sm = 0; sm < config::numSMs; ++sm)
        windowPower_[sm] += smPower[sm];
    if (++windowFill_ < cfg_.imbalanceWindow)
        return;
    const double norm =
        static_cast<double>(cfg_.imbalanceWindow) * peakSmPower_;
    for (int c = 0; c < config::smsPerLayer; ++c) {
        for (int l = 0; l + 1 < config::numLayers; ++l) {
            const double a =
                windowPower_[static_cast<std::size_t>(VsPdn::smAt(l, c))];
            const double b = windowPower_[static_cast<std::size_t>(
                VsPdn::smAt(l + 1, c))];
            imbalance_.add(std::abs(a - b) / norm);
        }
    }
    windowPower_.fill(0.0);
    windowFill_ = 0;
}

void
Bookkeeper::fill(CosimResult &result) const
{
    for (std::size_t sm = 0; sm < config::numSMs; ++sm)
        result.smNoise[sm] = noise_[sm].box();
    result.minVoltage = minVoltage_;
    result.meanVoltage = pooledMean_;
    for (std::size_t b = 0; b < 4; ++b)
        result.imbalanceBins[b] = imbalance_.fraction(b);
}

void
Bookkeeper::book(const TransientSim &sim, const CycleLoad &load,
                 double dt, EnergyBreakdown &energy) const
{
    energy.load += load.electrical * dt;
    energy.fake += load.fake * dt;

    // PDN resistive loss excludes the linearized load resistors.
    double loadResWatts = 0.0;
    for (int i : setup_.loadResistors) {
        const double amps = sim.resistorCurrent(i);
        loadResWatts += amps * amps * sim.resistorOhms(i);
    }
    const double pdnWatts =
        std::max(0.0, sim.totalResistivePower() +
                          sim.totalSwitchPower() - loadResWatts);
    const Split split = (this->*split_)(sim, load);

    energy.pdn += pdnWatts * dt;
    energy.conversion += split.conversion * dt;
    energy.crIvr += split.crIvr * dt;
    energy.overhead += split.overhead * dt;
    energy.wall += split.wall * dt;
}

Bookkeeper::Split
Bookkeeper::stacked(const TransientSim &sim, const CycleLoad &load) const
{
    // One evaluation of each equalizer current gives both the
    // charge-transfer loss (summed in totalEqualizerPower()'s order)
    // and the transferred power that sets the switching overhead.
    double eqWatts = 0.0;
    double transferWatts = 0.0;
    const auto &equalizers = setup_.netlist().equalizers();
    for (std::size_t e = 0; e < equalizers.size(); ++e) {
        const double ix = sim.equalizerCurrent(static_cast<int>(e));
        eqWatts += equalizers[e].effOhms * ix * ix;
        transferWatts += std::abs(ix) * config::smVoltage.rawEscape(); // energy bookkeeping on the solver's plain doubles
    }

    // Shuffle tax: inter-layer imbalance power is processed by the SC
    // ladder at its shuffle efficiency; the averaged Reff only models
    // the conduction part.
    double layerPower[config::numLayers] = {};
    for (int sm = 0; sm < config::numSMs; ++sm)
        layerPower[VsPdn::smLayer(sm)] +=
            load.sm[static_cast<std::size_t>(sm)];
    const double avgLayer =
        load.total / static_cast<double>(config::numLayers);
    double shuffleWatts = 0.0;
    for (double lp : layerPower)
        shuffleWatts += std::abs(lp - avgLayer);

    const CrIvrTech &tech = cfg_.pds.ivrTech;
    Split s;
    s.crIvr = eqWatts + tech.switchingLossFraction * transferWatts +
              (1.0 - tech.shuffleEfficiency) * shuffleWatts;
    s.overhead += overheads_.levelShifterFraction * load.total;
    if (controller_) {
        s.overhead += overheads_.controllerPower.rawEscape() + // energy bookkeeping on the solver's plain doubles
                      controller_->detectorPower().rawEscape(); // energy bookkeeping on the solver's plain doubles
        s.overhead += cfg_.pds.controller.dcc.leakageWatts.rawEscape() * // energy bookkeeping on the solver's plain doubles
                      static_cast<double>(config::numSMs);
    }
    // DCC compensation currents flow through the netlist and are part
    // of the measured source power; book them as overhead, not load.
    s.overhead += load.dccDrawn;
    s.wall = sim.totalSourcePower() + s.crIvr - eqWatts + s.overhead;
    return s;
}

Bookkeeper::Split
Bookkeeper::conventionalVrm(const TransientSim &sim,
                            const CycleLoad &) const
{
    const double chipWatts = sim.totalSourcePower();
    Split s;
    s.wall = vrm_.inputPower(Watts{chipWatts}).rawEscape(); // energy bookkeeping on the solver's plain doubles
    s.conversion = s.wall - chipWatts;
    return s;
}

Bookkeeper::Split
Bookkeeper::singleLayerIvr(const TransientSim &sim,
                           const CycleLoad &) const
{
    const double chipWatts = sim.totalSourcePower();
    const double ivrInWatts =
        singleIvr_.inputPower(Watts{chipWatts}).rawEscape(); // energy bookkeeping on the solver's plain doubles
    // Board transport at 2 V to the on-die regulator.
    const double boardAmps = ivrInWatts / singleIvr_.inputVolts().rawEscape(); // energy bookkeeping on the solver's plain doubles
    const double boardLossWatts =
        boardAmps * boardAmps * (cfg_.pdn.boardR + cfg_.pdn.packageR).rawEscape(); // energy bookkeeping on the solver's plain doubles
    Split s;
    s.conversion = ivrInWatts - chipWatts + boardLossWatts;
    s.wall = ivrInWatts + boardLossWatts;
    return s;
}

} // namespace vsgpu
