#include "hypervisor/vs_hypervisor.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.hh"
#include "common/logging.hh"
#include "gpu/gpu.hh"
#include "hypervisor/dfs.hh"
#include "hypervisor/pg.hh"

namespace vsgpu
{

namespace
{

/** Stacking-position convention shared with VsPdn: layer = sm / 4
 *  (0 = top domain), column = sm % 4. */
int
columnOf(int sm)
{
    return sm % config::smsPerLayer;
}

} // namespace

VsAwareHypervisor::VsAwareHypervisor(const HypervisorConfig &cfg)
    : cfg_(cfg), freqThresholdHz_(cfg.freqThresholdHz),
      leakThresholdW_(cfg.leakThresholdW)
{
}

std::array<Hertz, config::numSMs>
VsAwareHypervisor::filterFrequencies(
    std::array<Hertz, config::numSMs> requested) const
{
    for (int c = 0; c < config::smsPerLayer; ++c) {
        Hertz fMax{};
        for (int sm = 0; sm < config::numSMs; ++sm)
            if (columnOf(sm) == c)
                fMax = std::max(
                    fMax, requested[static_cast<std::size_t>(sm)]);

        const Hertz floor = fMax - freqThresholdHz_;
        for (int sm = 0; sm < config::numSMs; ++sm) {
            if (columnOf(sm) != c)
                continue;
            Hertz &f = requested[static_cast<std::size_t>(sm)];
            if (f < floor) {
                // Pull the outlier up to the budgeted spread,
                // quantized to the DFS step grid.
                f = std::ceil(floor / cfg_.stepHz) * cfg_.stepHz;
                ++freqRemaps_;
            }
        }
    }
    return requested;
}

GatingPlan
VsAwareHypervisor::filterGating(
    const GatingPlan &requested,
    const std::array<Watts, numExecUnits> &unitLeakW) const
{
    GatingPlan plan{};

    for (int c = 0; c < config::smsPerLayer; ++c) {
        // Greedily admit gating requests, cheapest first, while the
        // column's gated-leakage spread stays inside the budget.
        std::array<Watts, config::numLayers> gatedLeak{};

        // Collect requests in this column.
        struct Req
        {
            int sm;
            int unit;
            Watts watts;
        };
        std::vector<Req> reqs;
        for (int sm = 0; sm < config::numSMs; ++sm) {
            if (columnOf(sm) != c)
                continue;
            for (int u = 0; u < numExecUnits; ++u) {
                if (requested[static_cast<std::size_t>(sm)]
                             [static_cast<std::size_t>(u)]) {
                    reqs.push_back(
                        {sm, u,
                         unitLeakW[static_cast<std::size_t>(u)]});
                }
            }
        }
        std::sort(reqs.begin(), reqs.end(),
                  [](const Req &a, const Req &b) {
                      return a.watts < b.watts;
                  });

        for (const Req &r : reqs) {
            const int layer = r.sm / config::smsPerLayer;
            gatedLeak[static_cast<std::size_t>(layer)] += r.watts;
            const auto minmax = std::minmax_element(gatedLeak.begin(),
                                                    gatedLeak.end());
            if (*minmax.second - *minmax.first > leakThresholdW_) {
                // Would exceed the imbalance budget: veto.
                gatedLeak[static_cast<std::size_t>(layer)] -= r.watts;
                ++gatingDenials_;
                continue;
            }
            plan[static_cast<std::size_t>(r.sm)]
                [static_cast<std::size_t>(r.unit)] = true;
        }
    }
    return plan;
}

void
VsAwareHypervisor::gate(Gpu &gpu, PgGovernor &pg, Cycle now,
                        const std::array<Watts, numExecUnits> &unitLeakW,
                        Cycle wakeLatency) const
{
    GatingPlan wish{};
    for (int sm = 0; sm < config::numSMs; ++sm) {
        for (int u = 0; u < numExecUnits; ++u) {
            const auto &unit = gpu.sm(sm).unit(static_cast<ExecUnitKind>(u));
            wish[static_cast<std::size_t>(sm)][static_cast<std::size_t>(u)] =
                unit.gated(now) ||
                unit.idleCycles(now) >= pg.config().idleDetect;
        }
    }
    const GatingPlan plan = filterGating(wish, unitLeakW);
    for (int sm = 0; sm < config::numSMs; ++sm) {
        for (int u = 0; u < numExecUnits; ++u) {
            const auto kind = static_cast<ExecUnitKind>(u);
            const auto s = static_cast<std::size_t>(sm);
            const auto k = static_cast<std::size_t>(u);
            const bool denied = wish[s][k] && !plan[s][k];
            pg.setVeto(sm, kind, denied);
            const ExecUnit &unit = gpu.sm(sm).unit(kind);
            if (denied && unit.gated(now) && unit.gateRequested())
                gpu.sm(sm).wake(kind, now, wakeLatency);
        }
    }
}

void
VsAwareHypervisor::feedback(double throttleRate)
{
    VSGPU_REQUIRES(throttleRate >= 0.0 && throttleRate <= 1.0,
                   "throttle rate in [0,1], got ", throttleRate);
    // Simple multiplicative adaptation around the setpoint: high
    // smoothing pressure tightens the budgets, slack loosens them.
    const double ratio =
        throttleRate > cfg_.throttleSetpoint ? 0.9 : 1.05;
    freqThresholdHz_ = std::clamp(freqThresholdHz_ * ratio,
                                  cfg_.freqThresholdMinHz,
                                  cfg_.freqThresholdMaxHz);
    leakThresholdW_ = std::clamp(leakThresholdW_ * ratio,
                                 cfg_.leakThresholdMinW,
                                 cfg_.leakThresholdMaxW);
}

PowerManager::PowerManager(
    DfsGovernor *dfs, PgGovernor *pg, VsAwareHypervisor *hv,
    const std::array<Watts, numExecUnits> &unitLeakW, Cycle wakeLatency)
    : dfs_(dfs), pg_(pg), hv_(hv), unitLeakW_(unitLeakW),
      wakeLatency_(wakeLatency)
{
    base_ = counts(); // the totals so far: base_ is still zero here
}

void
PowerManager::step(Gpu &gpu, Cycle now)
{
    if (dfs_) {
        dfs_->step(gpu);
        auto request = dfs_->requested();
        if (hv_)
            request = hv_->filterFrequencies(request);
        for (int sm = 0; sm < config::numSMs; ++sm)
            gpu.setSmFrequencyFraction(
                sm, request[static_cast<std::size_t>(sm)] /
                        config::smClockHz);
    }
    if (pg_) {
        if (hv_ && now - lastGating_ >= 512) {
            lastGating_ = now;
            hv_->gate(gpu, *pg_, now, unitLeakW_, wakeLatency_);
        }
        pg_->step(gpu, now);
    }
    if (hv_ && (now & 0xfff) == 0 && now > 0) {
        std::uint64_t throttled = 0;
        for (int sm = 0; sm < config::numSMs; ++sm)
            throttled += gpu.sm(sm).throttledCycles();
        const double rate =
            static_cast<double>(throttled - lastThrottled_) /
            (4096.0 * config::numSMs);
        lastThrottled_ = throttled;
        hv_->feedback(std::clamp(rate, 0.0, 1.0));
    }
}

PowerManagerCounts
PowerManager::counts() const
{
    PowerManagerCounts c;
    if (dfs_)
        c.dfsTransitions = dfs_->transitions() - base_.dfsTransitions;
    if (pg_) {
        c.pgGateRequests = pg_->gateRequests() - base_.pgGateRequests;
        c.pgVetoSkips = pg_->vetoSkips() - base_.pgVetoSkips;
    }
    if (hv_) {
        c.hvFreqRemaps = hv_->freqRemaps() - base_.hvFreqRemaps;
        c.hvGatingDenials =
            hv_->gatingDenials() - base_.hvGatingDenials;
    }
    return c;
}

} // namespace vsgpu
