#include "hypervisor/dfs.hh"

#include <algorithm>
#include <cmath>

#include "common/check.hh"
#include "common/logging.hh"

namespace vsgpu
{
DfsGovernor::DfsGovernor(const DfsConfig &cfg)
    : cfg_(cfg)
{
    VSGPU_REQUIRES(cfg_.epoch > 0, "DFS epoch must be positive");
    VSGPU_REQUIRES(cfg_.stepHz > Hertz{}, "DFS step must be positive");
    VSGPU_REQUIRES(cfg_.minHz <= cfg_.maxHz,
                   "DFS frequency band is inverted");
    requestHz_.fill(cfg_.maxHz);
}

void
DfsGovernor::step(const Gpu &gpu)
{
    ++cycleInEpoch_;
    if (cycleInEpoch_ < cfg_.epoch)
        return;
    cycleInEpoch_ = 0;

    for (int i = 0; i < config::numSMs; ++i) {
        const auto idx = static_cast<std::size_t>(i);
        const std::uint64_t retired = gpu.sm(i).retired();
        const double epochInstrs =
            static_cast<double>(retired - lastRetired_[idx]);
        lastRetired_[idx] = retired;

        const double fracNow =
            gpu.smFrequencyFraction(i) > 0.0
                ? gpu.smFrequencyFraction(i)
                : 1.0;
        // IPC normalized to full clock: what this SM would retire per
        // full-speed cycle given the observed per-own-cycle IPC.
        const double ipcAtFull =
            epochInstrs / (static_cast<double>(cfg_.epoch) * fracNow);

        // Track the best sustained full-speed IPC as the reference.
        referenceIpc_[idx] =
            std::max(ipcAtFull, 0.95 * referenceIpc_[idx]);
        if (referenceIpc_[idx] <= 0.0)
            continue;

        // Lowest frequency predicted to hit the target throughput:
        // throughput ~ min(ipcAtFull, boundedByMemory) * f/fmax, so
        // f >= target * fmax * (reference / ipcAtFull-at-f).
        const double needFraction =
            cfg_.perfTarget * referenceIpc_[idx] /
            std::max(ipcAtFull, 1e-6) * fracNow;
        Hertz hz = needFraction * config::smClockHz;
        hz = std::ceil(hz / cfg_.stepHz) * cfg_.stepHz;
        const Hertz next = std::clamp(hz, cfg_.minHz, cfg_.maxHz);
        if (next != requestHz_[idx])
            ++transitions_;
        requestHz_[idx] = next;
    }
}

} // namespace vsgpu
