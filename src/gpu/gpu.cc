#include "gpu/gpu.hh"

#include <algorithm>

#include "common/logging.hh"

namespace vsgpu
{

namespace
{

constexpr SmCycleEvents beforeFirstStep{};
/** Events of a cycle whose clock was masked. */
constexpr SmCycleEvents maskedActive{.active = true, .clocked = false};
constexpr SmCycleEvents maskedDone{.active = false, .clocked = false};

} // namespace

Gpu::Gpu(const GpuConfig &cfg)
    : cfg_(cfg), mem_(cfg.memory)
{
    sms_.reserve(static_cast<std::size_t>(config::numSMs));
    for (int i = 0; i < config::numSMs; ++i)
        sms_.push_back(std::make_unique<Sm>(i, cfg_.sm, mem_));
    freqFraction_.assign(static_cast<std::size_t>(config::numSMs), 1.0);
    clockAccum_.assign(static_cast<std::size_t>(config::numSMs), 0.0);
    lastEvents_.assign(static_cast<std::size_t>(config::numSMs),
                       &beforeFirstStep);
}

void
Gpu::launch(const ProgramFactory &factory)
{
    for (auto &sm : sms_)
        sm->launch(factory, cycle_);
}

bool
Gpu::done() const
{
    return std::all_of(sms_.begin(), sms_.end(),
                       [](const auto &sm) { return sm->done(); });
}

void
Gpu::step()
{
    for (int i = 0; i < numSMs(); ++i) {
        const auto idx = static_cast<std::size_t>(i);
        clockAccum_[idx] += freqFraction_[idx];
        if (clockAccum_[idx] >= 1.0) {
            clockAccum_[idx] -= 1.0;
            lastEvents_[idx] = &sms_[idx]->step(cycle_);
        } else {
            lastEvents_[idx] =
                sms_[idx]->done() ? &maskedDone : &maskedActive;
        }
    }
    ++cycle_;
}

Sm &
Gpu::sm(int idx)
{
    panicIfNot(idx >= 0 && idx < numSMs(), "bad SM index ", idx);
    return *sms_[static_cast<std::size_t>(idx)];
}

const Sm &
Gpu::sm(int idx) const
{
    panicIfNot(idx >= 0 && idx < numSMs(), "bad SM index ", idx);
    return *sms_[static_cast<std::size_t>(idx)];
}

void
Gpu::setSmFrequencyFraction(int idx, double fraction)
{
    panicIfNot(idx >= 0 && idx < numSMs(), "bad SM index ", idx);
    freqFraction_[static_cast<std::size_t>(idx)] =
        std::clamp(fraction, 0.0, 1.0);
}

double
Gpu::smFrequencyFraction(int idx) const
{
    panicIfNot(idx >= 0 && idx < numSMs(), "bad SM index ", idx);
    return freqFraction_[static_cast<std::size_t>(idx)];
}

const SmCycleEvents &
Gpu::smEvents(int idx) const
{
    panicIfNot(idx >= 0 && idx < numSMs(), "bad SM index ", idx);
    return *lastEvents_[static_cast<std::size_t>(idx)];
}

} // namespace vsgpu
