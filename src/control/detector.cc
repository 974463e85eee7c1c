#include "control/detector.hh"

#include <cmath>

#include "common/logging.hh"

namespace vsgpu
{

DetectorSpec
detectorSpec(DetectorKind kind)
{
    switch (kind) {
      case DetectorKind::Oddd:
        return {DetectorKind::Oddd, 2, 0.005_W, 0.015_V};
      case DetectorKind::Cpm:
        return {DetectorKind::Cpm, 40, 0.045_W, 0.050_V};
      case DetectorKind::Adc:
        return {DetectorKind::Adc, 4, 0.020_W, Volts{1.0 / 128.0}};
    }
    panic("unknown detector kind");
}

VoltageDetector::VoltageDetector(const DetectorSpec &spec,
                                 Hertz cutoffHz)
    : spec_(spec)
{
    panicIfNot(cutoffHz > Hertz{}, "filter cutoff must be positive");
    // First-order IIR equivalent of the RC filter at the core clock.
    const Seconds rc = 1.0 / (2.0 * M_PI * cutoffHz);
    alpha_ = config::clockPeriod / (rc + config::clockPeriod);
    reset(config::smVoltage);
}

void
VoltageDetector::reset(Volts volts)
{
    filtered_ = volts;
    lastOutput_ = volts;
    delayLine_.assign(static_cast<std::size_t>(spec_.latency) + 1,
                      volts);
    head_ = 0;
}

Volts
VoltageDetector::sample(Volts actualVolts)
{
    if (spec_.stuckAtVolts >= Volts{}) {
        lastOutput_ = spec_.stuckAtVolts;
        return lastOutput_;
    }
    filtered_ += alpha_ * (actualVolts - filtered_);

    delayLine_[head_] = filtered_;
    if (++head_ == delayLine_.size())
        head_ = 0;
    const Volts delayed = delayLine_[head_];

    const Volts q = spec_.resolutionVolts;
    lastOutput_ =
        q > Volts{} ? std::round(delayed / q) * q : delayed;
    return lastOutput_;
}

} // namespace vsgpu
