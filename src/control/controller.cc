#include "control/controller.hh"

#include <algorithm>

#include "common/logging.hh"
#include "pdn/vs_pdn.hh"

namespace vsgpu
{

SmoothingController::SmoothingController(const ControllerConfig &cfg)
    : cfg_(cfg)
{
    panicIfNot(cfg_.period > 0, "control period must be positive");
    detectors_.reserve(static_cast<std::size_t>(config::numSMs));
    for (int i = 0; i < config::numSMs; ++i)
        detectors_.emplace_back(cfg_.detector);
    reset();
}

void
SmoothingController::reset()
{
    for (auto &d : detectors_)
        d.reset(cfg_.vNominal);
    lastDetected_.fill(cfg_.vNominal);
    integral_.fill(Volts{});
    periodAccum_.fill(Volts{});
    periodFill_ = 0;
    pending_.clear();
    active_ = CommandSet{};
    applied_ = CommandSet{};
    now_ = 0;
    decisions_ = 0;
    triggered_ = 0;
    detectorTrips_ = 0;
    diws_ = 0;
    fii_ = 0;
    dcc_ = 0;
}

CommandSet
SmoothingController::decide(
    const std::array<Volts, config::numSMs> &detected)
{
    CommandSet commands{};
    bool anyActive = false;

    for (int sm = 0; sm < config::numSMs; ++sm) {
        const Volts v = detected[static_cast<std::size_t>(sm)];
        if (v >= cfg_.vThreshold) {
            // Bleed the integrator once the rail is healthy so old
            // droop history does not keep throttling.
            integral_[static_cast<std::size_t>(sm)] *= 0.8;
            continue;
        }
        anyActive = true;
        ++detectorTrips_;

        // Proportional power correction for the deviation from
        // nominal (Algorithm 1's (1 - V_SM) term), plus an optional
        // integral term that removes steady-state error under
        // sustained imbalance (PI extension of the paper's P-only
        // controller).
        const Volts deviation = cfg_.vNominal - v;
        Watts correction = cfg_.gainWattsPerVolt * deviation;
        if (cfg_.integralGainWattsPerVolt > WattsPerVolt{}) {
            auto &acc = integral_[static_cast<std::size_t>(sm)];
            acc += deviation;
            Watts integralW = cfg_.integralGainWattsPerVolt * acc;
            if (integralW > cfg_.integralClampWatts) {
                integralW = cfg_.integralClampWatts;
                acc = integralW / cfg_.integralGainWattsPerVolt;
            }
            correction += integralW;
        }

        // DIWS on the droopy SM itself.
        auto &self = commands[static_cast<std::size_t>(sm)];
        const double issueCut =
            cfg_.w1 * correction / cfg_.powerPerIssueWidth;
        if (issueCut > 0.0)
            ++diws_;
        self.issueWidth = std::clamp(
            static_cast<double>(config::maxIssueWidth) - issueCut,
            0.0, static_cast<double>(config::maxIssueWidth));

        // FII and DCC on the vertically adjacent SM of the same
        // column (raise the neighbouring layer's draw).
        const int layer = VsPdn::smLayer(sm);
        const int column = VsPdn::smColumn(sm);
        const int neighbour =
            VsPdn::smAt((layer + 1) % config::numLayers, column);
        auto &other = commands[static_cast<std::size_t>(neighbour)];

        const double fakeAdd =
            cfg_.w2 * correction / cfg_.powerPerFakeRate;
        if (fakeAdd > 0.0)
            ++fii_;
        other.fakeRate = std::clamp(
            other.fakeRate + fakeAdd, 0.0,
            static_cast<double>(config::maxIssueWidth));

        const Amps dccAdd = cfg_.w3 * correction / cfg_.vNominal;
        if (dccAdd > Amps{})
            ++dcc_;
        other.dccAmps =
            cfg_.dcc.quantize(other.dccAmps + dccAdd);
    }

    ++decisions_;
    if (anyActive)
        ++triggered_;
    return commands;
}

const CommandSet &
SmoothingController::step(
    const std::array<double, config::numSMs> &railVolts)
{
    // Detectors run every cycle (their latency is internal to the
    // delay line; the remaining loop latency is applied to commands).
    // Decisions act on the mean detected voltage over the decision
    // period: the architecture loop owns sub-Nyquist content only,
    // and deciding on instantaneous samples would alias ripple the
    // loop cannot correct into the commands.
    for (int sm = 0; sm < config::numSMs; ++sm) {
        const auto idx = static_cast<std::size_t>(sm);
        lastDetected_[idx] =
            detectors_[idx].sample(Volts{railVolts[idx]});
        periodAccum_[idx] += lastDetected_[idx];
    }
    ++periodFill_;

    if (now_ % cfg_.period == 0 && periodFill_ > 0) {
        std::array<Volts, config::numSMs> meanDetected{};
        for (int sm = 0; sm < config::numSMs; ++sm) {
            meanDetected[static_cast<std::size_t>(sm)] =
                periodAccum_[static_cast<std::size_t>(sm)] /
                static_cast<double>(periodFill_);
        }
        periodAccum_.fill(Volts{});
        periodFill_ = 0;
        const Cycle detectorLatency = cfg_.detector.latency;
        const Cycle rest = cfg_.loopLatency > detectorLatency
                               ? cfg_.loopLatency - detectorLatency
                               : 0;
        pending_.emplace_back(now_ + rest, decide(meanDetected));
    }

    while (!pending_.empty() && pending_.front().first <= now_) {
        active_ = pending_.front().second;
        pending_.pop_front();
    }

    // Slew the applied command toward the active decision: fast when
    // engaging actuation, slow when releasing it.  Generic over the
    // value type so dimensioned commands slew like raw ones.
    const auto slew = [&](auto applied, auto target,
                          bool onsetIsDecrease) {
        const bool onset = onsetIsDecrease ? target < applied
                                           : target > applied;
        const double a =
            onset ? cfg_.onsetSmoothing : cfg_.releaseSmoothing;
        return applied + a * (target - applied);
    };
    const Amps dccLsb = cfg_.dcc.lsbAmps();
    for (int sm = 0; sm < config::numSMs; ++sm) {
        const auto idx = static_cast<std::size_t>(sm);
        applied_[idx].issueWidth = slew(
            applied_[idx].issueWidth, active_[idx].issueWidth, true);
        applied_[idx].fakeRate = slew(
            applied_[idx].fakeRate, active_[idx].fakeRate, false);
        applied_[idx].dccAmps = cfg_.dcc.quantize(
            slew(applied_[idx].dccAmps, active_[idx].dccAmps, false),
            dccLsb);
    }

    ++now_;
    return applied_;
}

Watts
SmoothingController::detectorPower() const
{
    return cfg_.detector.powerWatts *
           static_cast<double>(config::numSMs);
}

Watts
SmoothingController::dccPower(const CommandSet &commands) const
{
    Watts watts{};
    for (const auto &cmd : commands)
        watts += cmd.dccAmps * cfg_.vNominal;
    // Static leakage of the DAC macros is always present.
    watts += cfg_.dcc.leakageWatts *
             static_cast<double>(config::numSMs);
    return watts;
}

} // namespace vsgpu
