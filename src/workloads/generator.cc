#include "workloads/generator.hh"

#include <algorithm>
#include <cmath>

#include "common/check.hh"
#include "common/logging.hh"
#include "common/units.hh"

namespace vsgpu
{

namespace
{

/** Registers 8..47 rotate as destinations; 0..7 are never written. */
constexpr int destRegBase = 8;
constexpr int destRegCount = 40;

/** Deterministic [0,1) hash of a (seed, a, b) triple. */
double
hash01(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0)
{
    Rng rng(seed ^ (a * 0x9e3779b97f4a7c15ull) ^
            (b * 0xc2b2ae3d27d4eb4full));
    return rng.uniform();
}

} // namespace
GeneratedProgram::GeneratedProgram(const WorkloadSpec &spec,
                                   std::uint64_t seed, int startOffset)
    : spec_(spec), rng_(seed), repeatsLeft_(spec.repeats),
      totalToEmit_(spec.totalInstrs())
{
    VSGPU_REQUIRES(!spec_.phases.empty(), "workload has no phases");
    const int loop = spec_.loopLength();
    VSGPU_REQUIRES(loop > 0, "workload loop is empty");
    mixTotal_.reserve(spec_.phases.size());
    for (const PhaseSpec &phase : spec_.phases) {
        double total = 0.0;
        for (int op = 0; op < numOpClasses; ++op) {
            if (static_cast<OpClass>(op) == OpClass::Sync)
                continue;
            total += phase.mix[static_cast<std::size_t>(op)];
        }
        mixTotal_.push_back(total);
    }
    int offset = startOffset % loop;

    // Position the cursor 'offset' instructions into the loop.
    while (offset > 0) {
        const auto &phase = spec_.phases[phaseIdx_];
        const int phaseLen =
            phase.lengthInstrs + (phase.barrierAtEnd ? 1 : 0);
        const int remaining = phaseLen - posInPhase_;
        if (offset >= remaining) {
            offset -= remaining;
            posInPhase_ = 0;
            phaseIdx_ = (phaseIdx_ + 1) % spec_.phases.size();
        } else {
            posInPhase_ += offset;
            offset = 0;
        }
    }
}

void
GeneratedProgram::advanceCursor()
{
    const auto &phase = spec_.phases[phaseIdx_];
    const int phaseLen =
        phase.lengthInstrs + (phase.barrierAtEnd ? 1 : 0);
    ++posInPhase_;
    if (posInPhase_ >= phaseLen) {
        posInPhase_ = 0;
        phaseIdx_ = (phaseIdx_ + 1) % spec_.phases.size();
    }
}

WarpInstr
GeneratedProgram::sample()
{
    const PhaseSpec &phase = spec_.phases[phaseIdx_];

    // Barrier slot at the end of a barrier phase.
    if (phase.barrierAtEnd && posInPhase_ == phase.lengthInstrs) {
        WarpInstr instr;
        instr.op = OpClass::Sync;
        instr.dest = noReg;
        instr.src0 = noReg;
        instr.src1 = noReg;
        return instr;
    }

    // Sample the op class from the phase mix (Sync excluded).
    const double total = mixTotal_[phaseIdx_];
    panicIfNot(total > 0.0, "phase mix has no weight");
    double pick = rng_.uniform() * total;
    OpClass chosen = OpClass::IntAlu;
    for (int op = 0; op < numOpClasses; ++op) {
        if (static_cast<OpClass>(op) == OpClass::Sync)
            continue;
        pick -= phase.mix[static_cast<std::size_t>(op)];
        if (pick <= 0.0) {
            chosen = static_cast<OpClass>(op);
            break;
        }
    }

    WarpInstr instr;
    instr.op = chosen;
    instr.dest = static_cast<std::uint8_t>(
        destRegBase + (seq_ % destRegCount));
    if (chosen == OpClass::Store || chosen == OpClass::Sync)
        instr.dest = noReg;

    // Dependences: read a recently produced register with depChance.
    instr.src0 = noReg;
    instr.src1 = noReg;
    if (rng_.bernoulli(phase.depChance) && seq_ > 0) {
        const int back =
            1 + rng_.uniformInt(0, std::max(0, phase.depDistance - 1));
        if (seq_ >= back) {
            instr.src0 = static_cast<std::uint8_t>(
                destRegBase + ((seq_ - back) % destRegCount));
        }
    } else {
        instr.src0 = static_cast<std::uint8_t>(rng_.uniformInt(0, 7));
    }
    if (rng_.bernoulli(phase.depChance * 0.4) && seq_ > 0) {
        const int back = 1 + rng_.uniformInt(
            0, std::max(0, 2 * phase.depDistance - 1));
        if (seq_ >= back) {
            instr.src1 = static_cast<std::uint8_t>(
                destRegBase + ((seq_ - back) % destRegCount));
        }
    }

    // Divergence.
    if (phase.divergence >= 0.999) {
        instr.activeLanes = 32;
    } else {
        const double lanes =
            32.0 * (phase.divergence + 0.12 * rng_.normal());
        instr.activeLanes = static_cast<std::uint8_t>(
            std::clamp(static_cast<int>(std::lround(lanes)), 1, 32));
    }

    instr.rowHit = rng_.bernoulli(phase.rowHitRate);
    if (isMemoryOp(chosen)) {
        instr.l1Hit = rng_.bernoulli(spec_.l1HitRate);
        instr.l2Hit = rng_.bernoulli(spec_.l2HitRate);
    }
    return instr;
}

std::optional<WarpInstr>
GeneratedProgram::next()
{
    if (emitted_ >= totalToEmit_)
        return std::nullopt;
    const WarpInstr instr = sample();
    advanceCursor();
    ++emitted_;
    ++seq_;
    return instr;
}
WorkloadFactory::WorkloadFactory(WorkloadSpec spec)
    : spec_(std::move(spec))
{
    VSGPU_REQUIRES(spec_.warpsPerSm > 0 &&
                   spec_.warpsPerSm <= config::warpsPerSM,
                   "warpsPerSm out of range");
}

std::unique_ptr<WarpProgram>
WorkloadFactory::makeProgram(int sm, int warp) const
{
    const int loop = spec_.loopLength();
    const int smOffset = static_cast<int>(
        spec_.smJitter * static_cast<double>(loop) *
        hash01(spec_.seed, static_cast<std::uint64_t>(sm) + 1));
    const int warpOffset = static_cast<int>(
        spec_.warpJitter * static_cast<double>(loop) *
        hash01(spec_.seed, static_cast<std::uint64_t>(sm) + 1,
               static_cast<std::uint64_t>(warp) + 1));

    const std::uint64_t streamSeed =
        spec_.seed + 1000003ull * static_cast<std::uint64_t>(sm) +
        7919ull * static_cast<std::uint64_t>(warp);

    return std::make_unique<GeneratedProgram>(
        spec_, streamSeed, (smOffset + warpOffset) % loop);
}

} // namespace vsgpu
