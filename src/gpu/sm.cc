#include "gpu/sm.hh"

#include <algorithm>
#include <optional>

#include "common/logging.hh"

namespace vsgpu
{

Sm::Sm(int id, const SmConfig &cfg, MemorySystem &mem)
    : id_(id), cfg_(cfg), mem_(mem),
      scoreboard_(config::warpsPerSM, cfg.numRegs),
      units_{ExecUnit(ExecUnitKind::Sp0), ExecUnit(ExecUnitKind::Sp1),
             ExecUnit(ExecUnitKind::Sfu), ExecUnit(ExecUnitKind::Lsu)},
      issueLimit_(static_cast<double>(cfg.maxIssueWidth))
{
    panicIfNot(cfg_.maxIssueWidth > 0, "issue width must be positive");
}

void
Sm::launch(const ProgramFactory &factory, Cycle now)
{
    const int numWarps = factory.warpsPerSm();
    panicIfNot(numWarps > 0 && numWarps <= config::warpsPerSM,
               "kernel warp count out of range: ", numWarps);
    warps_.clear();
    warps_.resize(static_cast<std::size_t>(numWarps));
    for (int w = 0; w < numWarps; ++w) {
        warps_[static_cast<std::size_t>(w)].program =
            factory.makeProgram(id_, w);
        scoreboard_.releaseWarp(w);
    }
    // Every warp fetches its first instruction on the first step.
    readyAt_.fill(neverReady);
    warpsByUnit_.fill(0);
    barrierMask_ = 0;
    nextReady_ = 0;
    refillMask_ = numWarps == 64 ? ~std::uint64_t{0}
                                 : (std::uint64_t{1} << numWarps) - 1;
    activeWarps_ = numWarps;
    lastIssuedWarp_ = -1;
    issueTokens_ = 0.0;
    fakeTokens_ = 0.0;
    for (auto &u : units_)
        u.reset(now);
    refreshGatedUntil();
}

void
Sm::refill(int warp)
{
    const auto w = static_cast<std::size_t>(warp);
    const std::optional<WarpInstr> next = warps_[w].program->next();
    if (!next.has_value()) {
        readyAt_[w] = neverReady;
        --activeWarps_;
        return;
    }
    warps_[w].pending = *next;
    readyAt_[w] = scoreboard_.readyAt(warp, *next);
    const std::uint64_t bit = std::uint64_t{1} << warp;
    for (std::uint64_t &m : warpsByUnit_)
        m &= ~bit;
    warpsByUnit_[static_cast<std::size_t>(primaryUnit(next->op))] |= bit;
}

void
Sm::checkBarrier()
{
    // A warp at the barrier is unfinished, so the barrier is complete
    // when the waiting warps are all the unfinished ones.
    const int waiting = std::popcount(barrierMask_);
    if (waiting == 0 || waiting != activeWarps_)
        return;
    retired_ += static_cast<std::uint64_t>(waiting);
    refillMask_ |= barrierMask_;
    barrierMask_ = 0;
}

Cycle
Sm::resultLatency(const WarpInstr &instr, Cycle now)
{
    switch (instr.op) {
      case OpClass::IntAlu:
        return now + cfg_.intAluLatency;
      case OpClass::FpAlu:
        return now + cfg_.fpAluLatency;
      case OpClass::Sfu:
        return now + cfg_.sfuLatency;
      case OpClass::Load:
      case OpClass::Store:
      case OpClass::SharedMem:
      case OpClass::Atomic:
        return mem_.accessWithHints(instr.op, instr.rowHit,
                                    instr.l1Hit, instr.l2Hit, now);
      case OpClass::Sync:
      case OpClass::NumClasses:
        break;
    }
    return now + 1;
}

ExecUnit *
Sm::findUnit(OpClass op, Cycle now)
{
    const auto tryUnit = [&](ExecUnitKind kind) -> ExecUnit * {
        ExecUnit &u = unit(kind);
        if (u.canAccept(now))
            return &u;
        if (u.gated(now)) {
            // Demand wake-up: the instruction waits for the block.
            if (u.gateRequested()) {
                u.ungate(now, cfg_.pgWakeLatency);
                refreshGatedUntil();
                ++events_.wakeEvents;
            }
        }
        return nullptr;
    };

    if (op == OpClass::IntAlu || op == OpClass::FpAlu) {
        if (ExecUnit *u = tryUnit(ExecUnitKind::Sp0))
            return u;
        return tryUnit(ExecUnitKind::Sp1);
    }
    return tryUnit(primaryUnit(op));
}

Sm::IssueOrder
Sm::schedule(std::uint64_t ready, Cycle now) const
{
    IssueOrder order;
    if (cfg_.scheduler == SchedulerKind::Gates) {
        // Gating-aware: first the warps whose next op targets an
        // un-gated block (keeps idle blocks idle so they can gate),
        // then the rest, each group in oldest-first order.
        std::uint64_t cold = 0;
        for (unsigned m = gatedMask(now); m != 0; m &= m - 1)
            cold |= warpsByUnit_[static_cast<std::size_t>(
                std::countr_zero(m))];
        order.queue = {ready & ~cold, ready & cold};
        return order;
    }

    // GTO: greedy warp first, then oldest-first (slot order).
    if (lastIssuedWarp_ >= 0 && ((ready >> lastIssuedWarp_) & 1) != 0) {
        order.head = lastIssuedWarp_;
        ready &= ~(std::uint64_t{1} << lastIssuedWarp_);
    }
    order.queue[0] = ready;
    return order;
}

const SmCycleEvents &
Sm::stepFull(Cycle now)
{
    // step() handles a drained SM inline.
    events_ = SmCycleEvents{};
    events_.active = true;
    ++cyclesRun_;
    fillIssueTokens();

    int slots = cfg_.maxIssueWidth;
    bool throttledThisCycle = false;

    // Warps launched or released from the barrier fetch first.
    for (; refillMask_ != 0; refillMask_ &= refillMask_ - 1)
        refill(std::countr_zero(refillMask_));

    // Ready set: one branch-free compare per warp slot.  Issue only
    // changes the visited warp's ready cycle, so the set stays exact
    // for every warp the scheduler has not visited yet.
    std::uint64_t ready = 0;
    for (std::size_t w = 0; w < warps_.size(); ++w)
        ready |= static_cast<std::uint64_t>(readyAt_[w] <= now) << w;
    // With no warp ready nothing issues, and an SM with unfinished
    // warps sleeps until the earliest ready cycle (the fetch above
    // may just have retired the last warp).  An SM that issues pays
    // no extra pass.
    nextReady_ = ready == 0 && activeWarps_ > 0
                     ? *std::min_element(readyAt_.begin(),
                                         readyAt_.begin() + warps_.size())
                     : 0;
    IssueOrder order = schedule(ready, now);

    int wIdx = order.pop();
    while (slots > 0 && wIdx >= 0) {
        const auto w = static_cast<std::size_t>(wIdx);
        if (issueTokens_ < 1.0) {
            // A slot exists but DIWS withholds it; remember whether
            // real work was available so the throttle is chargeable.
            // Candidates not yet visited are still ready.
            throttledThisCycle = readyAt_[w] <= now || !order.empty();
            break;
        }

        if (readyAt_[w] > now) {
            wIdx = order.pop();
            continue;
        }

        const WarpInstr instr = warps_[w].pending;

        if (instr.op == OpClass::Sync) {
            barrierMask_ |= std::uint64_t{1} << wIdx;
            readyAt_[w] = neverReady;
            wIdx = order.pop();
            continue;
        }

        ExecUnit *execUnit = findUnit(instr.op, now);
        if (execUnit == nullptr) {
            wIdx = order.pop();
            continue;
        }

        // Issue.
        execUnit->accept(instr.op, now);
        const Cycle readyAt = resultLatency(instr, now);
        scoreboard_.recordIssue(wIdx, instr, readyAt);
        refill(wIdx);

        events_.issued[static_cast<std::size_t>(instr.op)] += 1;
        issuedByClass_[static_cast<std::size_t>(instr.op)] += 1;
        events_.lanesActive += instr.activeLanes;
        ++retired_;
        ++issuedTotal_;
        issueTokens_ -= 1.0;
        --slots;

        // Greedy: keep trying the same warp unless it just stalled;
        // its fresh ready cycle decides that.
        lastIssuedWarp_ = wIdx;
    }

    if (throttledThisCycle)
        ++throttledCycles_;

    checkBarrier();

    // Fake instruction injection into leftover slots, limited by the
    // injection-rate budget and SP block availability.
    if (fakeRate_ > 0.0 && slots > 0) {
        fakeTokens_ = std::min(
            fakeTokens_ + fakeRate_,
            static_cast<double>(cfg_.maxIssueWidth));
        while (slots > 0 && fakeTokens_ >= 1.0) {
            ExecUnit *u = findUnit(OpClass::IntAlu, now);
            if (u == nullptr)
                break;
            u->accept(OpClass::IntAlu, now);
            events_.fakeIssued += 1;
            ++fakeTotal_;
            fakeTokens_ -= 1.0;
            --slots;
        }
    } else {
        fakeTokens_ = 0.0;
    }

    return events_;
}

void
Sm::setIssueWidthLimit(double warpsPerCycle)
{
    issueLimit_ = std::clamp(
        warpsPerCycle, 0.0, static_cast<double>(cfg_.maxIssueWidth));
}

void
Sm::setFakeInjectRate(double perCycle)
{
    fakeRate_ = std::clamp(
        perCycle, 0.0, static_cast<double>(cfg_.maxIssueWidth));
}

ExecUnit &
Sm::unit(ExecUnitKind kind)
{
    return units_[static_cast<std::size_t>(kind)];
}

const ExecUnit &
Sm::unit(ExecUnitKind kind) const
{
    return units_[static_cast<std::size_t>(kind)];
}

void
Sm::requestGate(ExecUnitKind kind, Cycle now)
{
    unit(kind).gate(now, cfg_.pgBlackout);
    gatedUntil_ = std::max(gatedUntil_, unit(kind).gatedUntil());
}

Cycle
Sm::wake(ExecUnitKind kind, Cycle now, Cycle wakeCycles)
{
    const Cycle usable = unit(kind).ungate(now, wakeCycles);
    refreshGatedUntil();
    return usable;
}

void
Sm::refreshGatedUntil()
{
    gatedUntil_ = 0;
    for (const ExecUnit &u : units_)
        gatedUntil_ = std::max(gatedUntil_, u.gatedUntil());
}

double
Sm::avgIssueRate() const
{
    if (cyclesRun_ == 0)
        return 0.0;
    return static_cast<double>(issuedTotal_) /
           static_cast<double>(cyclesRun_);
}

SmStats
Sm::stats() const
{
    SmStats s;
    s.cycles = cyclesRun_;
    s.retired = retired_;
    s.fakeIssued = fakeTotal_;
    s.throttledCycles = throttledCycles_;
    s.issuedByClass = issuedByClass_;
    for (int u = 0; u < numExecUnits; ++u) {
        const auto &eu = units_[static_cast<std::size_t>(u)];
        s.unitBusyCycles[static_cast<std::size_t>(u)] =
            eu.busyCycles();
        s.gateEvents[static_cast<std::size_t>(u)] = eu.gateEvents();
    }
    s.avgIssueRate = avgIssueRate();
    return s;
}

} // namespace vsgpu
