#include "gpu/exec_unit.hh"

#include "common/logging.hh"

namespace vsgpu
{

const char *
execUnitName(ExecUnitKind kind)
{
    switch (kind) {
      case ExecUnitKind::Sp0: return "sp0";
      case ExecUnitKind::Sp1: return "sp1";
      case ExecUnitKind::Sfu: return "sfu";
      case ExecUnitKind::Lsu: return "lsu";
      case ExecUnitKind::NumUnits: break;
    }
    return "?";
}

ExecUnit::ExecUnit(ExecUnitKind kind)
    : kind_(kind)
{
}

void
ExecUnit::accept(OpClass op, Cycle now)
{
    panicIfNot(canAccept(now), "accept on a busy or gated unit");
    busyUntil_ = now + occupancyCycles(op);
    busyTotal_ += occupancyCycles(op);
    lastBusy_ = busyUntil_;
}

Cycle
ExecUnit::idleCycles(Cycle now) const
{
    if (busyUntil_ > now)
        return 0;
    return now - lastBusy_;
}

void
ExecUnit::gate(Cycle now, Cycle blackoutCycles)
{
    if (gatedFlag_)
        return;
    gatedFlag_ = true;
    gatedUntil_ = std::numeric_limits<Cycle>::max();
    gatedSince_ = now;
    blackoutUntil_ = now + blackoutCycles;
    ++gateEvents_;
}

Cycle
ExecUnit::ungate(Cycle now, Cycle wakeCycles)
{
    if (!gatedFlag_)
        return wakeUntil_ > now ? wakeUntil_ : now;
    // Honour the blackout period: the wake cannot complete before it.
    const Cycle start = now > blackoutUntil_ ? now : blackoutUntil_;
    gatedTotal_ += start - gatedSince_;
    gatedFlag_ = false;
    wakeUntil_ = start + wakeCycles;
    gatedUntil_ = wakeUntil_;
    lastBusy_ = wakeUntil_;
    ++wakeEvents_;
    return wakeUntil_;
}

Cycle
ExecUnit::gatedCycles(Cycle now) const
{
    return gatedTotal_ + (gatedFlag_ ? now - gatedSince_ : 0);
}

void
ExecUnit::reset(Cycle now)
{
    busyUntil_ = now;
    lastBusy_ = now;
    gatedFlag_ = false;
    blackoutUntil_ = now;
    wakeUntil_ = now;
    gatedUntil_ = now;
}

} // namespace vsgpu
