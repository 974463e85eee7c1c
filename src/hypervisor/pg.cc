#include "hypervisor/pg.hh"

#include "common/check.hh"
#include "common/logging.hh"

namespace vsgpu
{
PgGovernor::PgGovernor(const PgConfig &cfg)
    : cfg_(cfg)
{
    VSGPU_REQUIRES(cfg_.checkPeriod > 0, "check period must be positive");
}

bool
PgGovernor::unitAllowed(ExecUnitKind kind) const
{
    switch (kind) {
      case ExecUnitKind::Sp0:
      case ExecUnitKind::Sp1:
        return cfg_.gateSp;
      case ExecUnitKind::Sfu:
        return cfg_.gateSfu;
      case ExecUnitKind::Lsu:
        return cfg_.gateLsu;
      case ExecUnitKind::NumUnits:
        break;
    }
    return false;
}

void
PgGovernor::step(Gpu &gpu, Cycle now)
{
    if (++sinceCheck_ < cfg_.checkPeriod)
        return;
    sinceCheck_ = 0;

    for (int s = 0; s < gpu.numSMs(); ++s) {
        Sm &sm = gpu.sm(s);
        if (sm.done())
            continue;
        for (int u = 0; u < numExecUnits; ++u) {
            const auto kind = static_cast<ExecUnitKind>(u);
            if (!unitAllowed(kind))
                continue;
            if (vetoed_[static_cast<std::size_t>(s)]
                       [static_cast<std::size_t>(u)]) {
                ++vetoSkips_;
                continue;
            }
            ExecUnit &unit = sm.unit(kind);
            if (unit.gated(now) || unit.busy(now))
                continue;
            if (unit.idleCycles(now) >= cfg_.idleDetect) {
                sm.requestGate(kind, now);
                ++gateRequests_;
            }
        }
    }
}

void
PgGovernor::setVeto(int sm, ExecUnitKind unit, bool vetoed)
{
    VSGPU_REQUIRES(sm >= 0 && sm < config::numSMs, "bad SM index ", sm);
    vetoed_[static_cast<std::size_t>(sm)]
           [static_cast<std::size_t>(unit)] = vetoed;
}

void
PgGovernor::clearVetoes()
{
    for (auto &row : vetoed_)
        row.fill(false);
}

} // namespace vsgpu
