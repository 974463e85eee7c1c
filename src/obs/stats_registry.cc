#include "obs/stats_registry.hh"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "common/logging.hh"
#include "obs/json.hh"

namespace vsgpu::obs
{

const char *
statKindName(StatKind kind)
{
    switch (kind) {
      case StatKind::Scalar:       return "scalar";
      case StatKind::Counter:      return "counter";
      case StatKind::Formula:      return "formula";
    }
    return "?";
}

// ---------------- StatsGroup ----------------

std::string
StatsGroup::qualify(const std::string &name) const
{
    return prefix_.empty() ? name : prefix_ + "." + name;
}

ScalarStat &
StatsGroup::scalar(const std::string &name, const std::string &unit,
                   const std::string &desc)
{
    return registry_.addScalar(qualify(name), unit, desc);
}

CounterStat &
StatsGroup::counter(const std::string &name, const std::string &unit,
                    const std::string &desc, bool scheduleDependent)
{
    return registry_.addCounter(qualify(name), unit, desc,
                                scheduleDependent);
}

FormulaStat &
StatsGroup::formula(const std::string &name, const std::string &unit,
                    const std::string &desc,
                    std::function<double()> fn)
{
    return registry_.addFormula(qualify(name), unit, desc,
                                std::move(fn));
}

StatsGroup
StatsGroup::group(const std::string &name) const
{
    return StatsGroup(registry_, qualify(name));
}

// ---------------- StatsRegistry ----------------

void
StatsRegistry::checkUnique(const std::string &name) const
{
    const auto clash = [&name](const auto &container) {
        return std::any_of(container.begin(), container.end(),
                           [&name](const auto &stat) {
                               return stat.info().name == name;
                           });
    };
    panicIfNot(!clash(scalars_) && !clash(counters_) &&
                   !clash(formulas_),
               "duplicate stat registration: ", name);
}

ScalarStat &
StatsRegistry::addScalar(const std::string &name,
                         const std::string &unit,
                         const std::string &desc)
{
    checkUnique(name);
    scalars_.emplace_back(StatInfo{name, unit, desc, false});
    return scalars_.back();
}

CounterStat &
StatsRegistry::addCounter(const std::string &name,
                          const std::string &unit,
                          const std::string &desc,
                          bool scheduleDependent)
{
    checkUnique(name);
    counters_.emplace_back(
        StatInfo{name, unit, desc, scheduleDependent});
    return counters_.back();
}

FormulaStat &
StatsRegistry::addFormula(const std::string &name,
                          const std::string &unit,
                          const std::string &desc,
                          std::function<double()> fn)
{
    checkUnique(name);
    formulas_.emplace_back(StatInfo{name, unit, desc, false},
                           std::move(fn));
    return formulas_.back();
}

std::size_t
StatsRegistry::size() const
{
    return scalars_.size() + counters_.size() + formulas_.size();
}

StatsSnapshot
StatsRegistry::snapshot(bool includeScheduleDependent) const
{
    StatsSnapshot out;
    out.manifest = manifest_;
    out.profileJson = profileJson_;
    // @return a new entry with the common fields set, or null when
    // the stat is schedule-dependent and those are excluded.
    const auto entry = [&](StatKind kind,
                           const StatInfo &info) -> SnapshotEntry * {
        if (info.scheduleDependent && !includeScheduleDependent)
            return nullptr;
        SnapshotEntry &e = out.entries.emplace_back();
        e.kind = kind;
        e.name = info.name;
        e.unit = info.unit;
        e.desc = info.desc;
        return &e;
    };
    for (const ScalarStat &s : scalars_)
        if (SnapshotEntry *e = entry(StatKind::Scalar, s.info()))
            e->value = s.value();
    for (const CounterStat &c : counters_)
        if (SnapshotEntry *e = entry(StatKind::Counter, c.info()))
            e->count = c.count();
    for (const FormulaStat &f : formulas_)
        if (SnapshotEntry *e = entry(StatKind::Formula, f.info()))
            e->value = f.value();
    std::sort(out.entries.begin(), out.entries.end(),
              [](const SnapshotEntry &a, const SnapshotEntry &b) {
                  return a.name < b.name;
              });
    return out;
}

const SnapshotEntry *
StatsRegistry::find(const std::string &name) const
{
    cachedSnapshot_ = snapshot(true);
    for (const SnapshotEntry &e : cachedSnapshot_.entries)
        if (e.name == name)
            return &e;
    return nullptr;
}

void
StatsRegistry::dumpText(std::ostream &os,
                        bool includeScheduleDependent) const
{
    writeStatsText(snapshot(includeScheduleDependent), os);
}

void
StatsRegistry::dumpJson(std::ostream &os,
                        bool includeScheduleDependent) const
{
    writeStatsJson(snapshot(includeScheduleDependent), os);
}

// ---------------- serialization ----------------

void
writeStatsText(const StatsSnapshot &snapshot, std::ostream &os)
{
    os << "---------- Begin Simulation Statistics ----------\n";
    const auto line = [&os](const std::string &name,
                            const std::string &value,
                            const std::string &desc,
                            const std::string &unit) {
        os << std::left << std::setw(44) << name << " "
           << std::right << std::setw(16) << value << "  # " << desc;
        if (!unit.empty())
            os << " (" << unit << ")";
        os << "\n";
    };
    for (const SnapshotEntry &e : snapshot.entries) {
        switch (e.kind) {
          case StatKind::Scalar:
          case StatKind::Formula:
            line(e.name, jsonNumber(e.value), e.desc, e.unit);
            break;
          case StatKind::Counter:
            line(e.name, std::to_string(e.count), e.desc, e.unit);
            break;
        }
    }
    os << "---------- End Simulation Statistics   ----------\n";
}

void
writeStatsJson(const StatsSnapshot &snapshot, std::ostream &os)
{
    os << "{\n";
    if (snapshot.manifest.valid) {
        os << "  \"manifest\": ";
        writeManifestJson(snapshot.manifest, os, "  ");
        os << ",\n";
    }
    if (!snapshot.profileJson.empty())
        os << "  \"profile\": " << snapshot.profileJson << ",\n";
    os << "  \"stats\": [";
    for (std::size_t i = 0; i < snapshot.entries.size(); ++i) {
        const SnapshotEntry &e = snapshot.entries[i];
        os << (i ? ",\n" : "\n") << "    {\"name\": " << jsonQuote(e.name)
           << ", \"kind\": \"" << statKindName(e.kind) << "\""
           << ", \"unit\": " << jsonQuote(e.unit)
           << ", \"desc\": " << jsonQuote(e.desc);
        switch (e.kind) {
          case StatKind::Scalar:
          case StatKind::Formula:
            os << ", \"value\": " << jsonNumber(e.value);
            break;
          case StatKind::Counter:
            os << ", \"value\": " << e.count;
            break;
        }
        os << "}";
    }
    os << "\n  ]\n}\n";
}

StatsSnapshot
readStatsJson(std::istream &is)
{
    std::ostringstream buf;
    buf << is.rdbuf();
    JsonReader in(buf.str(), "stats JSON");
    StatsSnapshot out;
    const auto entry = [&in](SnapshotEntry &e) {
        double value = 0.0;
        in.object([&](const std::string &key) {
            if (key == "name") {
                e.name = in.string();
            } else if (key == "kind") {
                const std::string kind = in.string();
                bool known = false;
                for (StatKind k : {StatKind::Scalar, StatKind::Counter,
                                   StatKind::Formula}) {
                    if (kind == statKindName(k)) {
                        e.kind = k;
                        known = true;
                    }
                }
                if (!known)
                    in.fail("unknown kind '", kind, "'");
            } else if (key == "unit") {
                e.unit = in.string();
            } else if (key == "desc") {
                e.desc = in.string();
            } else if (key == "value") {
                value = in.number();
            } else {
                in.fail("unknown entry key '", key, "'");
            }
        });
        if (e.kind == StatKind::Counter)
            e.count = static_cast<std::uint64_t>(value);
        else
            e.value = value;
    };
    in.object([&](const std::string &key) {
        if (key == "manifest")
            out.manifest = readManifestJson(in);
        else if (key == "profile")
            // Owned by obs/profile.hh: stored and re-emitted
            // byte-exactly, never interpreted here.
            out.profileJson = in.rawObject();
        else if (key == "stats")
            in.array([&](std::size_t) { entry(out.entries.emplace_back()); });
        else
            in.fail("unknown key '", key, "'");
    });
    return out;
}

} // namespace vsgpu::obs
