/**
 * @file
 * Hierarchical statistics registry in the gem5 tradition.
 *
 * Every instrumented layer (gpu, control, hypervisor, sim, exec)
 * registers named statistics — scalars, counters, and formulas —
 * with a unit and a one-line description.  Hierarchy is
 * expressed with dotted names ("control.detector_trips"); the
 * StatsGroup helper scopes registration under one prefix.  The
 * registry dumps as gem5-style text (name value # description) and
 * as machine-readable JSON, optionally stamped with a run Manifest.
 *
 * Determinism contract: everything simulation-derived is identical
 * for --jobs 1 and --jobs N (docs/parallel_exec.md).  The few stats
 * that legitimately depend on the schedule (e.g. pool steal counts)
 * are registered with scheduleDependent = true and are excluded from
 * dumps by default, so two stats files from different job counts
 * compare bitwise equal.
 *
 * Units are derived from the Quantity dimension types where one
 * exists (unitName<Volts>() == "V"); dimensionless event counts name
 * what they count ("cycles", "tasks").
 */

#ifndef VSGPU_OBS_STATS_REGISTRY_HH
#define VSGPU_OBS_STATS_REGISTRY_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/quantity.hh"
#include "obs/manifest.hh"

namespace vsgpu::obs
{

/** Display unit of a Quantity dimension (specialized per alias). */
template <typename Q>
constexpr const char *
unitName()
{
    return "?";
}

// clang-format off
template <> constexpr const char *unitName<Volts>()   { return "V"; }
template <> constexpr const char *unitName<Watts>()   { return "W"; }
template <> constexpr const char *unitName<Amps>()    { return "A"; }
template <> constexpr const char *unitName<Seconds>() { return "s"; }
template <> constexpr const char *unitName<Hertz>()   { return "Hz"; }
template <> constexpr const char *unitName<Ohms>()    { return "ohm"; }
template <> constexpr const char *unitName<Joules>()  { return "J"; }
// clang-format on

/** Kinds of statistics the registry holds. */
enum class StatKind
{
    Scalar,
    Counter,
    Formula,
};

/** @return the stable kind name used in the JSON dump. */
const char *statKindName(StatKind kind);

/** Metadata shared by every statistic. */
struct StatInfo
{
    std::string name; ///< full dotted name
    std::string unit;
    std::string desc;

    /** True when the value legitimately varies with the pool
     *  schedule; excluded from dumps by default. */
    bool scheduleDependent = false;
};

/** A double-valued statistic set once (or updated) by its owner. */
class ScalarStat
{
  public:
    explicit ScalarStat(StatInfo info) : info_(std::move(info)) {}

    void set(double v) { value_ = v; }
    double value() const { return value_; }
    const StatInfo &info() const { return info_; }

  private:
    StatInfo info_;
    double value_ = 0.0;
};

/** A monotonically increasing event count. */
class CounterStat
{
  public:
    explicit CounterStat(StatInfo info) : info_(std::move(info)) {}

    void add(std::uint64_t n) { count_ += n; }
    void set(std::uint64_t n) { count_ = n; }
    CounterStat &operator+=(std::uint64_t n)
    {
        count_ += n;
        return *this;
    }
    std::uint64_t count() const { return count_; }
    const StatInfo &info() const { return info_; }

  private:
    StatInfo info_;
    std::uint64_t count_ = 0;
};

/** A derived value computed from other stats at dump time. */
class FormulaStat
{
  public:
    FormulaStat(StatInfo info, std::function<double()> fn)
        : info_(std::move(info)), fn_(std::move(fn))
    {
    }

    double value() const { return fn_ ? fn_() : 0.0; }
    const StatInfo &info() const { return info_; }

  private:
    StatInfo info_;
    std::function<double()> fn_;
};

/** One parsed/serializable view of a statistic (dump snapshot). */
struct SnapshotEntry
{
    StatKind kind = StatKind::Scalar;
    std::string name;
    std::string unit;
    std::string desc;

    double value = 0.0;      ///< scalar / formula value
    std::uint64_t count = 0; ///< counter value
};

/** Snapshot of a whole registry, ready for (de)serialization. */
struct StatsSnapshot
{
    Manifest manifest; ///< omitted from JSON when !manifest.valid

    /**
     * Pre-rendered `profile` section (see obs/profile.hh), stored as
     * raw JSON text and re-emitted verbatim so the round-trip stays
     * byte-exact.  Omitted from JSON when empty; only populated when
     * profiling was explicitly requested (wall-clock contents are
     * schedule-dependent by nature).
     */
    std::string profileJson;

    std::vector<SnapshotEntry> entries;
};

class StatsRegistry;

/**
 * Registration handle scoped under one dotted prefix; groups nest by
 * name ("sim" -> "sim.transient").
 */
class StatsGroup
{
  public:
    StatsGroup(StatsRegistry &registry, std::string prefix)
        : registry_(registry), prefix_(std::move(prefix))
    {
    }

    ScalarStat &scalar(const std::string &name,
                       const std::string &unit,
                       const std::string &desc);
    CounterStat &counter(const std::string &name,
                         const std::string &unit,
                         const std::string &desc,
                         bool scheduleDependent = false);
    FormulaStat &formula(const std::string &name,
                         const std::string &unit,
                         const std::string &desc,
                         std::function<double()> fn);

    /** @return a nested group under this prefix. */
    StatsGroup group(const std::string &name) const;

  private:
    std::string qualify(const std::string &name) const;

    StatsRegistry &registry_;
    std::string prefix_;
};

/**
 * The registry: owns every statistic of one run.  Registration
 * returns stable references (deque storage); names must be unique.
 */
class StatsRegistry
{
  public:
    StatsRegistry() = default;
    StatsRegistry(const StatsRegistry &) = delete;
    StatsRegistry &operator=(const StatsRegistry &) = delete;

    ScalarStat &addScalar(const std::string &name,
                          const std::string &unit,
                          const std::string &desc);
    CounterStat &addCounter(const std::string &name,
                            const std::string &unit,
                            const std::string &desc,
                            bool scheduleDependent = false);
    FormulaStat &addFormula(const std::string &name,
                            const std::string &unit,
                            const std::string &desc,
                            std::function<double()> fn);

    /** @return a registration handle scoped under @p prefix. */
    StatsGroup group(const std::string &prefix)
    {
        return StatsGroup(*this, prefix);
    }

    /** @return total registered statistics. */
    std::size_t size() const;

    /** @return the entry with this full name, or nullptr. */
    const SnapshotEntry *find(const std::string &name) const;

    /**
     * Capture every statistic, sorted by name.  Schedule-dependent
     * stats are excluded unless asked for, so snapshots (and the
     * dumps built from them) compare bitwise equal across --jobs.
     */
    StatsSnapshot snapshot(bool includeScheduleDependent = false)
        const;

    /** gem5-style text dump: name  value  # description (unit). */
    void dumpText(std::ostream &os,
                  bool includeScheduleDependent = false) const;

    /** JSON dump, optionally manifest-stamped. */
    void dumpJson(std::ostream &os,
                  bool includeScheduleDependent = false) const;

    /** Manifest stamped into JSON dumps (copied). */
    void setManifest(const Manifest &manifest)
    {
        manifest_ = manifest;
    }

    /** Rendered `profile` section for JSON dumps (empty = none). */
    void setProfileJson(std::string profileJson)
    {
        profileJson_ = std::move(profileJson);
    }

  private:
    void checkUnique(const std::string &name) const;
    mutable StatsSnapshot cachedSnapshot_; ///< find() scratch

    Manifest manifest_;
    std::string profileJson_;
    std::deque<ScalarStat> scalars_;
    std::deque<CounterStat> counters_;
    std::deque<FormulaStat> formulas_;
};

/** Serialize a snapshot as the stats JSON document. */
void writeStatsJson(const StatsSnapshot &snapshot, std::ostream &os);

/** gem5-style text rendering of a snapshot. */
void writeStatsText(const StatsSnapshot &snapshot, std::ostream &os);

/**
 * Parse a document previously produced by writeStatsJson().  Panics
 * on malformed input; writeStatsJson(readStatsJson(x)) == x.
 */
StatsSnapshot readStatsJson(std::istream &is);

} // namespace vsgpu::obs

#endif // VSGPU_OBS_STATS_REGISTRY_HH
