/**
 * @file
 * The end-of-run statistics dump.
 *
 * Every statistic the simulator exports is an end-of-run quantity,
 * so the dump is a plain snapshot: producers append one
 * SnapshotEntry per statistic (sim/stats_export.hh defines the
 * canonical names, units and descriptions) and writeStatsJson()
 * emits them sorted by name, optionally stamped with a run Manifest.
 * Hierarchy is expressed with dotted names ("control.detector_trips").
 *
 * Determinism contract: everything in the dump is simulation-derived
 * and identical for --jobs 1 and --jobs N (docs/parallel_exec.md),
 * so two stats files from different job counts compare bitwise equal.
 *
 * Units are derived from the Quantity dimension types where one
 * exists (unitName<Volts>() == "V"); dimensionless event counts name
 * what they count ("cycles", "tasks").
 */

#ifndef VSGPU_OBS_STATS_SNAPSHOT_HH
#define VSGPU_OBS_STATS_SNAPSHOT_HH

#include <cstdint>
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

/**
 * Kinds of statistics, labelled in the JSON dump: a measured value,
 * an event count, or a value derived from other entries (e.g.
 * energy.pde = load / wall).
 */
enum class StatKind
{
    Scalar,
    Counter,
    Formula,
};

/** @return the stable kind name used in the JSON dump. */
const char *statKindName(StatKind kind);

/** One statistic of the dump. */
struct SnapshotEntry
{
    StatKind kind = StatKind::Scalar;
    std::string name; ///< full dotted name
    std::string unit;
    std::string desc;

    double value = 0.0;      ///< scalar / formula value
    std::uint64_t count = 0; ///< counter value
};

/** A whole stats dump, ready for (de)serialization. */
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

    /** Entries in any order; names must be unique. */
    std::vector<SnapshotEntry> entries;
};

/**
 * Serialize a snapshot as the stats JSON document, entries sorted by
 * name.  Panics when two entries share a name.
 */
void writeStatsJson(const StatsSnapshot &snapshot, std::ostream &os);

/**
 * Parse a document previously produced by writeStatsJson().  Panics
 * on malformed input; writeStatsJson(readStatsJson(x)) == x.
 */
StatsSnapshot readStatsJson(std::istream &is);

} // namespace vsgpu::obs

#endif // VSGPU_OBS_STATS_SNAPSHOT_HH
