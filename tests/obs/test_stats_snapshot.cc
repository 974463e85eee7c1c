/**
 * @file
 * Unit tests for the stats dump: entries sorted by name, the
 * duplicate-name panic, and the JSON round-trip contract
 * writeStatsJson(readStatsJson(x)) == x.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "obs/stats_snapshot.hh"

namespace vsgpu::obs
{
namespace
{

SnapshotEntry
counter(const char *name, std::uint64_t count)
{
    return {.kind = StatKind::Counter,
            .name = name,
            .unit = "n",
            .desc = name,
            .count = count};
}

std::string
dump(const StatsSnapshot &snapshot)
{
    std::ostringstream os;
    writeStatsJson(snapshot, os);
    return os.str();
}

TEST(StatsSnapshotDeath, DuplicateNamePanics)
{
    StatsSnapshot snapshot;
    snapshot.entries = {counter("sim.steps", 1), counter("a", 2),
                        counter("sim.steps", 3)};
    EXPECT_DEATH(dump(snapshot), "duplicate stat: sim.steps");
}

TEST(StatsSnapshot, JsonSortsByName)
{
    StatsSnapshot snapshot;
    snapshot.entries = {counter("z.last", 1), counter("a.first", 2),
                        counter("m.mid", 3)};
    const std::string json = dump(snapshot);
    EXPECT_LT(json.find("\"a.first\""), json.find("\"m.mid\""));
    EXPECT_LT(json.find("\"m.mid\""), json.find("\"z.last\""));

    std::istringstream in(json);
    const StatsSnapshot parsed = readStatsJson(in);
    ASSERT_EQ(parsed.entries.size(), 3U);
    EXPECT_EQ(parsed.entries[0].name, "a.first");
    EXPECT_EQ(parsed.entries[1].name, "m.mid");
    EXPECT_EQ(parsed.entries[2].name, "z.last");
    EXPECT_EQ(parsed.entries[2].count, 1U);
}

TEST(StatsSnapshot, JsonRoundTripIsByteExact)
{
    StatsSnapshot snapshot;
    snapshot.manifest = makeManifest("test");
    snapshot.manifest.subject = "round trip";
    snapshot.manifest.configFingerprint = "0123456789abcdef";
    snapshot.manifest.seed = 99;
    snapshot.manifest.scale = 0.15;
    snapshot.entries = {
        counter("control.trips", 7),
        {.kind = StatKind::Scalar,
         .name = "gpu.min_voltage",
         .unit = "V",
         .desc = "minimum rail",
         .value = 0.843251234},
        {.kind = StatKind::Formula,
         .name = "energy.pde",
         .unit = "",
         .desc = "power delivery efficiency (load / wall)",
         .value = 0.8},
    };

    const std::string first = dump(snapshot);
    EXPECT_NE(first.find("\"kind\": \"formula\""), std::string::npos);

    std::istringstream in(first);
    const StatsSnapshot parsed = readStatsJson(in);
    EXPECT_EQ(dump(parsed), first);
    EXPECT_EQ(parsed.manifest.seed, 99U);
    ASSERT_EQ(parsed.entries.size(), 3U);
    EXPECT_EQ(parsed.entries[1].kind, StatKind::Formula);
    EXPECT_EQ(parsed.entries[1].value, 0.8);
}

TEST(StatsSnapshotDeath, UnknownJsonKeyPanics)
{
    std::istringstream in(
        "{\n  \"stats\": [\n    {\"name\": \"x\", \"kind\": "
        "\"counter\", \"unit\": \"n\", \"desc\": \"d\", \"value\": 1, "
        "\"bogus\": 2}\n  ]\n}\n");
    EXPECT_DEATH(readStatsJson(in), "");
}

TEST(StatsSnapshot, UnitNamesComeFromQuantityAliases)
{
    EXPECT_STREQ(unitName<Volts>(), "V");
    EXPECT_STREQ(unitName<Watts>(), "W");
    EXPECT_STREQ(unitName<Joules>(), "J");
    EXPECT_STREQ(unitName<Hertz>(), "Hz");
}

} // namespace
} // namespace vsgpu::obs
