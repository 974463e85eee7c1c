/**
 * @file
 * Unit tests for the hierarchical stats registry: registration,
 * grouping, snapshot ordering, the schedule-dependent exclusion, the
 * text dump format, and the JSON round-trip contract
 * writeStatsJson(readStatsJson(x)) == x.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "obs/stats_registry.hh"

namespace vsgpu::obs
{
namespace
{

TEST(StatsRegistry, GroupsQualifyAndNest)
{
    StatsRegistry registry;
    StatsGroup control = registry.group("control");
    control.counter("trips", "trips", "detector trips");
    StatsGroup inner = control.group("diws");
    inner.counter("cuts", "cuts", "issue cuts");
    EXPECT_NE(registry.find("control.trips"), nullptr);
    EXPECT_NE(registry.find("control.diws.cuts"), nullptr);
    EXPECT_EQ(registry.find("missing"), nullptr);
}

TEST(StatsRegistryDeath, DuplicateNamePanics)
{
    StatsRegistry registry;
    registry.addCounter("sim.steps", "steps", "timesteps");
    EXPECT_DEATH(
        registry.addCounter("sim.steps", "steps", "again"), "");
}

TEST(StatsRegistry, SnapshotSortsByName)
{
    StatsRegistry registry;
    registry.addCounter("z.last", "n", "last");
    registry.addScalar("a.first", "V", "first");
    registry.addCounter("m.mid", "n", "mid");
    const StatsSnapshot snap = registry.snapshot();
    ASSERT_EQ(snap.entries.size(), 3U);
    EXPECT_EQ(snap.entries[0].name, "a.first");
    EXPECT_EQ(snap.entries[1].name, "m.mid");
    EXPECT_EQ(snap.entries[2].name, "z.last");
}

TEST(StatsRegistry, ScheduleDependentExcludedByDefault)
{
    StatsRegistry registry;
    registry.addCounter("exec.pool.tasks_run", "tasks", "tasks");
    CounterStat &steals = registry.addCounter(
        "exec.pool.steals", "steals", "steals",
        /*scheduleDependent=*/true);
    steals.add(3);
    EXPECT_EQ(registry.snapshot().entries.size(), 1U);
    const StatsSnapshot all =
        registry.snapshot(/*includeScheduleDependent=*/true);
    ASSERT_EQ(all.entries.size(), 2U);
    EXPECT_EQ(all.entries[0].count, 3U);
}

TEST(StatsRegistry, FormulaEvaluatesAtSnapshotTime)
{
    StatsRegistry registry;
    ScalarStat &load = registry.addScalar("e.load", "J", "load");
    ScalarStat &wall = registry.addScalar("e.wall", "J", "wall");
    registry.addFormula("e.pde", "ratio", "delivery efficiency",
                        [&load, &wall] {
                            return wall.value() > 0.0
                                       ? load.value() / wall.value()
                                       : 0.0;
                        });
    load.set(8.0);
    wall.set(10.0);
    const SnapshotEntry *pde = registry.find("e.pde");
    ASSERT_NE(pde, nullptr);
    EXPECT_DOUBLE_EQ(pde->value, 0.8);
}

TEST(StatsRegistry, TextDumpHasBannersAndUnits)
{
    StatsRegistry registry;
    CounterStat &c =
        registry.addCounter("sim.timesteps", "steps",
                            "transient solver timesteps");
    c.add(42);
    std::ostringstream oss;
    registry.dumpText(oss);
    const std::string text = oss.str();
    EXPECT_NE(text.find("Begin Simulation Statistics"),
              std::string::npos);
    EXPECT_NE(text.find("End Simulation Statistics"),
              std::string::npos);
    EXPECT_NE(text.find("sim.timesteps"), std::string::npos);
    EXPECT_NE(text.find("42"), std::string::npos);
    EXPECT_NE(text.find("(steps)"), std::string::npos);
}

TEST(StatsRegistry, JsonRoundTripIsByteExact)
{
    StatsRegistry registry;
    Manifest manifest = makeManifest("test");
    manifest.subject = "round trip";
    manifest.configFingerprint = "0123456789abcdef";
    manifest.seed = 99;
    manifest.scale = 0.15;
    registry.setManifest(manifest);

    registry.addCounter("control.trips", "trips", "trips").add(7);
    registry.addScalar("gpu.min_voltage", "V", "minimum rail")
        .set(0.843251234);
    registry.addFormula("gpu.two", "n", "constant",
                        [] { return 2.0; });

    std::ostringstream first;
    registry.dumpJson(first);

    std::istringstream in(first.str());
    const StatsSnapshot parsed = readStatsJson(in);
    std::ostringstream second;
    writeStatsJson(parsed, second);
    EXPECT_EQ(first.str(), second.str());
    EXPECT_EQ(parsed.manifest.seed, 99U);
    EXPECT_EQ(parsed.entries.size(), 3U);
}

TEST(StatsRegistryDeath, UnknownJsonKeyPanics)
{
    std::istringstream in(
        "{\n  \"stats\": [\n    {\"name\": \"x\", \"kind\": "
        "\"counter\", \"unit\": \"n\", \"desc\": \"d\", \"value\": 1, "
        "\"bogus\": 2}\n  ]\n}\n");
    EXPECT_DEATH(readStatsJson(in), "");
}

TEST(StatsRegistry, UnitNamesComeFromQuantityAliases)
{
    EXPECT_STREQ(unitName<Volts>(), "V");
    EXPECT_STREQ(unitName<Watts>(), "W");
    EXPECT_STREQ(unitName<Joules>(), "J");
    EXPECT_STREQ(unitName<Hertz>(), "Hz");
}

} // namespace
} // namespace vsgpu::obs
