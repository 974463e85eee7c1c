/**
 * @file
 * Fast checks around the golden summaries that need no scenario run:
 * the committed golden files are exactly the registered scenarios,
 * and scen::summaryDiff names every metric a failed byte comparison
 * is about.
 */

#include <filesystem>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "bench/scenarios/scenarios.hh"

namespace vsgpu::scen
{
namespace
{

TEST(GoldenFiles, StemsMatchRegisteredScenarios)
{
    // A golden left behind by a renamed or deleted scenario fails
    // here; a scenario without a golden fails here and in
    // GoldenBench.
    std::set<std::string> stems;
    for (const auto &entry :
         std::filesystem::directory_iterator(VSGPU_GOLDEN_DIR)) {
        if (entry.path().extension() == ".json")
            stems.insert(entry.path().stem().string());
    }
    std::set<std::string> names;
    for (const ScenarioInfo &s : allScenarios())
        names.insert(s.name);
    EXPECT_EQ(stems, names);
}

Summary
recordedSummary()
{
    Summary s;
    s.add("kept", 1.0);
    s.add("changed", 0.5);
    s.add("removed", 3.0);
    return s;
}

TEST(SummaryDiff, EmptyWhenEveryValueMatches)
{
    EXPECT_EQ(summaryDiff(recordedSummary(), recordedSummary()), "");
}

TEST(SummaryDiff, NamesChangedAddedAndRemovedMetrics)
{
    Summary measured;
    measured.add("kept", 1.0);
    measured.add("changed", 0.625);
    measured.add("added", 4.0);
    EXPECT_EQ(summaryDiff(recordedSummary(), measured),
              "changed: recorded 0.5, measured 0.625, relative change "
              "0.25\n"
              "removed: removed (recorded 3)\n"
              "added: added (measured 4)\n");
}

} // namespace
} // namespace vsgpu::scen
