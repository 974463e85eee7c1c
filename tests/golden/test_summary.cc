/**
 * @file
 * Fast checks around the golden summaries that need no scenario run:
 * the committed golden files are exactly the registered scenarios,
 * every reviewed audit finding names one of them, and
 * scen::summaryDiff / scen::auditFindingsDiff name every metric and
 * finding a failed comparison is about.
 */

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
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

TEST(GoldenFiles, AuditFindingsNameRegisteredScenarios)
{
    // No GoldenBench instance reads a line of an unknown scenario.
    std::ifstream in(std::string(VSGPU_GOLDEN_DIR) +
                     "/audit_findings.txt");
    ASSERT_TRUE(in.good());
    for (const auto &[scenario, lines] : readAuditFindings(in))
        EXPECT_NE(findScenario(scenario), nullptr) << lines.front();
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

TEST(AuditFindingsDiff, NamesUnexpectedAndMissingFindings)
{
    std::istringstream list("# why\n\nfig|a@0.20|warning|x|CR-IVR\n"
                            "fig|a@0.20|warning|y|gain\n");
    const std::vector<std::string> reviewed =
        readAuditFindings(list).at("fig");
    EXPECT_EQ(auditFindingsDiff(reviewed, reviewed), "");
    EXPECT_EQ(auditFindingsDiff(reviewed, {"fig|a@0.20|warning|y|gain",
                                           "fig|b@1.00|warning|z|gain"}),
              "unexpected: fig|b@1.00|warning|z|gain\n"
              "missing: fig|a@0.20|warning|x|CR-IVR\n");
    std::istringstream bad("fig|a@0.20|warning|x\n");
    EXPECT_DEATH(readAuditFindings(bad), "is not scenario\\|");
}

} // namespace
} // namespace vsgpu::scen
