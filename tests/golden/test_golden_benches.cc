/**
 * @file
 * Golden-trace regression gate over the bench scenarios.
 *
 * Each registered scenario (bench/scenarios/) runs once at
 * scen::goldenScale, and its Summary as writeSummaryJson() prints it
 * must equal tests/golden/<scenario>.json byte for byte.  Any
 * difference is a behavioural change in the simulator: either a
 * regression, or an intended change that requires re-recording
 *
 *     build/tools/vsgpu record-golden
 *
 * and reviewing the resulting JSON diff like any other code change.
 * On a mismatch the failure names every metric that moved (recorded
 * and measured value, relative change) and every metric added or
 * removed (scen::summaryDiff).
 * The same run's static-audit findings must equal the scenario's
 * lines of tests/golden/audit_findings.txt (scen::auditFindingsDiff).
 */

#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "bench/scenarios/scenarios.hh"
#include "circuit/solver.hh"

namespace vsgpu
{
namespace
{

class GoldenBench
    : public ::testing::TestWithParam<const scen::ScenarioInfo *>
{
};

/** The first line where two texts differ, for a mismatch that no
 *  metric value shows (the file's layout, or a value spelled other
 *  than the shortest round-trip form). */
std::string
firstDifferentLine(const std::string &recorded,
                   const std::string &measured)
{
    std::istringstream want(recorded), got(measured);
    std::string a, b;
    for (int line = 1;; ++line) {
        const bool moreWant = static_cast<bool>(std::getline(want, a));
        const bool moreGot = static_cast<bool>(std::getline(got, b));
        if (!moreWant && !moreGot)
            return "no line differs\n";
        if (!moreWant || !moreGot || a != b) {
            std::ostringstream os;
            os << "line " << line << ": recorded '" << a
               << "', measured '" << b << "'\n";
            return os.str();
        }
    }
}

TEST_P(GoldenBench, MatchesRecordedSummary)
{
    const scen::ScenarioInfo &info = *GetParam();

    // The goldens were recorded on the sparse default; replaying
    // them on another backend would silently weaken the check (the
    // backends are bitwise-identical by contract, but that contract
    // is what the differential suite — not this one — establishes).
    ASSERT_EQ(defaultSolver(), SolverKind::Sparse)
        << "golden replay must run on the default sparse solver";

    const std::string path =
        std::string(VSGPU_GOLDEN_DIR) + "/" + info.name + ".json";
    std::ifstream in(path);
    ASSERT_TRUE(in.good())
        << "missing golden summary " << path
        << " — record it with: build/tools/vsgpu record-golden "
        << info.name;
    const std::string recorded{std::istreambuf_iterator<char>(in),
                               std::istreambuf_iterator<char>()};

    const std::string listPath =
        std::string(VSGPU_GOLDEN_DIR) + "/audit_findings.txt";
    std::ifstream listIn(listPath);
    ASSERT_TRUE(listIn.good()) << "missing " << listPath;
    const std::vector<std::string> reviewed =
        scen::readAuditFindings(listIn)[info.name];

    scen::ScenarioOptions opts;
    opts.scale = scen::goldenScale;
    std::ostringstream tables; // rendered but unchecked
    scen::ScenarioTelemetry telemetry;
    const scen::Summary fresh = scen::runScenario(
        info, opts, tables, nullptr, nullptr, &telemetry);

    const std::string findings =
        scen::auditFindingsDiff(reviewed, telemetry.auditFindings);
    EXPECT_TRUE(findings.empty())
        << listPath << " differs from a fresh run:\n" << findings
        << "add each unexpected line under a reviewed rationale "
           "(docs/model_verification.md); remove each missing one";

    std::ostringstream measured;
    scen::writeSummaryJson(fresh, measured);
    if (measured.str() == recorded)
        return;

    std::istringstream recordedIn(recorded);
    const std::string diff =
        scen::summaryDiff(scen::readSummaryJson(recordedIn), fresh);
    ADD_FAILURE() << path << " differs from a fresh run:\n"
                  << (diff.empty() ? firstDifferentLine(recorded,
                                                        measured.str())
                                   : diff)
                  << "re-record with: build/tools/vsgpu record-golden "
                  << info.name;
}

std::vector<const scen::ScenarioInfo *>
scenarioPointers()
{
    std::vector<const scen::ScenarioInfo *> out;
    for (const scen::ScenarioInfo &s : scen::allScenarios())
        out.push_back(&s);
    return out;
}

} // namespace

namespace scen
{
// Found by ADL on the parameter's pointee. gtest would otherwise print
// the pointer, and ctest bakes that load address into the test's name.
void
PrintTo(const ScenarioInfo *info, std::ostream *os)
{
    *os << info->name;
}
} // namespace scen

namespace
{

INSTANTIATE_TEST_SUITE_P(
    Scenarios, GoldenBench,
    ::testing::ValuesIn(scenarioPointers()),
    [](const ::testing::TestParamInfo<const scen::ScenarioInfo *>
           &info) { return std::string(info.param->name); });

} // namespace
} // namespace vsgpu
