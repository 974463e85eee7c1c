/**
 * @file
 * Golden-trace regression tests over the bench scenarios.
 *
 * Each registered scenario (bench/scenarios/) is replayed at the
 * recorded golden scale and its Summary metrics are compared against
 * tests/golden/<scenario>.json within the tolerances stored there.
 * On one machine replays are bitwise-identical, so any in-tolerance
 * slack only covers cross-platform floating-point differences; a
 * metric drifting past its tolerance means a behavioural change in
 * the simulator — either a regression, or an intentional change that
 * requires re-recording:
 *
 *     build/tools/record_golden
 *
 * and reviewing the resulting JSON diff like any other code change.
 */

#include <cmath>
#include <fstream>
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

std::string
goldenPath(const std::string &scenario)
{
    return std::string(VSGPU_GOLDEN_DIR) + "/" + scenario + ".json";
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

    const std::string path = goldenPath(info.name);
    std::ifstream in(path);
    ASSERT_TRUE(in.good())
        << "missing golden summary " << path
        << " — record it with: build/tools/record_golden "
        << info.name;
    const scen::Summary golden = scen::readSummaryJson(in);
    ASSERT_EQ(golden.scenario, info.name);

    scen::ScenarioOptions opts;
    opts.scale = golden.scale; // compare like with like
    std::ostringstream tables; // rendered but unchecked
    const scen::Summary fresh =
        scen::runScenario(info, opts, tables);

    EXPECT_EQ(golden.metrics.size(), fresh.metrics.size())
        << "metric set changed — re-record the goldens";
    for (const scen::SummaryMetric &want : golden.metrics) {
        const scen::SummaryMetric *got = fresh.find(want.name);
        ASSERT_NE(got, nullptr)
            << "metric " << want.name
            << " disappeared — re-record the goldens";
        EXPECT_LE(std::abs(got->value - want.value), want.tol)
            << info.name << "/" << want.name << ": recorded "
            << want.value << " (tol " << want.tol << "), measured "
            << got->value;
    }
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
