/**
 * @file
 * Tests for the cross-TU semantic layer (tools/lint/semantic.hh):
 * symbol indexing, the unit-flow family over the fixture corpus, and
 * — the point of the layer — explicit proof that each seeded fixture
 * bug is INVISIBLE to the token-level unit-safety family and caught
 * only by unit-flow.
 */

#include "lint.hh"
#include "semantic.hh"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

using namespace vsgpu::lint;

namespace
{

SourceFile
fixture(const std::string &name)
{
    const std::string path =
        std::string(VSGPU_LINT_FIXTURE_DIR) + "/" + name;
    return loadSource(path, "tests/lint/fixtures/" + name);
}

Project
projectOf(std::vector<std::pair<std::string, std::string>> files)
{
    std::vector<SourceFile> sources;
    sources.reserve(files.size());
    for (auto &[display, code] : files)
        sources.emplace_back(display, code);
    return Project(std::move(sources));
}

Project
fixtureProject(const std::string &name)
{
    std::vector<SourceFile> sources;
    sources.push_back(fixture(name));
    return Project(std::move(sources));
}

std::vector<std::string>
messages(const std::vector<Diagnostic> &diags)
{
    std::vector<std::string> out;
    out.reserve(diags.size());
    for (const Diagnostic &d : diags)
        out.push_back(d.message);
    return out;
}

const FunctionDef &
fn(const Project &project, const std::string &name)
{
    const auto &hits = project.lookup(name);
    EXPECT_EQ(hits.size(), 1U) << name;
    return project.index()
        .functions[static_cast<std::size_t>(hits.front())];
}

// ================= symbol index =================

TEST(SymbolIndex, FindsFunctionsParamsAndGlobals)
{
    const Project p = projectOf(
        {{"src/a.cc",
          "namespace { double gTotal(0.0); }\n"
          "const double kLimit = limitFor(4.0);\n"
          "double scale(const Volts &v, double factor)\n"
          "{\n"
          "    return v.raw() * factor;\n"
          "}\n"}});
    const FunctionDef &f = fn(p, "scale");
    ASSERT_EQ(f.params.size(), 2U);
    EXPECT_EQ(f.params[0].name, "v");
    EXPECT_EQ(f.params[0].type, "Volts");
    EXPECT_EQ(f.params[1].name, "factor");
    EXPECT_EQ(f.params[1].type, "double");
    // A direct-initialized global and a global initialized by a call
    // are variables, not definitions.
    EXPECT_TRUE(p.lookup("gTotal").empty());
    EXPECT_TRUE(p.lookup("limitFor").empty());
    EXPECT_EQ(p.index().functions.size(), 1U);
}

TEST(SymbolIndex, MethodsRecordTheirClassAndFieldWrites)
{
    const Project p = projectOf(
        {{"src/a.cc",
          "class Meter\n"
          "{\n"
          "  public:\n"
          "    void tick() { energy_ = energy_ + 1.0; }\n"
          "  private:\n"
          "    double energy_ = 0.0;\n"
          "};\n"}});
    EXPECT_EQ(p.lookup("tick").size(), 1U);
    // The field declaration and the field write inside the body are
    // not definitions.
    EXPECT_TRUE(p.lookup("energy_").empty());
    EXPECT_EQ(p.index().functions.size(), 1U);
}

// ================= unit-flow =================

TEST(UnitFlow, MixedUnitsThroughIntermediatesInvisibleToTokenFamily)
{
    const SourceFile src = fixture("unitflow_mix_violate.cc");
    std::vector<Diagnostic> token;
    checkUnitSafety(src, token);
    EXPECT_TRUE(token.empty())
        << "no suffixed raw double exists for the token family: "
        << ::testing::PrintToString(messages(token));

    const Project p = fixtureProject("unitflow_mix_violate.cc");
    std::vector<Diagnostic> semantic;
    checkUnitFlow(p, semantic);
    ASSERT_EQ(semantic.size(), 1U)
        << ::testing::PrintToString(messages(semantic));
    EXPECT_EQ(semantic[0].id, "unit-flow.mixed-units");
}

TEST(UnitFlow, LikeUnitsAndDerivedProductsPass)
{
    const Project p = fixtureProject("unitflow_mix_clean.cc");
    std::vector<Diagnostic> diags;
    checkUnitFlow(p, diags);
    EXPECT_TRUE(diags.empty())
        << ::testing::PrintToString(messages(diags));
}

TEST(UnitFlow, TaggedArgumentIntoWrongUnitParameter)
{
    const Project p = fixtureProject("unitflow_arg_violate.cc");
    std::vector<Diagnostic> diags;
    checkUnitFlow(p, diags);
    ASSERT_EQ(diags.size(), 1U)
        << ::testing::PrintToString(messages(diags));
    EXPECT_EQ(diags[0].id, "unit-flow.arg-mismatch");
    EXPECT_NE(diags[0].message.find("'Amps'"), std::string::npos);
}

TEST(UnitFlow, MatchingArgumentTagsPass)
{
    const Project p = fixtureProject("unitflow_arg_clean.cc");
    std::vector<Diagnostic> diags;
    checkUnitFlow(p, diags);
    EXPECT_TRUE(diags.empty())
        << ::testing::PrintToString(messages(diags));
}

// ================= --explain =================

TEST(Explain, FamilyDottedIdAndUnknownIds)
{
    std::ostringstream family;
    EXPECT_TRUE(explainDiagnostic("unit-flow", family));
    EXPECT_NE(family.str().find("mixed-units"), std::string::npos);
    EXPECT_NE(family.str().find("Waiver"), std::string::npos);

    std::ostringstream dotted;
    EXPECT_TRUE(explainDiagnostic("unit-flow.arg-mismatch", dotted));
    EXPECT_NE(dotted.str().find("This rule:"), std::string::npos);

    std::ostringstream sink;
    EXPECT_FALSE(explainDiagnostic("unit-flow.bogus", sink));
    EXPECT_FALSE(explainDiagnostic("no-such-family", sink));
    EXPECT_FALSE(explainDiagnostic("pool-escape", sink))
        << "the pool families are retired";
    EXPECT_FALSE(explainDiagnostic("fp-determinism", sink))
        << "the jobs-1-vs-N identity gate replaced fp-determinism";
}

// ================= SARIF determinism =================

TEST(Sarif, SortsDedupesAndEmitsColumns)
{
    // Out of order, with an exact duplicate: the log must come out
    // sorted by (ruleId, file, line, column) with the duplicate
    // collapsed and the column carried through.
    std::vector<Diagnostic> diags;
    diags.push_back({"src/b.cc", 9, Check::UnitFlow, "m2",
                     "unit-flow.mixed-units", 7});
    diags.push_back({"src/a.cc", 3, Check::UnitFlow, "m1",
                     "unit-flow.arg-mismatch", 5});
    diags.push_back({"src/a.cc", 3, Check::UnitFlow, "m1",
                     "unit-flow.arg-mismatch", 5});
    std::ostringstream os;
    writeSarif(os, diags);
    const std::string sarif = os.str();
    const std::size_t first =
        sarif.find("unit-flow.arg-mismatch\", \"level\"");
    const std::size_t second =
        sarif.find("unit-flow.mixed-units\", \"level\"");
    ASSERT_NE(first, std::string::npos);
    ASSERT_NE(second, std::string::npos);
    EXPECT_LT(first, second) << "results must sort by ruleId";
    EXPECT_EQ(sarif.find("unit-flow.arg-mismatch\", \"level\"",
                         first + 1),
              std::string::npos)
        << "identical locations must deduplicate";
    EXPECT_NE(sarif.find("\"startColumn\": 5"), std::string::npos);
}

// ================= driver plumbing =================

TEST(ProjectChecks, ScopingFiltersFixturePaths)
{
    // Fixture displays live under tests/, which unit-flow does not
    // cover — a scoped sweep stays clean, explicit files fire.
    std::vector<SourceFile> sources;
    sources.push_back(fixture("unitflow_mix_violate.cc"));
    const Project p(std::move(sources));

    std::vector<Diagnostic> scoped;
    runProjectChecks(p, {Check::UnitFlow}, /*ignoreScope=*/false,
                     scoped);
    EXPECT_TRUE(scoped.empty());

    std::vector<Diagnostic> explicitRun;
    runProjectChecks(p, {Check::UnitFlow}, /*ignoreScope=*/true,
                     explicitRun);
    EXPECT_EQ(explicitRun.size(), 1U);
}

} // namespace
