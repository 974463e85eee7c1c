/**
 * @file
 * Tests for the cross-TU semantic layer (tools/lint/semantic.hh):
 * symbol indexing, call-graph FP-accumulation propagation, the
 * semantic families (unit-flow, determinism-taint, fp-determinism)
 * over the fixture corpus, and — the point of the whole layer —
 * explicit proof that each seeded fixture bug is INVISIBLE to the
 * corresponding token-level family and caught only by the semantic
 * one.
 */

#include "lint.hh"
#include "semantic.hh"

#include <gtest/gtest.h>

#include <algorithm>
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
          "namespace { double gTotal = 0.0; }\n"
          "const double kLimit = 4.0;\n"
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
    EXPECT_EQ(p.index().fpNames.count("gTotal"), 1U);
    EXPECT_EQ(p.index().fpNames.count("kLimit"), 0U)
        << "const globals are read-only, never shared accumulators";
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
    const FunctionDef &f = fn(p, "tick");
    EXPECT_EQ(f.className, "Meter");
    EXPECT_EQ(f.fpAccumulates.count("Meter::energy_"), 1U);
    EXPECT_EQ(p.index().fpNames.count("Meter::energy_"), 1U);
}

TEST(SymbolIndex, DirectEffectSummaries)
{
    const Project p = projectOf(
        {{"src/a.cc",
          "namespace { double gLast = 0.0; }\n"
          "void record(double v) { gLast += v; }\n"
          "void bump(double &x) { x += 1.0; }\n"
          "void guarded(double v)\n"
          "{\n"
          "    std::lock_guard<std::mutex> lock(gMutex);\n"
          "    gLast += v;\n"
          "}\n"}});
    EXPECT_EQ(fn(p, "record").fpAccumulates.count("gLast"), 1U);
    EXPECT_TRUE(fn(p, "bump").fpAccumulates.empty())
        << "a parameter is the caller's state, not shared state";
    EXPECT_FALSE(fn(p, "record").takesLock);
    EXPECT_TRUE(fn(p, "guarded").takesLock);
}

// ================= call graph =================

TEST(CallGraph, EffectsPropagateTransitively)
{
    const Project p = projectOf(
        {{"src/a.cc",
          "namespace { double gLast = 0.0; }\n"
          "void sinkAdd(double v) { gLast += v; }\n"
          "void middle(double v) { sinkAdd(v); }\n"
          "void outer(double v) { middle(v); }\n"}});
    const FunctionDef &outer = fn(p, "outer");
    EXPECT_EQ(outer.fpAccumulates.count("gLast"), 1U);
    // The via-path names the call chain for the diagnostic.
    const auto via = outer.fpVia.find("gLast");
    ASSERT_NE(via, outer.fpVia.end());
    EXPECT_NE(via->second.find("middle"), std::string::npos);
    EXPECT_NE(via->second.find("sinkAdd"), std::string::npos);
}

TEST(CallGraph, LockTakingCalleesStillPropagateFpAccumulations)
{
    // A lock serializes the sum but does not fix its order, so a
    // lock-taking callee's accumulation reaches the caller.
    const Project p = projectOf(
        {{"src/a.cc",
          "namespace { double gLast = 0.0; }\n"
          "void guarded(double v)\n"
          "{\n"
          "    std::lock_guard<std::mutex> lock(gMutex);\n"
          "    gLast += v;\n"
          "}\n"
          "void outer(double v) { guarded(v); }\n"}});
    EXPECT_TRUE(fn(p, "guarded").takesLock);
    EXPECT_FALSE(fn(p, "outer").takesLock);
    EXPECT_EQ(fn(p, "outer").fpAccumulates.count("gLast"), 1U);
}

TEST(CallGraph, CyclesTerminate)
{
    const Project p = projectOf(
        {{"src/a.cc",
          "namespace { double gPing = 0.0; }\n"
          "void even(int n);\n"
          "void odd(int n) { gPing += 1.0; even(n - 1); }\n"
          "void even(int n) { odd(n - 1); }\n"}});
    // Mutual recursion: the fixpoint terminates, and accumulations
    // still cross the cycle.
    EXPECT_EQ(fn(p, "even").fpAccumulates.count("gPing"), 1U);
}

TEST(CallGraph, CrossTranslationUnitEffects)
{
    const Project p = projectOf(
        {{"src/a.cc",
          "namespace { double gShared = 0.0; }\n"
          "void poke(double v) { gShared += v; }\n"},
         {"src/b.cc", "void relay(double v) { poke(v); }\n"}});
    // poke lives in a different TU than relay; the index is global.
    EXPECT_EQ(fn(p, "relay").fpAccumulates.count("gShared"), 1U);
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

// ================= determinism-taint =================

TEST(DetTaint, AddressTaintAcrossFunctionsInvisibleToTokenFamily)
{
    const SourceFile src = fixture("dettaint_sink_violate.cc");
    std::vector<Diagnostic> token;
    checkDeterminism(src, CheckOptions{}, token);
    EXPECT_TRUE(token.empty())
        << "the token family has no address-as-value rule: "
        << ::testing::PrintToString(messages(token));

    const Project p = fixtureProject("dettaint_sink_violate.cc");
    std::vector<Diagnostic> semantic;
    checkDeterminismTaint(p, semantic);
    ASSERT_EQ(semantic.size(), 1U)
        << ::testing::PrintToString(messages(semantic));
    EXPECT_EQ(semantic[0].id, "determinism-taint.sink");
    EXPECT_NE(semantic[0].message.find("address"),
              std::string::npos);
}

TEST(DetTaint, SimulationDerivedStatsPass)
{
    const Project p = fixtureProject("dettaint_sink_clean.cc");
    std::vector<Diagnostic> diags;
    checkDeterminismTaint(p, diags);
    EXPECT_TRUE(diags.empty())
        << ::testing::PrintToString(messages(diags));
}

TEST(DetTaint, UnorderedIterationWithoutAccumulatorInvisibleToToken)
{
    // A plain assignment in the loop body defeats the token rule
    // (which requires an accumulator), but hash-order still decides
    // which element survives to the stats write.
    const SourceFile src = fixture("dettaint_iter_violate.cc");
    std::vector<Diagnostic> token;
    checkDeterminism(src, CheckOptions{}, token);
    EXPECT_TRUE(token.empty())
        << ::testing::PrintToString(messages(token));

    const Project p = fixtureProject("dettaint_iter_violate.cc");
    std::vector<Diagnostic> semantic;
    checkDeterminismTaint(p, semantic);
    ASSERT_EQ(semantic.size(), 1U)
        << ::testing::PrintToString(messages(semantic));
    EXPECT_EQ(semantic[0].id, "determinism-taint.sink");
    EXPECT_NE(semantic[0].message.find("iteration-order"),
              std::string::npos);
}

TEST(DetTaint, OrderedIterationPasses)
{
    const Project p = fixtureProject("dettaint_iter_clean.cc");
    std::vector<Diagnostic> diags;
    checkDeterminismTaint(p, diags);
    EXPECT_TRUE(diags.empty())
        << ::testing::PrintToString(messages(diags));
}

// Run every token-level family over @p src; the fp-determinism
// fixtures must be invisible to all of them.
std::vector<Diagnostic>
allTokenDiags(const SourceFile &src)
{
    std::vector<Diagnostic> diags;
    runChecks(src,
              {std::begin(kAllChecks), std::end(kAllChecks)},
              CheckOptions{}, /*ignoreScope=*/true, diags);
    return diags;
}

// Run the unit / taint semantic families over @p p.
std::vector<Diagnostic>
otherSemanticDiags(const Project &p)
{
    std::vector<Diagnostic> diags;
    checkUnitFlow(p, diags);
    checkDeterminismTaint(p, diags);
    return diags;
}

// ================= fp-determinism =================

TEST(FpDeterminism, LockedReductionInvisibleToPoolFamilies)
{
    // The lock makes the accumulation race-free — a race detector
    // rightly accepts it — but the order of the += is the
    // schedule's, which breaks bitwise sweep identity.
    const SourceFile src = fixture("fpdet_sched_violate.cc");
    EXPECT_TRUE(allTokenDiags(src).empty())
        << ::testing::PrintToString(messages(allTokenDiags(src)));

    const Project p = fixtureProject("fpdet_sched_violate.cc");
    EXPECT_TRUE(otherSemanticDiags(p).empty())
        << ::testing::PrintToString(messages(otherSemanticDiags(p)));
    std::vector<Diagnostic> diags;
    checkFpDeterminism(p, diags);
    ASSERT_EQ(diags.size(), 1U)
        << ::testing::PrintToString(messages(diags));
    EXPECT_EQ(diags[0].id, "fp-determinism.locked-reduction");
    EXPECT_NE(diags[0].message.find("gEnergyTotal"),
              std::string::npos);
}

TEST(FpDeterminism, PerIndexSlotsWithOrderedReducePass)
{
    const Project p = fixtureProject("fpdet_sched_clean.cc");
    std::vector<Diagnostic> diags;
    checkFpDeterminism(p, diags);
    EXPECT_TRUE(diags.empty())
        << ::testing::PrintToString(messages(diags));
}

TEST(FpDeterminism, UnorderedContainerSumDeclaredInAnotherTu)
{
    // The unordered-ness lives in registry.cc; the summing loop in
    // report.cc sees only an opaque container name, so the token
    // determinism family (same-file only) cannot object.
    const Project p = projectOf(
        {{"src/registry.cc",
          "std::unordered_map<int, double> gCellPower;\n"
          "void note(int cell, double w) { gCellPower[cell] = w; }\n"},
         {"src/report.cc",
          "double totalPower()\n"
          "{\n"
          "    double total = 0.0;\n"
          "    for (const auto &cell : gCellPower)\n"
          "        total += cell.second;\n"
          "    return total;\n"
          "}\n"}});
    std::vector<Diagnostic> token;
    checkDeterminism(p.sources()[1], CheckOptions{}, token);
    EXPECT_TRUE(token.empty())
        << ::testing::PrintToString(messages(token));

    std::vector<Diagnostic> diags;
    checkFpDeterminism(p, diags);
    ASSERT_EQ(diags.size(), 1U)
        << ::testing::PrintToString(messages(diags));
    EXPECT_EQ(diags[0].id, "fp-determinism.unordered-reduction");
    EXPECT_EQ(diags[0].file, "src/report.cc");
    EXPECT_NE(diags[0].message.find("src/registry.cc"),
              std::string::npos)
        << diags[0].message;
}

TEST(FpDeterminism, IntegerOverloadDoesNotInheritFpStateOfSameName)
{
    // The exact shape that poisoned the bench sweep: record() calls
    // the INTEGER Counters::add, but "add" also names the FP
    // RunningStats::add.  Name-level overload merging must only ever
    // suppress — propagation may not hand record() the FP summary of
    // the overload it never calls.
    const Project p = projectOf(
        {{"src/stats.cc",
          "struct RunningStats {\n"
          "    double m2_ = 0.0;\n"
          "    void add(double x) { m2_ += x * x; }\n"
          "};\n"},
         {"src/counters.cc",
          "struct Counters {\n"
          "    unsigned long total = 0;\n"
          "    void add(const Counters &o) { total += o.total; }\n"
          "};\n"
          "struct Ctx {\n"
          "    std::mutex mu;\n"
          "    Counters counters;\n"
          "    void record(const Counters &c)\n"
          "    {\n"
          "        std::lock_guard<std::mutex> lock(mu);\n"
          "        counters.add(c);\n"
          "    }\n"
          "};\n"},
         {"src/sweep.cc",
          "void runSweep(exec::Pool &pool, Ctx &ctx, int n)\n"
          "{\n"
          "    pool.parallelFor(n, [&](int i) {\n"
          "        Counters c;\n"
          "        ctx.record(c);\n"
          "    });\n"
          "}\n"}});
    std::vector<Diagnostic> diags;
    checkFpDeterminism(p, diags);
    EXPECT_TRUE(diags.empty())
        << ::testing::PrintToString(messages(diags));
}

TEST(FpDeterminism, UnambiguousHelperChainStillPropagates)
{
    // Positive control for the strict resolution above: when the
    // helper names are unique, the accumulation two calls deep still
    // reaches the task's call site, with the full via chain.
    const Project p = projectOf(
        {{"src/energy.cc",
          "double gEnergyTotal = 0.0;\n"
          "std::mutex gEnergyMutex;\n"
          "void bumpTotal(double x) { gEnergyTotal += x; }\n"
          "void recordEnergy(double x)\n"
          "{\n"
          "    std::lock_guard<std::mutex> lock(gEnergyMutex);\n"
          "    bumpTotal(x);\n"
          "}\n"
          "void sweep(exec::Pool &pool, int n)\n"
          "{\n"
          "    pool.parallelFor(n, [&](int i) {\n"
          "        recordEnergy(static_cast<double>(i));\n"
          "    });\n"
          "}\n"}});
    std::vector<Diagnostic> diags;
    checkFpDeterminism(p, diags);
    ASSERT_EQ(diags.size(), 1U)
        << ::testing::PrintToString(messages(diags));
    EXPECT_EQ(diags[0].id, "fp-determinism.locked-reduction");
    EXPECT_NE(diags[0].message.find("recordEnergy"),
              std::string::npos)
        << diags[0].message;
    EXPECT_NE(diags[0].message.find("bumpTotal"),
              std::string::npos)
        << diags[0].message;
}

// ================= call-graph fixpoint boundary =================

TEST(CallGraph, RecursiveChainEffectsReachTheDefaultRoundBound)
{
    // The writer is defined LAST, so each fixpoint round moves its
    // effect exactly one level up the chain: depth 4 is the last
    // caller the default rounds=4 can see.
    const Project p = projectOf(
        {{"src/chain.cc",
          "namespace { double gX = 0.0; }\n"
          "void f5(double v) { f4(v); }\n"
          "void f4(double v) { f3(v); }\n"
          "void f3(double v) { f2(v); }\n"
          "void f2(double v) { f1(v); }\n"
          "void f1(double v) { gX += v; }\n"}});
    EXPECT_EQ(fn(p, "f2").fpAccumulates.count("gX"), 1U);
    EXPECT_EQ(fn(p, "f5").fpAccumulates.count("gX"), 1U)
        << "4 calls deep is within the default fixpoint bound";
}

TEST(CallGraph, EffectsBeyondTheRoundBoundNeedMoreRounds)
{
    const std::string code =
        "namespace { double gX = 0.0; }\n"
        "void f6(double v) { f5(v); }\n"
        "void f5(double v) { f4(v); }\n"
        "void f4(double v) { f3(v); }\n"
        "void f3(double v) { f2(v); }\n"
        "void f2(double v) { f1(v); }\n"
        "void f1(double v) { gX += v; }\n";
    // Through the Project (rounds=4) the 5-deep top is invisible …
    const Project p = projectOf({{"src/chain.cc", code}});
    EXPECT_EQ(fn(p, "f6").fpAccumulates.count("gX"), 0U)
        << "5 calls deep must be beyond the default bound";

    // … and becomes visible at rounds=5: the bound is the rounds
    // parameter, not an artifact of the index construction.
    std::vector<SourceFile> sources;
    sources.emplace_back("src/chain.cc", code);
    std::vector<std::vector<Token>> tokens;
    tokens.push_back(tokenize(sources[0].code()));
    SymbolIndex index = buildSymbolIndex(sources, tokens);
    propagateEffects(index, /*rounds=*/5);
    bool found = false;
    for (const FunctionDef &f : index.functions)
        if (f.name == "f6")
            found = f.fpAccumulates.count("gX") > 0;
    EXPECT_TRUE(found);
}

TEST(CallGraph, SelfRecursionKeepsEffectsAndTerminates)
{
    const Project p = projectOf(
        {{"src/a.cc",
          "namespace { double gAcc = 0.0; }\n"
          "void spin(int n)\n"
          "{\n"
          "    gAcc = gAcc + 1.0;\n"
          "    if (n > 0)\n"
          "        spin(n - 1);\n"
          "}\n"
          "void outer(int n) { spin(n); }\n"}});
    EXPECT_EQ(fn(p, "spin").fpAccumulates.count("gAcc"), 1U);
    EXPECT_EQ(fn(p, "outer").fpAccumulates.count("gAcc"), 1U);
}

TEST(CallGraph, MutualRecursionPropagatesEffectsAndTerminates)
{
    const Project p = projectOf(
        {{"src/a.cc",
          "namespace { double gHits = 0.0; }\n"
          "void pong(int n);\n"
          "void ping(int n)\n"
          "{\n"
          "    gHits = gHits + 1.0;\n"
          "    pong(n - 1);\n"
          "}\n"
          "void pong(int n)\n"
          "{\n"
          "    if (n > 0)\n"
          "        ping(n);\n"
          "}\n"}});
    // The accumulation crosses the cycle (ping accumulates, pong
    // calls ping), and the fixpoint over the cycle terminates.
    EXPECT_EQ(fn(p, "ping").fpAccumulates.count("gHits"), 1U);
    EXPECT_EQ(fn(p, "pong").fpAccumulates.count("gHits"), 1U);
}

// ================= --explain =================

TEST(Explain, FamilyDottedIdAndUnknownIds)
{
    std::ostringstream family;
    EXPECT_TRUE(explainDiagnostic("fp-determinism", family));
    EXPECT_NE(family.str().find("locked-reduction"), std::string::npos);
    EXPECT_NE(family.str().find("Waiver"), std::string::npos);

    std::ostringstream dotted;
    EXPECT_TRUE(explainDiagnostic("fp-determinism.unordered-reduction",
                                  dotted));
    EXPECT_NE(dotted.str().find("This rule:"), std::string::npos);

    std::ostringstream sink;
    EXPECT_FALSE(explainDiagnostic("fp-determinism.bogus", sink));
    EXPECT_FALSE(explainDiagnostic("no-such-family", sink));
    EXPECT_FALSE(explainDiagnostic("pool-escape", sink))
        << "the pool families are retired";
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
    diags.push_back({"src/a.cc", 3, Check::FpDeterminism, "m1",
                     "fp-determinism.locked-reduction", 5});
    diags.push_back({"src/a.cc", 3, Check::FpDeterminism, "m1",
                     "fp-determinism.locked-reduction", 5});
    std::ostringstream os;
    writeSarif(os, diags);
    const std::string sarif = os.str();
    const std::size_t first =
        sarif.find("fp-determinism.locked-reduction\", \"level\"");
    const std::size_t second =
        sarif.find("unit-flow.mixed-units\", \"level\"");
    ASSERT_NE(first, std::string::npos);
    ASSERT_NE(second, std::string::npos);
    EXPECT_LT(first, second) << "results must sort by ruleId";
    EXPECT_EQ(sarif.find("fp-determinism.locked-reduction\", "
                         "\"level\"",
                         first + 1),
              std::string::npos)
        << "identical locations must deduplicate";
    EXPECT_NE(sarif.find("\"startColumn\": 5"), std::string::npos);
}

// ================= driver plumbing =================

TEST(ProjectChecks, ScopingFiltersFixturePaths)
{
    // Fixture displays live under tests/, which no semantic family
    // covers — a scoped sweep stays clean, explicit files fire.
    std::vector<SourceFile> sources;
    sources.push_back(fixture("fpdet_sched_violate.cc"));
    const Project p(std::move(sources));

    std::vector<Diagnostic> scoped;
    runProjectChecks(p, {Check::FpDeterminism}, /*ignoreScope=*/false,
                     scoped);
    EXPECT_TRUE(scoped.empty());

    std::vector<Diagnostic> explicitRun;
    runProjectChecks(p, {Check::FpDeterminism}, /*ignoreScope=*/true,
                     explicitRun);
    EXPECT_EQ(explicitRun.size(), 1U);
}

} // namespace
