/**
 * @file
 * Tests for the vsgpu_lint core library (tools/lint).
 *
 * Two layers: fixture files under tests/lint/fixtures/ exercise each
 * check family end-to-end (one violating and one clean file per
 * family), and inline sources pin down the lexer, waiver, scoping,
 * baseline, and compile-database plumbing the driver relies on.
 */

#include "lint.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
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

std::vector<std::string>
messages(const std::vector<Diagnostic> &diags)
{
    std::vector<std::string> out;
    out.reserve(diags.size());
    for (const Diagnostic &d : diags)
        out.push_back(d.message);
    return out;
}

bool
anyMentions(const std::vector<Diagnostic> &diags,
            std::string_view needle)
{
    return std::any_of(
        diags.begin(), diags.end(), [&](const Diagnostic &d) {
            return d.message.find(needle) != std::string::npos;
        });
}

// ================= fixture round-trips =================

TEST(LintUnitSafety, ViolatingFixture)
{
    const SourceFile src = fixture("unit_violate.hh");
    std::vector<Diagnostic> diags;
    checkUnitSafety(src, diags);
    EXPECT_EQ(diags.size(), 4U) << ::testing::PrintToString(
        messages(diags));
    EXPECT_TRUE(anyMentions(diags, "'supplyVolts'"));
    EXPECT_TRUE(anyMentions(diags, "'loadAmps'"));
    EXPECT_TRUE(anyMentions(diags, "'railOhms'"));
    EXPECT_TRUE(anyMentions(diags, "'freqHz'"));
    for (const Diagnostic &d : diags) {
        EXPECT_EQ(d.check, Check::UnitSafety);
        EXPECT_EQ(d.file, "tests/lint/fixtures/unit_violate.hh");
        EXPECT_GT(d.line, 0);
    }
}

TEST(LintUnitSafety, CleanFixture)
{
    const SourceFile src = fixture("unit_clean.hh");
    std::vector<Diagnostic> diags;
    checkUnitSafety(src, diags);
    EXPECT_TRUE(diags.empty()) << ::testing::PrintToString(
        messages(diags));
}

TEST(LintDeterminism, ViolatingFixture)
{
    const SourceFile src = fixture("det_violate.cc");
    std::vector<Diagnostic> diags;
    checkDeterminism(src, CheckOptions{}, diags);
    EXPECT_EQ(diags.size(), 4U) << ::testing::PrintToString(
        messages(diags));
    EXPECT_TRUE(anyMentions(diags, "'srand'"));
    EXPECT_TRUE(anyMentions(diags, "'rand'"));
    EXPECT_TRUE(anyMentions(diags, "now()"));
    EXPECT_TRUE(anyMentions(diags, "unordered container"));
}

TEST(LintDeterminism, CleanFixture)
{
    const SourceFile src = fixture("det_clean.cc");
    std::vector<Diagnostic> diags;
    checkDeterminism(src, CheckOptions{}, diags);
    EXPECT_TRUE(diags.empty()) << ::testing::PrintToString(
        messages(diags));
}

TEST(LintDeterminism, IostreamViolatingFixture)
{
    const SourceFile src = fixture("iostream_violate.cc");
    std::vector<Diagnostic> diags;
    checkDeterminism(src, CheckOptions{}, diags);
    // std::cout, std::cerr, the using-declaration of std::clog, and
    // the unqualified clog write.
    EXPECT_EQ(diags.size(), 4U) << ::testing::PrintToString(
        messages(diags));
    EXPECT_TRUE(anyMentions(diags, "std::cout"));
    EXPECT_TRUE(anyMentions(diags, "std::cerr"));
    EXPECT_TRUE(anyMentions(diags, "std::clog"));
    for (const Diagnostic &d : diags)
        EXPECT_EQ(d.check, Check::Determinism);
}

TEST(LintDeterminism, IostreamCleanFixture)
{
    const SourceFile src = fixture("iostream_clean.cc");
    std::vector<Diagnostic> diags;
    checkDeterminism(src, CheckOptions{}, diags);
    EXPECT_TRUE(diags.empty()) << ::testing::PrintToString(
        messages(diags));
}

TEST(LintDeterminism, IostreamAllowlistPermitsWriters)
{
    const std::string code = "void f() { std::cout << 1; }\n";
    std::vector<Diagnostic> diags;
    checkDeterminism(SourceFile("src/common/logging.cc", code),
                     CheckOptions{}, diags);
    EXPECT_TRUE(diags.empty());
    checkDeterminism(SourceFile("src/circuit/wave_writer.cc", code),
                     CheckOptions{}, diags);
    EXPECT_TRUE(diags.empty());
    checkDeterminism(SourceFile("src/sim/cosim.cc", code),
                     CheckOptions{}, diags);
    EXPECT_EQ(diags.size(), 1U);
}

TEST(LintContracts, ViolatingFixture)
{
    const SourceFile src = fixture("contract_violate.cc");
    std::vector<Diagnostic> diags;
    checkContracts(src, diags);
    EXPECT_EQ(diags.size(), 2U) << ::testing::PrintToString(
        messages(diags));
}

TEST(LintContracts, CleanFixture)
{
    const SourceFile src = fixture("contract_clean.cc");
    std::vector<Diagnostic> diags;
    checkContracts(src, diags);
    EXPECT_TRUE(diags.empty()) << ::testing::PrintToString(
        messages(diags));
}

TEST(LintRawEscape, ViolatingFixture)
{
    const SourceFile src = fixture("raw_violate.cc");
    std::vector<Diagnostic> diags;
    checkRawEscape(src, diags);
    // leakByDot + leakByArrow fire; the waived call and the
    // near-miss shapes (free raw(), member raw(arg)) do not.
    EXPECT_EQ(diags.size(), 2U) << ::testing::PrintToString(
        messages(diags));
    for (const Diagnostic &d : diags) {
        EXPECT_EQ(d.check, Check::RawEscape);
        EXPECT_EQ(d.file, "tests/lint/fixtures/raw_violate.cc");
        EXPECT_GT(d.line, 0);
    }
}

TEST(LintRawEscape, CleanFixture)
{
    const SourceFile src = fixture("raw_clean.cc");
    std::vector<Diagnostic> diags;
    checkRawEscape(src, diags);
    EXPECT_TRUE(diags.empty()) << ::testing::PrintToString(
        messages(diags));
}

// ================= lexer =================

TEST(LintLexer, ScrubBlanksCommentsAndStrings)
{
    const SourceFile src(
        "scrub.cc",
        "int x = 1; // rand()\n"
        "const char *s = \"std::rand()\"; /* time(0) */\n");
    EXPECT_EQ(src.code().size(), src.text().size());
    EXPECT_EQ(src.code().find("rand"), std::string::npos);
    EXPECT_EQ(src.code().find("time"), std::string::npos);
    // Newlines survive so line numbers stay aligned.
    EXPECT_EQ(std::count(src.code().begin(), src.code().end(), '\n'),
              std::count(src.text().begin(), src.text().end(), '\n'));
}

TEST(LintLexer, DigitSeparatorIsNotACharLiteral)
{
    const SourceFile src("sep.cc",
                         "long n = 1'000'000; int y = rand();\n");
    // The separators must not swallow "rand" as char-literal text.
    EXPECT_NE(src.code().find("rand"), std::string::npos);
    std::vector<Diagnostic> diags;
    checkDeterminism(src, CheckOptions{}, diags);
    EXPECT_EQ(diags.size(), 1U);
}

TEST(LintLexer, MultiCharOperators)
{
    const std::string code = "a <<= b->c::d;";
    const std::vector<Token> toks = tokenize(code);
    std::vector<std::string> texts;
    for (const Token &t : toks)
        texts.emplace_back(t.text);
    EXPECT_EQ(texts,
              (std::vector<std::string>{"a", "<<=", "b", "->", "c",
                                        "::", "d", ";"}));
}

// ================= waivers and scoping =================

TEST(LintWaiver, LineAboveApplies)
{
    const SourceFile src(
        "src/pdn/w.hh",
        "// vsgpu-lint: raw-ok(fixture)\n"
        "double busVolts = 1.0;\n"
        "double railVolts = 1.0;\n");
    std::vector<Diagnostic> diags;
    checkUnitSafety(src, diags);
    // Line 2 is waived by line 1; line 3 is not.
    ASSERT_EQ(diags.size(), 1U);
    EXPECT_EQ(diags[0].line, 3);
}

TEST(LintScope, FamiliesScopeByPath)
{
    // unit-safety polices converted headers only.
    EXPECT_TRUE(
        checkAppliesTo(Check::UnitSafety, "src/pdn/vs_pdn.hh"));
    EXPECT_FALSE(
        checkAppliesTo(Check::UnitSafety, "src/pdn/vs_pdn.cc"));
    EXPECT_FALSE(
        checkAppliesTo(Check::UnitSafety, "src/gpu/sm.hh"));
    // determinism polices all simulation sources.
    EXPECT_TRUE(
        checkAppliesTo(Check::Determinism, "src/gpu/sm.cc"));
    EXPECT_FALSE(
        checkAppliesTo(Check::Determinism, "bench/fig07.cc"));
    // contracts apply everywhere.
    EXPECT_TRUE(
        checkAppliesTo(Check::Contracts, "tests/foo/bar.cc"));
    // raw-escape polices src/ outside the numeric core.
    EXPECT_TRUE(
        checkAppliesTo(Check::RawEscape, "src/control/controller.cc"));
    EXPECT_TRUE(checkAppliesTo(Check::RawEscape, "src/pdn/vs_pdn.cc"));
    EXPECT_FALSE(
        checkAppliesTo(Check::RawEscape, "src/circuit/transient.cc"));
    EXPECT_FALSE(checkAppliesTo(Check::RawEscape, "src/verify/erc.cc"));
    EXPECT_FALSE(
        checkAppliesTo(Check::RawEscape, "src/common/quantity.hh"));
    EXPECT_FALSE(
        checkAppliesTo(Check::RawEscape, "src/sim/cosim.cc"));
    EXPECT_FALSE(
        checkAppliesTo(Check::RawEscape, "bench/ctl_stability.cc"));
}

TEST(LintScope, SemanticFamiliesScopeByPath)
{
    // The numeric core may work in raw doubles, so the raw-escape
    // scope leaves it out; it stays in src/ even where bench/ does the
    // unit math, and never reaches tests/.
    EXPECT_TRUE(
        checkAppliesTo(Check::RawEscape, "src/control/controller.cc"));
    EXPECT_FALSE(
        checkAppliesTo(Check::RawEscape, "src/circuit/transient.cc"));
    EXPECT_FALSE(checkAppliesTo(Check::RawEscape, "src/verify/erc.cc"));
    EXPECT_FALSE(checkAppliesTo(Check::RawEscape, "src/sim/cosim.cc"));
    EXPECT_FALSE(checkAppliesTo(Check::RawEscape, "bench/fig07.cc"));
    EXPECT_FALSE(checkAppliesTo(Check::RawEscape, "tests/exec/t.cc"));
}

TEST(LintScope, EntropyAllowlistPermitsSeededFactory)
{
    const std::string code = "std::random_device rd;\n";
    std::vector<Diagnostic> diags;
    checkDeterminism(SourceFile("src/common/random.cc", code),
                     CheckOptions{}, diags);
    EXPECT_TRUE(diags.empty());
    checkDeterminism(SourceFile("src/sim/cosim.cc", code),
                     CheckOptions{}, diags);
    EXPECT_EQ(diags.size(), 1U);
}

// ================= baseline =================

TEST(LintBaseline, FingerprintSqueezesWhitespace)
{
    const Diagnostic d{"src/a.hh", 7, Check::UnitSafety, "msg"};
    EXPECT_EQ(fingerprint(d, "  double   x ;"),
              fingerprint(d, "double x ;"));
    EXPECT_EQ(fingerprint(d, "double x;").find("unit-safety|"), 0U);
}

TEST(LintBaseline, EachEntryAbsorbsOneDiagnostic)
{
    const SourceFile src("src/pdn/b.hh",
                         "double busVolts = 1.0;\n"
                         "double railVolts = 1.0;\n");
    std::vector<Diagnostic> diags;
    checkUnitSafety(src, diags);
    ASSERT_EQ(diags.size(), 2U);

    const std::vector<SourceFile> sources{src};
    // Baseline one of the two findings; the other stays fresh.
    const std::vector<std::string> baseline{
        fingerprint(diags[0], src.lineText(diags[0].line))};
    const auto fresh = subtractBaseline(diags, sources, baseline);
    ASSERT_EQ(fresh.size(), 1U);
    EXPECT_EQ(fresh[0].line, 2);
}

TEST(LintBaseline, StableAcrossLineShift)
{
    const SourceFile before("src/pdn/c.hh",
                            "double busVolts = 1.0;\n");
    std::vector<Diagnostic> diags;
    checkUnitSafety(before, diags);
    ASSERT_EQ(diags.size(), 1U);
    const std::vector<std::string> baseline{
        fingerprint(diags[0], before.lineText(diags[0].line))};

    // The same declaration two lines further down still matches.
    const SourceFile after("src/pdn/c.hh",
                           "// new comment\n\n"
                           "double busVolts = 1.0;\n");
    std::vector<Diagnostic> shifted;
    checkUnitSafety(after, shifted);
    ASSERT_EQ(shifted.size(), 1U);
    EXPECT_EQ(shifted[0].line, 3);
    const auto fresh = subtractBaseline(
        shifted, std::vector<SourceFile>{after}, baseline);
    EXPECT_TRUE(fresh.empty());
}

// ================= compile database =================

TEST(LintCompileDb, ParsesDirectoryAndFile)
{
    const std::string path =
        ::testing::TempDir() + "/vsgpu_lint_cdb_test.json";
    {
        std::ofstream out(path);
        out << "[{\"directory\": \"/tmp/build\",\n"
               "  \"command\": \"g++ -c a.cc -o a.o\",\n"
               "  \"file\": \"../src/a.cc\",\n"
               "  \"output\": \"a.o\"},\n"
               " {\"directory\": \"/tmp/build\",\n"
               "  \"arguments\": [\"g++\", \"-c\", \"b.cc\"],\n"
               "  \"file\": \"/abs/b.cc\"}]\n";
    }
    const auto commands = readCompileCommands(path);
    std::remove(path.c_str());
    ASSERT_EQ(commands.size(), 2U);
    EXPECT_EQ(commands[0].directory, "/tmp/build");
    EXPECT_EQ(commands[0].file, "../src/a.cc");
    EXPECT_EQ(commands[1].file, "/abs/b.cc");
}

TEST(LintCompileDb, ParseErrorNamesTheDatabase)
{
    const std::string path =
        ::testing::TempDir() + "/vsgpu_lint_bad_cdb.json";
    {
        std::ofstream out(path);
        out << "[{\"directory\": oops}]";
    }
    bool threw = false;
    try {
        readCompileCommands(path);
    } catch (const std::exception &err) {
        threw = true;
        EXPECT_NE(std::string(err.what()).find(path),
                  std::string::npos)
            << err.what();
    }
    std::remove(path.c_str());
    EXPECT_TRUE(threw);
}

TEST(LintChecks, NameRoundTrip)
{
    for (Check c : kAllChecks) {
        Check parsed{};
        ASSERT_TRUE(parseCheckName(checkName(c), parsed));
        EXPECT_EQ(parsed, c);
    }
    Check parsed{};
    EXPECT_FALSE(parseCheckName("no-such-check", parsed));
}

// ================= runChecks plumbing =================

TEST(LintRunChecks, ScopedSweepSkipsOutOfScopeFamilies)
{
    // A .cc path: unit-safety must not run in a scoped sweep...
    const SourceFile src("src/pdn/x.cc", "double busVolts = 1.0;\n");
    std::vector<Diagnostic> diags;
    runChecks(src,
              {Check::UnitSafety, Check::Determinism,
               Check::Contracts},
              CheckOptions{}, /*ignoreScope=*/false, diags);
    EXPECT_TRUE(diags.empty());
    // ...but explicit file arguments bypass scoping.
    runChecks(src, {Check::UnitSafety}, CheckOptions{},
              /*ignoreScope=*/true, diags);
    EXPECT_EQ(diags.size(), 1U);
}

TEST(LintRunChecks, ScopingFiltersFixturePaths)
{
    // Fixture displays live under tests/, which raw-escape does not
    // cover — a scoped sweep stays clean, explicit files fire.
    const SourceFile src = fixture("raw_violate.cc");
    std::vector<Diagnostic> scoped;
    runChecks(src, {Check::RawEscape}, CheckOptions{},
              /*ignoreScope=*/false, scoped);
    EXPECT_TRUE(scoped.empty());

    std::vector<Diagnostic> explicitRun;
    runChecks(src, {Check::RawEscape}, CheckOptions{},
              /*ignoreScope=*/true, explicitRun);
    EXPECT_EQ(explicitRun.size(), 2U);
}

// ================= --explain =================

TEST(Explain, FamilyDottedIdAndUnknownIds)
{
    for (Check c : kAllChecks) {
        std::ostringstream family;
        EXPECT_TRUE(explainDiagnostic(checkName(c), family))
            << checkName(c);
        EXPECT_NE(family.str().find("Waiver"), std::string::npos);
    }

    // Diagnostics carry their family name only; a dotted id names
    // nothing, even with a known family in front.
    std::ostringstream sink;
    EXPECT_FALSE(explainDiagnostic("raw-escape.leak", sink));
    EXPECT_FALSE(explainDiagnostic("no-such-family", sink));
    EXPECT_FALSE(explainDiagnostic("pool-escape", sink))
        << "the pool families are retired";
    EXPECT_FALSE(explainDiagnostic("fp-determinism", sink))
        << "the jobs-1-vs-N identity gate replaced fp-determinism";
    EXPECT_TRUE(sink.str().empty());
}

// ================= SARIF output =================

TEST(LintSarif, EmitsRulesAndResults)
{
    const std::vector<Diagnostic> diags = {
        {"src/a.cc", 3, Check::RawEscape, "leaked raw 'x'"},
        {"src/b.hh", 9, Check::UnitSafety, "raw double"},
    };
    std::ostringstream os;
    writeSarif(os, diags);
    const std::string sarif = os.str();
    EXPECT_NE(sarif.find("\"version\": \"2.1.0\""),
              std::string::npos);
    // One rule per family that fired, named after the family.
    EXPECT_NE(sarif.find("{\"id\": \"raw-escape\""), std::string::npos);
    EXPECT_NE(sarif.find("{\"id\": \"unit-safety\""), std::string::npos);
    EXPECT_EQ(sarif.find("{\"id\": \"determinism\""), std::string::npos);
    EXPECT_NE(sarif.find("leaked raw 'x'"), std::string::npos);
    EXPECT_NE(sarif.find("\"uri\": \"src/a.cc\""),
              std::string::npos);
    EXPECT_NE(sarif.find("\"startLine\": 3"), std::string::npos);
    EXPECT_EQ(sarif.find("startColumn"), std::string::npos)
        << "every family is line-granular";
}

TEST(LintSarif, SortsAndDedupes)
{
    // Out of order, with an exact duplicate: the log must come out
    // sorted by (ruleId, file, line) with the duplicate collapsed.
    const std::vector<Diagnostic> diags = {
        {"src/b.cc", 9, Check::RawEscape, "m2"},
        {"src/c.cc", 3, Check::Determinism, "m1"},
        {"src/c.cc", 3, Check::Determinism, "m1"},
        {"src/a.cc", 4, Check::RawEscape, "m3"},
    };
    std::ostringstream os;
    writeSarif(os, diags);
    const std::string sarif = os.str();
    const std::size_t det = sarif.find("\"ruleId\": \"determinism\"");
    const std::size_t rawA = sarif.find("\"uri\": \"src/a.cc\"");
    const std::size_t rawB = sarif.find("\"uri\": \"src/b.cc\"");
    ASSERT_NE(det, std::string::npos);
    ASSERT_NE(rawA, std::string::npos);
    ASSERT_NE(rawB, std::string::npos);
    EXPECT_LT(det, rawA) << "results must sort by ruleId";
    EXPECT_LT(rawA, rawB) << "then by file";
    EXPECT_EQ(sarif.find("\"ruleId\": \"determinism\"", det + 1),
              std::string::npos)
        << "identical locations must deduplicate";
}

TEST(LintSarif, EscapesJsonSpecials)
{
    const std::vector<Diagnostic> diags = {
        {"src/a.cc", 1, Check::Determinism,
         "quote \" backslash \\ newline \n done"},
    };
    std::ostringstream os;
    writeSarif(os, diags);
    const std::string sarif = os.str();
    EXPECT_NE(sarif.find("quote \\\" backslash \\\\ newline \\n"),
              std::string::npos);
}

TEST(LintBaseline, FingerprintSurvivesWhitespaceRefactor)
{
    // Re-indenting a file must not invalidate baseline entries: the
    // fingerprint squeezes runs of whitespace in the quoted line and
    // never includes the line number.
    const Diagnostic before{"src/a.cc", 10, Check::RawEscape, "m"};
    const Diagnostic after{"src/a.cc", 42, Check::RawEscape, "m"};
    EXPECT_EQ(fingerprint(before, "total = r.raw()   + l;"),
              fingerprint(after, "    total = r.raw() + l;"));
    EXPECT_EQ(fingerprint(after, "x").find("raw-escape|src/a.cc|"),
              0U);
}

} // namespace
