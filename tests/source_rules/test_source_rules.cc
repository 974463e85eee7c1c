/**
 * @file
 * Source rules the compiler cannot state, checked over every file
 * under src/:
 *
 *   unit-safety   a raw double/float whose name carries a unit suffix
 *                 (loadOhms, freqHz) in a converted public header; the
 *                 unit belongs in a Quantity type (common/quantity.hh)
 *   determinism   rand/srand/time calls, std::random_device outside
 *                 common/random, chrono clock ::now(), and any
 *                 unordered container
 *   stdio         std::cout/cerr/clog outside common/logging,
 *                 common/table and circuit/wave_writer
 *
 * A comment on the flagged line or the line above waives a finding:
 * raw-ok(<reason>), nondet-ok(<reason>) or iostream-ok(<reason>).
 * Unordered containers have no waiver.  Comments and string literals
 * never trigger a rule.  The fixtures show that every rule fires.
 * (Quantity::raw() outside the numeric core is a compiler error;
 * tests/CMakeLists.txt holds its compile-fail test.)
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace
{

struct Finding
{
    int line;
    std::string rule;
    std::string what;
};

struct Token
{
    std::string text;
    int line;
};

bool
isWord(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/** Blank comments and string/char literals, keeping every newline. */
std::string
scrub(const std::string &text)
{
    std::string out = text;
    const auto upTo = [&](std::size_t at, std::size_t len) {
        return at == std::string::npos ? text.size() : at + len;
    };
    for (std::size_t i = 0; i < text.size();) {
        std::size_t end = i + 1;
        const bool afterWord = i > 0 && isWord(text[i - 1]);
        if (text.compare(i, 2, "//") == 0) {
            end = upTo(text.find('\n', i), 0);
        } else if (text.compare(i, 2, "/*") == 0) {
            end = upTo(text.find("*/", i + 2), 2);
        } else if (text.compare(i, 2, "R\"") == 0 && !afterWord) {
            const std::size_t open = text.find('(', i);
            const std::string close =
                ")" + text.substr(i + 2, open - i - 2) + "\"";
            end = upTo(text.find(close, open), close.size());
        } else if (text[i] == '"' || (text[i] == '\'' && !afterWord)) {
            // A quote right after a word character is a digit separator.
            while (end < text.size() && text[end] != text[i])
                end += text[end] == '\\' ? 2 : 1;
            end = std::min(end + 1, text.size());
        } else {
            ++i;
            continue;
        }
        for (; i < end; ++i)
            if (out[i] != '\n')
                out[i] = ' ';
    }
    return out;
}

std::vector<Token>
tokenize(const std::string &code)
{
    std::vector<Token> out;
    int line = 1;
    for (std::size_t i = 0; i < code.size();) {
        if (std::isspace(static_cast<unsigned char>(code[i]))) {
            line += code[i++] == '\n' ? 1 : 0;
            continue;
        }
        std::size_t j = i + 1;
        if (isWord(code[i])) {
            while (j < code.size() && isWord(code[j]))
                ++j;
        } else if (code.compare(i, 2, "::") == 0 ||
                   code.compare(i, 2, "->") == 0) {
            j = i + 2;
        }
        out.push_back({code.substr(i, j - i), line});
        i = j;
    }
    return out;
}

bool
hasUnitSuffix(const std::string &name)
{
    static const char *const suffixes[] = {
        "volts", "volt", "amps", "amp", "ohms", "ohm", "siemens",
        "farads", "farad", "henries", "henry", "watts", "watt", "joules",
        "joule", "hertz", "mhz", "ghz", "khz", "hz", "seconds", "second",
        "secs", "sec", "mm2", "m2", "nf", "uf", "pf", "nh", "ph", "mv",
        "ma", "mw", "nj", "us", "ns", "ps"};
    std::string lower = name;
    for (char &c : lower)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    for (const std::string suffix : suffixes) {
        if (!lower.ends_with(suffix))
            continue;
        // Whole name, camelCase boundary ("loadOhms"), or after _/digit.
        const std::size_t at = name.size() - suffix.size();
        if (at == 0 || std::isupper(static_cast<unsigned char>(name[at])) ||
            name[at - 1] == '_' ||
            std::isdigit(static_cast<unsigned char>(name[at - 1])))
            return true;
    }
    return false;
}

/** Every rule that applies to @p path (repo-relative) over @p text. */
std::vector<Finding>
check(const std::string &path, const std::string &text)
{
    std::vector<std::string> lines(1);
    for (char c : text) {
        if (c == '\n')
            lines.emplace_back();
        else
            lines.back().push_back(c);
    }
    const auto waived = [&](int line, const std::string &tag) {
        for (int l : {line, line - 1})
            if (l >= 1 && lines[static_cast<std::size_t>(l - 1)].find(
                              tag + "(") != std::string::npos)
                return true;
        return false;
    };

    static const std::set<std::string> declEnd = {",", ")", ";", "=",
                                                  "{", "[", "("};
    const bool inSrc = path.starts_with("src/");
    bool units = path == "src/common/units.hh";
    if (path.ends_with(".hh"))
        for (const char *mod : {"circuit/", "pdn/", "ivr/", "power/",
                                "sim/", "control/", "hypervisor/"})
            units |= path.starts_with(std::string("src/") + mod);
    const bool entropyOk = path.starts_with("src/common/random.");
    bool stdioOk = false;
    for (const char *w : {"src/common/logging.", "src/common/table.",
                          "src/circuit/wave_writer."})
        stdioOk |= path.starts_with(w);

    const std::vector<Token> t = tokenize(scrub(text));
    const auto at = [&](std::size_t i) {
        return i < t.size() ? t[i].text : std::string();
    };
    std::vector<Finding> out;
    const auto report = [&](const Token &tok, const char *rule,
                            const std::string &tag) {
        if (tag.empty() || !waived(tok.line, tag))
            out.push_back({tok.line, rule, tok.text});
    };
    for (std::size_t i = 0; i < t.size(); ++i) {
        const std::string &s = t[i].text;
        const std::string prev = i > 0 ? t[i - 1].text : "";
        // A member access (x.time()) or a declaration (double time())
        // names something else than the global function or stream.
        const bool other = prev == "." || prev == "->" ||
                           (isWord(prev[0]) && prev != "return");
        if (units && (s == "double" || s == "float")) {
            std::size_t j = i + 1;
            while (at(j) == "&" || at(j) == "*" || at(j) == "const")
                ++j;
            if (j < t.size() && isWord(at(j)[0]) && hasUnitSuffix(at(j)) &&
                declEnd.count(at(j + 1)))
                report(t[j], "unit-safety", "raw-ok");
        }
        if (!inSrc)
            continue;
        if ((s == "rand" || s == "srand" || s == "time") &&
            at(i + 1) == "(" && !other)
            report(t[i], "determinism", "nondet-ok");
        if (s == "random_device" && !entropyOk)
            report(t[i], "determinism", "nondet-ok");
        if (s == "now" && prev == "::" && i >= 2 &&
            t[i - 2].text.ends_with("_clock") && at(i + 1) == "(")
            report(t[i], "determinism", "nondet-ok");
        if (s.starts_with("unordered_") && at(i + 1) == "<")
            report(t[i], "determinism", "");
        if ((s == "cout" || s == "cerr" || s == "clog") && !stdioOk &&
            !other)
            report(t[i], "stdio", "iostream-ok");
    }
    return out;
}

std::string
readFile(const std::filesystem::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

using Whats = std::multiset<std::string>;

/** The findings' texts for one fixture, checked as if it were @p as. */
Whats
fixture(const std::string &name, const std::string &as)
{
    Whats whats;
    const std::filesystem::path dir =
        std::filesystem::path(VSGPU_SOURCE_DIR) / "tests/source_rules/fixtures";
    for (const Finding &f : check(as, readFile(dir / name)))
        whats.insert(f.what);
    return whats;
}

TEST(SourceRules, SrcTreeIsClean)
{
    const std::filesystem::path root = VSGPU_SOURCE_DIR;
    int files = 0;
    std::string report;
    for (const auto &entry :
         std::filesystem::recursive_directory_iterator(root / "src")) {
        const std::string ext = entry.path().extension().string();
        if (ext != ".cc" && ext != ".hh")
            continue;
        ++files;
        const std::string rel =
            entry.path().lexically_relative(root).generic_string();
        for (const Finding &f : check(rel, readFile(entry.path())))
            report += rel + ":" + std::to_string(f.line) + ": " + f.rule +
                      ": " + f.what + "\n";
    }
    EXPECT_GT(files, 100);
    EXPECT_EQ(report, "");
}

TEST(LintUnitSafety, ViolatingFixture)
{
    EXPECT_EQ(fixture("unit_violate.hh", "src/pdn/f.hh"),
              (Whats{"supplyVolts", "loadAmps", "railOhms", "freqHz"}));
}

TEST(LintUnitSafety, CleanFixture)
{
    EXPECT_EQ(fixture("unit_clean.hh", "src/pdn/f.hh"), Whats{});
}

TEST(LintDeterminism, ViolatingFixture)
{
    EXPECT_EQ(fixture("det_violate.cc", "src/sim/f.cc"),
              (Whats{"srand", "rand", "now", "unordered_map"}));
}

TEST(LintDeterminism, CleanFixture)
{
    EXPECT_EQ(fixture("det_clean.cc", "src/sim/f.cc"), Whats{});
}

TEST(LintDeterminism, IostreamViolatingFixture)
{
    // std::cout, std::cerr, `using std::clog` and the bare clog write.
    EXPECT_EQ(fixture("iostream_violate.cc", "src/sim/f.cc"),
              (Whats{"cout", "cerr", "clog", "clog"}));
}

TEST(LintDeterminism, IostreamCleanFixture)
{
    EXPECT_EQ(fixture("iostream_clean.cc", "src/sim/f.cc"), Whats{});
}

TEST(LintDeterminism, IostreamAllowlistPermitsWriters)
{
    const std::string code = "void f() { std::cout << 1; }\n";
    EXPECT_TRUE(check("src/common/logging.cc", code).empty());
    EXPECT_TRUE(check("src/circuit/wave_writer.cc", code).empty());
    EXPECT_EQ(check("src/sim/cosim.cc", code).size(), 1U);
}

TEST(LintScope, FamiliesScopeByPath)
{
    // unit-safety reads the converted public headers only.
    const std::string decl = "double busVolts = 1.0;\n";
    EXPECT_EQ(check("src/pdn/vs_pdn.hh", decl).size(), 1U);
    EXPECT_TRUE(check("src/pdn/vs_pdn.cc", decl).empty());
    EXPECT_TRUE(check("src/gpu/sm.hh", decl).empty());
    // determinism reads all of src/; benches and tests may time
    // themselves.
    const std::string call = "int f() { return rand(); }\n";
    EXPECT_EQ(check("src/gpu/sm.cc", call).size(), 1U);
    EXPECT_TRUE(check("bench/fig07.cc", call).empty());
}

TEST(LintScope, EntropyAllowlistPermitsSeededFactory)
{
    const std::string code = "std::random_device rd;\n";
    EXPECT_TRUE(check("src/common/random.cc", code).empty());
    EXPECT_EQ(check("src/sim/cosim.cc", code).size(), 1U);
}

TEST(LintLexer, ScrubBlanksCommentsAndStrings)
{
    EXPECT_TRUE(check("src/sim/x.cc",
                      "int x = 1; // rand()\n"
                      "const char *s = \"std::rand()\"; /* time(0) */\n"
                      "auto r = R\"(std::cout)\";\n")
                    .empty());
}

TEST(LintLexer, DigitSeparatorIsNotACharLiteral)
{
    const auto found =
        check("src/sim/x.cc", "long n = 1'000'000; int y = rand();\n");
    ASSERT_EQ(found.size(), 1U);
    EXPECT_EQ(found[0].what, "rand");
}

TEST(LintLexer, MultiCharOperators)
{
    // `::` qualifies the global function; `.`/`->` and a preceding
    // type name make the same spelling a member or a declaration.
    const auto found = check("src/sim/x.cc", "t = std::time(nullptr);\n"
                                             "t = sim.time() + p->time();\n"
                                             "double time() const;\n"
                                             "int c = o->cout;\n");
    ASSERT_EQ(found.size(), 1U);
    EXPECT_EQ(found[0].line, 1);
}

TEST(LintWaiver, LineAboveApplies)
{
    const auto found = check("src/pdn/w.hh", "// raw-ok(fixture)\n"
                                             "double busVolts = 1.0;\n"
                                             "double railVolts = 1.0;\n");
    // Line 2 is waived by line 1; line 3 is not.
    ASSERT_EQ(found.size(), 1U);
    EXPECT_EQ(found[0].line, 3);
}

} // namespace
