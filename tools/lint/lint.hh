/**
 * @file
 * vsgpu_lint — project-specific static analysis for the vsgpu tree.
 *
 * Four check families enforce the invariants the codebase's tests
 * and type system rely on, as machine-checked rules instead of
 * convention.  Each encodes something specific to this project that
 * no stock tool (compiler warnings, clang-tidy, ASan/UBSan/TSan)
 * checks:
 *
 *   unit-safety       raw double/float crossing a converted public
 *                     header where a Quantity type exists
 *   determinism       wall-clock, global-RNG, and unordered-iteration
 *                     sources of run-to-run nondeterminism
 *   contracts         functions tagged [[vsgpu::contract]] /
 *                     VSGPU_CONTRACT must state VSGPU_REQUIRES or
 *                     VSGPU_ENSURES in their definition
 *   raw-escape        Quantity::raw() called outside the numeric
 *                     core (circuit/verify/solver boundary files)
 *
 * Bitwise identity across --jobs is not a lint family: the
 * jobs-1-vs-N byte-identity gate over every scenario
 * (tests/obs/test_obs_determinism.cc) tests it directly.
 *
 * The analysis is a deliberately small token-level frontend: it scrubs
 * comments and string literals, tokenizes, and pattern-matches — no
 * compiler installation required, so the gate runs on every machine
 * that can build the project.
 *
 * Waivers are inline comments naming a reason:
 *   // vsgpu-lint: raw-ok(<reason>)        unit-safety
 *   // vsgpu-lint: nondet-ok(<reason>)     determinism (banned calls)
 *   // vsgpu-lint: unordered-ok(<reason>)  determinism (iteration)
 *   // vsgpu-lint: iostream-ok(<reason>)   determinism (direct stdio)
 *   // vsgpu-lint: raw-escape-ok(<reason>) raw-escape
 * A waiver on the diagnosed line or the line above it applies.
 */

#ifndef VSGPU_TOOLS_LINT_LINT_HH
#define VSGPU_TOOLS_LINT_LINT_HH

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace vsgpu::lint
{

/** Check families, in severity-neutral declaration order.  Each
 *  runs file by file over the token stream. */
enum class Check
{
    UnitSafety,
    Determinism,
    Contracts,
    RawEscape,
};

/** Every family, in declaration order (CLI listings, round-trips). */
inline constexpr Check kAllChecks[] = {
    Check::UnitSafety, Check::Determinism, Check::Contracts,
    Check::RawEscape,
};

/** Stable kebab-case name used on the CLI and in baseline files. */
std::string_view checkName(Check check);

/** Parse a check name; returns false on an unknown name. */
bool parseCheckName(std::string_view name, Check &out);

/** One finding: file:line plus the check that fired and its message. */
struct Diagnostic
{
    std::string file; ///< display path (repo-relative when possible)
    int line = 0;     ///< 1-based
    Check check = Check::UnitSafety;
    std::string message;
};

/**
 * A source file prepared for analysis: the raw text (for waiver
 * comments) plus a scrubbed copy of identical length in which
 * comments, string literals, and character literals are blanked so
 * token scans cannot be fooled by quoted or commented code.
 */
class SourceFile
{
  public:
    /** @param display path used in diagnostics and baselines. */
    SourceFile(std::string display, std::string text);

    const std::string &display() const { return display_; }
    const std::string &text() const { return text_; }
    const std::string &code() const { return code_; }

    /** 1-based line number of a byte offset into text()/code(). */
    int lineOf(std::size_t offset) const;

    /** Raw text of a 1-based line (no trailing newline). */
    std::string_view lineText(int line) const;

    /** True when @p line or the line above carries @p waiverTag. */
    bool hasWaiver(int line, std::string_view waiverTag) const;

  private:
    std::string display_;
    std::string text_;
    std::string code_;
    std::vector<std::size_t> lineStarts_;
};

/** Load a file from disk; @p display overrides the diagnostic path. */
SourceFile loadSource(const std::string &path,
                      const std::string &display);

/** One lexical token of the scrubbed source. */
struct Token
{
    enum class Kind
    {
        Identifier,
        Number,
        Punct,
    };

    Kind kind = Kind::Punct;
    std::string_view text; ///< view into SourceFile::code()
    std::size_t offset = 0;
};

/** Tokenize scrubbed source (identifiers, numbers, operators).  The
 *  tokens view into @p code, so it must outlive them; a temporary
 *  is rejected at compile time. */
std::vector<Token> tokenize(const std::string &code);
std::vector<Token> tokenize(std::string &&code) = delete;

/** Options shared by the check families. */
struct CheckOptions
{
    /**
     * Determinism: files allowed to touch std::random_device (the
     * seeded entropy factory).  Matched as path suffixes.
     */
    std::vector<std::string> entropyAllowlist = {
        "src/common/random.cc",
        "src/common/random.hh",
    };

    /**
     * Determinism: src/ files allowed to write std::cout/cerr/clog
     * directly.  Everything else routes output through
     * common/logging (filterable, sink-pluggable) or returns data
     * for a frontend to print, so library code never interleaves
     * raw stdio with the tools' structured output.  Matched as path
     * suffixes.
     */
    std::vector<std::string> iostreamAllowlist = {
        "src/common/logging.cc",
        "src/common/logging.hh",
        "src/common/table.cc",
        "src/common/table.hh",
        "src/circuit/wave_writer.cc",
        "src/circuit/wave_writer.hh",
    };
};

/** Family 1: raw double/float crossing a converted public header. */
void checkUnitSafety(const SourceFile &src,
                     std::vector<Diagnostic> &out);

/** Family 2: nondeterminism sources in simulation code. */
void checkDeterminism(const SourceFile &src, const CheckOptions &opts,
                      std::vector<Diagnostic> &out);

/** Family 3: contract-tagged functions must state contracts. */
void checkContracts(const SourceFile &src,
                    std::vector<Diagnostic> &out);

/** Family 4: Quantity::raw() escapes outside the numeric core. */
void checkRawEscape(const SourceFile &src,
                    std::vector<Diagnostic> &out);

/**
 * Scope predicate: which families apply to @p display path when
 * sweeping a whole project tree.  Explicitly listed files bypass
 * scoping (every enabled family runs), which is what the fixture
 * tests rely on.
 */
bool checkAppliesTo(Check check, std::string_view display);

/** Run every enabled family that applies to @p src. */
void runChecks(const SourceFile &src, const std::vector<Check> &checks,
               const CheckOptions &opts, bool ignoreScope,
               std::vector<Diagnostic> &out);

/**
 * Baseline: frozen existing debt.  A fingerprint is
 * "<check>|<file>|<whitespace-squeezed line text>", stable across
 * unrelated edits that only shift line numbers.
 */
std::string fingerprint(const Diagnostic &diag,
                        std::string_view lineText);

/** Load baseline fingerprints (one per line, '#' comments). */
std::vector<std::string> loadBaseline(const std::string &path);

/**
 * Partition @p diags into new findings (returned) and baselined ones.
 * Each baseline entry absorbs at most one matching diagnostic.
 */
std::vector<Diagnostic>
subtractBaseline(const std::vector<Diagnostic> &diags,
                 const std::vector<SourceFile> &sources,
                 const std::vector<std::string> &baseline);

/** Entries of a compile_commands.json database. */
struct CompileCommand
{
    std::string directory;
    std::string file;
};

/** Parse the compile database; panics on malformed JSON. */
std::vector<CompileCommand>
readCompileCommands(const std::string &path);

/**
 * Write @p diags as a SARIF 2.1.0 log (GitHub code scanning).  Each
 * family is one rule, its id the family name; locations use the
 * display paths as repository-relative URIs.
 */
void writeSarif(std::ostream &os,
                const std::vector<Diagnostic> &diags);

/**
 * Print the rationale, a minimal violating/fixed example pair (from
 * the fixture corpus), and the waiver syntax for the family named
 * @p family ("raw-escape").  Returns false for an unknown name (the
 * CLI maps that to exit status 2).
 */
bool explainDiagnostic(std::string_view family, std::ostream &os);

} // namespace vsgpu::lint

#endif // VSGPU_TOOLS_LINT_LINT_HH
