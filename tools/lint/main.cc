/**
 * @file
 * vsgpu_lint command-line driver.
 *
 * Usage:
 *   vsgpu_lint [-p <build-dir>] [--checks a,b,...]
 *              [--baseline <file> | --no-baseline]
 *              [--write-baseline] [--list-checks]
 *              [--explain <family>]
 *              [--sarif <file>] [--timings <file>] [file...]
 *
 * With no file arguments, lints every project source named by the
 * compile database (<build-dir>/compile_commands.json, default
 * build dir "build") plus every header under src/, bench/, and
 * tools/ — headers never appear in a compile database but carry the
 * interfaces the unit-safety family polices and the contract tags
 * the contracts family checks everywhere.  Explicit file
 * arguments are linted with every enabled check regardless of path
 * scoping (fixture tests rely on this).  --timings writes
 * wall-clock and per-family seconds/finding counts as JSON for the
 * CI budget gate (scripts/check_bench.py --lint against
 * BENCH_lint.json).
 *
 * Exit status: 0 clean (or baselined), 1 new diagnostics, 2 usage /
 * I/O error.
 */

#include "lint.hh"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

namespace fs = std::filesystem;
using namespace vsgpu::lint;

namespace
{

struct Options
{
    std::string buildDir = "build";
    std::string baselinePath; ///< empty = default next to binary use
    bool useBaseline = true;
    bool writeBaseline = false;
    bool verbose = false;
    std::string sarifPath;   ///< write SARIF 2.1.0 log here
    std::string timingsPath; ///< write wall/per-family JSON here
    std::vector<Check> checks{std::begin(kAllChecks),
                              std::end(kAllChecks)};
    std::vector<std::string> files;
};

int
usage(std::ostream &os)
{
    os << "usage: vsgpu_lint [-p build-dir] [--checks a,b,...]\n"
          "                  [--baseline file | --no-baseline]\n"
          "                  [--write-baseline] [--verbose]\n"
          "                  [--sarif file] [--timings file]\n"
          "                  [--explain family] [--list-checks] "
          "[file...]\n";
    return 2;
}

bool
parseChecks(const std::string &arg, std::vector<Check> &out)
{
    out.clear();
    std::size_t start = 0;
    while (start <= arg.size()) {
        std::size_t comma = arg.find(',', start);
        if (comma == std::string::npos)
            comma = arg.size();
        const std::string name = arg.substr(start, comma - start);
        Check check{};
        if (!name.empty()) {
            if (!parseCheckName(name, check)) {
                std::cerr << "vsgpu_lint: unknown check '" << name
                          << "'\n";
                return false;
            }
            out.push_back(check);
        }
        start = comma + 1;
    }
    return !out.empty();
}

/** Repo root: nearest ancestor of @p from containing src/common. */
fs::path
findRepoRoot(const fs::path &from)
{
    fs::path dir = fs::absolute(from);
    while (!dir.empty()) {
        if (fs::exists(dir / "src" / "common" / "quantity.hh"))
            return dir;
        if (dir == dir.parent_path())
            break;
        dir = dir.parent_path();
    }
    return {};
}

/** Display path: repo-relative with forward slashes when possible. */
std::string
displayPath(const fs::path &file, const fs::path &repoRoot)
{
    std::error_code ec;
    const fs::path abs = fs::weakly_canonical(file, ec);
    if (!repoRoot.empty()) {
        const fs::path rel =
            fs::relative(ec ? file : abs, repoRoot, ec);
        if (!ec && !rel.empty() &&
            rel.native().rfind("..", 0) != 0)
            return rel.generic_string();
    }
    return file.generic_string();
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                return nullptr;
            return argv[++i];
        };
        if (arg == "-p" || arg == "--build-dir") {
            const char *v = next();
            if (!v)
                return usage(std::cerr);
            opt.buildDir = v;
        } else if (arg == "--checks") {
            const char *v = next();
            if (!v || !parseChecks(v, opt.checks))
                return usage(std::cerr);
        } else if (arg == "--baseline") {
            const char *v = next();
            if (!v)
                return usage(std::cerr);
            opt.baselinePath = v;
        } else if (arg == "--no-baseline") {
            opt.useBaseline = false;
        } else if (arg == "--write-baseline") {
            opt.writeBaseline = true;
        } else if (arg == "--verbose") {
            opt.verbose = true;
        } else if (arg == "--sarif") {
            const char *v = next();
            if (!v)
                return usage(std::cerr);
            opt.sarifPath = v;
        } else if (arg == "--timings") {
            const char *v = next();
            if (!v)
                return usage(std::cerr);
            opt.timingsPath = v;
        } else if (arg == "--explain") {
            const char *v = next();
            if (!v)
                return usage(std::cerr);
            if (!explainDiagnostic(v, std::cout)) {
                std::cerr << "vsgpu_lint: unknown family '" << v
                          << "' (see --list-checks)\n";
                return 2;
            }
            return 0;
        } else if (arg == "--list-checks") {
            for (Check c : kAllChecks)
                std::cout << checkName(c) << "\n";
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            return usage(std::cout), 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "vsgpu_lint: unknown option " << arg
                      << "\n";
            return usage(std::cerr);
        } else {
            opt.files.push_back(arg);
        }
    }

    const bool explicitFiles = !opt.files.empty();
    fs::path repoRoot;
    std::vector<fs::path> targets;

    try {
        if (explicitFiles) {
            repoRoot = findRepoRoot(fs::current_path());
            for (const std::string &f : opt.files)
                targets.emplace_back(f);
        } else {
            const fs::path db =
                fs::path(opt.buildDir) / "compile_commands.json";
            const auto commands =
                readCompileCommands(db.string());
            if (commands.empty()) {
                std::cerr << "vsgpu_lint: empty compile database "
                          << db << "\n";
                return 2;
            }
            std::set<std::string> seen;
            for (const CompileCommand &cmd : commands) {
                fs::path file(cmd.file);
                if (file.is_relative())
                    file = fs::path(cmd.directory) / file;
                if (repoRoot.empty())
                    repoRoot = findRepoRoot(file.parent_path());
                std::error_code ec;
                const fs::path canon =
                    fs::weakly_canonical(file, ec);
                if (seen.insert(canon.string()).second)
                    targets.push_back(canon);
            }
            // Headers never appear in the compile database; the
            // unit-safety family lives in src/ headers and contracts
            // applies everywhere, bench/ and tools/ included.
            if (!repoRoot.empty()) {
                for (const char *tree : {"src", "bench", "tools"}) {
                    const fs::path dir = repoRoot / tree;
                    if (!fs::is_directory(dir))
                        continue;
                    for (const auto &entry :
                         fs::recursive_directory_iterator(dir)) {
                        if (!entry.is_regular_file() ||
                            entry.path().extension() != ".hh")
                            continue;
                        std::error_code ec;
                        const fs::path canon =
                            fs::weakly_canonical(entry.path(), ec);
                        if (seen.insert(canon.string()).second)
                            targets.push_back(canon);
                    }
                }
            }
        }

        std::sort(targets.begin(), targets.end());

        std::vector<SourceFile> sources;
        sources.reserve(targets.size());
        for (const fs::path &t : targets) {
            if (!fs::exists(t)) {
                std::cerr << "vsgpu_lint: no such file: " << t
                          << "\n";
                return 2;
            }
            sources.push_back(loadSource(
                t.string(), displayPath(t, repoRoot)));
        }

        // The --timings wall clock covers the family passes, which
        // tokenize each file themselves.
        using Clock = std::chrono::steady_clock;
        const auto secondsSince = [](Clock::time_point t0) {
            return std::chrono::duration<double>(Clock::now() - t0)
                .count();
        };
        const auto wallStart = Clock::now();

        if (opt.verbose)
            for (const SourceFile &src : sources)
                std::cerr << "lint " << src.display() << "\n";

        // One pass per family so --timings can attribute wall time
        // and raw finding counts to each check (the CI budget gate
        // and the job summary both read the breakdown).
        struct FamilyTiming
        {
            std::string_view name;
            double seconds = 0.0;
            std::size_t diagnostics = 0;
        };

        CheckOptions checkOpts;
        std::vector<Diagnostic> diags;
        std::vector<FamilyTiming> famTimes;
        for (Check check : opt.checks) {
            const auto t0 = Clock::now();
            const std::size_t before = diags.size();
            const std::vector<Check> one{check};
            for (const SourceFile &src : sources) {
                try {
                    runChecks(src, one, checkOpts, explicitFiles,
                              diags);
                } catch (const std::exception &err) {
                    // Name the file that broke the tokenizer or a
                    // check; without this a fixture sweep fails
                    // anonymously.
                    throw std::runtime_error(src.display() + ": " +
                                             err.what());
                }
            }
            famTimes.push_back({checkName(check), secondsSince(t0),
                                diags.size() - before});
        }

        std::sort(diags.begin(), diags.end(),
                  [](const Diagnostic &a, const Diagnostic &b) {
                      if (a.file != b.file)
                          return a.file < b.file;
                      return a.line < b.line;
                  });

        std::string baselinePath = opt.baselinePath;
        if (baselinePath.empty() && !repoRoot.empty())
            baselinePath = (repoRoot / "tools" / "lint" /
                            "lint_baseline.txt")
                               .string();

        if (opt.writeBaseline) {
            std::ofstream out(baselinePath);
            if (!out) {
                std::cerr << "vsgpu_lint: cannot write baseline "
                          << baselinePath << "\n";
                return 2;
            }
            out << "# vsgpu_lint baseline — frozen pre-existing "
                   "debt.\n"
                   "# Regenerate with: vsgpu_lint "
                   "--write-baseline\n"
                   "# Fix the underlying finding instead of adding "
                   "entries by hand.\n";
            std::vector<std::string> fps;
            for (const Diagnostic &d : diags) {
                const auto it = std::find_if(
                    sources.begin(), sources.end(),
                    [&](const SourceFile &s) {
                        return s.display() == d.file;
                    });
                fps.push_back(fingerprint(
                    d, it == sources.end() ? std::string_view{}
                                           : it->lineText(d.line)));
            }
            std::sort(fps.begin(), fps.end());
            for (const std::string &fp : fps)
                out << fp << "\n";
            std::cout << "vsgpu_lint: wrote " << fps.size()
                      << " baseline entr"
                      << (fps.size() == 1 ? "y" : "ies") << " to "
                      << baselinePath << "\n";
            return 0;
        }

        std::vector<Diagnostic> fresh = diags;
        std::size_t baselined = 0;
        if (opt.useBaseline && !baselinePath.empty()) {
            const auto baseline = loadBaseline(baselinePath);
            fresh = subtractBaseline(diags, sources, baseline);
            baselined = diags.size() - fresh.size();
        }

        if (!opt.timingsPath.empty()) {
            std::ofstream out(opt.timingsPath);
            if (!out) {
                std::cerr << "vsgpu_lint: cannot write timings "
                          << opt.timingsPath << "\n";
                return 2;
            }
            out << std::fixed << std::setprecision(6);
            out << "{\n  \"files\": " << sources.size()
                << ",\n  \"wall_seconds\": "
                << secondsSince(wallStart)
                << ",\n  \"new_diagnostics\": " << fresh.size()
                << ",\n  \"families\": [\n";
            for (std::size_t i = 0; i < famTimes.size(); ++i) {
                const FamilyTiming &ft = famTimes[i];
                out << "    {\"check\": \"" << ft.name
                    << "\", \"seconds\": " << ft.seconds
                    << ", \"diagnostics\": " << ft.diagnostics
                    << "}" << (i + 1 < famTimes.size() ? "," : "")
                    << "\n";
            }
            out << "  ]\n}\n";
        }

        if (!opt.sarifPath.empty()) {
            std::ofstream out(opt.sarifPath);
            if (!out) {
                std::cerr << "vsgpu_lint: cannot write SARIF "
                          << opt.sarifPath << "\n";
                return 2;
            }
            writeSarif(out, fresh);
        }

        for (const Diagnostic &d : fresh)
            std::cerr << d.file << ":" << d.line << ": ["
                      << checkName(d.check) << "] " << d.message
                      << "\n";

        std::cout << "vsgpu_lint: " << sources.size()
                  << " file(s), " << fresh.size()
                  << " new diagnostic(s)";
        if (baselined > 0)
            std::cout << ", " << baselined << " baselined";
        std::cout << "\n";
        return fresh.empty() ? 0 : 1;
    } catch (const std::exception &err) {
        std::cerr << "vsgpu_lint: " << err.what() << "\n";
        return 2;
    }
}
