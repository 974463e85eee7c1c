/**
 * @file
 * Family 2: determinism.
 *
 * The engine invariant "--jobs 1 and --jobs N are bitwise identical"
 * (docs/parallel_exec.md) only survives if simulation code never
 * consults ambient state.  Three sub-rules:
 *
 *  banned calls      std::rand/srand, std::time, std::random_device
 *                    (outside the seeded factory in common/random),
 *                    and argument-less <chrono> clock ::now() —
 *                    every one injects wall-clock or global-RNG
 *                    state that varies across runs and schedules.
 *
 *  unordered reads   iterating an unordered container while feeding
 *                    an accumulation (+=, push_back, insert, ...) or
 *                    a runSweep/runIndexSweep reduction makes the
 *                    result depend on hash-table ordering, which
 *                    varies across libstdc++ versions and ASLR.
 *
 *  direct stdio      std::cout/cerr/clog in src/ outside the
 *                    allowlisted writers (common/logging,
 *                    common/table, circuit/wave_writer).  Library
 *                    code printing directly bypasses the filterable
 *                    logging sink and interleaves with the tools'
 *                    structured output in pool-thread order.
 *
 * Waivers: // vsgpu-lint: nondet-ok(<reason>) for banned calls,
 *          // vsgpu-lint: unordered-ok(<reason>) for iteration,
 *          // vsgpu-lint: iostream-ok(<reason>) for direct stdio.
 */

#include "lint.hh"

#include <algorithm>
#include <set>
#include <string>

namespace vsgpu::lint
{

namespace
{

bool
isBannedName(std::string_view name)
{
    return name == "rand" || name == "srand" || name == "time" ||
           name == "random_device";
}

/** Names whose presence in a loop body marks an accumulation. */
bool
isAccumulator(const Token &tok)
{
    if (tok.kind == Token::Kind::Punct)
        return tok.text == "+=" || tok.text == "-=" ||
               tok.text == "*=" || tok.text == "/=" ||
               tok.text == "|=" || tok.text == "&=" ||
               tok.text == "^=";
    return tok.text == "push_back" || tok.text == "emplace_back" ||
           tok.text == "insert" || tok.text == "emplace" ||
           tok.text == "append" || tok.text == "runSweep" ||
           tok.text == "runIndexSweep" || tok.text == "accumulate";
}

/** Index just past a balanced group opened by tokens[open]. */
std::size_t
skipBalanced(const std::vector<Token> &tokens, std::size_t open,
             std::string_view openText, std::string_view closeText)
{
    int depth = 0;
    for (std::size_t i = open; i < tokens.size(); ++i) {
        if (tokens[i].text == openText)
            ++depth;
        else if (tokens[i].text == closeText && --depth == 0)
            return i + 1;
    }
    return tokens.size();
}

} // namespace

void
checkDeterminism(const SourceFile &src, const CheckOptions &opts,
                 std::vector<Diagnostic> &out)
{
    const std::vector<Token> tokens = tokenize(src.code());

    const bool entropyAllowed = std::any_of(
        opts.entropyAllowlist.begin(), opts.entropyAllowlist.end(),
        [&](const std::string &suffix) {
            const std::string &d = src.display();
            return d.size() >= suffix.size() &&
                   d.compare(d.size() - suffix.size(),
                             suffix.size(), suffix) == 0;
        });

    auto report = [&](std::size_t offset, std::string message,
                      std::string_view waiver) {
        const int line = src.lineOf(offset);
        if (src.hasWaiver(line, waiver))
            return;
        out.push_back({src.display(), line, Check::Determinism,
                       std::move(message)});
    };

    // --- Sub-rule 1: banned calls -------------------------------
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        const Token &tok = tokens[i];
        if (tok.kind != Token::Kind::Identifier)
            continue;

        const std::string_view prev =
            i > 0 ? tokens[i - 1].text : std::string_view{};

        if (tok.text == "random_device") {
            if (!entropyAllowed)
                report(tok.offset,
                       "std::random_device outside the seeded entropy "
                       "factory (common/random) — take an explicit "
                       "seed instead so runs are reproducible",
                       "vsgpu-lint: nondet-ok");
            continue;
        }

        if (tok.text == "now" && prev == "::" && i >= 2) {
            const std::string_view qual = tokens[i - 2].text;
            const bool chronoClock =
                qual.size() >= 6 &&
                qual.substr(qual.size() - 6) == "_clock";
            if (chronoClock &&
                i + 1 < tokens.size() && tokens[i + 1].text == "(") {
                report(tok.offset,
                       "std::chrono clock ::now() in simulation "
                       "code — wall-clock time varies per run; "
                       "derive timing from simulated cycles or pass "
                       "timestamps in",
                       "vsgpu-lint: nondet-ok");
            }
            continue;
        }

        if (!isBannedName(tok.text))
            continue;
        const bool called = i + 1 < tokens.size() &&
                            tokens[i + 1].text == "(";
        if (!called)
            continue;
        // Qualified call (std::rand / ::time) is always the banned
        // global; an unqualified name is a call only when it is not
        // a member access (sim.time()) and not a declaration
        // (double time() const).
        const bool qualified = prev == "::";
        const bool member = prev == "." || prev == "->";
        const bool declared =
            !qualified && !member && i > 0 &&
            tokens[i - 1].kind == Token::Kind::Identifier &&
            tokens[i - 1].text != "return";
        if (member || declared)
            continue;
        report(tok.offset,
               "call to '" + std::string(tok.text) +
                   "' — global RNG / wall-clock state breaks the "
                   "jobs=1 == jobs=N determinism contract; use the "
                   "per-task Rng stream (exec::TaskContext) or an "
                   "explicit seed",
               "vsgpu-lint: nondet-ok");
    }

    // --- Sub-rule 3: direct stdio in library code ---------------
    const bool iostreamAllowed = std::any_of(
        opts.iostreamAllowlist.begin(), opts.iostreamAllowlist.end(),
        [&](const std::string &suffix) {
            const std::string &d = src.display();
            return d.size() >= suffix.size() &&
                   d.compare(d.size() - suffix.size(),
                             suffix.size(), suffix) == 0;
        });
    if (!iostreamAllowed) {
        for (std::size_t i = 0; i < tokens.size(); ++i) {
            const Token &tok = tokens[i];
            if (tok.kind != Token::Kind::Identifier ||
                (tok.text != "cout" && tok.text != "cerr" &&
                 tok.text != "clog"))
                continue;
            const std::string_view prev =
                i > 0 ? tokens[i - 1].text : std::string_view{};
            if (prev == "." || prev == "->")
                continue; // member named cout/cerr, not the stream
            // "int cout = 0;" declares a member of that name.
            const bool declared =
                i > 0 &&
                tokens[i - 1].kind == Token::Kind::Identifier &&
                tokens[i - 1].text != "return";
            if (declared)
                continue;
            report(tok.offset,
                   "direct std::" + std::string(tok.text) +
                       " in library code — route output through "
                       "common/logging (filterable, pluggable sink) "
                       "or return data for the frontend to print",
                   "vsgpu-lint: iostream-ok");
        }
    }

    // --- Sub-rule 2: unordered-container iteration --------------
    // Pass A: names declared (or aliased) as unordered containers.
    std::set<std::string, std::less<>> unorderedTypes = {
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset"};
    std::set<std::string, std::less<>> unorderedVars;
    for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
        if (tokens[i].kind != Token::Kind::Identifier ||
            unorderedTypes.count(tokens[i].text) == 0)
            continue;
        // Skip the template argument list, tolerating >> closers.
        std::size_t j = i + 1;
        if (j < tokens.size() && tokens[j].text == "<") {
            int depth = 0;
            for (; j < tokens.size(); ++j) {
                if (tokens[j].text == "<")
                    ++depth;
                else if (tokens[j].text == ">")
                    --depth;
                else if (tokens[j].text == ">>")
                    depth -= 2;
                if (depth <= 0) {
                    ++j;
                    break;
                }
            }
        }
        if (j < tokens.size() &&
            tokens[j].kind == Token::Kind::Identifier)
            unorderedVars.insert(std::string(tokens[j].text));
        // Alias: "using Foo = std::unordered_map<...>" makes Foo an
        // unordered type name.  Walk back over std:: qualification
        // to find the '=' and the alias name.
        std::size_t back = i;
        while (back >= 1 && (tokens[back - 1].text == "::" ||
                             tokens[back - 1].text == "std"))
            --back;
        if (back >= 3 && tokens[back - 1].text == "=" &&
            tokens[back - 2].kind == Token::Kind::Identifier &&
            tokens[back - 3].text == "using")
            unorderedTypes.insert(std::string(tokens[back - 2].text));
    }
    // Variables declared with an alias type: "Foo name".
    for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
        if (tokens[i].kind != Token::Kind::Identifier ||
            unorderedTypes.count(tokens[i].text) == 0 ||
            tokens[i].text.substr(0, 10) == "unordered_")
            continue;
        if (tokens[i + 1].kind == Token::Kind::Identifier)
            unorderedVars.insert(std::string(tokens[i + 1].text));
    }

    if (unorderedVars.empty())
        return;

    // Pass B: range-for over an unordered variable feeding an
    // accumulation in the loop body.
    for (std::size_t i = 0; i + 2 < tokens.size(); ++i) {
        if (tokens[i].text != "for" || tokens[i + 1].text != "(")
            continue;
        const std::size_t closeParen =
            skipBalanced(tokens, i + 1, "(", ")");
        // Find the range-for ':' at depth 1.
        std::size_t colon = 0;
        int depth = 0;
        for (std::size_t j = i + 1; j < closeParen; ++j) {
            if (tokens[j].text == "(")
                ++depth;
            else if (tokens[j].text == ")")
                --depth;
            else if (tokens[j].text == ":" && depth == 1) {
                colon = j;
                break;
            }
        }
        if (colon == 0)
            continue;
        bool overUnordered = false;
        for (std::size_t j = colon + 1; j + 1 < closeParen; ++j)
            if (tokens[j].kind == Token::Kind::Identifier &&
                unorderedVars.count(tokens[j].text) > 0)
                overUnordered = true;
        if (!overUnordered)
            continue;

        // Loop body: balanced braces or a single statement.
        std::size_t bodyBegin = closeParen;
        std::size_t bodyEnd;
        if (bodyBegin < tokens.size() &&
            tokens[bodyBegin].text == "{") {
            bodyEnd = skipBalanced(tokens, bodyBegin, "{", "}");
        } else {
            bodyEnd = bodyBegin;
            while (bodyEnd < tokens.size() &&
                   tokens[bodyEnd].text != ";")
                ++bodyEnd;
        }
        const bool accumulates =
            std::any_of(tokens.begin() +
                            static_cast<std::ptrdiff_t>(bodyBegin),
                        tokens.begin() +
                            static_cast<std::ptrdiff_t>(bodyEnd),
                        [](const Token &t) {
                            return isAccumulator(t);
                        });
        if (!accumulates)
            continue;
        const int line = src.lineOf(tokens[i].offset);
        if (src.hasWaiver(line, "vsgpu-lint: unordered-ok"))
            continue;
        out.push_back(
            {src.display(), line, Check::Determinism,
             "iteration over an unordered container feeds an "
             "accumulation — the result depends on hash ordering; "
             "iterate a sorted copy, use std::map, or reduce by "
             "index"});
    }
}

} // namespace vsgpu::lint
