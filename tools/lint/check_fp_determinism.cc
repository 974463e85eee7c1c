/**
 * @file
 * Family: fp-determinism (semantic, project-wide).
 *
 * Floating-point addition is not associative, so the project's
 * jobs-1-vs-N bitwise-identity invariant (the verify layer's sweep
 * tests) holds only when every FP reduction runs in a
 * schedule-independent order.  A race detector (TSan) cannot see
 * this class: a lock or an atomic makes an accumulation perfectly
 * race-free while leaving its *order* up to the scheduler.
 *
 *   fp-determinism.locked-reduction    an FP accumulation into
 *       shared state from inside a pool task, serialized by a lock
 *       or atomic — race-free but order-unstable: task completion
 *       order changes the sum's rounding.  Fires directly on in-body
 *       accumulations under a lock scope and on calls whose every
 *       candidate is a lock-taking accumulator.  Fix: accumulate into a per-index slot
 *       and reduce in index order after the join, the runSweep
 *       pattern.
 *   fp-determinism.unordered-reduction an FP accumulation inside a
 *       range-for over a container whose unordered-ness is invisible
 *       in this file (declared in another translation unit) — the
 *       token-level determinism family already flags same-file
 *       unordered iteration, so this rule only fires when only the
 *       cross-TU index can know.
 *
 * Waiver: // vsgpu-lint: fp-order-ok(<reason>).
 */

#include "concurrency_model.hh"
#include "semantic.hh"

#include <set>
#include <string>
#include <vector>

namespace vsgpu::lint
{

namespace
{

using TokenVec = std::vector<Token>;
constexpr std::string_view kWaiver = "vsgpu-lint: fp-order-ok";

void
emit(const Project &project, int fileIndex, std::size_t offset,
     const std::string &id, std::string message,
     std::vector<Diagnostic> &out)
{
    const SourceFile &src =
        project.sources()[static_cast<std::size_t>(fileIndex)];
    const int line = src.lineOf(offset);
    if (src.hasWaiver(line, kWaiver))
        return;
    out.push_back({src.display(), line, Check::FpDeterminism,
                   std::move(message), id,
                   cm::columnOf(src, offset)});
}

/** Is @p name a shared FP target (global or some class's field)? */
bool
isSharedFpName(const SymbolIndex &index, const std::string &name)
{
    if (index.fpNames.count(name))
        return true;
    for (const std::string &qualified : index.fpNames) {
        const std::size_t pos = qualified.rfind("::");
        if (pos != std::string::npos &&
            qualified.substr(pos + 2) == name)
            return true;
    }
    return false;
}

/** Serialized-but-order-dependent accumulations in pool tasks. */
void
lockedReductions(const Project &project,
                 std::vector<Diagnostic> &out)
{
    const SymbolIndex &index = project.index();
    for (std::size_t f = 0; f < project.sources().size(); ++f) {
        const TokenVec &toks = project.tokens(static_cast<int>(f));
        for (const cm::PoolLambda &lam :
             cm::findPoolLambdas(toks)) {
            const cm::NameSet params =
                lam.paramOpen < lam.paramClose
                    ? cm::paramNames(toks, lam.paramOpen,
                                     lam.paramClose)
                    : cm::NameSet{};
            const cm::NameSet aliases = cm::indexAliasNames(
                toks, lam.bodyBegin, lam.bodyEnd, params);
            const cm::NameSet locals = cm::localNames(
                toks, lam.bodyBegin, lam.bodyEnd);
            const std::vector<cm::LockScope> scopes =
                cm::lockScopes(toks, lam.bodyBegin, lam.bodyEnd);

            for (std::size_t i = lam.bodyBegin;
                 i + 1 < lam.bodyEnd; ++i) {
                if (toks[i].kind != Token::Kind::Identifier)
                    continue;
                const std::string name(toks[i].text);

                // Direct: `x += e` (and `x = x + e`) on a shared FP
                // target, serialized by a lock scope or atomicity.
                bool accum = cm::isAccumOp(toks[i + 1].text);
                if (!accum && toks[i + 1].text == "=" &&
                    i + 3 < lam.bodyEnd)
                    accum = toks[i + 2].text == toks[i].text &&
                            (toks[i + 3].text == "+" ||
                             toks[i + 3].text == "-");
                if (accum && !locals.count(name) &&
                    !params.count(name) &&
                    isSharedFpName(index, name) &&
                    !cm::indexedByParam(toks, i, i + 1, aliases)) {
                    const bool serialized =
                        cm::underAnyLock(scopes, i) ||
                        index.atomics.count(name) > 0;
                    if (serialized) {
                        emit(project, static_cast<int>(f),
                             toks[i].offset,
                             "fp-determinism.locked-reduction",
                             "FP accumulation into shared '" +
                                 name +
                                 "' from a pool task is serialized "
                                 "but not order-stable — task "
                                 "scheduling reorders the sum and "
                                 "breaks jobs-1-vs-N bitwise "
                                 "identity; accumulate into a "
                                 "per-index slot and reduce in "
                                 "index order after the join",
                             out);
                        continue;
                    }
                }

                // Through a helper: every candidate accumulates FP
                // state and serializes itself.
                if (i + 1 >= lam.bodyEnd ||
                    toks[i + 1].text != "(" ||
                    locals.count(name) || params.count(name))
                    continue;
                const std::vector<int> &cands =
                    project.lookup(name);
                if (cands.empty())
                    continue;
                bool all = true;
                std::string target;
                std::string via;
                for (int id : cands) {
                    const FunctionDef &callee =
                        index.functions[static_cast<std::size_t>(
                            id)];
                    bool serialized = callee.takesLock;
                    if (!serialized) {
                        serialized = !callee.fpAccumulates.empty();
                        for (const std::string &t :
                             callee.fpAccumulates)
                            if (!index.atomics.count(t))
                                serialized = false;
                    }
                    if (callee.fpAccumulates.empty() ||
                        !serialized) {
                        all = false;
                        break;
                    }
                    if (target.empty()) {
                        target = *callee.fpAccumulates.begin();
                        const auto vit =
                            callee.fpVia.find(target);
                        via = vit == callee.fpVia.end()
                                  ? "via " + name
                                  : "via " + name + " " +
                                        vit->second.substr(4);
                    }
                }
                if (!all || target.empty())
                    continue;
                emit(project, static_cast<int>(f), toks[i].offset,
                     "fp-determinism.locked-reduction",
                     "pool task calls '" + name +
                         "', which accumulates into shared FP '" +
                         target + "' (" + via +
                         ") under its own serialization — "
                         "race-free but order-unstable; the sum "
                         "depends on task scheduling and breaks "
                         "jobs-1-vs-N bitwise identity",
                     out);
            }
        }
    }
}

/** FP reductions over containers unordered in another TU. */
void
unorderedReductions(const Project &project,
                    std::vector<Diagnostic> &out)
{
    const SymbolIndex &index = project.index();
    for (const FunctionDef &fn : index.functions) {
        const TokenVec &toks = project.tokens(fn.fileIndex);

        // FP-typed locals of this body (the usual accumulators).
        std::set<std::string> fpLocals;
        for (std::size_t i = fn.bodyBegin; i + 1 < fn.bodyEnd; ++i)
            if (toks[i].kind == Token::Kind::Identifier &&
                cm::isFpTypeName(toks[i].text) &&
                toks[i + 1].kind == Token::Kind::Identifier)
                fpLocals.insert(std::string(toks[i + 1].text));

        for (std::size_t i = fn.bodyBegin; i + 1 < fn.bodyEnd;
             ++i) {
            if (toks[i].text != "for" || toks[i + 1].text != "(")
                continue;
            const std::size_t close =
                cm::skipBalanced(toks, i + 1, "(", ")");
            // Range-for: the container is the last identifier chain
            // after the ':'.
            std::size_t colon = 0;
            int depth = 0;
            for (std::size_t j = i + 2; j < close; ++j) {
                const std::string_view t = toks[j].text;
                if (t == "(" || t == "[" || t == "{" || t == "<")
                    ++depth;
                else if (t == ")" || t == "]" || t == "}" ||
                         t == ">")
                    --depth;
                else if (t == ":" && depth == 0) {
                    colon = j;
                    break;
                }
            }
            if (colon == 0)
                continue;
            std::size_t contTok = 0;
            for (std::size_t j = close; j-- > colon + 1;)
                if (toks[j].kind == Token::Kind::Identifier) {
                    contTok = j;
                    break;
                }
            if (contTok == 0)
                continue;
            const std::string cont(toks[contTok].text);
            const auto uit = index.unorderedDecl.find(cont);
            if (uit == index.unorderedDecl.end())
                continue;
            // Only when the unordered-ness is invisible here: the
            // declaration lives in another file (same-file cases
            // belong to the token-level determinism family).
            if (uit->second.fileIndex == fn.fileIndex)
                continue;
            // Loop body: any FP accumulation?
            std::size_t bodyOpen = close + 1;
            if (bodyOpen >= fn.bodyEnd)
                continue;
            // Braced body, or a single unbraced statement up to ';'.
            std::size_t bodyClose;
            if (toks[bodyOpen].text == "{") {
                bodyClose =
                    cm::skipBalanced(toks, bodyOpen, "{", "}");
            } else {
                bodyClose = bodyOpen;
                while (bodyClose < fn.bodyEnd &&
                       toks[bodyClose].text != ";")
                    ++bodyClose;
                --bodyOpen; // the loop below starts at bodyOpen + 1
            }
            for (std::size_t j = bodyOpen + 1; j + 1 < bodyClose;
                 ++j) {
                if (toks[j].kind != Token::Kind::Identifier ||
                    !cm::isAccumOp(toks[j + 1].text))
                    continue;
                const std::string acc(toks[j].text);
                if (!fpLocals.count(acc) &&
                    !isSharedFpName(index, acc))
                    continue;
                const SourceFile &declSrc =
                    project.sources()[static_cast<std::size_t>(
                        uit->second.fileIndex)];
                emit(project, fn.fileIndex, toks[j].offset,
                     "fp-determinism.unordered-reduction",
                     "FP accumulation into '" + acc +
                         "' iterating '" + cont +
                         "', an unordered container (declared at " +
                         declSrc.display() + ":" +
                         std::to_string(uit->second.line) +
                         ") — bucket order is "
                         "implementation-defined, so the sum is "
                         "not reproducible; iterate a sorted view "
                         "or switch to std::map",
                     out);
                break;
            }
            i = close;
        }
    }
}

} // namespace

void
checkFpDeterminism(const Project &project,
                   std::vector<Diagnostic> &out)
{
    lockedReductions(project, out);
    unorderedReductions(project, out);
}

} // namespace vsgpu::lint
