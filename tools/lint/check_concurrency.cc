/**
 * @file
 * Families 3 and 6: pool-concurrency (token-level) and pool-escape
 * (semantic).
 *
 * Lambdas submitted to exec::Pool::parallelFor or the runSweep /
 * runIndexSweep templates execute concurrently.  A capture that
 * writes shared state from inside such a lambda is a data race
 * unless one of the sanctioned patterns applies:
 *
 *   per-index slot    results[i] = ...; the subscript names a lambda
 *                     parameter (the task index) so each task owns a
 *                     disjoint element — the pattern runSweep itself
 *                     uses for its ordered reduction.
 *   lock in scope     a lock_guard / scoped_lock / unique_lock /
 *                     shared_lock declared in the lambda body.
 *   atomic target     the written variable is declared std::atomic.
 *
 * The token-level family (checkPoolConcurrency) is local to one file
 * and only looks at by-reference captures — fast, and the way the
 * bug is usually written.  The semantic family (checkPoolEscape)
 * runs over the whole project's symbol index and call graph and
 * additionally catches what the token scan provably cannot:
 *
 *   pool-escape.pointer-capture-write   a pointer captured BY VALUE
 *       whose pointee is written — the copy aliases the same object,
 *       so tasks still race (the token family bails out on by-value
 *       capture lists)
 *   pool-escape.global-write            a namespace-scope variable
 *       written directly or any bounded number of calls deep
 *       (globals need no capture at all)
 *   pool-escape.field-write             a member field written via
 *       the captured this (directly or through a same-class method)
 *   pool-escape.capture-write           a by-ref capture written in
 *       the task body (the semantic version of the token rule)
 *   pool-escape.param-alias-write       an escaped object passed to
 *       a callee that writes through that parameter
 *
 * Both families share the waiver: // vsgpu-lint: shared-ok(<reason>).
 *
 * This file also hosts the pool-happens-before family (v3), which
 * models the pool's synchronization protocol rather than its data
 * races: parallelFor/runSweep block until every task joins, so
 * writes before submission happen-before the tasks and reads after
 * the call happen-after them — neither is ever diagnosed.  What IS
 * diagnosed is what the protocol cannot order:
 *
 *   pool-happens-before.nested-submit   a task body that submits to
 *       the pool again, directly or any number of calls deep —
 *       exec::Pool is not reentrant, so a worker waiting on an inner
 *       batch deadlocks the outer one
 *   pool-happens-before.cross-task-read a task that writes its own
 *       per-index slot but reads a neighbouring slot (c[i - 1]) in
 *       the same phase — the neighbour is written concurrently, and
 *       no intra-batch ordering exists
 *
 * Waiver: // vsgpu-lint: hb-ok(<reason>).
 */

#include "concurrency_model.hh"
#include "dataflow.hh"
#include "semantic.hh"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>

namespace vsgpu::lint
{

namespace
{

using TokenVec = std::vector<Token>;
using cm::NameSet;
using cm::PoolLambda;
using cm::findPoolLambdas;
using cm::indexAliasNames;
using cm::indexedByParam;
using cm::isAssignOp;
using cm::isLockType;
using cm::isMutatingMember;
using cm::localNames;
using cm::paramNames;
using cm::skipBalanced;

/** Names declared std::atomic<...> anywhere in the file. */
NameSet
atomicNames(const TokenVec &tokens)
{
    NameSet atomics;
    for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
        if (tokens[i].text != "atomic" &&
            tokens[i].text != "atomic_flag")
            continue;
        std::size_t j = i + 1;
        if (tokens[j].text == "<") {
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
            atomics.insert(std::string(tokens[j].text));
    }
    return atomics;
}

/** Names declared const/constexpr anywhere in the file — a const
 *  object cannot be assigned, so a "write" finding against one is
 *  always a misparse (the FP class this set suppresses). */
NameSet
constDeclNames(const TokenVec &tokens)
{
    NameSet names;
    for (std::size_t i = 1; i + 1 < tokens.size(); ++i) {
        if (tokens[i].kind != Token::Kind::Identifier)
            continue;
        const std::string_view next = tokens[i + 1].text;
        if (next != "=" && next != ";" && next != "{")
            continue;
        const Token &prev = tokens[i - 1];
        const bool typeBefore =
            prev.kind == Token::Kind::Identifier || prev.text == ">" ||
            prev.text == "&" || prev.text == "*";
        if (!typeBefore)
            continue;
        // Statement window: back to the nearest ; { or }.
        bool hasConst = false;
        for (std::size_t k = i; k > 0; --k) {
            const std::string_view t = tokens[k - 1].text;
            if (t == ";" || t == "{" || t == "}")
                break;
            if (t == "const" || t == "constexpr")
                hasConst = true;
        }
        if (hasConst)
            names.insert(std::string(tokens[i].text));
    }
    return names;
}

struct LambdaScan
{
    const SourceFile &src;
    const TokenVec &tokens;
    const NameSet &atomics;
    const NameSet &consts;
    std::vector<Diagnostic> &out;
};

/** Analyze one by-reference lambda body submitted to the pool. */
void
analyzeLambda(LambdaScan &scan, const PoolLambda &lam)
{
    const TokenVec &tokens = scan.tokens;
    const std::size_t bodyBegin = lam.bodyBegin;
    const std::size_t bodyEnd = lam.bodyEnd;

    bool defaultRef = false;
    NameSet refCaptures;
    for (std::size_t i = lam.captBegin + 1; i < lam.captEnd; ++i) {
        if (tokens[i].text != "&")
            continue;
        if (i + 1 < lam.captEnd &&
            tokens[i + 1].kind == Token::Kind::Identifier)
            refCaptures.insert(std::string(tokens[i + 1].text));
        else
            defaultRef = true;
    }
    if (!defaultRef && refCaptures.empty())
        return; // by-value only: the semantic family's territory

    const NameSet taskParams =
        lam.paramOpen < lam.paramClose
            ? paramNames(tokens, lam.paramOpen, lam.paramClose)
            : NameSet{};
    const NameSet params =
        indexAliasNames(tokens, bodyBegin, bodyEnd, taskParams);
    const NameSet locals = localNames(tokens, bodyBegin, bodyEnd);

    bool lockHeld = false;
    for (std::size_t i = bodyBegin; i < bodyEnd; ++i)
        if (tokens[i].kind == Token::Kind::Identifier &&
            isLockType(tokens[i].text))
            lockHeld = true;
    if (lockHeld)
        return;

    auto isSharedName = [&](std::string_view name) {
        if (params.count(name) > 0 || locals.count(name) > 0 ||
            scan.atomics.count(name) > 0 ||
            scan.consts.count(name) > 0)
            return false;
        return defaultRef || refCaptures.count(name) > 0;
    };

    auto diagnose = [&](const Token &name, const char *what) {
        const int line = scan.src.lineOf(name.offset);
        if (scan.src.hasWaiver(line, "vsgpu-lint: shared-ok"))
            return;
        scan.out.push_back(
            {scan.src.display(), line, Check::PoolConcurrency,
             std::string(what) + " '" + std::string(name.text) +
                 "' captured by reference in a pool task without a "
                 "lock, atomic, or per-task-index slot — concurrent "
                 "tasks race; index by the task parameter, guard "
                 "with std::lock_guard, or make it atomic",
             ""});
    };

    for (std::size_t i = bodyBegin; i < bodyEnd; ++i) {
        if (tokens[i].kind != Token::Kind::Identifier)
            continue;
        const Token &root = tokens[i];
        // `auto [lo, hi] = f();` is a structured-binding
        // declaration, not a write through a subscript chain.
        if (root.text == "auto")
            continue;
        // Follow the postfix chain: x, x.y, x->y, x[...], x(...).
        std::size_t j = i + 1;
        while (j < bodyEnd) {
            if (tokens[j].text == "." || tokens[j].text == "->") {
                j += 2;
            } else if (tokens[j].text == "[") {
                j = skipBalanced(tokens, j, "[", "]") + 1;
            } else {
                break;
            }
        }
        if (j >= bodyEnd) {
            i = j;
            continue;
        }
        const bool chained = j != i + 1;
        if (isAssignOp(tokens[j].text)) {
            // Plain write through the chain root.
            const std::string_view prevText =
                i > bodyBegin ? tokens[i - 1].text
                              : std::string_view{};
            const bool declaration =
                !chained && i > bodyBegin &&
                ((tokens[i - 1].kind == Token::Kind::Identifier &&
                  !isAssignOp(prevText)) ||
                 prevText == ">" || prevText == "&" ||
                 prevText == "*");
            if (!declaration && isSharedName(root.text) &&
                !indexedByParam(tokens, i, j, params))
                diagnose(root, "write to");
            i = j;
            continue;
        }
        if (chained && tokens[j - 1].kind == Token::Kind::Identifier &&
            isMutatingMember(tokens[j - 1].text) &&
            tokens[j].text == "(") {
            if (isSharedName(root.text) &&
                !indexedByParam(tokens, i, j, params))
                diagnose(root, "mutating call on");
            i = j;
            continue;
        }
    }
}

} // namespace

void
checkPoolConcurrency(const SourceFile &src,
                     std::vector<Diagnostic> &out)
{
    const TokenVec tokens = tokenize(src.code());
    const NameSet atomics = atomicNames(tokens);
    const NameSet consts = constDeclNames(tokens);
    LambdaScan scan{src, tokens, atomics, consts, out};

    for (const PoolLambda &lam : findPoolLambdas(tokens))
        analyzeLambda(scan, lam);
}

// ====================================================================
// Family 6: pool-escape (semantic, project-wide)
// ====================================================================

namespace
{

/** Escape analysis of one pool task body. */
class EscapeAnalysis
{
  public:
    EscapeAnalysis(const Project &project, int fileIndex,
                   const PoolLambda &lam,
                   std::vector<Diagnostic> &out)
        : project_(project), index_(project.index()),
          fileIndex_(fileIndex),
          src_(project.sources()[static_cast<std::size_t>(
              fileIndex)]),
          tokens_(project.tokens(fileIndex)), lam_(lam), out_(out)
    {
    }

    void
    run()
    {
        parseCaptures();
        for (std::size_t i = lam_.bodyBegin; i < lam_.bodyEnd; ++i)
            if (tokens_[i].kind == Token::Kind::Identifier &&
                isLockType(tokens_[i].text))
                return; // serialized body
        params_ = lam_.paramOpen < lam_.paramClose
                      ? paramNames(tokens_, lam_.paramOpen,
                                   lam_.paramClose)
                      : NameSet{};
        indexNames_ = indexAliasNames(tokens_, lam_.bodyBegin,
                                      lam_.bodyEnd, params_);
        locals_ = localNames(tokens_, lam_.bodyBegin, lam_.bodyEnd);
        enclosingClass_ = findEnclosingClass();

        const df::Cfg cfg =
            df::buildCfg(tokens_, lam_.bodyBegin, lam_.bodyEnd);
        for (const df::Block &block : cfg.blocks)
            for (const df::Stmt &stmt : block.stmts) {
                if (stmt.declares)
                    locals_.insert(stmt.defs.begin(),
                                   stmt.defs.end());
            }
        for (const df::Block &block : cfg.blocks)
            for (const df::Stmt &stmt : block.stmts)
                visitStmt(stmt);
    }

  private:
    enum class Kind
    {
        None,
        Capture,
        PointerCapture,
        Global,
        Field,
    };

    void
    parseCaptures()
    {
        for (std::size_t i = lam_.captBegin + 1; i < lam_.captEnd;
             ++i) {
            const std::string_view t = tokens_[i].text;
            if (t == "&") {
                if (i + 1 < lam_.captEnd &&
                    tokens_[i + 1].kind == Token::Kind::Identifier) {
                    refCaptures_.insert(
                        std::string(tokens_[i + 1].text));
                    ++i;
                } else {
                    defaultRef_ = true;
                }
                continue;
            }
            if (t == "=") {
                defaultCopy_ = true;
                continue;
            }
            if (t == "this") {
                capturesThis_ = true;
                continue;
            }
            if (tokens_[i].kind == Token::Kind::Identifier) {
                valueCaptures_.insert(std::string(t));
                // Init capture [p = expr]: skip the initializer.
                if (i + 1 < lam_.captEnd &&
                    tokens_[i + 1].text == "=") {
                    int depth = 0;
                    for (++i; i < lam_.captEnd; ++i) {
                        const std::string_view s = tokens_[i].text;
                        if (s == "(" || s == "[" || s == "{")
                            ++depth;
                        else if (s == ")" || s == "]" || s == "}")
                            --depth;
                        else if (s == "," && depth == 0)
                            break;
                    }
                }
            }
        }
        if (defaultRef_ || defaultCopy_)
            capturesThis_ = true; // [&]/[=] capture this implicitly
    }

    std::string
    findEnclosingClass() const
    {
        std::string cls;
        std::size_t best = 0;
        for (const FunctionDef &fn : index_.functions) {
            if (fn.fileIndex != fileIndex_)
                continue;
            if (fn.bodyBegin <= lam_.captBegin &&
                lam_.captBegin < fn.bodyEnd &&
                fn.bodyBegin >= best) {
                best = fn.bodyBegin;
                cls = fn.className;
            }
        }
        return cls;
    }

    bool
    isEnclosingField(const std::string &name) const
    {
        if (enclosingClass_.empty())
            return false;
        const auto it = index_.classFields.find(enclosingClass_);
        return it != index_.classFields.end() &&
               it->second.count(name) > 0;
    }

    /** Classify a write to @p name (through = indirect write). */
    Kind
    classify(const std::string &name, bool through) const
    {
        if (name == "this")
            return capturesThis_ ? Kind::Field : Kind::None;
        if (params_.count(name) || locals_.count(name) ||
            index_.atomics.count(name) ||
            index_.constNames.count(name))
            return Kind::None;
        if (capturesThis_ && isEnclosingField(name))
            return Kind::Field;
        if (index_.globals.count(name))
            return Kind::Global;
        if (refCaptures_.count(name))
            return Kind::Capture;
        if ((valueCaptures_.count(name) || defaultCopy_) &&
            index_.pointerNames.count(name) && through)
            return Kind::PointerCapture;
        if (defaultRef_)
            return Kind::Capture;
        return Kind::None;
    }

    void
    diagnose(std::size_t offset, const std::string &id,
             std::string message)
    {
        const int line = src_.lineOf(offset);
        if (src_.hasWaiver(line, "vsgpu-lint: shared-ok"))
            return;
        const std::string key =
            id + ":" + std::to_string(line) + ":" + message;
        if (!seen_.insert(key).second)
            return;
        out_.push_back({src_.display(), line, Check::PoolEscape,
                        std::move(message), id});
    }

    void
    diagnoseWrite(Kind kind, const std::string &name,
                  std::size_t offset, const std::string &how)
    {
        switch (kind) {
          case Kind::None:
            return;
          case Kind::Capture:
            diagnose(offset, "pool-escape.capture-write",
                     "pool task " + how + " captured '" + name +
                         "' shared across concurrent tasks — index "
                         "by the task parameter, guard with a lock, "
                         "or make it atomic");
            return;
          case Kind::PointerCapture:
            diagnose(offset, "pool-escape.pointer-capture-write",
                     "pool task " + how + " the pointee of '" +
                         name +
                         "' captured by value — the copied pointer "
                         "aliases the same object, so concurrent "
                         "tasks still race on it");
            return;
          case Kind::Global:
            diagnose(offset, "pool-escape.global-write",
                     "pool task " + how + " global '" + name +
                         "' — globals are shared across every "
                         "concurrent task without any capture");
            return;
          case Kind::Field:
            diagnose(offset, "pool-escape.field-write",
                     "pool task " + how + " member field '" + name +
                         "' through the captured this — fields are "
                         "shared across concurrent tasks");
            return;
        }
    }

    void
    visitStmt(const df::Stmt &stmt)
    {
        // Per-index slot: a subscript naming a task parameter (or
        // an integer local derived from one) on the WRITTEN lvalue
        // suppresses the write (the runSweep pattern).  Only the
        // left-hand side counts — `*ptr += samples[i]` still races
        // on the pointee even though the read is indexed.
        std::size_t lhsEnd = stmt.tokEnd;
        {
            int depth = 0;
            for (std::size_t i = stmt.tokBegin; i < stmt.tokEnd;
                 ++i) {
                const std::string_view t = tokens_[i].text;
                if (t == "(" || t == "[" || t == "{")
                    ++depth;
                else if (t == ")" || t == "]" || t == "}")
                    --depth;
                else if (depth == 0 && isAssignOp(t)) {
                    lhsEnd = i;
                    break;
                }
            }
        }
        const bool perIndex = indexedByParam(
            tokens_, stmt.tokBegin, lhsEnd, indexNames_);

        if (!stmt.declares && !perIndex)
            for (const std::string &def : stmt.defs)
                diagnoseWrite(classify(def, stmt.defThrough), def,
                              stmt.offset, "writes");

        for (const df::CallRef &call : stmt.calls) {
            // For a mutating member call the "lvalue" is the
            // receiver chain, which ends at the callee name.
            std::size_t callTok = stmt.tokEnd;
            for (std::size_t i = stmt.tokBegin; i < stmt.tokEnd;
                 ++i)
                if (tokens_[i].offset == call.nameOffset) {
                    callTok = i;
                    break;
                }
            const bool perIndexCall = indexedByParam(
                tokens_, stmt.tokBegin, callTok, indexNames_);
            if (!call.receiver.empty() &&
                isMutatingMember(call.callee) && !perIndexCall) {
                diagnoseWrite(classify(call.receiver, true),
                              call.receiver, call.nameOffset,
                              "mutates");
                continue;
            }
            if (locals_.count(call.callee) ||
                params_.count(call.callee))
                continue;
            visitCall(call);
        }
    }

    /** Transitive effects through the call graph. */
    void
    visitCall(const df::CallRef &call)
    {
        for (int id : project_.lookup(call.callee)) {
            const FunctionDef &callee =
                index_.functions[static_cast<std::size_t>(id)];
            if (callee.takesLock)
                continue;
            for (const std::string &g : callee.writesGlobals) {
                if (index_.atomics.count(g))
                    continue;
                const auto via = callee.effectVia.find(g);
                diagnose(call.nameOffset,
                         "pool-escape.global-write",
                         "pool task calls '" + callee.name +
                             "' which writes shared global '" + g +
                             "'" +
                             (via == callee.effectVia.end()
                                  ? std::string{}
                                  : " (" + via->second + ")") +
                             " — concurrent tasks race on it");
            }
            for (int p : callee.writesParams) {
                if (static_cast<std::size_t>(p) >=
                    call.args.size())
                    continue;
                for (const std::string &root :
                     call.args[static_cast<std::size_t>(p)]) {
                    if (classify(root, true) == Kind::None)
                        continue;
                    diagnose(
                        call.nameOffset,
                        "pool-escape.param-alias-write",
                        "pool task passes shared '" + root +
                            "' to '" + callee.name +
                            "', which writes through that "
                            "parameter — concurrent tasks race on "
                            "the shared object");
                }
            }
            if (!call.receiver.empty() && callee.writesFields &&
                !callee.className.empty() &&
                classify(call.receiver, true) != Kind::None) {
                diagnose(call.nameOffset,
                         "pool-escape.field-write",
                         "pool task calls '" + call.receiver + "." +
                             callee.name +
                             "()', which mutates the shared "
                             "object's fields — concurrent tasks "
                             "race on it");
            }
        }
    }

    const Project &project_;
    const SymbolIndex &index_;
    int fileIndex_;
    const SourceFile &src_;
    const TokenVec &tokens_;
    PoolLambda lam_;
    std::vector<Diagnostic> &out_;

    bool defaultRef_ = false;
    bool defaultCopy_ = false;
    bool capturesThis_ = false;
    NameSet refCaptures_;
    NameSet valueCaptures_;
    NameSet params_;
    NameSet indexNames_;
    NameSet locals_;
    std::string enclosingClass_;
    std::set<std::string> seen_;
};

} // namespace

void
checkPoolEscape(const Project &project, std::vector<Diagnostic> &out)
{
    for (std::size_t f = 0; f < project.sources().size(); ++f) {
        const TokenVec &tokens =
            project.tokens(static_cast<int>(f));
        for (const PoolLambda &lam : findPoolLambdas(tokens)) {
            EscapeAnalysis analysis(project, static_cast<int>(f),
                                    lam, out);
            analysis.run();
        }
    }
}

// ====================================================================
// Family: pool-happens-before (semantic, project-wide)
// ====================================================================

namespace
{

/**
 * "Submits to the pool" closure over the call graph, with the
 * strictest possible resolution: a function counts only when every
 * same-named candidate of one of its callees already counts.
 * Overload merging therefore cannot manufacture a nested-submit
 * finding — one non-submitting overload vetoes the whole name.
 */
struct SubmitClosure
{
    std::vector<char> reaches;
    std::vector<std::string> path; ///< "f -> g" provenance chain

    explicit SubmitClosure(const SymbolIndex &index)
    {
        const std::size_t n = index.functions.size();
        reaches.assign(n, 0);
        path.assign(n, {});
        for (std::size_t i = 0; i < n; ++i)
            reaches[i] = index.functions[i].submitsToPool ? 1 : 0;
        for (int round = 0; round < 8; ++round) {
            bool changed = false;
            for (std::size_t i = 0; i < n; ++i) {
                if (reaches[i])
                    continue;
                const FunctionDef &fn = index.functions[i];
                for (const std::string &callee : fn.calls) {
                    const auto it = index.byName.find(callee);
                    if (it == index.byName.end() ||
                        it->second.empty())
                        continue;
                    bool all = true;
                    int first = -1;
                    for (int id : it->second) {
                        if (static_cast<std::size_t>(id) == i ||
                            !reaches[static_cast<std::size_t>(id)]) {
                            all = false;
                            break;
                        }
                        if (first < 0)
                            first = id;
                    }
                    if (!all || first < 0)
                        continue;
                    reaches[i] = 1;
                    const std::string &sub =
                        path[static_cast<std::size_t>(first)];
                    path[i] = sub.empty() ? callee
                                          : callee + " -> " + sub;
                    changed = true;
                    break;
                }
            }
            if (!changed)
                break;
        }
    }
};

/** Analyze one pool task body for happens-before violations. */
void
analyzeHappensBefore(const Project &project, int fileIndex,
                     const PoolLambda &lam,
                     const SubmitClosure &closure,
                     std::vector<Diagnostic> &out)
{
    const SymbolIndex &index = project.index();
    const SourceFile &src =
        project.sources()[static_cast<std::size_t>(fileIndex)];
    const TokenVec &tokens = project.tokens(fileIndex);

    const NameSet taskParams =
        lam.paramOpen < lam.paramClose
            ? paramNames(tokens, lam.paramOpen, lam.paramClose)
            : NameSet{};
    const NameSet aliases = indexAliasNames(
        tokens, lam.bodyBegin, lam.bodyEnd, taskParams);
    const NameSet locals =
        localNames(tokens, lam.bodyBegin, lam.bodyEnd);

    auto diagnose = [&](std::size_t offset, const std::string &id,
                        std::string message) {
        const int line = src.lineOf(offset);
        if (src.hasWaiver(line, "vsgpu-lint: hb-ok"))
            return;
        out.push_back({src.display(), line,
                       Check::PoolHappensBefore, std::move(message),
                       id, cm::columnOf(src, offset)});
    };

    // --- nested-submit: direct tokens and strict call paths -------
    for (std::size_t i = lam.bodyBegin; i < lam.bodyEnd; ++i) {
        const Token &tok = tokens[i];
        if (tok.kind != Token::Kind::Identifier)
            continue;
        if (i + 1 >= lam.bodyEnd || tokens[i + 1].text != "(")
            continue;
        const std::string name(tok.text);
        if (cm::isPoolSubmitName(name)) {
            diagnose(tok.offset, "pool-happens-before.nested-submit",
                     "pool task submits '" + name +
                         "' to the pool from inside a task — "
                         "exec::Pool is not reentrant; a worker "
                         "blocking on the inner batch deadlocks the "
                         "outer one; hoist the inner submission out "
                         "of the task body");
            continue;
        }
        if (locals.count(name) || taskParams.count(name))
            continue;
        const auto it = index.byName.find(name);
        if (it == index.byName.end() || it->second.empty())
            continue;
        bool all = true;
        int first = -1;
        for (int id : it->second) {
            if (!closure.reaches[static_cast<std::size_t>(id)]) {
                all = false;
                break;
            }
            if (first < 0)
                first = id;
        }
        if (!all || first < 0)
            continue;
        const std::string &sub =
            closure.path[static_cast<std::size_t>(first)];
        diagnose(tok.offset, "pool-happens-before.nested-submit",
                 "pool task calls '" + name +
                     "', which submits to the pool" +
                     (sub.empty() ? std::string{}
                                  : " (via " + sub + ")") +
                     " — exec::Pool is not reentrant; the nested "
                     "batch deadlocks the outer one");
    }

    // --- cross-task-read: same-phase neighbour-slot access --------
    // First pass: container names written through a pure per-index
    // subscript (c[i] = ... / c[i] += ...).
    NameSet perIndexWritten;
    for (std::size_t i = lam.bodyBegin; i + 1 < lam.bodyEnd; ++i) {
        if (tokens[i].kind != Token::Kind::Identifier ||
            tokens[i + 1].text != "[")
            continue;
        const std::size_t close =
            skipBalanced(tokens, i + 1, "[", "]");
        if (close + 1 >= lam.bodyEnd ||
            !isAssignOp(tokens[close + 1].text))
            continue;
        bool pureIndex = close == i + 3 &&
                         tokens[i + 2].kind ==
                             Token::Kind::Identifier &&
                         aliases.count(tokens[i + 2].text) > 0;
        if (pureIndex && !locals.count(tokens[i].text))
            perIndexWritten.insert(std::string(tokens[i].text));
    }
    // Second pass: reads of those containers at an offset subscript
    // (c[i - 1], c[i + 1]) — the neighbour slot belongs to a
    // concurrently running task.  One finding per container is
    // enough: a stencil reads both neighbours on one line.
    NameSet reported;
    for (std::size_t i = lam.bodyBegin; i + 1 < lam.bodyEnd; ++i) {
        if (tokens[i].kind != Token::Kind::Identifier ||
            tokens[i + 1].text != "[")
            continue;
        const std::string base(tokens[i].text);
        const std::size_t close =
            skipBalanced(tokens, i + 1, "[", "]");
        if (!perIndexWritten.count(base) || reported.count(base)) {
            i = close;
            continue;
        }
        bool hasAlias = false;
        bool hasOffset = false;
        for (std::size_t j = i + 2; j < close; ++j) {
            if (tokens[j].kind == Token::Kind::Identifier &&
                aliases.count(tokens[j].text))
                hasAlias = true;
            if ((tokens[j].text == "+" || tokens[j].text == "-") &&
                j + 1 < close &&
                tokens[j + 1].kind == Token::Kind::Number)
                hasOffset = true;
        }
        if (hasAlias && hasOffset) {
            reported.insert(base);
            diagnose(
                tokens[i].offset,
                "pool-happens-before.cross-task-read",
                "pool task reads neighbour slot of '" + base +
                    "' that a concurrent task writes in the same "
                    "phase — no intra-batch ordering exists; split "
                    "into two pool phases (the join between them is "
                    "the happens-before edge) or double-buffer");
        }
        i = close;
    }
}

} // namespace

void
checkPoolHappensBefore(const Project &project,
                       std::vector<Diagnostic> &out)
{
    const SubmitClosure closure(project.index());
    for (std::size_t f = 0; f < project.sources().size(); ++f) {
        const TokenVec &tokens =
            project.tokens(static_cast<int>(f));
        for (const PoolLambda &lam : findPoolLambdas(tokens))
            analyzeHappensBefore(project, static_cast<int>(f), lam,
                                 closure, out);
    }
}

void
dedupeFamilyOverlap(std::vector<Diagnostic> &diags)
{
    // The token-level pool-concurrency family and the semantic pool
    // families intentionally overlap on the simple cases; when both
    // fire on the same line, the semantic finding (better message,
    // dotted id, provenance) wins and the token one is dropped.
    std::set<std::pair<std::string, int>> semanticAt;
    for (const Diagnostic &d : diags)
        if (d.check == Check::PoolEscape ||
            d.check == Check::PoolHappensBefore)
            semanticAt.insert({d.file, d.line});
    diags.erase(std::remove_if(
                    diags.begin(), diags.end(),
                    [&](const Diagnostic &d) {
                        return d.check == Check::PoolConcurrency &&
                               semanticAt.count({d.file, d.line}) >
                                   0;
                    }),
                diags.end());
}

} // namespace vsgpu::lint
