/**
 * @file
 * Shared concurrency model for vsgpu_lint's pool families.
 *
 * Four check families (pool-concurrency, pool-escape,
 * pool-happens-before, fp-determinism) reason about lambdas submitted
 * to exec::Pool, and fp-determinism also asks whether a token lies
 * inside a lock scope.  This header is the single home of both models
 * so the families agree on what a pool task and a lock scope are:
 *
 *   PoolLambda / findPoolLambdas   every lambda in argument position
 *       of parallelFor / runSweep / runIndexSweep, with its capture
 *       list, parameter list, and body token ranges.
 *
 *   LockScope / lockScopes         every RAII guard declaration
 *       (lock_guard / scoped_lock / unique_lock / shared_lock) and
 *       manual mu.lock() in a token range, with the raw mutex
 *       expressions it covers and the token interval the lock is
 *       held over (guard scopes end at the enclosing brace or at an
 *       explicit guard.unlock()).
 *
 * The happens-before model the pool families share: parallelFor and
 * the runSweep templates BLOCK until every task joins, so writes
 * sequenced before the submission and reads sequenced after the call
 * return are ordered with the tasks and are never flagged — only
 * accesses *inside* a task body race with sibling tasks of the same
 * phase.
 */

#ifndef VSGPU_TOOLS_LINT_CONCURRENCY_MODEL_HH
#define VSGPU_TOOLS_LINT_CONCURRENCY_MODEL_HH

#include "lint.hh"

#include <set>
#include <string>
#include <vector>

namespace vsgpu::lint::cm
{

using TokenVec = std::vector<Token>;
using NameSet = std::set<std::string, std::less<>>;

/** Index of the token closing the group opened at @p open. */
std::size_t skipBalanced(const TokenVec &tokens, std::size_t open,
                         std::string_view openText,
                         std::string_view closeText);

/** RAII lock guard type names (std:: or unqualified). */
bool isLockType(std::string_view name);

/** Container member calls that mutate the receiver. */
bool isMutatingMember(std::string_view name);

/** Assignment and compound-assignment operators. */
bool isAssignOp(std::string_view text);

/** Compound FP-accumulation operators (+=, -=, *=, /=). */
bool isAccumOp(std::string_view text);

/** Floating-point types: the primitives and every Quantity alias
 *  (a Quantity wraps a double, so accumulating one is an FP sum). */
bool isFpTypeName(std::string_view name);

/** One lambda found in argument position of a pool submission. */
struct PoolLambda
{
    std::size_t captBegin = 0;  ///< '[' of the capture list
    std::size_t captEnd = 0;    ///< matching ']'
    std::size_t paramOpen = 0;  ///< '(' of the parameter list (or 0)
    std::size_t paramClose = 0; ///< matching ')' (or 0)
    std::size_t bodyBegin = 0;  ///< token just past the body '{'
    std::size_t bodyEnd = 0;    ///< token index of the body '}'
};

/** Find every lambda passed to parallelFor/runSweep/runIndexSweep. */
std::vector<PoolLambda> findPoolLambdas(const TokenVec &tokens);

/** True when @p name is a pool submission entry point. */
bool isPoolSubmitName(std::string_view name);

/** Parameter names of a lambda: last identifier per parameter. */
NameSet paramNames(const TokenVec &tokens, std::size_t openParen,
                   std::size_t closeParen);

/** Locally declared names of a body range (approximate; a false
 *  "local" only suppresses findings, never invents one). */
NameSet localNames(const TokenVec &tokens, std::size_t begin,
                   std::size_t end);

/** Task parameters plus integer locals derived from them. */
NameSet indexAliasNames(const TokenVec &tokens,
                        std::size_t bodyBegin, std::size_t bodyEnd,
                        const NameSet &params);

/** Does any [subscript] in [chainBegin, writeOp) name a param? */
bool indexedByParam(const TokenVec &tokens, std::size_t chainBegin,
                    std::size_t writeOp, const NameSet &params);

/** One acquired-lock interval inside a function or lambda body. */
struct LockScope
{
    std::size_t begin = 0; ///< first token index the lock covers
    std::size_t end = 0;   ///< one past the last covered token
    /**
     * Raw mutex expressions as written: "mu" or the last two chain
     * components "queue.mutex".  scoped_lock may hold several; a
     * guard naming none (default-constructed) is no scope at all.
     */
    std::vector<std::string> mutexes;
};

/**
 * Every lock scope in [begin, end).  A guard's scope runs from its
 * declaration to the end of the enclosing brace block, truncated at
 * an explicit guard.unlock(); a manual mu.lock() runs to the
 * matching mu.unlock() or the enclosing brace end.
 */
std::vector<LockScope> lockScopes(const TokenVec &tokens,
                                  std::size_t begin,
                                  std::size_t end);

/** True when any lock scope covers token index @p tok. */
bool underAnyLock(const std::vector<LockScope> &scopes,
                  std::size_t tok);

/** 1-based column of a byte offset (for Diagnostic::column). */
int columnOf(const SourceFile &src, std::size_t offset);

} // namespace vsgpu::lint::cm

#endif // VSGPU_TOOLS_LINT_CONCURRENCY_MODEL_HH
