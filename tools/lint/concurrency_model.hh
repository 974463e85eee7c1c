/**
 * @file
 * Pool-task and lock-scope model for vsgpu_lint's fp-determinism
 * family, which asks whether an FP accumulation inside a task
 * submitted to exec::Pool is serialized by a lock:
 *
 *   PoolLambda / findPoolLambdas   every lambda in argument position
 *       of parallelFor / runSweep / runIndexSweep, with its capture
 *       list, parameter list, and body token ranges.
 *
 *   LockScope / lockScopes         every RAII guard declaration
 *       (lock_guard / scoped_lock / unique_lock / shared_lock) naming
 *       a mutex, and every manual mu.lock(), in a token range, with
 *       the token interval the lock is held over (guard scopes end
 *       at the enclosing brace or at an explicit guard.unlock()).
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
};

/**
 * Every lock scope in [begin, end).  A guard's scope runs from its
 * declaration to the end of the enclosing brace block, truncated at
 * an explicit guard.unlock(); a guard naming no mutex (default-
 * constructed, or only lock tags) is no scope.  A manual mu.lock()
 * runs to the matching mu.unlock() or the enclosing brace end.
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
