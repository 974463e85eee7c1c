/**
 * @file
 * Intraprocedural dataflow core for vsgpu_lint's unit-flow family.
 *
 * A function body is lowered from the token stream into a simplified
 * statement IR: each statement records the variable it defines (if
 * any), the variable roots it uses, and the calls it makes, plus the
 * token range it covers so a check family can re-inspect expression
 * structure (additive operands, subscripts) when it needs more than
 * def/use granularity.  Statements are grouped into basic blocks
 * forming a CFG over if/else, loops, and switches.
 *
 * One solver runs over the CFG: solveTaint, a generic forward tag
 * propagation.  A caller-supplied transfer function computes the tag
 * set a statement's definitions acquire from the incoming
 * environment (writes through a pointer or member chain add to the
 * target's tags instead of replacing them), the engine iterates
 * block entry environments to a fixpoint (set-union join), and a
 * final in-order visit pass lets the family emit diagnostics against
 * the converged environments.  unit-flow is its instance.
 *
 * The lowering is deliberately approximate (it is built on the same
 * dependency-free tokenizer as the rest of vsgpu_lint, not a C++
 * frontend); the solver itself is exact over the IR it is given,
 * which is what tests/lint/test_dataflow.cc pins down table-driven.
 */

#ifndef VSGPU_TOOLS_LINT_DATAFLOW_HH
#define VSGPU_TOOLS_LINT_DATAFLOW_HH

#include "lint.hh"

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace vsgpu::lint::df
{

/** One call made by a statement. */
struct CallRef
{
    std::string callee; ///< unqualified callee name
    /**
     * Root identifiers of each top-level argument (an argument like
     * "a + b.c" contributes {a, b}).
     */
    std::vector<std::vector<std::string>> args;
    std::size_t nameOffset = 0; ///< byte offset of the callee name
};

/** One simplified statement. */
struct Stmt
{
    /** Variable roots this statement defines (usually one). */
    std::vector<std::string> defs;
    bool declares = false;   ///< defs are fresh local declarations
    bool defThrough = false; ///< write via ->/./[]/deref (may-def)
    std::string declType;    ///< last type identifier of a declaration
    std::vector<std::string> uses; ///< identifier roots read
    std::vector<CallRef> calls;
    bool isReturn = false;
    std::size_t tokBegin = 0; ///< token index range in the file's
    std::size_t tokEnd = 0;   ///< token vector (end exclusive)
    std::size_t offset = 0;   ///< byte offset of the first token
};

struct Block
{
    std::vector<Stmt> stmts;
    std::vector<int> succs;
};

/** Control-flow graph; block 0 is the entry. */
struct Cfg
{
    std::vector<Block> blocks;
};

/**
 * Lower the token range [begin, end) — a function or lambda body,
 * braces excluded — into a CFG.
 */
Cfg buildCfg(const std::vector<Token> &tokens, std::size_t begin,
             std::size_t end);

/** Tag sets used by the taint instantiation of the solver. */
using TagSet = std::set<std::string>;
using TaintEnv = std::map<std::string, TagSet>;

/**
 * Generic forward taint propagation.
 *
 * @param transfer  tags acquired by @p stmt's defs given the incoming
 *                  environment (sources seed here; pure moves return
 *                  the union of used tags).
 * @param visit     called once per statement, in block order, with
 *                  the converged environment before the statement —
 *                  the place to emit diagnostics.
 */
void solveTaint(
    const Cfg &cfg,
    const std::function<TagSet(const Stmt &, const TaintEnv &)>
        &transfer,
    const std::function<void(const Stmt &, const TaintEnv &)>
        &visit);

} // namespace vsgpu::lint::df

#endif // VSGPU_TOOLS_LINT_DATAFLOW_HH
