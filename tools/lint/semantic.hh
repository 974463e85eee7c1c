/**
 * @file
 * Cross-translation-unit semantic model for vsgpu_lint.
 *
 * Two layers, built once per invocation over every file named by
 * the compile database (plus headers):
 *
 *   SymbolIndex   function/method definitions with parsed parameter
 *                 lists, callee names, lock-taking and shared-FP
 *                 accumulation summaries, and project-wide atomic /
 *                 FP / unordered-container name sets.  Fixpoint
 *                 propagation over the call names widens each
 *                 function's FP accumulations with its callees', so
 *                 they are visible any bounded number of calls deep.
 *
 *   Project       the façade the semantic check families consume:
 *                 sources, per-file token streams, and the index.
 *
 * The semantic families (unit-flow, determinism-taint,
 * fp-determinism) run project-wide over a Project instead of
 * file-by-file; runProjectChecks() applies the same path scoping as
 * the per-file families.
 */

#ifndef VSGPU_TOOLS_LINT_SEMANTIC_HH
#define VSGPU_TOOLS_LINT_SEMANTIC_HH

#include "lint.hh"

#include <map>
#include <set>
#include <string>
#include <vector>

namespace vsgpu::lint
{

/** One function parameter as parsed from the definition. */
struct ParamInfo
{
    std::string name;
    std::string type; ///< last type identifier (Volts, double, …)
};

/** One function or method definition found in a source file. */
struct FunctionDef
{
    std::string name;      ///< unqualified name
    std::string className; ///< qualifying/enclosing class, "" if free
    int fileIndex = 0;     ///< into Project::sources()
    std::size_t bodyBegin = 0; ///< token index just past the '{'
    std::size_t bodyEnd = 0;   ///< token index of the closing '}'
    std::vector<ParamInfo> params;

    std::set<std::string> calls; ///< unqualified callee names
    bool takesLock = false; ///< body declares a lock guard

    /** Shared FP names ("g" / "Class::field") this function
     *  accumulates into (+=, -=, *=, /=, x = x + ...), directly or
     *  transitively.  A *serialized* FP accumulation is still
     *  order-dependent, so lock-taking callees propagate too. */
    std::set<std::string> fpAccumulates;
    /** Call path provenance for a transitive FP accumulation, for
     *  diagnostics ("via helperA helperB"). */
    std::map<std::string, std::string> fpVia;
};

/** Declaration site of an indexed name (for cross-TU provenance). */
struct DeclSite
{
    int fileIndex = -1;
    int line = 0;
};

/** Project-wide symbol index. */
struct SymbolIndex
{
    std::vector<FunctionDef> functions;
    /** Unqualified name -> function ids (overloads merged). */
    std::map<std::string, std::vector<int>> byName;
    /** Names declared std::atomic anywhere in the project. */
    std::set<std::string> atomics;
    /** Per-file names of unordered-container variables. */
    std::map<int, std::set<std::string>> unorderedVars;

    /** FP-typed shared names: globals by name, fields as
     *  "Class::field" (double/float/Quantity aliases). */
    std::set<std::string> fpNames;
    /** First declaration site of each unordered-container name. */
    std::map<std::string, DeclSite> unorderedDecl;
};

/**
 * Parse every source into the index.  @p tokens must hold the
 * tokenization of each file's scrubbed code, parallel to @p sources.
 */
SymbolIndex buildSymbolIndex(
    const std::vector<SourceFile> &sources,
    const std::vector<std::vector<Token>> &tokens);

/**
 * Widen each function's FP accumulations with its callees' (with a
 * via-path for diagnostics).  Calls resolve by name, and a callee
 * name contributes an accumulation only when every function of that
 * name has it, so overload merging only ever suppresses.  Runs
 * @p rounds fixpoint iterations — accumulations become visible up to
 * @p rounds calls deep.
 */
void propagateEffects(SymbolIndex &index, int rounds = 4);

/** Everything the semantic families need, built once. */
class Project
{
  public:
    explicit Project(std::vector<SourceFile> sources);

    const std::vector<SourceFile> &sources() const
    {
        return sources_;
    }
    const std::vector<Token> &tokens(int fileIndex) const
    {
        return tokens_[static_cast<std::size_t>(fileIndex)];
    }
    const SymbolIndex &index() const { return index_; }

    /** Functions whose unqualified name is @p name (may be empty). */
    const std::vector<int> &lookup(const std::string &name) const;

  private:
    std::vector<SourceFile> sources_;
    std::vector<std::vector<Token>> tokens_;
    SymbolIndex index_;
};

/**
 * Family 5: unit-flow — unit tags propagated from Quantity::raw()
 * / ::value() sources and unit-suffixed names through assignments,
 * additive arithmetic, and call arguments; flags additive mixes and
 * tagged arguments flowing into parameters expecting another unit.
 */
void checkUnitFlow(const Project &project,
                   std::vector<Diagnostic> &out);

/**
 * Family 6: determinism-taint — wall-clock, RNG, address-as-value,
 * and unordered-iteration-order taint flowing (across function
 * boundaries) into stats registry writes, trace events, or summary /
 * golden JSON outputs.
 */
void checkDeterminismTaint(const Project &project,
                           std::vector<Diagnostic> &out);

/**
 * Family 7: fp-determinism — floating-point accumulations whose
 * result depends on task/thread scheduling order even when properly
 * serialized (a lock or atomic makes the sum race-free but not
 * order-stable: fp-determinism.locked-reduction), and FP reductions
 * over containers whose unordered-ness is declared in another TU or
 * behind a parameter type (.unordered-reduction).  Both break the
 * jobs-1-vs-N bitwise-identity invariant.
 */
void checkFpDeterminism(const Project &project,
                        std::vector<Diagnostic> &out);

/**
 * Run the semantic families named in @p checks over @p project,
 * applying checkAppliesTo() scoping per diagnostic file unless
 * @p ignoreScope (explicit file arguments / fixtures).
 */
void runProjectChecks(const Project &project,
                      const std::vector<Check> &checks,
                      bool ignoreScope,
                      std::vector<Diagnostic> &out);

} // namespace vsgpu::lint

#endif // VSGPU_TOOLS_LINT_SEMANTIC_HH
