/**
 * @file
 * Cross-translation-unit semantic model for vsgpu_lint.
 *
 * Three layers, built once per invocation over every file named by
 * the compile database (plus headers):
 *
 *   SymbolIndex   function/method definitions with parsed parameter
 *                 lists and per-body side-effect summaries, mutable
 *                 namespace-scope globals, per-class member fields,
 *                 and project-wide const / atomic / pointer /
 *                 unordered-container name sets.
 *
 *   CallGraph     name-resolved call edges between indexed functions,
 *                 plus fixpoint effect propagation: a function that
 *                 calls a helper which writes a global (or writes
 *                 through a reference parameter the caller
 *                 forwarded) inherits that effect, so a task body's
 *                 writes are visible any bounded number of calls
 *                 deep.
 *
 *   Project       the façade the semantic check families consume:
 *                 sources, per-file token streams, the index, and
 *                 the call graph.
 *
 * The semantic families (pool-escape, unit-flow, determinism-taint,
 * pool-happens-before, fp-determinism) run project-wide over a
 * Project instead of file-by-file;
 * runProjectChecks() applies the same path scoping as the per-file
 * families.
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
    std::string type;      ///< last type identifier (Volts, double, …)
    bool byRef = false;    ///< declared with & (or && )
    bool isPointer = false;
    bool isConst = false;  ///< const-qualified (read-only view)
};

/** One function or method definition found in a source file. */
struct FunctionDef
{
    std::string name;      ///< unqualified name
    std::string className; ///< qualifying/enclosing class, "" if free
    int fileIndex = 0;     ///< into Project::sources()
    int line = 0;          ///< of the name token
    std::size_t bodyBegin = 0; ///< token index just past the '{'
    std::size_t bodyEnd = 0;   ///< token index of the closing '}'
    std::vector<ParamInfo> params;

    // --- side-effect summary (direct, then widened transitively by
    // --- the call graph's propagateEffects pass) -----------------
    std::set<std::string> writesGlobals; ///< indexed globals written
    bool writesFields = false; ///< writes a member field / via this
    std::set<int> writesParams; ///< ref/ptr params written through
    std::set<std::string> calls; ///< unqualified callee names
    bool takesLock = false; ///< body declares a lock guard

    /** Shared FP names ("g" / "Class::field") this function
     *  accumulates into (+=, -=, *=, /=, x = x + ...), directly or
     *  transitively.  Tracked separately from writesGlobals because
     *  a *serialized* FP accumulation is still order-dependent. */
    std::set<std::string> fpAccumulates;
    /** Call path provenance for a transitive FP accumulation. */
    std::map<std::string, std::string> fpVia;
    /** Body directly submits work to exec::Pool (parallelFor /
     *  runSweep / runIndexSweep).  The pool-happens-before family
     *  walks the call graph itself to find transitive submissions,
     *  requiring unambiguous name resolution at every hop. */
    bool submitsToPool = false;

    /** One call-site argument that forwards a caller parameter. */
    struct ArgFlow
    {
        int param = 0;      ///< caller parameter index forwarded
        std::string callee; ///< unqualified callee name
        int arg = 0;        ///< callee argument position
    };
    /** Caller-parameter forwardings (for writesParams propagation). */
    std::vector<ArgFlow> forwards;

    /** Representative call path for a transitive effect, for
     *  diagnostics ("via helperA -> helperB"). */
    std::map<std::string, std::string> effectVia;
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
    /** Class name -> member field names. */
    std::map<std::string, std::set<std::string>> classFields;
    /** Mutable namespace-scope variables (and class statics). */
    std::set<std::string> globals;
    /** Names declared std::atomic anywhere in the project. */
    std::set<std::string> atomics;
    /** Names declared const anywhere (read-only; never a race). */
    std::set<std::string> constNames;
    /** Names declared as raw pointers anywhere (aliasing capture). */
    std::set<std::string> pointerNames;
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

/** Call graph over SymbolIndex::functions. */
struct CallGraph
{
    /** Direct callees (function ids) per function id. */
    std::vector<std::vector<int>> callees;
};

/** Resolve call edges by name (overloads merged). */
CallGraph buildCallGraph(const SymbolIndex &index);

/**
 * Widen each function's side-effect summary with its callees':
 * callee global/field writes merge into the caller (with a via-path
 * for diagnostics); a callee writing through parameter k propagates
 * to the caller's own parameter when the caller forwards it.  Calls
 * into lock-taking callees do not propagate (their writes are
 * serialized).  Runs @p rounds fixpoint iterations — effects become
 * visible up to @p rounds calls deep.
 */
void propagateEffects(SymbolIndex &index, const CallGraph &graph,
                      int rounds = 4);

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
    const CallGraph &callGraph() const { return graph_; }

    /** Functions whose unqualified name is @p name (may be empty). */
    const std::vector<int> &lookup(const std::string &name) const;

  private:
    std::vector<SourceFile> sources_;
    std::vector<std::vector<Token>> tokens_;
    SymbolIndex index_;
    CallGraph graph_;
};

/**
 * Family 6: pool-escape — mutable state reachable from a task body
 * submitted to exec::Pool::parallelFor / runSweep / runIndexSweep
 * (captures, this, pointer captures, and writes any bounded number
 * of calls deep) written without a lock, atomic, or per-index slot.
 */
void checkPoolEscape(const Project &project,
                     std::vector<Diagnostic> &out);

/**
 * Family 7: unit-flow — unit tags propagated from Quantity::raw()
 * / ::value() sources and unit-suffixed names through assignments,
 * additive arithmetic, and call arguments; flags additive mixes and
 * tagged arguments flowing into parameters expecting another unit.
 */
void checkUnitFlow(const Project &project,
                   std::vector<Diagnostic> &out);

/**
 * Family 8: determinism-taint — wall-clock, RNG, address-as-value,
 * and unordered-iteration-order taint flowing (across function
 * boundaries) into stats registry writes, trace events, or summary /
 * golden JSON outputs.
 */
void checkDeterminismTaint(const Project &project,
                           std::vector<Diagnostic> &out);

/**
 * Family 9: pool-happens-before — models Pool submission/join as
 * happens-before edges (accesses sequenced before parallelFor /
 * runSweep and after their return are ordered and never flagged);
 * inside a task body it reports reaching a nested pool submission
 * (the pool is not reentrant, pool-happens-before.nested-submit)
 * and same-phase cross-task element access — a stencil subscript
 * [i +/- k] on a container the task also writes per-index
 * (.cross-task-read).
 */
void checkPoolHappensBefore(const Project &project,
                            std::vector<Diagnostic> &out);

/**
 * Family 10: fp-determinism — floating-point accumulations whose
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
 * Drop token-level pool-concurrency findings that a semantic pool
 * family also reports at the same file:line — one id wins (the
 * dotted semantic one, which carries provenance).
 */
void dedupeFamilyOverlap(std::vector<Diagnostic> &diags);

/**
 * Run the semantic families named in @p checks over @p project,
 * applying checkAppliesTo() scoping per diagnostic file unless
 * @p ignoreScope (explicit file arguments / fixtures).
 */
void runProjectChecks(const Project &project,
                      const std::vector<Check> &checks,
                      bool ignoreScope,
                      std::vector<Diagnostic> &out);

/** Serialize the symbol index as JSON (CI cache / debugging). */
void dumpIndexJson(const Project &project, std::ostream &os);

} // namespace vsgpu::lint

#endif // VSGPU_TOOLS_LINT_SEMANTIC_HH
