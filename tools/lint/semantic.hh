/**
 * @file
 * Cross-translation-unit semantic model for vsgpu_lint.
 *
 * Two layers, built once per invocation over every file named by
 * the compile database (plus headers):
 *
 *   SymbolIndex   function/method definitions with their enclosing
 *                 class and parsed parameter lists, looked up by
 *                 unqualified name.
 *
 *   Project       the façade the semantic family consumes: sources,
 *                 per-file token streams, and the index.
 *
 * The semantic family (unit-flow) runs project-wide over a Project
 * instead of file-by-file; runProjectChecks() applies the same path
 * scoping as the per-file families.
 */

#ifndef VSGPU_TOOLS_LINT_SEMANTIC_HH
#define VSGPU_TOOLS_LINT_SEMANTIC_HH

#include "lint.hh"

#include <map>
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
    std::string name;          ///< unqualified name
    int fileIndex = 0;         ///< into Project::sources()
    std::size_t bodyBegin = 0; ///< token index just past the '{'
    std::size_t bodyEnd = 0;   ///< token index of the closing '}'
    std::vector<ParamInfo> params;
};

/** Project-wide symbol index. */
struct SymbolIndex
{
    std::vector<FunctionDef> functions;
    /** Unqualified name -> function ids (overloads merged). */
    std::map<std::string, std::vector<int>> byName;
};

/**
 * Parse every source into the index.  @p tokens must hold the
 * tokenization of each file's scrubbed code, parallel to @p sources.
 */
SymbolIndex buildSymbolIndex(
    const std::vector<SourceFile> &sources,
    const std::vector<std::vector<Token>> &tokens);

/** Everything the semantic family needs, built once. */
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
 * Run unit-flow over @p project when @p checks names it, applying checkAppliesTo() scoping per diagnostic file unless
 * @p ignoreScope (explicit file arguments / fixtures).
 */
void runProjectChecks(const Project &project,
                      const std::vector<Check> &checks,
                      bool ignoreScope,
                      std::vector<Diagnostic> &out);

} // namespace vsgpu::lint

#endif // VSGPU_TOOLS_LINT_SEMANTIC_HH
