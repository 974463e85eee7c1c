/**
 * @file
 * Families 5 and 7: raw-escape (token-level) and unit-flow
 * (semantic).
 *
 * Quantity::raw() is the deliberate escape hatch out of the
 * dimensional type system (src/common/quantity.hh).  Inside the
 * numeric core it is legitimate — matrix stamps, AC solves, and the
 * verifier all assemble raw doubles by design — but in modelling and
 * simulation code every .raw() is a point where a unit error can
 * re-enter silently.
 *
 * raw-escape flags each .raw() / ->raw() call outside the
 * numeric-core whitelist (see checkAppliesTo) so each new escape is
 * either moved behind a typed interface or explicitly waived with
 * // vsgpu-lint: raw-escape-ok(<reason>).
 *
 * unit-flow goes further: once a value has escaped to a raw double,
 * the suffix-matching unit-safety family can only see names that
 * carry a unit suffix.  unit-flow instead propagates unit tags
 * through the dataflow core — a tag is seeded by `q.raw()` on a
 * variable whose declared type is a Quantity alias (Volts, Amps, …)
 * or by a unit-suffixed double name, and flows through assignments
 * and arithmetic.  Two rules fire on the converged tags:
 *
 *   unit-flow.mixed-units    an additive (+/-) expression whose
 *       operands carry different unit tags: volts + amps is a bug no
 *       matter what the intermediate variables are called.
 *       Multiplicative combinations (volts.raw() * amps.raw()) form
 *       a derived dimension and clear the tag instead.
 *   unit-flow.arg-mismatch   a tagged value passed to a (possibly
 *       cross-TU) function parameter whose Quantity type or unit
 *       suffix expects a different unit.
 *
 * Waiver: // vsgpu-lint: unit-flow-ok(<reason>).
 */

#include "dataflow.hh"
#include "semantic.hh"

#include <array>
#include <cctype>
#include <map>
#include <string>

namespace vsgpu::lint
{

void
checkRawEscape(const SourceFile &src, std::vector<Diagnostic> &out)
{
    const std::vector<Token> tokens = tokenize(src.code());

    for (std::size_t i = 0; i + 2 < tokens.size(); ++i) {
        // Member call shape: '.' or '->', identifier 'raw', '(', ')'.
        // The receiver expression is irrelevant: only Quantity has a
        // member named raw() in this codebase, so the shape is the
        // signature.
        if (tokens[i].text != "." && tokens[i].text != "->")
            continue;
        if (tokens[i + 1].text != "raw" ||
            tokens[i + 1].kind != Token::Kind::Identifier)
            continue;
        if (tokens[i + 2].text != "(")
            continue;
        if (i + 3 >= tokens.size() || tokens[i + 3].text != ")")
            continue;
        const int line = src.lineOf(tokens[i + 1].offset);
        if (src.hasWaiver(line, "vsgpu-lint: raw-escape-ok"))
            continue;
        out.push_back(
            {src.display(), line, Check::RawEscape,
             "Quantity::raw() outside the numeric core leaks a "
             "unit-typed value as a bare double — keep the Quantity, "
             "move the conversion into src/circuit or src/verify, or "
             "waive with // vsgpu-lint: raw-escape-ok(<reason>)",
             ""});
    }
}

// ====================================================================
// Family 7: unit-flow (semantic, project-wide)
// ====================================================================

namespace
{

using TokenVec = std::vector<Token>;

/** Quantity alias names (src/common/quantity.hh); the alias itself
 *  is the unit tag. */
bool
isQuantityAlias(std::string_view name)
{
    static constexpr std::array aliases = {
        "Seconds", "Hertz",   "Amps",    "Coulombs", "Volts",
        "Ohms",    "Siemens", "Farads",  "Henries",  "Watts",
        "Joules",  "Area",    "FaradsPerArea", "WattsPerVolt",
    };
    for (std::string_view a : aliases)
        if (name == a)
            return true;
    return false;
}

/** Unit tag implied by a raw double's name suffix ("" if none). */
std::string
suffixTag(std::string_view name)
{
    static const std::pair<std::string_view, std::string_view>
        suffixes[] = {
            {"volts", "Volts"},     {"volt", "Volts"},
            {"mv", "Volts"},        {"amps", "Amps"},
            {"amp", "Amps"},        {"ma", "Amps"},
            {"ohms", "Ohms"},       {"ohm", "Ohms"},
            {"siemens", "Siemens"}, {"farads", "Farads"},
            {"farad", "Farads"},    {"nf", "Farads"},
            {"uf", "Farads"},       {"pf", "Farads"},
            {"henries", "Henries"}, {"henry", "Henries"},
            {"nh", "Henries"},      {"ph", "Henries"},
            {"watts", "Watts"},     {"watt", "Watts"},
            {"mw", "Watts"},        {"joules", "Joules"},
            {"joule", "Joules"},    {"nj", "Joules"},
            {"hertz", "Hertz"},     {"mhz", "Hertz"},
            {"ghz", "Hertz"},       {"khz", "Hertz"},
            {"hz", "Hertz"},        {"seconds", "Seconds"},
            {"second", "Seconds"},  {"secs", "Seconds"},
            {"sec", "Seconds"},     {"us", "Seconds"},
            {"ns", "Seconds"},      {"ps", "Seconds"},
            {"mm2", "Area"},        {"m2", "Area"},
        };
    std::string lower;
    lower.reserve(name.size());
    for (char c : name)
        lower.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(c))));
    for (const auto &[suffix, tag] : suffixes) {
        if (lower.size() < suffix.size() ||
            lower.compare(lower.size() - suffix.size(),
                          suffix.size(), suffix) != 0)
            continue;
        const std::size_t at = name.size() - suffix.size();
        if (at == 0)
            return std::string(tag);
        // Require a word boundary (camelCase hump, '_', or digit)
        // so "analysis" does not end in "sis"-like accidents.
        const char before = name[at - 1];
        const char first = name[at];
        if (std::isupper(static_cast<unsigned char>(first)) ||
            before == '_' ||
            std::isdigit(static_cast<unsigned char>(before)))
            return std::string(tag);
    }
    return {};
}

/** Per-function unit-flow pass. */
class UnitFlow
{
  public:
    UnitFlow(const Project &project, const FunctionDef &fn,
             std::vector<Diagnostic> &out)
        : project_(project), fn_(fn),
          src_(project.sources()[static_cast<std::size_t>(
              fn.fileIndex)]),
          tokens_(project.tokens(fn.fileIndex)), out_(out)
    {
    }

    void
    run()
    {
        // Declared Quantity types: parameters and local declarations.
        for (const ParamInfo &p : fn_.params)
            if (!p.name.empty() && isQuantityAlias(p.type))
                quantType_[p.name] = p.type;

        const df::Cfg cfg =
            df::buildCfg(tokens_, fn_.bodyBegin, fn_.bodyEnd);
        for (const df::Block &block : cfg.blocks)
            for (const df::Stmt &stmt : block.stmts)
                if (stmt.declares && !stmt.defs.empty() &&
                    isQuantityAlias(stmt.declType))
                    quantType_[stmt.defs.front()] = stmt.declType;

        df::solveTaint(
            cfg,
            [&](const df::Stmt &stmt, const df::TaintEnv &env) {
                return transfer(stmt, env);
            },
            [&](const df::Stmt &stmt, const df::TaintEnv &env) {
                visit(stmt, env);
            });
    }

  private:
    /** Tags of one variable: environment first, then name suffix. */
    df::TagSet
    varTags(const std::string &name, const df::TaintEnv &env) const
    {
        const auto it = env.find(name);
        if (it != env.end())
            return it->second;
        const std::string tag = suffixTag(name);
        if (!tag.empty() && !quantType_.count(name))
            return {tag};
        return {};
    }

    /**
     * Evaluate the unit tags of expression tokens [s, e): split at
     * top-level +/- into additive operands, tag each operand
     * (raw()/value() sources, variable tags), clear multiplicative
     * combinations of >= 2 distinct tags (derived dimension), and
     * report whether distinct tags meet additively.
     */
    df::TagSet
    evalTags(std::size_t s, std::size_t e, const df::TaintEnv &env,
             bool &mixed) const
    {
        mixed = false;
        df::TagSet result;
        df::TagSet firstSeen;
        std::size_t opBegin = s;
        int depth = 0;
        for (std::size_t i = s; i <= e; ++i) {
            const std::string_view t =
                i < e ? tokens_[i].text : std::string_view{};
            if (t == "(" || t == "[" || t == "{")
                ++depth;
            else if (t == ")" || t == "]" || t == "}")
                --depth;
            const bool addOp =
                depth == 0 && (t == "+" || t == "-") &&
                i > opBegin; // leading sign is unary
            if (!addOp && i < e)
                continue;
            if (i > opBegin) {
                const df::TagSet tags =
                    operandTags(opBegin, i, env);
                if (!tags.empty()) {
                    if (!firstSeen.empty() && tags != firstSeen)
                        mixed = true;
                    if (firstSeen.empty())
                        firstSeen = tags;
                    result.insert(tags.begin(), tags.end());
                }
            }
            opBegin = i + 1;
        }
        if (mixed)
            return {}; // already wrong; do not cascade downstream
        return result;
    }

    /** Tags of one additive operand (a multiplicative chain). */
    df::TagSet
    operandTags(std::size_t s, std::size_t e,
                const df::TaintEnv &env) const
    {
        df::TagSet tags;
        bool multiplicative = false;
        int depth = 0;
        for (std::size_t i = s; i < e; ++i) {
            const std::string_view t = tokens_[i].text;
            if (t == "(" || t == "[" || t == "{")
                ++depth;
            else if (t == ")" || t == "]" || t == "}")
                --depth;
            if (depth == 0 && (t == "*" || t == "/"))
                multiplicative = true;
            if (tokens_[i].kind != Token::Kind::Identifier)
                continue;
            // Source: q.raw() / q.value() on a known Quantity.
            if ((t == "raw" || t == "value") && i >= 2 &&
                (tokens_[i - 1].text == "." ||
                 tokens_[i - 1].text == "->") &&
                i + 1 < e && tokens_[i + 1].text == "(") {
                const auto qt = quantType_.find(
                    std::string(tokens_[i - 2].text));
                if (qt != quantType_.end())
                    tags.insert(qt->second);
                continue;
            }
            // Plain variable use.
            const std::string_view prev =
                i > s ? tokens_[i - 1].text : std::string_view{};
            const std::string_view next =
                i + 1 < e ? tokens_[i + 1].text
                          : std::string_view{};
            if (prev == "." || prev == "->" || prev == "::" ||
                next == "::" || next == "(")
                continue;
            const df::TagSet vt =
                varTags(std::string(t), env);
            tags.insert(vt.begin(), vt.end());
        }
        // A product/quotient of >= 2 distinct units is a derived
        // dimension (volts * amps -> watts): clear the tag.
        if (multiplicative && tags.size() >= 2)
            return {};
        return tags;
    }

    /** Token index just past the first top-level assignment op. */
    std::size_t
    rhsBegin(const df::Stmt &stmt) const
    {
        int depth = 0;
        for (std::size_t i = stmt.tokBegin; i < stmt.tokEnd; ++i) {
            const std::string_view t = tokens_[i].text;
            if (t == "(" || t == "[" || t == "{")
                ++depth;
            else if (t == ")" || t == "]" || t == "}")
                --depth;
            else if (depth == 0 &&
                     (t == "=" || t == "+=" || t == "-=" ||
                      t == "*=" || t == "/="))
                return i + 1;
        }
        return stmt.isReturn ? stmt.tokBegin + 1 : stmt.tokBegin;
    }

    df::TagSet
    transfer(const df::Stmt &stmt, const df::TaintEnv &env) const
    {
        if (stmt.defs.empty())
            return {};
        bool mixed = false;
        return evalTags(rhsBegin(stmt), stmt.tokEnd, env, mixed);
    }

    void
    visit(const df::Stmt &stmt, const df::TaintEnv &env)
    {
        bool mixed = false;
        const df::TagSet tags =
            evalTags(rhsBegin(stmt), stmt.tokEnd, env, mixed);
        (void)tags;
        if (mixed)
            diagnose(stmt.offset, "unit-flow.mixed-units",
                     "values with different unit tags meet "
                     "additively — adding e.g. volts to amps is a "
                     "dimensional error even through unsuffixed "
                     "intermediates; keep the Quantity types or "
                     "convert explicitly");

        for (const df::CallRef &call : stmt.calls)
            checkCallArgs(call, env);
    }

    /**
     * @return the overload a call is checked against: the first one
     * of the call's arity, else the first with parameters, else
     * null.  Calls resolve by unqualified name, so a same-named
     * method of another class must not stand in for the callee.
     */
    const FunctionDef *
    resolveCallee(const df::CallRef &call) const
    {
        const FunctionDef *first = nullptr;
        for (int id : project_.lookup(call.callee)) {
            const FunctionDef &f =
                project_.index()
                    .functions[static_cast<std::size_t>(id)];
            if (f.params.size() == call.args.size())
                return &f;
            if (first == nullptr && !f.params.empty())
                first = &f;
        }
        return first;
    }

    void
    checkCallArgs(const df::CallRef &call, const df::TaintEnv &env)
    {
        const FunctionDef *callee = resolveCallee(call);
        if (callee == nullptr)
            return;
        for (std::size_t a = 0;
             a < call.args.size() && a < callee->params.size(); ++a) {
            const ParamInfo &param = callee->params[a];
            std::string expected;
            if (isQuantityAlias(param.type))
                expected = param.type;
            else if (param.type == "double" || param.type == "float")
                expected = suffixTag(param.name);
            if (expected.empty())
                continue;
            df::TagSet tags;
            for (const std::string &root : call.args[a]) {
                const df::TagSet vt = varTags(root, env);
                tags.insert(vt.begin(), vt.end());
            }
            if (tags.size() == 1 && *tags.begin() != expected)
                diagnose(call.nameOffset, "unit-flow.arg-mismatch",
                         "argument tagged '" + *tags.begin() +
                             "' flows into parameter '" + param.name +
                             "' of '" + callee->name +
                             "' which expects '" + expected +
                             "' — unit mismatch across the call "
                             "boundary");
        }
    }

    void
    diagnose(std::size_t offset, const std::string &id,
             std::string message)
    {
        const int line = src_.lineOf(offset);
        if (src_.hasWaiver(line, "vsgpu-lint: unit-flow-ok"))
            return;
        const std::string key = id + ":" + std::to_string(line);
        if (!seen_.insert(key).second)
            return;
        out_.push_back({src_.display(), line, Check::UnitFlow,
                        std::move(message), id});
    }

    const Project &project_;
    const FunctionDef &fn_;
    const SourceFile &src_;
    const TokenVec &tokens_;
    std::vector<Diagnostic> &out_;
    std::map<std::string, std::string> quantType_;
    std::set<std::string> seen_;
};

} // namespace

void
checkUnitFlow(const Project &project, std::vector<Diagnostic> &out)
{
    for (const FunctionDef &fn : project.index().functions) {
        UnitFlow flow(project, fn, out);
        flow.run();
    }
}

} // namespace vsgpu::lint
