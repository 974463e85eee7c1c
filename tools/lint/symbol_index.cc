/**
 * @file
 * Project-wide symbol index for vsgpu_lint's semantic family
 * (semantic.hh): function/method definitions with their class and
 * parameter lists.  Also the Project façade and the semantic-family
 * dispatcher.
 *
 * The parser is the same dependency-free token scan as the rest of
 * the linter.  It tracks a brace-context stack (namespace / class /
 * function / other) so only namespace- and class-scope names can
 * start a definition, and recognizes function definitions by the shape
 * `name ( params ) qualifiers { body }` — including constructor
 * initializer lists and trailing return types.  Misparses degrade to
 * missing index entries, which suppress findings; they never invent
 * one.
 */

#include "semantic.hh"

#include <algorithm>

namespace vsgpu::lint
{

namespace
{

using TokenVec = std::vector<Token>;

constexpr std::size_t npos = static_cast<std::size_t>(-1);

bool
isTypeKeyword(std::string_view t)
{
    return t == "double" || t == "float" || t == "int" ||
           t == "bool" || t == "char" || t == "long" ||
           t == "short" || t == "unsigned" || t == "signed" ||
           t == "auto" || t == "void";
}

bool
isDeclQualifier(std::string_view t)
{
    return t == "const" || t == "constexpr" || t == "static" ||
           t == "inline" || t == "mutable" || t == "extern" ||
           t == "thread_local" || t == "volatile";
}

bool
isReservedWord(std::string_view t)
{
    return isTypeKeyword(t) || isDeclQualifier(t) || t == "if" ||
           t == "else" || t == "for" || t == "while" || t == "do" ||
           t == "switch" || t == "return" || t == "case" ||
           t == "break" || t == "continue" || t == "sizeof" ||
           t == "new" || t == "delete" || t == "true" ||
           t == "false" || t == "nullptr" || t == "using" ||
           t == "namespace" || t == "struct" || t == "class" ||
           t == "template" || t == "typename" || t == "operator" ||
           t == "throw" || t == "try" || t == "catch" ||
           t == "goto" || t == "default" || t == "std" ||
           t == "this" || t == "enum" || t == "typedef" ||
           t == "explicit" || t == "virtual" || t == "override" ||
           t == "final" || t == "public" || t == "private" ||
           t == "protected" || t == "noexcept" || t == "friend" ||
           t == "decltype" || t == "requires" || t == "concept";
}

/** Index of the token closing the group opened by tokens[open]. */
std::size_t
skipBalanced(const TokenVec &tokens, std::size_t open,
             std::string_view openText, std::string_view closeText)
{
    int depth = 0;
    for (std::size_t i = open; i < tokens.size(); ++i) {
        if (tokens[i].text == openText)
            ++depth;
        else if (tokens[i].text == closeText && --depth == 0)
            return i;
    }
    return tokens.size();
}

/** Parse one parameter list into ParamInfo records. */
std::vector<ParamInfo>
parseParams(const TokenVec &tokens, std::size_t open,
            std::size_t close)
{
    std::vector<ParamInfo> params;
    std::size_t segBegin = open + 1;
    int depth = 1;
    for (std::size_t i = open + 1; i <= close && i < tokens.size();
         ++i) {
        const std::string_view t = tokens[i].text;
        if (t == "(" || t == "[" || t == "{" || t == "<")
            ++depth;
        else if (t == ")" || t == "]" || t == "}" || t == ">")
            --depth;
        const bool boundary =
            (t == "," && depth == 1) || (i == close && depth == 0);
        if (!boundary)
            continue;
        if (i > segBegin) {
            ParamInfo info;
            // Top-level identifiers of the segment; the last
            // non-reserved one is the name, its predecessor the type.
            std::vector<std::string_view> idents;
            int d = 0;
            for (std::size_t k = segBegin; k < i; ++k) {
                const std::string_view s = tokens[k].text;
                if (s == "<" || s == "(" || s == "[")
                    ++d;
                else if (s == ">" || s == ")" || s == "]")
                    --d;
                if (d == 0 &&
                    tokens[k].kind == Token::Kind::Identifier &&
                    s != "std" && !isDeclQualifier(s))
                    idents.push_back(s);
            }
            while (!idents.empty() &&
                   isReservedWord(idents.back()) &&
                   !isTypeKeyword(idents.back()))
                idents.pop_back();
            if (!idents.empty() &&
                !isTypeKeyword(idents.back())) {
                info.name = std::string(idents.back());
                if (idents.size() >= 2)
                    info.type =
                        std::string(idents[idents.size() - 2]);
            } else if (!idents.empty()) {
                // Unnamed parameter like `f(double)`.
                info.type = std::string(idents.back());
            }
            params.push_back(std::move(info));
        }
        segBegin = i + 1;
    }
    return params;
}

/** Brace-context kinds for the pass-1 scanner. */
enum class Ctx
{
    Namespace,
    Class,
    Function,
    Other,
};

struct Frame
{
    Ctx ctx = Ctx::Namespace;
    std::string className; ///< for Ctx::Class
};

/**
 * From a `)` closing a parameter list, find the `{` opening the
 * function body, tolerating cv/ref/noexcept/override qualifiers,
 * trailing return types, and constructor initializer lists.  Returns
 * npos when the shape is not a definition (declaration, call, ...).
 */
std::size_t
findBodyBrace(const TokenVec &tokens, std::size_t closeParen)
{
    std::size_t i = closeParen + 1;
    bool initList = false;
    while (i < tokens.size()) {
        const std::string_view t = tokens[i].text;
        if (t == "{") {
            if (!initList)
                return i;
            // Brace-init of a member: skip, expect ',' or body.
            i = skipBalanced(tokens, i, "{", "}") + 1;
            if (i < tokens.size() && tokens[i].text == ",") {
                ++i;
                continue;
            }
            if (i < tokens.size() && tokens[i].text == "{")
                return i;
            continue;
        }
        if (t == ";" || t == "=")
            return npos;
        if (t == ",") {
            if (!initList)
                return npos;
            ++i;
            continue;
        }
        if (t == ":") {
            initList = true;
            ++i;
            continue;
        }
        if (t == "(") {
            i = skipBalanced(tokens, i, "(", ")") + 1;
            continue;
        }
        if (t == "const" || t == "noexcept" || t == "override" ||
            t == "final" || t == "mutable" || t == "&" ||
            t == "&&" || t == "->" || t == "::" || t == "<" ||
            t == ">" || t == "*" || t == "try" ||
            tokens[i].kind == Token::Kind::Identifier ||
            tokens[i].kind == Token::Kind::Number) {
            ++i;
            continue;
        }
        return npos;
    }
    return npos;
}

/** Scan one file's contexts and function definitions. */
void
scanFile(int fileIndex, const TokenVec &toks, SymbolIndex &index)
{
    std::vector<Frame> stack{{Ctx::Namespace, ""}};
    Ctx pending = Ctx::Other;
    std::string pendingClass;
    bool havePending = false;

    auto current = [&]() -> const Frame & { return stack.back(); };

    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &tok = toks[i];
        const std::string_view t = tok.text;

        if (t == "{") {
            Frame frame;
            frame.ctx = havePending ? pending : Ctx::Other;
            // A bare block inside a namespace stays namespace-like
            // only for `namespace {` (anonymous); other stray braces
            // (array initializers) are opaque.
            frame.className = pendingClass;
            stack.push_back(frame);
            havePending = false;
            pendingClass.clear();
            continue;
        }
        if (t == "}") {
            if (stack.size() > 1)
                stack.pop_back();
            continue;
        }
        if (t == ";") {
            havePending = false; // forward declaration
            pendingClass.clear();
            continue;
        }
        if (t == "namespace") {
            pending = Ctx::Namespace;
            havePending = true;
            continue;
        }
        if (t == "class" || t == "struct" || t == "union") {
            if (i + 1 < toks.size() &&
                toks[i + 1].kind == Token::Kind::Identifier) {
                pendingClass = std::string(toks[i + 1].text);
                pending = Ctx::Class;
            } else {
                pendingClass.clear();
                pending = Ctx::Class;
            }
            havePending = true;
            continue;
        }
        if (t == "enum") {
            pending = Ctx::Other;
            havePending = true;
            continue;
        }

        if (tok.kind != Token::Kind::Identifier ||
            isReservedWord(t))
            continue;

        const std::string_view next =
            i + 1 < toks.size() ? toks[i + 1].text
                                : std::string_view{};
        const std::string_view prev =
            i > 0 ? toks[i - 1].text : std::string_view{};

        const bool callCtx = prev == "." || prev == "->";
        if (next == "(" && !callCtx &&
            (current().ctx == Ctx::Namespace ||
             current().ctx == Ctx::Class)) {
            const bool qualified = prev == "::";
            const bool typeBefore =
                i > 0 &&
                ((toks[i - 1].kind == Token::Kind::Identifier &&
                  !isDeclQualifier(prev)) ||
                 isTypeKeyword(prev) || prev == ">" ||
                 prev == "&" || prev == "*");
            const bool ctorLike =
                current().ctx == Ctx::Class &&
                t == current().className;
            if (qualified || typeBefore || ctorLike) {
                const std::size_t closeParen =
                    skipBalanced(toks, i + 1, "(", ")");
                const std::size_t body =
                    findBodyBrace(toks, closeParen);
                if (body != npos && body < toks.size()) {
                    FunctionDef fn;
                    fn.name = std::string(t);
                    fn.fileIndex = fileIndex;
                    fn.params =
                        parseParams(toks, i + 1, closeParen);
                    fn.bodyBegin = body + 1;
                    fn.bodyEnd =
                        skipBalanced(toks, body, "{", "}");
                    const int id = static_cast<int>(
                        index.functions.size());
                    index.byName[fn.name].push_back(id);
                    index.functions.push_back(std::move(fn));
                    // The body is scanned by the main loop too;
                    // mark its context.
                    pending = Ctx::Function;
                    havePending = true;
                }
            }
        }
    }
}

} // namespace

SymbolIndex
buildSymbolIndex(const std::vector<SourceFile> &sources,
                 const std::vector<std::vector<Token>> &tokens)
{
    SymbolIndex index;
    for (std::size_t f = 0; f < sources.size(); ++f)
        scanFile(static_cast<int>(f), tokens[f], index);
    return index;
}

Project::Project(std::vector<SourceFile> sources)
    : sources_(std::move(sources))
{
    tokens_.reserve(sources_.size());
    for (const SourceFile &src : sources_)
        tokens_.push_back(tokenize(src.code()));
    index_ = buildSymbolIndex(sources_, tokens_);
}

const std::vector<int> &
Project::lookup(const std::string &name) const
{
    static const std::vector<int> empty;
    const auto it = index_.byName.find(name);
    return it == index_.byName.end() ? empty : it->second;
}

void
runProjectChecks(const Project &project,
                 const std::vector<Check> &checks, bool ignoreScope,
                 std::vector<Diagnostic> &out)
{
    std::vector<Diagnostic> raw;
    if (std::find(checks.begin(), checks.end(), Check::UnitFlow) !=
        checks.end())
        checkUnitFlow(project, raw);
    for (Diagnostic &diag : raw)
        if (ignoreScope || checkAppliesTo(diag.check, diag.file))
            out.push_back(std::move(diag));
}

} // namespace vsgpu::lint
