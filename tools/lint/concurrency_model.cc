/**
 * @file
 * Implementation of the pool-task and lock-scope model described in
 * concurrency_model.hh.
 */

#include "concurrency_model.hh"

namespace vsgpu::lint::cm
{

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

bool
isLockType(std::string_view name)
{
    return name == "lock_guard" || name == "scoped_lock" ||
           name == "unique_lock" || name == "shared_lock";
}

bool
isAccumOp(std::string_view text)
{
    return text == "+=" || text == "-=" || text == "*=" ||
           text == "/=";
}

bool
isFpTypeName(std::string_view t)
{
    return t == "double" || t == "float" || t == "Quantity" ||
           t == "Seconds" || t == "Hertz" || t == "Amps" ||
           t == "Coulombs" || t == "Volts" || t == "Ohms" ||
           t == "Siemens" || t == "Farads" || t == "Henries" ||
           t == "Watts" || t == "Joules" || t == "Area" ||
           t == "FaradsPerArea" || t == "WattsPerVolt";
}

namespace
{

bool
isPoolSubmitName(std::string_view name)
{
    return name == "parallelFor" || name == "runSweep" ||
           name == "runIndexSweep";
}

bool
isAssignOp(std::string_view text)
{
    return text == "=" || text == "+=" || text == "-=" ||
           text == "*=" || text == "/=" || text == "%=" ||
           text == "&=" || text == "|=" || text == "^=" ||
           text == "<<=" || text == ">>=";
}

} // namespace

std::vector<PoolLambda>
findPoolLambdas(const TokenVec &tokens)
{
    std::vector<PoolLambda> found;
    for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
        const Token &tok = tokens[i];
        if (tok.kind != Token::Kind::Identifier)
            continue;
        if (!isPoolSubmitName(tok.text))
            continue;
        if (tokens[i + 1].text != "(")
            continue;
        const std::size_t closeCall =
            skipBalanced(tokens, i + 1, "(", ")");

        for (std::size_t j = i + 2; j < closeCall; ++j) {
            if (tokens[j].text != "[")
                continue;
            const std::string_view prev = tokens[j - 1].text;
            if (prev != "(" && prev != ",")
                continue; // subscript, not a lambda argument
            PoolLambda lam;
            lam.captBegin = j;
            lam.captEnd = skipBalanced(tokens, j, "[", "]");
            std::size_t k = lam.captEnd + 1;
            if (k < closeCall && tokens[k].text == "(") {
                lam.paramOpen = k;
                lam.paramClose = skipBalanced(tokens, k, "(", ")");
                k = lam.paramClose + 1;
            }
            while (k < closeCall && tokens[k].text != "{")
                ++k;
            if (k >= closeCall)
                continue;
            lam.bodyBegin = k + 1;
            lam.bodyEnd = skipBalanced(tokens, k, "{", "}");
            found.push_back(lam);
            j = lam.bodyEnd;
        }
        i = closeCall;
    }
    return found;
}

NameSet
paramNames(const TokenVec &tokens, std::size_t openParen,
           std::size_t closeParen)
{
    NameSet params;
    int depth = 0;
    std::size_t lastIdent = 0;
    bool haveIdent = false;
    for (std::size_t i = openParen;
         i <= closeParen && i < tokens.size(); ++i) {
        const Token &tok = tokens[i];
        if (tok.text == "(" || tok.text == "<" || tok.text == "[")
            ++depth;
        else if (tok.text == ")" || tok.text == ">" ||
                 tok.text == "]")
            --depth;
        if (tok.kind == Token::Kind::Identifier && depth == 1) {
            lastIdent = i;
            haveIdent = true;
        }
        const bool boundary =
            (tok.text == "," && depth == 1) ||
            (tok.text == ")" && depth == 0);
        if (boundary && haveIdent) {
            params.insert(std::string(tokens[lastIdent].text));
            haveIdent = false;
        }
    }
    return params;
}

NameSet
localNames(const TokenVec &tokens, std::size_t begin,
           std::size_t end)
{
    NameSet locals;
    for (std::size_t i = begin; i < end; ++i) {
        // Structured binding: auto [a, b] / auto &[a, b].
        if (tokens[i].text == "[" && i > begin &&
            (tokens[i - 1].text == "auto" ||
             tokens[i - 1].text == "&")) {
            const std::size_t close =
                skipBalanced(tokens, i, "[", "]");
            for (std::size_t j = i + 1; j < close && j < end; ++j)
                if (tokens[j].kind == Token::Kind::Identifier)
                    locals.insert(std::string(tokens[j].text));
            i = close;
            continue;
        }
        if (tokens[i].kind != Token::Kind::Identifier || i == begin)
            continue;
        const Token &prev = tokens[i - 1];
        const bool typeBefore =
            (prev.kind == Token::Kind::Identifier &&
             prev.text != "return" && !isAssignOp(prev.text)) ||
            prev.text == ">" || prev.text == "&" || prev.text == "*";
        if (!typeBefore)
            continue;
        const std::string_view next =
            i + 1 < end ? tokens[i + 1].text : std::string_view{};
        if (next == "=" || next == ";" || next == "{" ||
            next == "(" || next == ",") {
            locals.insert(std::string(tokens[i].text));
            // Comma declarators: double a = 0, b = 0; — every
            // identifier right after a depth-0 ',' before the ';'
            // is part of the same declaration.
            if (next == "=") {
                int depth = 0;
                for (std::size_t j = i + 1; j < end; ++j) {
                    const std::string_view t = tokens[j].text;
                    if (t == "(" || t == "[" || t == "{")
                        ++depth;
                    else if (t == ")" || t == "]" || t == "}")
                        --depth;
                    else if (t == ";" && depth == 0)
                        break;
                    else if (t == "," && depth == 0 &&
                             j + 1 < end &&
                             tokens[j + 1].kind ==
                                 Token::Kind::Identifier)
                        locals.insert(
                            std::string(tokens[j + 1].text));
                }
            }
        }
    }
    return locals;
}

NameSet
indexAliasNames(const TokenVec &tokens, std::size_t bodyBegin,
                std::size_t bodyEnd, const NameSet &params)
{
    static constexpr std::string_view integerish[] = {
        "int", "long", "short", "unsigned", "size_t", "ptrdiff_t",
        "auto"};
    NameSet names = params;
    for (int pass = 0; pass < 2; ++pass) {
        for (std::size_t i = bodyBegin; i + 1 < bodyEnd; ++i) {
            if (tokens[i].kind != Token::Kind::Identifier ||
                tokens[i + 1].text != "=")
                continue;
            // Walk the declaration type backwards; require an
            // integer-ish token so derived doubles do not become
            // index slots.
            bool integerType = false;
            bool sawType = false;
            for (std::size_t j = i; j-- > bodyBegin;) {
                const std::string_view t = tokens[j].text;
                if (t == ";" || t == "{" || t == "}" || t == ")")
                    break;
                if (tokens[j].kind == Token::Kind::Identifier) {
                    sawType = true;
                    for (std::string_view k : integerish)
                        if (t == k || (t.size() > k.size() &&
                                       t.find(k) !=
                                           std::string_view::npos))
                            integerType = true;
                } else if (t != "::" && t != "<" && t != ">" &&
                           t != "&" && t != "const") {
                    break;
                }
            }
            if (!sawType || !integerType)
                continue;
            // Initialiser up to ';' must mention a known index name.
            bool fromIndex = false;
            for (std::size_t j = i + 2;
                 j < bodyEnd && tokens[j].text != ";"; ++j)
                if (tokens[j].kind == Token::Kind::Identifier &&
                    names.count(tokens[j].text) > 0)
                    fromIndex = true;
            if (fromIndex)
                names.insert(std::string(tokens[i].text));
        }
    }
    return names;
}

bool
indexedByParam(const TokenVec &tokens, std::size_t chainBegin,
               std::size_t writeOp, const NameSet &params)
{
    for (std::size_t i = chainBegin; i < writeOp; ++i) {
        if (tokens[i].text != "[")
            continue;
        const std::size_t close = skipBalanced(tokens, i, "[", "]");
        for (std::size_t j = i + 1; j < close; ++j)
            if (tokens[j].kind == Token::Kind::Identifier &&
                params.count(tokens[j].text) > 0)
                return true;
        i = close;
    }
    return false;
}

namespace
{

/** End of the brace block enclosing token @p from (exclusive). */
std::size_t
enclosingBlockEnd(const TokenVec &tokens, std::size_t from,
                  std::size_t end)
{
    int depth = 0;
    for (std::size_t i = from; i < end; ++i) {
        if (tokens[i].text == "{")
            ++depth;
        else if (tokens[i].text == "}") {
            if (depth == 0)
                return i;
            --depth;
        }
    }
    return end;
}

/**
 * Does the guard-constructor argument segment [segBegin, segEnd)
 * name a mutex?  Its last identifier is the mutex, unless that is a
 * lock tag (std::adopt_lock / defer_lock / try_to_lock).
 */
bool
namesMutex(const TokenVec &tokens, std::size_t segBegin,
           std::size_t segEnd)
{
    for (std::size_t i = segEnd; i-- > segBegin;) {
        if (tokens[i].kind != Token::Kind::Identifier)
            continue;
        const std::string_view t = tokens[i].text;
        return t != "adopt_lock" && t != "defer_lock" &&
               t != "try_to_lock";
    }
    return false;
}

} // namespace

std::vector<LockScope>
lockScopes(const TokenVec &tokens, std::size_t begin,
           std::size_t end)
{
    std::vector<LockScope> scopes;
    for (std::size_t i = begin; i < end; ++i) {
        const Token &tok = tokens[i];
        if (tok.kind != Token::Kind::Identifier)
            continue;

        // RAII guard: lock_guard<...> name(mu, ...); also the CTAD
        // form scoped_lock name(mu1, mu2).
        if (isLockType(tok.text)) {
            std::size_t j = i + 1;
            if (j < end && tokens[j].text == "<")
                j = skipBalanced(tokens, j, "<", ">") + 1;
            if (j >= end ||
                tokens[j].kind != Token::Kind::Identifier)
                continue;
            LockScope scope;
            bool namesAny = false;
            const std::string_view guardVar = tokens[j].text;
            std::size_t open = j + 1;
            if (open < end && (tokens[open].text == "(" ||
                               tokens[open].text == "{")) {
                const bool paren = tokens[open].text == "(";
                const std::size_t close = skipBalanced(
                    tokens, open, paren ? "(" : "{",
                    paren ? ")" : "}");
                // Split arguments at top-level commas.
                std::size_t segBegin = open + 1;
                int depth = 0;
                for (std::size_t k = open + 1;
                     k <= close && k < end; ++k) {
                    const std::string_view t = tokens[k].text;
                    if (t == "(" || t == "[" || t == "{" ||
                        t == "<")
                        ++depth;
                    else if (t == ")" || t == "]" || t == "}" ||
                             t == ">")
                        --depth;
                    const bool boundary =
                        (t == "," && depth == 0) || k == close;
                    if (!boundary)
                        continue;
                    namesAny = namesAny ||
                               namesMutex(tokens, segBegin, k);
                    segBegin = k + 1;
                }
                scope.begin = close + 1;
            } else {
                scope.begin = j + 1;
            }
            if (!namesAny)
                continue;
            scope.end = enclosingBlockEnd(tokens, scope.begin, end);
            // Truncate at an explicit guard.unlock().
            for (std::size_t k = scope.begin; k < scope.end; ++k) {
                if (tokens[k].text == guardVar &&
                    k + 2 < scope.end && tokens[k + 1].text == "." &&
                    tokens[k + 2].text == "unlock") {
                    scope.end = k;
                    break;
                }
            }
            scopes.push_back(std::move(scope));
            continue;
        }

        // Manual mu.lock(): scope until mu.unlock() or block end.
        if (i + 3 < end &&
            (tokens[i + 1].text == "." ||
             tokens[i + 1].text == "->") &&
            tokens[i + 2].text == "lock" &&
            tokens[i + 3].text == "(") {
            LockScope scope;
            scope.begin = skipBalanced(tokens, i + 3, "(", ")") + 1;
            scope.end = enclosingBlockEnd(tokens, scope.begin, end);
            for (std::size_t k = scope.begin; k < scope.end; ++k) {
                if (tokens[k].text == tok.text &&
                    k + 2 < scope.end &&
                    (tokens[k + 1].text == "." ||
                     tokens[k + 1].text == "->") &&
                    tokens[k + 2].text == "unlock") {
                    scope.end = k;
                    break;
                }
            }
            scopes.push_back(std::move(scope));
        }
    }
    return scopes;
}

bool
underAnyLock(const std::vector<LockScope> &scopes, std::size_t tok)
{
    for (const LockScope &scope : scopes)
        if (scope.begin <= tok && tok < scope.end)
            return true;
    return false;
}

int
columnOf(const SourceFile &src, std::size_t offset)
{
    const std::string &code = src.code();
    if (offset > code.size())
        return 0;
    std::size_t start = 0;
    if (offset > 0) {
        const std::size_t nl = code.rfind('\n', offset - 1);
        if (nl != std::string::npos)
            start = nl + 1;
    }
    return static_cast<int>(offset - start) + 1;
}

} // namespace vsgpu::lint::cm
