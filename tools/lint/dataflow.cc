/**
 * @file
 * Dataflow core: token-stream -> statement IR -> CFG lowering, plus
 * the generic taint solver (dataflow.hh).
 *
 * Lowering approximations (documented so the families can reason
 * about them): switch bodies are lowered linearly with a bypass edge
 * (every case may or may not run); break/continue do not cut edges
 * (conservative for may-analyses: more paths, never fewer); return
 * keeps its linear successor for the same reason; exceptional flow
 * is ignored.  The solver is exact over the IR it receives —
 * tests/lint/test_dataflow.cc pins it down on hand-built CFGs.
 */

#include "dataflow.hh"

#include <algorithm>

namespace vsgpu::lint::df
{

namespace
{

using TokenVec = std::vector<Token>;

constexpr std::size_t npos = static_cast<std::size_t>(-1);

bool
isAssignOp(std::string_view text)
{
    return text == "=" || text == "+=" || text == "-=" ||
           text == "*=" || text == "/=" || text == "%=" ||
           text == "&=" || text == "|=" || text == "^=" ||
           text == "<<=" || text == ">>=";
}

bool
isKeyword(std::string_view t)
{
    static const std::set<std::string, std::less<>> kw = {
        "if",       "else",     "for",      "while",   "do",
        "switch",   "return",   "case",     "break",   "continue",
        "sizeof",   "new",      "delete",   "true",    "false",
        "nullptr",  "auto",     "const",    "static",  "constexpr",
        "using",    "namespace","struct",   "class",   "template",
        "typename", "operator", "throw",    "try",     "catch",
        "goto",     "default",  "inline",   "void",    "int",
        "double",   "float",    "bool",     "char",    "long",
        "short",    "unsigned", "signed",   "std",     "static_cast",
        "dynamic_cast", "reinterpret_cast", "const_cast", "mutable",
        "noexcept", "co_return","co_await", "co_yield", "this",
        "enum",     "typedef",  "explicit", "virtual", "override",
        "final",    "public",   "private",  "protected",
    };
    return kw.count(t) > 0;
}

/** Index of the token closing the group opened at @p open. */
std::size_t
closeOf(const TokenVec &toks, std::size_t open, std::size_t end,
        std::string_view openText, std::string_view closeText)
{
    int depth = 0;
    for (std::size_t i = open; i < end; ++i) {
        if (toks[i].text == openText)
            ++depth;
        else if (toks[i].text == closeText && --depth == 0)
            return i;
    }
    return end;
}

/** First `;` at bracket depth 0 in [i, end). */
std::size_t
findSemi(const TokenVec &toks, std::size_t i, std::size_t end)
{
    int depth = 0;
    for (; i < end; ++i) {
        const std::string_view t = toks[i].text;
        if (t == "(" || t == "[" || t == "{")
            ++depth;
        else if (t == ")" || t == "]" || t == "}")
            --depth;
        else if (t == ";" && depth == 0)
            return i;
    }
    return end;
}

/**
 * A "plain variable" use: an identifier that is not a keyword, not a
 * member (preceded by . or ->), not a qualifier or qualified tail
 * (adjacent to ::), and not a callee (followed by '(').
 */
bool
isVarUse(const TokenVec &toks, std::size_t i, std::size_t s,
         std::size_t e)
{
    if (toks[i].kind != Token::Kind::Identifier ||
        isKeyword(toks[i].text))
        return false;
    const std::string_view prev =
        i > s ? toks[i - 1].text : std::string_view{};
    const std::string_view next =
        i + 1 < e ? toks[i + 1].text : std::string_view{};
    if (prev == "." || prev == "->" || prev == "::")
        return false;
    if (next == "::" || next == "(")
        return false;
    return true;
}

void
collectUses(const TokenVec &toks, std::size_t s, std::size_t e,
            std::vector<std::string> &uses)
{
    for (std::size_t i = s; i < e; ++i)
        if (isVarUse(toks, i, s, e))
            uses.emplace_back(toks[i].text);
}

/** Root identifiers of one argument segment. */
std::vector<std::string>
argRoots(const TokenVec &toks, std::size_t s, std::size_t e)
{
    std::vector<std::string> roots;
    collectUses(toks, s, e, roots);
    return roots;
}

void
collectCalls(const TokenVec &toks, std::size_t s, std::size_t e,
             std::vector<CallRef> &calls)
{
    for (std::size_t i = s; i < e; ++i) {
        if (toks[i].kind != Token::Kind::Identifier ||
            isKeyword(toks[i].text))
            continue;
        if (i + 1 >= e || toks[i + 1].text != "(")
            continue;
        CallRef call;
        call.callee = std::string(toks[i].text);
        call.nameOffset = toks[i].offset;
        // Arguments: split [open+1, close) at depth-1 commas.
        const std::size_t open = i + 1;
        const std::size_t close = closeOf(toks, open, e, "(", ")");
        std::size_t argBegin = open + 1;
        int depth = 0;
        for (std::size_t j = open; j <= close && j < e; ++j) {
            const std::string_view t = toks[j].text;
            if (t == "(" || t == "[" || t == "{")
                ++depth;
            else if (t == ")" || t == "]" || t == "}")
                --depth;
            const bool boundary = (t == "," && depth == 1) ||
                                  (j == close && depth == 0);
            if (!boundary)
                continue;
            if (j > argBegin)
                call.args.push_back(argRoots(toks, argBegin, j));
            else if (t == ",")
                call.args.emplace_back();
            argBegin = j + 1;
        }
        calls.push_back(std::move(call));
    }
}

/** Last "type-ish" identifier before the declared name. */
std::string
declTypeBefore(const TokenVec &toks, std::size_t s,
               std::size_t nameAt)
{
    for (std::size_t i = nameAt; i > s;) {
        --i;
        const std::string_view t = toks[i].text;
        if (t == "&" || t == "*" || t == "&&" || t == ">" ||
            t == "::" || t == "const" || t == "constexpr" ||
            t == "static")
            continue;
        if (t == "<") // inside a template argument list: keep going
            continue;
        if (toks[i].kind == Token::Kind::Identifier) {
            // Skip template arguments: take the identifier before a
            // '<' opener when this one closes a template list.
            return std::string(t);
        }
        break;
    }
    return {};
}

Stmt
parseStmt(const TokenVec &toks, std::size_t s, std::size_t e)
{
    Stmt st;
    st.tokBegin = s;
    st.tokEnd = e;
    if (s < e)
        st.offset = toks[s].offset;
    if (s >= e)
        return st;

    if (toks[s].text == "return") {
        st.isReturn = true;
        collectUses(toks, s + 1, e, st.uses);
        collectCalls(toks, s, e, st.calls);
        return st;
    }

    // Top-level assignment operator.
    std::size_t assignAt = npos;
    int depth = 0;
    for (std::size_t i = s; i < e; ++i) {
        const std::string_view t = toks[i].text;
        if (t == "(" || t == "[" || t == "{")
            ++depth;
        else if (t == ")" || t == "]" || t == "}")
            --depth;
        else if (depth == 0 && assignAt == npos && isAssignOp(t))
            assignAt = i;
    }

    collectCalls(toks, s, e, st.calls);

    if (assignAt != npos) {
        // --- LHS classification ------------------------------------
        bool lhsChain = false;
        std::size_t identCount = 0;
        std::size_t bindOpen = npos;
        for (std::size_t i = s; i < assignAt; ++i) {
            const std::string_view t = toks[i].text;
            if (t == "." || t == "->")
                lhsChain = true;
            if (t == "[" && i > s &&
                (toks[i - 1].text == "auto" ||
                 toks[i - 1].text == "&"))
                bindOpen = i;
            // Builtin type keywords count as declaration evidence
            // even though they are filtered from defs/uses.
            if (toks[i].kind == Token::Kind::Identifier &&
                (!isKeyword(t) || t == "int" || t == "double" ||
                 t == "float" || t == "long" || t == "short" ||
                 t == "char" || t == "bool" || t == "unsigned" ||
                 t == "signed" || t == "auto" || t == "size_t"))
                ++identCount;
        }
        if (bindOpen != npos) {
            // Structured binding: auto [a, b] = ...
            const std::size_t close =
                closeOf(toks, bindOpen, assignAt, "[", "]");
            for (std::size_t i = bindOpen + 1; i < close; ++i)
                if (toks[i].kind == Token::Kind::Identifier)
                    st.defs.emplace_back(toks[i].text);
            st.declares = true;
            st.declType = "auto";
        } else {
            const Token &last = toks[assignAt - 1];
            const std::string_view beforeLast =
                assignAt >= 2 ? toks[assignAt - 2].text
                              : std::string_view{};
            const bool typeBefore =
                assignAt >= 2 &&
                ((toks[assignAt - 2].kind ==
                      Token::Kind::Identifier &&
                  beforeLast != "return") ||
                 beforeLast == ">" || beforeLast == "&" ||
                 beforeLast == "*" || beforeLast == "&&");
            if (!lhsChain && identCount >= 2 &&
                last.kind == Token::Kind::Identifier && typeBefore) {
                // Declaration with initializer.
                st.defs.emplace_back(last.text);
                st.declares = true;
                st.declType = declTypeBefore(toks, s, assignAt - 1);
            } else {
                // Expression write: root of the postfix chain.
                for (std::size_t i = s; i < assignAt; ++i) {
                    if (toks[i].kind == Token::Kind::Identifier &&
                        !isKeyword(toks[i].text)) {
                        st.defs.emplace_back(toks[i].text);
                        break;
                    }
                    if (toks[i].text == "this") {
                        st.defs.emplace_back("this");
                        break;
                    }
                }
                if (st.defs.empty() && toks[s].text == "this")
                    st.defs.emplace_back("this");
                st.defThrough =
                    lhsChain || toks[s].text == "*" ||
                    (assignAt > s && toks[assignAt - 1].text == "]");
                // Subscript contents on the LHS are uses.
                for (std::size_t i = s; i < assignAt; ++i)
                    if (toks[i].text == "[") {
                        const std::size_t close = closeOf(
                            toks, i, assignAt, "[", "]");
                        collectUses(toks, i + 1, close, st.uses);
                        i = close;
                    }
            }
        }
        collectUses(toks, assignAt + 1, e, st.uses);
        // Compound assignment also reads its target.
        if (toks[assignAt].text != "=" && !st.defs.empty())
            st.uses.push_back(st.defs.front());
        return st;
    }

    // --- no assignment: ++/--, declaration, or expression ----------
    if (toks[s].text == "++" || toks[s].text == "--") {
        if (s + 1 < e && toks[s + 1].kind == Token::Kind::Identifier)
            st.defs.emplace_back(toks[s + 1].text);
        if (!st.defs.empty())
            st.uses.push_back(st.defs.front());
        return st;
    }
    if (e >= 2 && toks[e - 1].text == "++" &&
        toks[e - 2].kind == Token::Kind::Identifier) {
        st.defs.emplace_back(toks[e - 2].text);
        st.uses.push_back(st.defs.front());
        return st;
    }

    // Declaration without '=' : `T name;` or `T name(args);`.
    std::size_t nameAt = npos;
    for (std::size_t i = s; i < e; ++i) {
        if (toks[i].kind != Token::Kind::Identifier ||
            isKeyword(toks[i].text) || i == s)
            continue;
        const std::string_view prev = toks[i - 1].text;
        const std::string_view next =
            i + 1 < e ? toks[i + 1].text : std::string_view{};
        const bool typeBefore =
            (toks[i - 1].kind == Token::Kind::Identifier) ||
            prev == ">" || prev == "&" || prev == "*";
        if (typeBefore && (next.empty() || next == "(" ||
                           next == "{" || next == ";"))
            nameAt = i;
        if (next == "(" || next == "{")
            break;
    }
    if (nameAt != npos && !(toks[s].text == "." ||
                            toks[s].text == "->")) {
        bool chain = false;
        for (std::size_t i = s; i < nameAt; ++i)
            if (toks[i].text == "." || toks[i].text == "->")
                chain = true;
        if (!chain) {
            st.defs.emplace_back(toks[nameAt].text);
            st.declares = true;
            st.declType = declTypeBefore(toks, s, nameAt);
            if (nameAt + 1 < e && toks[nameAt + 1].text == "(") {
                const std::size_t close =
                    closeOf(toks, nameAt + 1, e, "(", ")");
                collectUses(toks, nameAt + 2, close, st.uses);
            }
            return st;
        }
    }

    collectUses(toks, s, e, st.uses);
    return st;
}

/** CFG builder over one token range. */
class Builder
{
  public:
    explicit Builder(const TokenVec &toks) : toks_(toks)
    {
        newBlock(); // entry
    }

    Cfg
    take(std::size_t begin, std::size_t end)
    {
        region(begin, end, 0);
        return std::move(cfg_);
    }

  private:
    int
    newBlock()
    {
        cfg_.blocks.emplace_back();
        return static_cast<int>(cfg_.blocks.size()) - 1;
    }

    void
    edge(int a, int b)
    {
        cfg_.blocks[static_cast<std::size_t>(a)].succs.push_back(b);
    }

    void
    append(int block, Stmt stmt)
    {
        cfg_.blocks[static_cast<std::size_t>(block)].stmts.push_back(
            std::move(stmt));
    }

    /** Lower [i, end); returns the block control flows out of. */
    int
    region(std::size_t i, std::size_t end, int cur)
    {
        while (i < end)
            i = construct(i, end, cur);
        return cur;
    }

    /** Lower one construct at @p i; updates @p cur, returns next. */
    std::size_t
    construct(std::size_t i, std::size_t end, int &cur)
    {
        const std::string_view t = toks_[i].text;

        if (t == ";") // empty statement
            return i + 1;
        if (t == "{") {
            const std::size_t close =
                closeOf(toks_, i, end, "{", "}");
            cur = region(i + 1, close, cur);
            return close + 1;
        }
        if (t == "case") { // skip `case expr:`
            std::size_t j = i + 1;
            while (j < end && toks_[j].text != ":")
                ++j;
            return j + 1;
        }
        if (t == "default" && i + 1 < end &&
            toks_[i + 1].text == ":")
            return i + 2;
        if (t == "break" || t == "continue") {
            const std::size_t semi = findSemi(toks_, i, end);
            return semi + 1; // conservative: edges uncut
        }
        if (t == "if")
            return lowerIf(i, end, cur);
        if (t == "for" || t == "while")
            return lowerLoop(i, end, cur);
        if (t == "do")
            return lowerDo(i, end, cur);
        if (t == "switch")
            return lowerSwitch(i, end, cur);
        if (t == "try") // lower the braced blocks linearly
            return i + 1;
        if (t == "catch") {
            std::size_t j = i + 1;
            if (j < end && toks_[j].text == "(")
                j = closeOf(toks_, j, end, "(", ")") + 1;
            return j;
        }
        if (t == "else") // handled by lowerIf; stray: skip
            return i + 1;

        const std::size_t semi = findSemi(toks_, i, end);
        append(cur, parseStmt(toks_, i, semi));
        return semi + 1;
    }

    std::size_t
    lowerIf(std::size_t i, std::size_t end, int &cur)
    {
        std::size_t j = i + 1;
        if (j < end && toks_[j].text == "(") {
            const std::size_t close =
                closeOf(toks_, j, end, "(", ")");
            append(cur, parseStmt(toks_, j + 1, close));
            j = close + 1;
        }
        const int head = cur;
        int thenB = newBlock();
        edge(head, thenB);
        j = subConstruct(j, end, thenB);
        const int thenExit = thenB;
        const int join = newBlock();
        edge(thenExit, join);
        if (j < end && toks_[j].text == "else") {
            ++j;
            int elseB = newBlock();
            edge(head, elseB);
            j = subConstruct(j, end, elseB);
            edge(elseB, join);
        } else {
            edge(head, join);
        }
        cur = join;
        return j;
    }

    std::size_t
    lowerLoop(std::size_t i, std::size_t end, int &cur)
    {
        const bool isFor = toks_[i].text == "for";
        std::size_t j = i + 1;
        const int header = newBlock();
        Stmt incr;
        bool haveIncr = false;
        if (j < end && toks_[j].text == "(") {
            const std::size_t close =
                closeOf(toks_, j, end, "(", ")");
            if (isFor) {
                // Range-for?  `:` at depth 1 before any `;`.
                std::size_t colon = npos, semi1 = npos;
                int depth = 0;
                for (std::size_t k = j; k < close; ++k) {
                    const std::string_view tk = toks_[k].text;
                    if (tk == "(" || tk == "[" || tk == "{")
                        ++depth;
                    else if (tk == ")" || tk == "]" || tk == "}")
                        --depth;
                    else if (tk == ":" && depth == 1 &&
                             colon == npos)
                        colon = k;
                    else if (tk == ";" && depth == 1 &&
                             semi1 == npos)
                        semi1 = k;
                }
                if (colon != npos && semi1 == npos) {
                    Stmt head;
                    head.tokBegin = j + 1;
                    head.tokEnd = close;
                    head.offset = toks_[j + 1].offset;
                    head.declares = true;
                    // Loop variable(s): identifiers before ':'
                    // (handles `auto &v` and `auto [k, v]`).
                    for (std::size_t k = j + 1; k < colon; ++k)
                        if (toks_[k].kind ==
                                Token::Kind::Identifier &&
                            !isKeyword(toks_[k].text))
                            head.defs.emplace_back(toks_[k].text);
                    collectUses(toks_, colon + 1, close,
                                head.uses);
                    collectCalls(toks_, colon + 1, close,
                                 head.calls);
                    append(header, std::move(head));
                } else {
                    // Classic for: init ; cond ; incr.
                    const std::size_t s1 =
                        findSemi(toks_, j + 1, close);
                    const std::size_t s2 =
                        s1 < close
                            ? findSemi(toks_, s1 + 1, close)
                            : close;
                    append(cur, parseStmt(toks_, j + 1, s1));
                    if (s1 < close)
                        append(header,
                               parseStmt(toks_, s1 + 1, s2));
                    if (s2 < close) {
                        incr = parseStmt(toks_, s2 + 1, close);
                        haveIncr = true;
                    }
                }
            } else {
                append(header, parseStmt(toks_, j + 1, close));
            }
            j = close + 1;
        }
        edge(cur, header);
        int body = newBlock();
        edge(header, body);
        j = subConstruct(j, end, body);
        if (haveIncr)
            append(body, std::move(incr));
        edge(body, header);
        const int exit = newBlock();
        edge(header, exit);
        cur = exit;
        return j;
    }

    std::size_t
    lowerDo(std::size_t i, std::size_t end, int &cur)
    {
        std::size_t j = i + 1;
        int body = newBlock();
        edge(cur, body);
        j = subConstruct(j, end, body);
        if (j < end && toks_[j].text == "while") {
            ++j;
            if (j < end && toks_[j].text == "(") {
                const std::size_t close =
                    closeOf(toks_, j, end, "(", ")");
                append(body, parseStmt(toks_, j + 1, close));
                j = close + 1;
            }
            if (j < end && toks_[j].text == ";")
                ++j;
        }
        edge(body, body); // back edge
        const int exit = newBlock();
        edge(body, exit);
        cur = exit;
        return j;
    }

    std::size_t
    lowerSwitch(std::size_t i, std::size_t end, int &cur)
    {
        std::size_t j = i + 1;
        if (j < end && toks_[j].text == "(") {
            const std::size_t close =
                closeOf(toks_, j, end, "(", ")");
            append(cur, parseStmt(toks_, j + 1, close));
            j = close + 1;
        }
        const int head = cur;
        int body = newBlock();
        edge(head, body);
        if (j < end && toks_[j].text == "{") {
            const std::size_t close =
                closeOf(toks_, j, end, "{", "}");
            body = region(j + 1, close, body);
            j = close + 1;
        }
        const int join = newBlock();
        edge(body, join);
        edge(head, join); // no case taken
        cur = join;
        return j;
    }

    /**
     * Lower one nested construct (a brace block or a single
     * statement/if/loop) into @p block, mutating it to the exit.
     */
    std::size_t
    subConstruct(std::size_t j, std::size_t end, int &block)
    {
        if (j >= end)
            return j;
        return construct(j, end, block);
    }

    const TokenVec &toks_;
    Cfg cfg_;
};

} // namespace

Cfg
buildCfg(const std::vector<Token> &tokens, std::size_t begin,
         std::size_t end)
{
    return Builder(tokens).take(begin, std::min(end, tokens.size()));
}

void
solveTaint(
    const Cfg &cfg,
    const std::function<TagSet(const Stmt &, const TaintEnv &)>
        &transfer,
    const std::function<void(const Stmt &, const TaintEnv &)>
        &visit)
{
    const std::size_t n = cfg.blocks.size();
    std::vector<TaintEnv> in(n), out(n);

    auto apply = [&](std::size_t b, bool visiting) {
        TaintEnv env = in[b];
        for (const Stmt &st : cfg.blocks[b].stmts) {
            if (visiting)
                visit(st, env);
            const TagSet tags = transfer(st, env);
            for (const std::string &d : st.defs) {
                if (st.defThrough)
                    env[d].insert(tags.begin(), tags.end());
                else
                    env[d] = tags;
            }
        }
        return env;
    };

    // Fixpoint with a safety cap: transfer is caller-supplied and
    // joins are unions, so this converges, but cap anyway.
    const int cap = static_cast<int>(4 * n + 8);
    bool changed = true;
    for (int round = 0; changed && round < cap; ++round) {
        changed = false;
        for (std::size_t b = 0; b < n; ++b) {
            TaintEnv merged;
            for (std::size_t p = 0; p < n; ++p)
                for (int succ : cfg.blocks[p].succs)
                    if (static_cast<std::size_t>(succ) == b)
                        for (const auto &[var, tags] : out[p])
                            merged[var].insert(tags.begin(),
                                               tags.end());
            if (merged != in[b]) {
                in[b] = std::move(merged);
                changed = true;
            }
            TaintEnv next = apply(b, false);
            if (next != out[b]) {
                out[b] = std::move(next);
                changed = true;
            }
        }
    }

    for (std::size_t b = 0; b < n; ++b)
        apply(b, true);
}

} // namespace vsgpu::lint::df
