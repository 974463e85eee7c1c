/**
 * @file
 * Family 4: contracts.
 *
 * A function tagged VSGPU_CONTRACT (the [[vsgpu::contract]] vendor
 * attribute, spelled via the macro in src/common/check.hh) advertises
 * that it states explicit pre/postconditions.  This check makes the
 * advertisement binding: every tagged *definition* must contain at
 * least one VSGPU_REQUIRES or VSGPU_ENSURES in its body.  Tagged
 * declarations (ending in ';') are fine — the contract text lives
 * with the definition.
 *
 * The runtime half of the contract system is check.hh: REQUIRES /
 * ENSURES panic on violation in checked builds and compile to a
 * name-check in release.
 */

#include "lint.hh"

#include <string>

namespace vsgpu::lint
{

namespace
{

/** Find the matching '}' for the '{' at tokens[open]. */
std::size_t
matchBrace(const std::vector<Token> &tokens, std::size_t open)
{
    int depth = 0;
    for (std::size_t i = open; i < tokens.size(); ++i) {
        if (tokens[i].text == "{")
            ++depth;
        else if (tokens[i].text == "}" && --depth == 0)
            return i;
    }
    return tokens.size();
}

} // namespace

void
checkContracts(const SourceFile &src, std::vector<Diagnostic> &out)
{
    const std::vector<Token> tokens = tokenize(src.code());

    for (std::size_t i = 0; i < tokens.size(); ++i) {
        // Tag spellings: the VSGPU_CONTRACT macro, or the attribute
        // written out as [[vsgpu::contract]].
        bool tagged = false;
        std::size_t after = i;
        if (tokens[i].text == "VSGPU_CONTRACT") {
            tagged = true;
            after = i + 1;
        } else if (tokens[i].text == "vsgpu" &&
                   i + 2 < tokens.size() &&
                   tokens[i + 1].text == "::" &&
                   tokens[i + 2].text == "contract") {
            tagged = true;
            after = i + 3;
            while (after < tokens.size() &&
                   tokens[after].text == "]")
                ++after;
        }
        if (!tagged)
            continue;
        const int tagLine = src.lineOf(tokens[i].offset);

        // A tag on a preprocessor line is the macro machinery itself
        // (#define VSGPU_CONTRACT ... in check.hh), not a tagged
        // function.
        const std::string_view lineText = src.lineText(tagLine);
        const std::size_t firstNonSpace =
            lineText.find_first_not_of(" \t");
        if (firstNonSpace != std::string_view::npos &&
            lineText[firstNonSpace] == '#')
            continue;

        // Scan the declarator: stop at ';' (declaration only) or
        // the body '{' at zero paren depth.  Constructor member
        // initializers like ": a_(x), b_(y)" keep paren depth
        // bookkeeping honest because each initializer is balanced.
        int parenDepth = 0;
        std::size_t body = tokens.size();
        bool declarationOnly = false;
        for (std::size_t j = after; j < tokens.size(); ++j) {
            const std::string_view t = tokens[j].text;
            if (t == "(")
                ++parenDepth;
            else if (t == ")")
                --parenDepth;
            else if (t == ";" && parenDepth == 0) {
                declarationOnly = true;
                break;
            } else if (t == "{" && parenDepth == 0) {
                body = j;
                break;
            }
        }
        if (declarationOnly)
            continue;
        if (body == tokens.size()) {
            out.push_back({src.display(), tagLine, Check::Contracts,
                           "VSGPU_CONTRACT tag is not followed by a "
                           "function definition"});
            continue;
        }
        const std::size_t bodyEnd = matchBrace(tokens, body);
        bool stated = false;
        for (std::size_t j = body; j < bodyEnd; ++j) {
            if (tokens[j].text == "VSGPU_REQUIRES" ||
                tokens[j].text == "VSGPU_ENSURES") {
                stated = true;
                break;
            }
        }
        if (!stated)
            out.push_back(
                {src.display(), tagLine, Check::Contracts,
                 "function tagged [[vsgpu::contract]] states no "
                 "VSGPU_REQUIRES / VSGPU_ENSURES in its definition "
                 "— add the contract or drop the tag "
                 "(src/common/check.hh)"});
        i = body;
    }
}

} // namespace vsgpu::lint
