/**
 * @file
 * Family 4: raw-escape.
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
 */

#include "lint.hh"

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
             "waive with // vsgpu-lint: raw-escape-ok(<reason>)"});
    }
}

} // namespace vsgpu::lint
