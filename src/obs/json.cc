#include "obs/json.hh"

#include <cctype>
#include <charconv>
#include <cstdlib>

namespace vsgpu::obs
{

std::string
jsonNumber(double v)
{
    // The shortest scientific form has the fewest significant digits
    // that round-trip; %.{prec}g may still need one more near a
    // power of two, so step up from there.  NaN never compares equal
    // and falls through to the 17-digit form ("nan", "-nan").
    char buf[40];
    char *end = std::to_chars(buf, buf + sizeof buf, v,
                              std::chars_format::scientific)
                    .ptr;
    int prec = 0;
    for (const char *p = buf; p != end && *p != 'e'; ++p)
        prec += *p >= '0' && *p <= '9';
    for (; prec < 17; ++prec) {
        end = std::to_chars(buf, buf + sizeof buf, v,
                            std::chars_format::general, prec)
                  .ptr;
        double back = 0.0;
        std::from_chars(buf, end, back);
        if (back == v)
            return std::string(buf, end);
    }
    end = std::to_chars(buf, buf + sizeof buf, v,
                        std::chars_format::general, 17)
              .ptr;
    return std::string(buf, end);
}

std::string
jsonQuote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    out += '"';
    return out;
}

void
JsonReader::skipSpace()
{
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
}

bool
JsonReader::peekIs(char c)
{
    skipSpace();
    return pos_ < text_.size() && text_[pos_] == c;
}

void
JsonReader::expect(char c)
{
    if (!peekIs(c))
        fail("expected '", c, "'");
    ++pos_;
}

std::string
JsonReader::string()
{
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
        if (text_[pos_] == '\\')
            ++pos_;
        if (pos_ < text_.size())
            out += text_[pos_++];
    }
    if (pos_ >= text_.size())
        fail("unterminated string");
    ++pos_; // closing quote
    return out;
}

double
JsonReader::number()
{
    skipSpace();
    const char *start = text_.c_str() + pos_;
    char *end = nullptr;
    const double v = std::strtod(start, &end);
    if (end == start)
        fail("expected number");
    pos_ += static_cast<std::size_t>(end - start);
    return v;
}

std::uint64_t
JsonReader::uint()
{
    skipSpace();
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    if (pos_ == start)
        fail("expected integer");
    return std::stoull(text_.substr(start, pos_ - start));
}

std::vector<double>
JsonReader::numbers()
{
    std::vector<double> out;
    array([&](std::size_t) { out.push_back(number()); });
    return out;
}

std::string
JsonReader::rawObject()
{
    if (!peekIs('{'))
        fail("expected object");
    const std::size_t start = pos_;
    int depth = 0;
    bool inString = false;
    for (; pos_ < text_.size(); ++pos_) {
        const char c = text_[pos_];
        if (inString) {
            if (c == '\\')
                ++pos_;
            else if (c == '"')
                inString = false;
        } else if (c == '"') {
            inString = true;
        } else if (c == '{') {
            ++depth;
        } else if (c == '}' && --depth == 0) {
            ++pos_;
            return text_.substr(start, pos_ - start);
        }
    }
    fail("unterminated object");
}

} // namespace vsgpu::obs
