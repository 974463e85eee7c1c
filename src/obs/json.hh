/**
 * @file
 * The JSON pieces every obs dump shares: number and string writers,
 * and a strict reader for the subset those dumps emit.  The reader
 * panics on anything malformed or unknown, so schema drift fails
 * loudly instead of loading half a file.
 */

#ifndef VSGPU_OBS_JSON_HH
#define VSGPU_OBS_JSON_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace vsgpu::obs
{

/** @return the shortest round-trip-exact representation of @p v. */
std::string jsonNumber(double v);

/** @return @p s as a quoted JSON string ('"' and '\\' escaped). */
std::string jsonQuote(const std::string &s);

/** Strict reader over one JSON document. */
class JsonReader
{
  public:
    /** @param what dump name for error messages, e.g. "stats JSON". */
    JsonReader(std::string text, const char *what)
        : text_(std::move(text)), what_(what) {}

    /** Read an object; @p onKey(key) must consume each value. */
    template <typename OnKey>
    void
    object(OnKey onKey)
    {
        expect('{');
        for (bool first = true; !peekIs('}'); first = false) {
            if (!first)
                expect(',');
            const std::string key = string();
            expect(':');
            onKey(key);
        }
        expect('}');
    }

    /** Read an array; @p onItem(index) must consume each element. */
    template <typename OnItem>
    void
    array(OnItem onItem)
    {
        expect('[');
        for (std::size_t i = 0; !peekIs(']'); ++i) {
            if (i > 0)
                expect(',');
            onItem(i);
        }
        expect(']');
    }

    std::string string();
    double number();
    std::uint64_t uint();
    std::vector<double> numbers();

    /** @return one balanced object, verbatim. */
    std::string rawObject();

    /** Panic, naming the dump and the current offset. */
    template <typename... Args>
    [[noreturn]] void
    fail(Args &&...args) const
    {
        panic(what_, ": ", std::forward<Args>(args)..., " at offset ",
              pos_);
    }

  private:
    void skipSpace();
    bool peekIs(char c);
    void expect(char c);

    std::string text_;
    const char *what_;
    std::size_t pos_ = 0;
};

} // namespace vsgpu::obs

#endif // VSGPU_OBS_JSON_HH
