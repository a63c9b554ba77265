/**
 * @file
 * Minimal recursive-descent JSON reader for the reporting tools.
 *
 * The simulator emits JSON (metrics snapshots, timelines, traces);
 * krisp-report and the telemetry tests read it back. The parser
 * covers RFC 8259 — objects, arrays, strings with escapes (including
 * \uXXXX and surrogate pairs), numbers, true/false/null — with a
 * fixed nesting-depth limit. Object member order is preserved so
 * round-trip comparisons stay meaningful.
 */

#ifndef KRISP_OBS_JSON_PARSE_HH
#define KRISP_OBS_JSON_PARSE_HH

#include <string>
#include <utility>
#include <vector>

namespace krisp
{
namespace json
{

/** One parsed JSON value (a tagged tree). */
struct Value
{
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Type type = Type::Null;
    bool boolean = false;
    double num = 0;
    std::string str;
    std::vector<Value> arr;
    /** Members in document order (lookups are linear; fine for
     *  report-sized documents). */
    std::vector<std::pair<std::string, Value>> obj;

    bool isNull() const { return type == Type::Null; }
    bool isBool() const { return type == Type::Bool; }
    bool isNumber() const { return type == Type::Number; }
    bool isString() const { return type == Type::String; }
    bool isArray() const { return type == Type::Array; }
    bool isObject() const { return type == Type::Object; }

    /** Member lookup on an object; null for misses / non-objects. */
    const Value *find(const std::string &key) const;
    /** Nested lookup: find("a", "b") == find("a")->find("b"). */
    const Value *find(const std::string &key,
                      const std::string &sub) const;

    /** Number value, or @p fallback when absent / wrong type. */
    double numberOr(double fallback) const
    {
        return isNumber() ? num : fallback;
    }
    const std::string &
    stringOr(const std::string &fallback) const
    {
        return isString() ? str : fallback;
    }
};

/**
 * Parse @p text into @p out. On failure returns false and sets
 * @p error to a message with the byte offset of the problem.
 * Trailing whitespace is allowed; trailing garbage is an error.
 */
bool parse(const std::string &text, Value &out, std::string &error);

/** parse() on a whole file; false on read or parse failure. */
bool parseFile(const std::string &path, Value &out,
               std::string &error);

} // namespace json
} // namespace krisp

#endif // KRISP_OBS_JSON_PARSE_HH
