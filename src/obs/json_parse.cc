#include "obs/json_parse.hh"

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace krisp
{
namespace json
{

namespace
{

/** Hard cap on nesting so hostile input cannot blow the stack. */
constexpr int maxDepth = 256;

struct Parser
{
    const std::string &text;
    std::size_t pos = 0;
    std::string error;

    bool
    fail(const std::string &what)
    {
        if (error.empty()) {
            std::ostringstream oss;
            oss << what << " at byte " << pos;
            error = oss.str();
        }
        return false;
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
    }

    bool
    consume(char c)
    {
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word, std::size_t len)
    {
        if (text.compare(pos, len, word) != 0)
            return fail("invalid literal");
        pos += len;
        return true;
    }

    /** Append code point @p cp to @p out as UTF-8. */
    static void
    appendUtf8(std::string &out, std::uint32_t cp)
    {
        if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
        } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else if (cp < 0x10000) {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(
                static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else {
            out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
            out.push_back(
                static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
            out.push_back(
                static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        }
    }

    bool
    hex4(std::uint32_t &out)
    {
        if (pos + 4 > text.size())
            return fail("truncated \\u escape");
        out = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = text[pos++];
            out <<= 4;
            if (c >= '0' && c <= '9')
                out |= static_cast<std::uint32_t>(c - '0');
            else if (c >= 'a' && c <= 'f')
                out |= static_cast<std::uint32_t>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                out |= static_cast<std::uint32_t>(c - 'A' + 10);
            else
                return fail("bad hex digit in \\u escape");
        }
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (!consume('"'))
            return fail("expected string");
        out.clear();
        while (true) {
            if (pos >= text.size())
                return fail("unterminated string");
            const char c = text[pos++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos >= text.size())
                return fail("truncated escape");
            const char e = text[pos++];
            switch (e) {
              case '"': out.push_back('"'); break;
              case '\\': out.push_back('\\'); break;
              case '/': out.push_back('/'); break;
              case 'b': out.push_back('\b'); break;
              case 'f': out.push_back('\f'); break;
              case 'n': out.push_back('\n'); break;
              case 'r': out.push_back('\r'); break;
              case 't': out.push_back('\t'); break;
              case 'u': {
                std::uint32_t cp = 0;
                if (!hex4(cp))
                    return false;
                // Combine a high surrogate with the (required)
                // following low surrogate.
                if (cp >= 0xD800 && cp <= 0xDBFF) {
                    if (pos + 1 < text.size() && text[pos] == '\\' &&
                        text[pos + 1] == 'u') {
                        pos += 2;
                        std::uint32_t lo = 0;
                        if (!hex4(lo))
                            return false;
                        if (lo < 0xDC00 || lo > 0xDFFF)
                            return fail("unpaired surrogate");
                        cp = 0x10000 + ((cp - 0xD800) << 10) +
                             (lo - 0xDC00);
                    } else {
                        return fail("unpaired surrogate");
                    }
                } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
                    return fail("unpaired surrogate");
                }
                appendUtf8(out, cp);
                break;
              }
              default:
                return fail("unknown escape");
            }
        }
    }

    bool
    parseNumber(Value &out)
    {
        const std::size_t start = pos;
        if (pos < text.size() && text[pos] == '-')
            ++pos;
        while (pos < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[pos])) ||
                text[pos] == '.' || text[pos] == 'e' ||
                text[pos] == 'E' || text[pos] == '+' ||
                text[pos] == '-'))
            ++pos;
        if (pos == start)
            return fail("expected number");
        const std::string tok = text.substr(start, pos - start);
        char *end = nullptr;
        const double v = std::strtod(tok.c_str(), &end);
        if (end == nullptr || *end != '\0')
            return fail("malformed number");
        out.type = Value::Type::Number;
        out.num = v;
        return true;
    }

    bool
    parseValue(Value &out, int depth)
    {
        if (depth > maxDepth)
            return fail("nesting too deep");
        skipWs();
        if (pos >= text.size())
            return fail("unexpected end of input");
        const char c = text[pos];
        if (c == '{') {
            ++pos;
            out.type = Value::Type::Object;
            skipWs();
            if (consume('}'))
                return true;
            while (true) {
                skipWs();
                std::string key;
                if (!parseString(key))
                    return false;
                skipWs();
                if (!consume(':'))
                    return fail("expected ':'");
                Value member;
                if (!parseValue(member, depth + 1))
                    return false;
                out.obj.emplace_back(std::move(key),
                                     std::move(member));
                skipWs();
                if (consume(','))
                    continue;
                if (consume('}'))
                    return true;
                return fail("expected ',' or '}'");
            }
        }
        if (c == '[') {
            ++pos;
            out.type = Value::Type::Array;
            skipWs();
            if (consume(']'))
                return true;
            while (true) {
                Value elem;
                if (!parseValue(elem, depth + 1))
                    return false;
                out.arr.push_back(std::move(elem));
                skipWs();
                if (consume(','))
                    continue;
                if (consume(']'))
                    return true;
                return fail("expected ',' or ']'");
            }
        }
        if (c == '"') {
            out.type = Value::Type::String;
            return parseString(out.str);
        }
        if (c == 't') {
            out.type = Value::Type::Bool;
            out.boolean = true;
            return literal("true", 4);
        }
        if (c == 'f') {
            out.type = Value::Type::Bool;
            out.boolean = false;
            return literal("false", 5);
        }
        if (c == 'n') {
            out.type = Value::Type::Null;
            return literal("null", 4);
        }
        return parseNumber(out);
    }
};

} // namespace

const Value *
Value::find(const std::string &key) const
{
    if (!isObject())
        return nullptr;
    for (const auto &[k, v] : obj)
        if (k == key)
            return &v;
    return nullptr;
}

const Value *
Value::find(const std::string &key, const std::string &sub) const
{
    const Value *v = find(key);
    return v != nullptr ? v->find(sub) : nullptr;
}

bool
parse(const std::string &text, Value &out, std::string &error)
{
    Parser p{text, 0, {}};
    out = Value();
    if (!p.parseValue(out, 0)) {
        error = p.error;
        return false;
    }
    p.skipWs();
    if (p.pos != text.size()) {
        p.fail("trailing garbage");
        error = p.error;
        return false;
    }
    return true;
}

bool
parseFile(const std::string &path, Value &out, std::string &error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        error = "cannot open " + path;
        return false;
    }
    std::ostringstream oss;
    oss << in.rdbuf();
    return parse(oss.str(), out, error);
}

} // namespace json
} // namespace krisp
