#include "common/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ostream>

#include "common/logging.h"

namespace so {

void
JsonWriter::raw(char c)
{
    if (sink_)
        sink_->put(c);
    else
        out_ += c;
}

void
JsonWriter::raw(std::string_view text)
{
    if (sink_)
        sink_->write(text.data(),
                     static_cast<std::streamsize>(text.size()));
    else
        out_ += text;
}

void
JsonWriter::comma()
{
    if (pending_key_) {
        pending_key_ = false;
        return; // The key already placed the separator.
    }
    if (!has_elem_.empty()) {
        if (has_elem_.back())
            raw(',');
        has_elem_.back() = true;
    }
}

JsonWriter &
JsonWriter::beginObject()
{
    comma();
    raw('{');
    stack_.push_back(true);
    has_elem_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    SO_ASSERT(!stack_.empty() && stack_.back(), "endObject mismatch");
    SO_ASSERT(!pending_key_, "dangling key before endObject");
    raw('}');
    stack_.pop_back();
    has_elem_.pop_back();
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    comma();
    raw('[');
    stack_.push_back(false);
    has_elem_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    SO_ASSERT(!stack_.empty() && !stack_.back(), "endArray mismatch");
    raw(']');
    stack_.pop_back();
    has_elem_.pop_back();
    return *this;
}

JsonWriter &
JsonWriter::key(const std::string &name)
{
    SO_ASSERT(!stack_.empty() && stack_.back(),
              "key() outside an object");
    SO_ASSERT(!pending_key_, "two keys in a row");
    if (has_elem_.back())
        raw(',');
    has_elem_.back() = true;
    raw('"');
    raw(escape(name));
    raw("\":");
    pending_key_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(std::string_view text)
{
    comma();
    raw('"');
    raw(escape(text));
    raw('"');
    return *this;
}

JsonWriter &
JsonWriter::value(const char *text)
{
    return value(std::string_view(text));
}

JsonWriter &
JsonWriter::value(double number)
{
    comma();
    if (!std::isfinite(number)) {
        raw("null");
        return *this;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.12g", number);
    raw(buf);
    return *this;
}

JsonWriter &
JsonWriter::value(std::int64_t number)
{
    comma();
    raw(std::to_string(number));
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t number)
{
    comma();
    raw(std::to_string(number));
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint32_t number)
{
    return value(static_cast<std::uint64_t>(number));
}

JsonWriter &
JsonWriter::value(bool flag)
{
    comma();
    raw(flag ? "true" : "false");
    return *this;
}

JsonWriter &
JsonWriter::null()
{
    comma();
    raw("null");
    return *this;
}

std::string
JsonWriter::str() const
{
    SO_ASSERT(stack_.empty(), "unterminated JSON structure");
    SO_ASSERT(!sink_, "str() on a streaming JsonWriter");
    return out_;
}

bool
JsonValue::boolean() const
{
    SO_ASSERT(isBool(), "JsonValue is not a boolean");
    return bool_;
}

double
JsonValue::number() const
{
    SO_ASSERT(isNumber(), "JsonValue is not a number");
    return number_;
}

bool
JsonValue::asInteger(std::int64_t &out) const
{
    // Both bounds are exact doubles: -2^63 fits, 2^63 does not.
    if (!isNumber() || !(number_ >= -0x1p63 && number_ < 0x1p63))
        return false;
    out = static_cast<std::int64_t>(number_);
    return true;
}

bool
JsonValue::asInteger(std::uint64_t &out) const
{
    if (!isNumber() || !(number_ >= 0.0 && number_ < 0x1p64))
        return false;
    out = static_cast<std::uint64_t>(number_);
    return true;
}

const std::string &
JsonValue::text() const
{
    SO_ASSERT(isString(), "JsonValue is not a string");
    return text_;
}

const std::vector<JsonValue> &
JsonValue::items() const
{
    SO_ASSERT(isArray(), "JsonValue is not an array");
    return items_;
}

const std::vector<std::pair<std::string, JsonValue>> &
JsonValue::members() const
{
    SO_ASSERT(isObject(), "JsonValue is not an object");
    return members_;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    SO_ASSERT(isObject(), "JsonValue is not an object");
    for (const auto &[name, value] : members_)
        if (name == key)
            return &value;
    return nullptr;
}

const JsonValue &
JsonValue::at(const std::string &key) const
{
    const JsonValue *value = find(key);
    SO_ASSERT(value, "JSON object has no member \"", key, "\"");
    return *value;
}

/** Recursive-descent parser over one in-memory document. */
class JsonParser
{
  public:
    JsonParser(const std::string &text, std::string *error)
        : text_(text), error_(error)
    {
    }

    bool
    parseDocument(JsonValue &out)
    {
        skipWhitespace();
        if (!parseValue(out, 0))
            return false;
        skipWhitespace();
        if (pos_ != text_.size())
            return fail("trailing characters after document");
        return true;
    }

  private:
    /** Deepest nesting accepted before the parser gives up. */
    static constexpr std::size_t kMaxDepth = 256;

    bool
    fail(const std::string &reason)
    {
        if (error_ && error_->empty())
            *error_ = "offset " + std::to_string(pos_) + ": " + reason;
        return false;
    }

    void
    skipWhitespace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    consume(char expected)
    {
        if (pos_ >= text_.size() || text_[pos_] != expected)
            return fail(std::string("expected '") + expected + "'");
        ++pos_;
        return true;
    }

    bool
    parseLiteral(const char *word, std::size_t len)
    {
        if (text_.compare(pos_, len, word) != 0)
            return fail(std::string("invalid literal, expected ") + word);
        pos_ += len;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (!consume('"'))
            return false;
        out.clear();
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("unescaped control character in string");
            if (c != '\\') {
                out += c;
                ++pos_;
                continue;
            }
            if (++pos_ >= text_.size())
                return fail("dangling escape");
            const char esc = text_[pos_++];
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    return fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail("bad hex digit in \\u escape");
                }
                // UTF-8 encode the code point (surrogate pairs are
                // passed through individually; the writer never emits
                // them, it only \u-escapes control characters).
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xC0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (code >> 12));
                    out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                }
                break;
              }
              default:
                return fail("unknown escape");
            }
        }
        return fail("unterminated string");
    }

    bool
    parseNumeral(JsonValue &out)
    {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               ((text_[pos_] >= '0' && text_[pos_] <= '9') ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        if (pos_ == start)
            return fail("expected a number");
        const std::string token = text_.substr(start, pos_ - start);
        char *end = nullptr;
        const double value = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size())
            return fail("malformed number \"" + token + "\"");
        // strtod happily overflows "1e999" to +/-Inf; JSON has no
        // non-finite numbers (the writer emits null for them), so
        // reject instead of smuggling an Inf into callers.
        if (!std::isfinite(value))
            return fail("number \"" + token +
                        "\" overflows a finite double");
        out.kind_ = JsonValue::Kind::Number;
        out.number_ = value;
        return true;
    }

    bool
    parseValue(JsonValue &out, std::size_t depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        skipWhitespace();
        if (pos_ >= text_.size())
            return fail("unexpected end of document");
        switch (text_[pos_]) {
          case '{': {
            ++pos_;
            out.kind_ = JsonValue::Kind::Object;
            skipWhitespace();
            if (pos_ < text_.size() && text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            for (;;) {
                skipWhitespace();
                std::string key;
                if (!parseString(key))
                    return false;
                skipWhitespace();
                if (!consume(':'))
                    return false;
                JsonValue value;
                if (!parseValue(value, depth + 1))
                    return false;
                out.members_.emplace_back(std::move(key),
                                          std::move(value));
                skipWhitespace();
                if (pos_ < text_.size() && text_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                return consume('}');
            }
          }
          case '[': {
            ++pos_;
            out.kind_ = JsonValue::Kind::Array;
            skipWhitespace();
            if (pos_ < text_.size() && text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            for (;;) {
                JsonValue value;
                if (!parseValue(value, depth + 1))
                    return false;
                out.items_.push_back(std::move(value));
                skipWhitespace();
                if (pos_ < text_.size() && text_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                return consume(']');
            }
          }
          case '"':
            out.kind_ = JsonValue::Kind::String;
            return parseString(out.text_);
          case 't':
            out.kind_ = JsonValue::Kind::Bool;
            out.bool_ = true;
            return parseLiteral("true", 4);
          case 'f':
            out.kind_ = JsonValue::Kind::Bool;
            out.bool_ = false;
            return parseLiteral("false", 5);
          case 'n':
            out.kind_ = JsonValue::Kind::Null;
            return parseLiteral("null", 4);
          default:
            return parseNumeral(out);
        }
    }

    const std::string &text_;
    std::string *error_;
    std::size_t pos_ = 0;
};

bool
JsonValue::parse(const std::string &text, JsonValue &out,
                 std::string *error)
{
    if (error)
        error->clear();
    out = JsonValue();
    JsonParser parser(text, error);
    return parser.parseDocument(out);
}

std::string
JsonWriter::escape(std::string_view text)
{
    std::string out;
    out.reserve(text.size());
    for (unsigned char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

} // namespace so
