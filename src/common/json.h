/**
 * @file
 * Minimal streaming JSON writer and recursive-descent parser.
 *
 * Enough JSON for this library's needs — result/report export, the
 * chrome-trace format, and round-trip validation of both in tests —
 * without an external dependency: objects, arrays, strings (escaped),
 * numbers (finite doubles; non-finite values are emitted as null per
 * RFC 8259), booleans.
 */
#ifndef SO_COMMON_JSON_H
#define SO_COMMON_JSON_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace so {

/**
 * Builds one JSON document via push/pop calls.
 *
 * Two sinks: the default constructor buffers the document in memory
 * (retrieve it with str()), while the std::ostream constructor streams
 * every byte straight to the stream — peak memory stays O(nesting
 * depth) no matter how large the document grows, which is what the
 * at-scale trace/profile exporters rely on (docs/OBSERVABILITY.md).
 */
class JsonWriter
{
  public:
    /** Buffering writer: the document accumulates for str(). */
    JsonWriter() = default;

    /**
     * Streaming writer: bytes go to @p sink as they are produced and
     * str() must not be called. @p sink must outlive the writer.
     */
    explicit JsonWriter(std::ostream &sink) : sink_(&sink) {}

    /// @name Structure
    /// @{
    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();
    /** Key for the next value inside an object. */
    JsonWriter &key(const std::string &name);
    /// @}

    /// @name Values
    /// @{
    JsonWriter &value(std::string_view text);
    JsonWriter &value(const char *text);
    JsonWriter &value(double number);
    JsonWriter &value(std::int64_t number);
    JsonWriter &value(std::uint64_t number);
    JsonWriter &value(std::uint32_t number);
    JsonWriter &value(bool flag);
    JsonWriter &null();
    /// @}

    /** Convenience: key + value in one call. */
    template <typename T>
    JsonWriter &
    field(const std::string &name, T &&v)
    {
        key(name);
        return value(std::forward<T>(v));
    }

    /**
     * The finished document. @panics if structures remain open or the
     * writer streams to an ostream (the document already left).
     */
    std::string str() const;

    /** Escape @p text for embedding in a JSON string literal. */
    static std::string escape(std::string_view text);

  private:
    void comma();
    /** Append raw bytes to the active sink (buffer or stream). */
    void raw(char c);
    void raw(std::string_view text);

    std::ostream *sink_ = nullptr; // Null: buffer into out_.
    std::string out_;
    /** Stack: true = in object (expects keys), false = in array. */
    std::vector<bool> stack_;
    /** Whether the current container already has an element. */
    std::vector<bool> has_elem_;
    bool pending_key_ = false;
};

/**
 * One parsed JSON value. A plain tagged struct rather than a variant:
 * the inactive members are empty/zero, and accessors assert the kind so
 * misuse fails loudly in tests.
 */
class JsonValue
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    /** The boolean payload. @panics unless isBool(). */
    bool boolean() const;

    /** The numeric payload. @panics unless isNumber(). */
    double number() const;

    /**
     * The numeric payload truncated toward zero into @p out, when the
     * value is a number that fits @p out's type. Returns false and
     * leaves @p out untouched otherwise, so a reader of an untrusted
     * document can treat an out-of-range count or index like an absent
     * member instead of casting it out of range.
     */
    bool asInteger(std::int64_t &out) const;
    bool asInteger(std::uint64_t &out) const;

    /** The string payload (unescaped). @panics unless isString(). */
    const std::string &text() const;

    /** Array elements in order. @panics unless isArray(). */
    const std::vector<JsonValue> &items() const;

    /** Object members in document order. @panics unless isObject(). */
    const std::vector<std::pair<std::string, JsonValue>> &members() const;

    /** First member named @p key, or nullptr. @panics unless isObject(). */
    const JsonValue *find(const std::string &key) const;

    /** Like find() but @panics when the key is absent. */
    const JsonValue &at(const std::string &key) const;

    /**
     * Parse @p text as one JSON document (trailing whitespace allowed,
     * trailing garbage rejected). Returns false and fills *@p error
     * (when non-null) with "offset N: reason" on malformed input.
     */
    static bool parse(const std::string &text, JsonValue &out,
                      std::string *error = nullptr);

  private:
    friend class JsonParser;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double number_ = 0.0;
    std::string text_;
    std::vector<JsonValue> items_;
    std::vector<std::pair<std::string, JsonValue>> members_;
};

} // namespace so

#endif // SO_COMMON_JSON_H
