#include "common/argparse.h"

#include <algorithm>
#include <charconv>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace so {

namespace {

/**
 * All of @p text as a whole number that fits size_t, into @p out: not
 * "abc", "-3", "1.5", "1e5" or "", which a lenient parse reads as one.
 */
bool
readCount(const std::string &text, std::size_t &out)
{
    const char *end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, out);
    return ec == std::errc() && stop == end;
}

/** All of @p text as a number in strtod syntax, other than NaN. */
bool
isNumber(const std::string &text, double &value)
{
    char *end = nullptr;
    value = std::strtod(text.c_str(), &end);
    return !text.empty() && *end == '\0' && !std::isnan(value);
}

/** Whether @p range admits the number @p value. */
bool
inRange(double value, NumberRange range)
{
    switch (range) {
      case NumberRange::Any:         return true;
      case NumberRange::Finite:      return std::isfinite(value);
      case NumberRange::NonNegative: return std::isfinite(value) && value >= 0;
      case NumberRange::Positive:    return std::isfinite(value) && value > 0;
    }
    return false;
}

/** A job-file switch word in any case: 1 for on, 0 for off, else -1. */
int
switchWord(std::string text)
{
    std::transform(text.begin(), text.end(), text.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (text == "true" || text == "yes" || text == "on" || text == "1")
        return 1;
    if (text == "false" || text == "no" || text == "off" || text == "0")
        return 0;
    return -1;
}

} // namespace

void
usageError(const std::string &message)
{
    std::fprintf(stderr, "%s\n", message.c_str());
    std::exit(kUsageError);
}

ArgParser::ArgParser(int argc, const char *const *argv,
                     std::vector<Flag> flags, std::size_t max_positional)
    : flags_(std::move(flags))
{
    // A stray argument right after a bare switch reads as the value the
    // switch cannot take.
    const Flag *after_switch = nullptr;
    for (int i = 1; i < argc && error_.empty(); ++i) {
        const std::string arg = argv[i];
        if (!arg.starts_with("--")) {
            if (positional_.size() < max_positional)
                positional_.push_back(arg);
            else if (after_switch != nullptr)
                error_ = "--" + after_switch->name +
                         " takes no value (got " + arg + ")";
            else
                error_ = "unexpected argument " + arg;
            after_switch = nullptr;
            continue;
        }
        const std::size_t eq = arg.find('=');
        const std::string name =
            eq == std::string::npos ? arg.substr(2) : arg.substr(2, eq - 2);
        const Flag *flag = declared(name, ArgScope::Argv);
        if (flag == nullptr) {
            error_ = "unknown flag --" + name;
            break;
        }
        const bool is_switch = flag->kind == ArgKind::Switch;
        std::string value;
        if (eq != std::string::npos)
            value = arg.substr(eq + 1);
        else if (!is_switch && i + 1 < argc &&
                 !std::string(argv[i + 1]).starts_with("--"))
            value = argv[++i];
        if (is_switch && eq != std::string::npos) {
            error_ = "--" + name + " takes no value (got " + value + ")";
            break;
        }
        if (value.empty())
            value = flag->bare;
        if (!is_switch && !admit(*flag, value, "--" + name))
            break;
        argv_values_[name].push_back(value);
        after_switch = is_switch ? flag : nullptr;
    }
}

bool
ArgParser::readConfig(const ConfigFile &file)
{
    if (!file.malformedLines().empty()) {
        error_ = "malformed config line '" + file.malformedLines()[0] + "'";
        return false;
    }
    for (const auto &[key, value] : file.values()) {
        const Flag *flag = declared(key, ArgScope::Config);
        if (flag == nullptr)
            error_ = "unknown config key " + key;
        if (flag == nullptr || !admit(*flag, value, "config key " + key))
            return false;
        config_values_[key] = value;
    }
    return true;
}

const Flag *
ArgParser::declared(const std::string &name, ArgScope where) const
{
    for (const Flag &flag : flags_)
        if (flag.name == name &&
            (flag.scope == where || flag.scope == ArgScope::Both))
            return &flag;
    return nullptr;
}

bool
ArgParser::admit(const Flag &flag, const std::string &value,
                 const std::string &where)
{
    std::size_t count = 0;
    double number = 0.0;
    bool ok = false;
    switch (flag.kind) {
      case ArgKind::Switch: ok = switchWord(value) >= 0; break;
      case ArgKind::Text:   ok = !value.empty(); break;
      case ArgKind::Count0:
      case ArgKind::Count1:
        ok = readCount(value, count) && count <= flag.max &&
             (flag.kind == ArgKind::Count0 || count >= 1);
        break;
      case ArgKind::Number:
        ok = isNumber(value, number) && inRange(number, flag.range);
        break;
      case ArgKind::Word:
        ok = std::find(flag.words.begin(), flag.words.end(), value) !=
             flag.words.end();
        break;
    }
    if (ok)
        return true;
    static const char *const kKinds[] = {
        "true/yes/on/1 or false/no/off/0", "non-empty text",
        "a whole number >= 0", "a whole number >= 1", "a number", "one of "};
    // A number outside its range is named by the range it breaks.
    static const char *const kRanges[] = {
        "a number", "a finite number", "a finite number >= 0",
        "a finite number > 0"};
    std::string kind = flag.kind == ArgKind::Number && isNumber(value, number)
                           ? kRanges[static_cast<int>(flag.range)]
                           : kKinds[static_cast<int>(flag.kind)];
    for (const std::string &word : flag.words)
        kind += (&word == &flag.words.front() ? "" : "|") + word;
    error_ = where + " must be " + kind + " (got '" + value + "')";
    return false;
}

const std::string *
ArgParser::lookup(const std::string &name) const
{
    if (const auto it = argv_values_.find(name); it != argv_values_.end())
        return &it->second.back();
    const auto it = config_values_.find(name);
    return it == config_values_.end() ? nullptr : &it->second;
}

std::size_t
ArgParser::count(const std::string &name, std::size_t fallback) const
{
    std::size_t out = fallback;
    if (const std::string *value = lookup(name))
        readCount(*value, out);
    return out;
}

double
ArgParser::number(const std::string &name, double fallback) const
{
    const std::string *value = lookup(name);
    return value == nullptr ? fallback : std::strtod(value->c_str(), nullptr);
}

bool
ArgParser::on(const std::string &name, bool fallback) const
{
    if (argv_values_.count(name) > 0)
        return true;
    const auto it = config_values_.find(name);
    return it == config_values_.end() ? fallback : switchWord(it->second) > 0;
}

} // namespace so
