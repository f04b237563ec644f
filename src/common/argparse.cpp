#include "common/argparse.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace so {

bool
parseWholeNumber(const std::string &text, std::size_t &out)
{
    if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])))
        return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
    if (*end != '\0' || errno == ERANGE ||
        static_cast<std::size_t>(value) != value)
        return false;
    out = static_cast<std::size_t>(value);
    return true;
}

ArgParser::ArgParser(int argc, const char *const *argv)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(arg);
            continue;
        }
        std::string name = arg.substr(2);
        const auto eq = name.find('=');
        if (eq != std::string::npos) {
            options_[name.substr(0, eq)] = name.substr(eq + 1);
            continue;
        }
        // `--key value` when the next token is not itself an option;
        // otherwise a bare flag.
        if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
            options_[name] = argv[++i];
        } else {
            options_[name] = "";
        }
    }
}

bool
ArgParser::has(const std::string &name) const
{
    return options_.count(name) > 0;
}

std::string
ArgParser::get(const std::string &name, const std::string &fallback) const
{
    const auto it = options_.find(name);
    return it == options_.end() ? fallback : it->second;
}

long long
ArgParser::getInt(const std::string &name, long long fallback) const
{
    const auto it = options_.find(name);
    if (it == options_.end() || it->second.empty())
        return fallback;
    char *end = nullptr;
    const long long value = std::strtoll(it->second.c_str(), &end, 10);
    return (end && *end == '\0') ? value : fallback;
}

std::vector<std::string>
ArgParser::keys() const
{
    std::vector<std::string> out;
    out.reserve(options_.size());
    for (const auto &[key, value] : options_) {
        (void)value;
        out.push_back(key);
    }
    return out;
}

std::string
ArgParser::misuse(std::span<const char *const> switches,
                  std::span<const char *const> valued) const
{
    const auto declared = [](std::span<const char *const> names,
                             const std::string &key) {
        return std::find(names.begin(), names.end(), key) != names.end();
    };
    for (const auto &[key, value] : options_) {
        (void)value;
        if (!declared(switches, key) && !declared(valued, key))
            return "unknown flag --" + key;
    }
    if (!positional_.empty())
        return "unexpected argument " + positional_.front() +
               " (every option is a --flag)";
    for (const char *flag : switches) {
        if (!get(flag).empty())
            return std::string("--") + flag + " takes no value (got " +
                   get(flag) + ")";
    }
    return "";
}

} // namespace so
