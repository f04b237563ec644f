#include "common/argparse.h"

#include <cstdlib>

namespace so {

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

} // namespace so
