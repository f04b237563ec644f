#include "common/config_file.h"

#include <fstream>
#include <sstream>

namespace so {

namespace {

std::string
trim(const std::string &text)
{
    const auto begin = text.find_first_not_of(" \t\r");
    if (begin == std::string::npos)
        return "";
    const auto end = text.find_last_not_of(" \t\r");
    return text.substr(begin, end - begin + 1);
}

} // namespace

ConfigFile
ConfigFile::parse(const std::string &text)
{
    ConfigFile cfg;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        // Strip comments.
        const auto hash = line.find_first_of("#;");
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        const std::string trimmed = trim(line);
        if (trimmed.empty())
            continue;
        // A line without '=' or without a key is malformed.
        const auto eq = trimmed.find('=');
        const std::string key =
            eq == std::string::npos ? "" : trim(trimmed.substr(0, eq));
        if (key.empty())
            cfg.malformed_.push_back(trimmed);
        else
            cfg.values_[key] = trim(trimmed.substr(eq + 1));
    }
    return cfg;
}

ConfigFile
ConfigFile::load(const std::string &path, bool &ok)
{
    std::ifstream in(path);
    if (!in) {
        ok = false;
        return ConfigFile{};
    }
    std::stringstream buf;
    buf << in.rdbuf();
    ok = true;
    return parse(buf.str());
}

} // namespace so
