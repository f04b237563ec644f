/**
 * @file
 * Tiny INI-style configuration file reader.
 *
 * Format: one `key = value` per line, `#` or `;` comments, blank lines
 * ignored, later keys override earlier ones. Used by the planner CLI
 * so training jobs can be described declaratively; ArgParser::readConfig
 * checks the keys and values against the planner's declaration.
 */
#ifndef SO_COMMON_CONFIG_FILE_H
#define SO_COMMON_CONFIG_FILE_H

#include <map>
#include <string>
#include <vector>

namespace so {

/** Parsed key/value configuration. */
class ConfigFile
{
  public:
    /** Parse from text; malformed lines are collected, not fatal. */
    static ConfigFile parse(const std::string &text);

    /** Load from a file. @param ok set false when the file is
     * unreadable (the returned config is then empty). */
    static ConfigFile load(const std::string &path, bool &ok);

    /** Every key with its last value, as text. */
    const std::map<std::string, std::string> &values() const
    {
        return values_;
    }

    /** Lines that failed to parse (for diagnostics). */
    const std::vector<std::string> &malformedLines() const
    {
        return malformed_;
    }

  private:
    std::map<std::string, std::string> values_;
    std::vector<std::string> malformed_;
};

} // namespace so

#endif // SO_COMMON_CONFIG_FILE_H
