/**
 * @file
 * Minimal command-line argument parsing for the tools and benches.
 *
 * Supports `--flag`, `--key value`, and `--key=value` forms with typed
 * accessors and defaults. Unknown arguments are collected so callers
 * can reject or forward them.
 */
#ifndef SO_COMMON_ARGPARSE_H
#define SO_COMMON_ARGPARSE_H

#include <map>
#include <string>
#include <vector>

namespace so {

/** Parsed command line with typed lookups. */
class ArgParser
{
  public:
    /** Parse argv[1..argc); never throws, malformed input is ignored. */
    ArgParser(int argc, const char *const *argv);

    /** True when --name appeared (with or without a value). */
    bool has(const std::string &name) const;

    /** String value of --name, or @p fallback when absent. */
    std::string get(const std::string &name,
                    const std::string &fallback = "") const;

    /** Integer value of --name, or @p fallback when absent/invalid. */
    long long getInt(const std::string &name, long long fallback) const;

    /** Positional (non --key) arguments in order. */
    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

    /** All --key names seen, for unknown-option validation. */
    std::vector<std::string> keys() const;

  private:
    std::map<std::string, std::string> options_;
    std::vector<std::string> positional_;
};

} // namespace so

#endif // SO_COMMON_ARGPARSE_H
