/**
 * @file
 * Minimal command-line argument parsing for the tools and benches.
 *
 * Supports `--flag`, `--key value`, and `--key=value` forms with typed
 * accessors and defaults. Unknown arguments are collected so callers
 * can reject or forward them; misuse() checks them against a binary's
 * declared flags.
 */
#ifndef SO_COMMON_ARGPARSE_H
#define SO_COMMON_ARGPARSE_H

#include <cstddef>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace so {

/**
 * Parse all of @p text as a whole number >= 0 that fits in size_t into
 * @p out. Returns false for anything else ("abc", "-3", "1.5", "1e5",
 * ""), which a lenient parse would read as some other count.
 */
bool parseWholeNumber(const std::string &text, std::size_t &out);

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

    /**
     * The first way this command line breaks a binary's declared flags,
     * as a message naming the token, or "" when it keeps them: a flag
     * in neither @p switches nor @p valued ("unknown flag --x"), a
     * positional argument, or a value given to a switch. Checked in
     * that order.
     */
    std::string misuse(std::span<const char *const> switches,
                       std::span<const char *const> valued) const;

  private:
    std::map<std::string, std::string> options_;
    std::vector<std::string> positional_;
};

} // namespace so

#endif // SO_COMMON_ARGPARSE_H
