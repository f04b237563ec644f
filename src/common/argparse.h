/**
 * @file
 * The one argv contract of the tools and benches.
 *
 * Each binary declares its flags once, and the planner its job-file
 * keys beside them. ArgParser tokenizes `--flag`, `--key value` and
 * `--key=value` by that declaration and checks every value against its
 * kind. The first token or line that breaks it is named in error(), in
 * one of four shapes: `unknown flag --x` (or `unknown config key k`),
 * `unexpected argument x`, `--x takes no value (got y)` and
 * `<--flag | config key k> must be <kind> (got '<token>')`.
 */
#ifndef SO_COMMON_ARGPARSE_H
#define SO_COMMON_ARGPARSE_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/config_file.h"

namespace so {

/**
 * Exit status of a rejected command line or job file: EX_USAGE from
 * sysexits.h. A run that fails exits 1 instead.
 */
inline constexpr int kUsageError = 64;

/** Print @p message to stderr and exit kUsageError. */
[[noreturn]] void usageError(const std::string &message);

/**
 * What a declared value must be. A Switch takes none on the command
 * line and true/yes/on/1 or false/no/off/0 in a job file; Text is any
 * non-empty text; Count0 and Count1 are whole numbers from 0 or 1 to
 * Flag::max; Number is strtod syntax other than NaN (inf is a number),
 * within Flag::range; Word is one of Flag::words.
 */
enum class ArgKind { Switch, Text, Count0, Count1, Number, Word };

/**
 * The values a Number admits: any, finite, finite and >= 0, or finite
 * and > 0.
 */
enum class NumberRange { Any, Finite, NonNegative, Positive };

/** Whether a name is a flag, a job-file key, or both. */
enum class ArgScope { Argv, Config, Both };

/** One flag or job-file key of a binary's declaration. */
struct Flag
{
    std::string name;
    ArgKind kind = ArgKind::Text;
    /** The value of the flag given bare; empty when it needs one. */
    std::string bare = {};
    std::vector<std::string> words = {};
    /** Count kinds: the largest value the destination holds. */
    std::uint64_t max = SIZE_MAX;
    /** Number kind: the values it admits. */
    NumberRange range = NumberRange::Any;
    ArgScope scope = ArgScope::Argv;
};

/** A command line, and optionally a job file, read by a declaration. */
class ArgParser
{
  public:
    /**
     * Read argv[1..argc) by @p flags. A switch never takes the next
     * token; another flag takes it unless it starts with `--` (so `-1`
     * is a value), else its bare value. At most @p max_positional
     * tokens may be arguments rather than flags. A repeated flag keeps
     * every value (all()); the readers below take the last.
     */
    ArgParser(int argc, const char *const *argv, std::vector<Flag> flags,
              std::size_t max_positional = 0);

    /**
     * Read @p file's keys by the declaration; a command-line value wins
     * over the file's. False on a malformed line, an undeclared key or
     * a malformed value, named in error().
     */
    bool readConfig(const ConfigFile &file);

    /** The first broken rule, or "" when the input keeps them all. */
    const std::string &error() const { return error_; }

    bool has(const std::string &name) const { return lookup(name) != nullptr; }
    std::string get(const std::string &name,
                    const std::string &fallback = "") const
    {
        const std::string *value = lookup(name);
        return value == nullptr ? fallback : *value;
    }
    std::size_t count(const std::string &name, std::size_t fallback) const;
    double number(const std::string &name, double fallback) const;

    /** A switch given on the command line or set in the job file. */
    bool on(const std::string &name, bool fallback) const;

    /** Every command-line value of @p name, in order. */
    std::vector<std::string> all(const std::string &name) const
    {
        return argv_values_.count(name) ? argv_values_.at(name)
                                        : std::vector<std::string>{};
    }

    /** "--name" when @p name came from argv, else "config key name". */
    std::string source(const std::string &name) const
    {
        return (argv_values_.count(name) ? "--" : "config key ") + name;
    }

    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

  private:
    const Flag *declared(const std::string &name, ArgScope where) const;
    bool admit(const Flag &flag, const std::string &value,
               const std::string &where);
    const std::string *lookup(const std::string &name) const;

    std::vector<Flag> flags_;
    std::map<std::string, std::vector<std::string>> argv_values_;
    std::map<std::string, std::string> config_values_;
    std::vector<std::string> positional_;
    std::string error_;
};

} // namespace so

#endif // SO_COMMON_ARGPARSE_H
