/**
 * @file
 * Bench-record regression guard: flatten a BENCH_*.json record into
 * named numeric metrics, compare it against a committed baseline with
 * per-metric relative tolerances, and keep an append-only JSONL
 * history of records.
 *
 * Gating is opt-in by naming convention, because only some metrics
 * have a better direction:
 *   - `*_per_s`                 — throughput, higher is better,
 *   - `*_s`, `*_s_mean`, `*_ms` — latency, lower is better,
 *   - anything else             — recorded in the verdict but ungated.
 * The `metrics` subtree that records from older builds carry (a
 * wall-clock telemetry snapshot, kept in the committed BENCH_*.json
 * files and history) is skipped entirely: its histograms vary run to
 * run by design. The `meta` subtree (schema version, git SHA,
 * hostname, argv) is skipped for the same reason — provenance is not a
 * comparable surface.
 *
 * The verdict is machine-readable JSON so CI can upload it as an
 * artifact and later gate on it; the check itself never exits — policy
 * (warn vs fail) belongs to the caller. `so-report check` is the one
 * caller: it exits 1 on a regression unless --warn-only is given.
 */
#ifndef SO_REPORT_HISTORY_H
#define SO_REPORT_HISTORY_H

#include <map>
#include <string>
#include <vector>

namespace so {
class JsonValue;
} // namespace so

namespace so::report {

/**
 * Better-direction of a metric path, by the suffix convention above:
 * +1 higher-better, -1 lower-better, 0 ungated.
 */
int metricDirection(const std::string &path);

/**
 * Append every numeric leaf of @p doc to @p out as
 * (dot-and-index path, value) pairs — e.g. "sizes[0].build_tasks_per_s"
 * — skipping any object member named "metrics" or "meta".
 */
void flattenNumericLeaves(const JsonValue &doc, const std::string &prefix,
                          std::vector<std::pair<std::string, double>> &out);

/** One metric compared between baseline and fresh record. */
struct MetricDelta
{
    std::string path;
    double baseline = 0.0;
    double fresh = 0.0;
    /** (fresh - baseline) / |baseline| (0 when baseline is 0). */
    double rel_change = 0.0;
    /** metricDirection(path). */
    int direction = 0;
    /** Direction != 0 and present in the baseline. */
    bool gated = false;
    /** Gated and worse than the tolerance allows. */
    bool regressed = false;
    /** Gated metric present in the baseline but absent in fresh. */
    bool missing = false;
};

/**
 * Parse all of @p text as a relative tolerance into @p value: a finite
 * number >= 0. Returns false for anything else, since nan or inf would
 * pass every metric, a negative value would fail every one, and text
 * that is not a number would silently keep the default.
 */
bool parseTolerance(const std::string &text, double &value);

/** Tolerances for one check. */
struct CheckOptions
{
    /** Default relative tolerance for gated metrics. */
    double tolerance = 0.25;
    /** Per-path overrides (exact path match). */
    std::map<std::string, double> overrides;
};

/** Outcome of one baseline check. */
struct CheckVerdict
{
    bool pass = true;
    double tolerance = 0.25;
    /** Every gated metric (regressed or not) plus missing ones. */
    std::vector<MetricDelta> metrics;
    /** Numeric leaves seen in the fresh record (gated + ungated). */
    std::size_t checked = 0;
    /** Count of gated comparisons. */
    std::size_t gated = 0;

    /** Paths of the regressed metrics, in metrics order. */
    std::vector<std::string> regressions() const;

    /** The verdict as one standalone JSON document. */
    std::string json() const;

    /** One-line human summary ("pass: 12 gated ..." / "REGRESSED ..."). */
    std::string summary() const;
};

/**
 * Compare @p fresh against @p baseline: every gated metric of the
 * baseline must be present in fresh and within tolerance in its better
 * direction. Never exits; policy belongs to the caller.
 */
CheckVerdict checkAgainstBaseline(const JsonValue &baseline,
                                  const JsonValue &fresh,
                                  const CheckOptions &options = {});

/**
 * Append-only JSONL history of bench records (one record per line,
 * re-serialized compact). The paper's §5 trajectory — does the
 * reproduction get faster or slower PR over PR — reads straight off
 * this file.
 */
class BenchHistory
{
  public:
    explicit BenchHistory(std::string path);

    const std::string &path() const { return path_; }

    /**
     * Validate @p record_json as one JSON document and append it as
     * one compact line. Returns false and fills *@p error on malformed
     * input or I/O failure.
     */
    bool append(const std::string &record_json, std::string *error);

  private:
    std::string path_;
};

/** Re-serialize a parsed JSON value compactly (canonical one-liner). */
std::string compactJson(const JsonValue &value);

} // namespace so::report

#endif // SO_REPORT_HISTORY_H
