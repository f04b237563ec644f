#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::size_t
workerCount()
{
    return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
}

void
Ledger::add(const std::string &stage, double seconds, bool keep_sample)
{
    Stage &s = stages_[stage];
    ++s.calls;
    s.seconds += seconds;
    if (keep_sample)
        s.samples.push_back(seconds);
}

const Ledger::Stage &
Ledger::stage(const std::string &name) const
{
    static const Stage kEmpty;
    const auto it = stages_.find(name);
    return it == stages_.end() ? kEmpty : it->second;
}

double
Ledger::total() const
{
    double sum = 0.0;
    for (const auto &[name, s] : stages_)
        sum += s.seconds;
    return sum;
}

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + frac * (values[hi] - values[lo]);
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 0.5);
}

double
peakRssMiB()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    throw std::runtime_error("VmHWM not found in /proc/self/status");
}

void
resetPeakRss()
{
    std::ofstream out("/proc/self/clear_refs");
    out << "5";
    out.flush();
    if (!out)
        throw std::runtime_error("cannot reset the peak RSS mark "
                                 "(/proc/self/clear_refs)");
}

namespace {

void
put(std::string &out, double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%a;", v);
    out += buf;
}

void
put(std::string &out, const std::string &s)
{
    out += s;
    out += ';';
}

} // namespace

std::uint64_t
resultDigest(const so::runtime::IterationResult &r)
{
    std::string text;
    text.reserve(512);
    put(text, r.feasible ? 1.0 : 0.0);
    put(text, r.infeasible_reason);
    put(text, r.iter_time);
    put(text, static_cast<double>(r.micro_batch));
    put(text, static_cast<double>(r.accum_steps));
    put(text, r.activation_checkpointing ? 1.0 : 0.0);
    put(text, r.gpu_utilization);
    put(text, r.cpu_utilization);
    put(text, r.link_utilization);
    const so::runtime::MemoryReport &mem = r.memory;
    for (double v : {mem.gpu_bytes, mem.gpu_capacity, mem.cpu_bytes,
                     mem.cpu_capacity, mem.nvme_bytes, mem.nvme_capacity})
        put(text, v);
    for (const so::runtime::TierUsage &tier : mem.tiers) {
        put(text, tier.tier);
        put(text, tier.bytes);
        put(text, tier.capacity);
    }
    for (const auto &[key, value] : r.extras) {
        put(text, key);
        put(text, value);
    }
    put(text, r.energy.iter_j);

    std::uint64_t h = 0xcbf29ce484222325ULL; // FNV-1a 64
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
hexDigest(std::uint64_t digest)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(digest));
    return buf;
}

std::vector<std::string>
readDigests(const std::string &path)
{
    std::vector<std::string> out;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty())
            out.push_back(line);
    }
    return out;
}

void
writeDigests(const std::string &path,
             const std::vector<std::string> &digests)
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        throw std::runtime_error("cannot write " + path);
    for (const std::string &d : digests)
        out << d << '\n';
}

std::string
format(const char *fmt, double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), fmt, value);
    return buf;
}

void
Report::property(const std::string &name, const std::string &value)
{
    properties.emplace_back(name, value);
}

void
Report::property(const std::string &name, double value)
{
    properties.emplace_back(name, format("%.6g", value));
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    metrics.push_back(Metric{name, value, unit});
}

void
Report::line(const std::string &text)
{
    lines.push_back(text);
}

std::vector<Window>
groupWindows(const std::vector<Window> &units, std::size_t per_window)
{
    std::vector<Window> windows;
    for (std::size_t i = 0; i < units.size(); i += per_window) {
        const std::size_t end = std::min(i + per_window, units.size());
        if (end - i < per_window && !windows.empty())
            break;
        Window w;
        for (std::size_t u = i; u < end; ++u) {
            w.latencies.insert(w.latencies.end(),
                               units[u].latencies.begin(),
                               units[u].latencies.end());
            w.wall += units[u].wall;
            w.ops += units[u].ops;
        }
        windows.push_back(std::move(w));
    }
    return windows;
}

void
endToEnd(Report &report, double setup_s,
         const std::vector<Window> &windows, double peak_rss_mb)
{
    std::vector<double> rates, p50s, p99s;
    for (const Window &w : windows) {
        rates.push_back(w.ops / w.wall);
        p50s.push_back(percentile(w.latencies, 0.50));
        p99s.push_back(percentile(w.latencies, 0.99));
    }
    std::size_t ops = 0;
    for (const Window &w : windows)
        ops += w.latencies.size();
    report.line("time metrics are medians over " +
                std::to_string(windows.size()) + " windows of " +
                format("%.0f", static_cast<double>(ops) /
                                   static_cast<double>(windows.size())) +
                " operations");
    report.metric("setup_s", setup_s, "s");
    report.metric("ops_per_s", median(rates), "op/s");
    report.metric("op_p50_ms", 1e3 * median(p50s), "ms");
    report.metric("op_p99_ms", 1e3 * median(p99s), "ms");
    report.metric("peak_rss_mb", peak_rss_mb, "MiB");
}

namespace {

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Emit a derived ratio together with its numerator and denominator. */
void
ratioMetric(Report &report, const std::string &name, double num,
            double den, const std::string &base_unit)
{
    report.metric(name, ratio(num, den), "ratio");
    report.metric(name + ".num", num, base_unit);
    report.metric(name + ".den", den, base_unit);
    char buf[160];
    std::snprintf(buf, sizeof(buf), "  %-34s %.4f = %.6g / %.6g",
                  name.c_str(), ratio(num, den), num, den);
    report.line(buf);
}

} // namespace

void
reportLayers(const Layers &layers, Report &report)
{
    const Ledger &ledger = layers.ledger;
    const Ledger::Stage &so_eval =
        ledger.stage("core.superoffload.evaluate_candidate");
    const Ledger::Stage &base_eval =
        ledger.stage("runtime.baselines.evaluate_candidate");
    std::vector<double> eval_samples = so_eval.samples;
    eval_samples.insert(eval_samples.end(), base_eval.samples.begin(),
                        base_eval.samples.end());
    const double eval_calls =
        static_cast<double>(so_eval.calls + base_eval.calls);
    const double eval_s = so_eval.seconds + base_eval.seconds;

    report.line("per-layer self time (traced run, stages do not nest):");
    report.line("  stage                                    calls"
                "        self s   share");
    for (const auto &[name, s] : ledger.stages()) {
        char buf[160];
        std::snprintf(buf, sizeof(buf), "  %-38s %9lld %13.6f %6.2f%%",
                      name.c_str(), static_cast<long long>(s.calls),
                      s.seconds,
                      100.0 * ratio(s.seconds, layers.traced_wall));
        report.line(buf);
    }
    const double loop_overhead =
        std::max(0.0, layers.traced_wall - ledger.total());
    {
        char buf[160];
        std::snprintf(buf, sizeof(buf), "  %-38s %9s %13.6f %6.2f%%",
                      "(loop overhead)", "-", loop_overhead,
                      100.0 * ratio(loop_overhead, layers.traced_wall));
        report.line(buf);
        std::snprintf(buf, sizeof(buf), "  %-38s %9s %13.6f %6.2f%%",
                      "traced wall", "-", layers.traced_wall, 100.0);
        report.line(buf);
        std::snprintf(buf, sizeof(buf),
                      "tracing overhead: traced wall %.4f s - untraced "
                      "wall %.4f s (%zu worker(s)) = %.4f s over %lld op(s)",
                      layers.traced_wall, layers.untraced_wall,
                      layers.workers,
                      layers.traced_wall - layers.untraced_wall,
                      static_cast<long long>(layers.ops));
        report.line(buf);
    }
    report.line("derived ratios (value = numerator / denominator):");

    auto stage_metrics = [&](const std::string &name, bool calls) {
        const Ledger::Stage &s = ledger.stage(name);
        if (calls)
            report.metric(name + ".calls", static_cast<double>(s.calls),
                          "count");
        report.metric(name + ".s", s.seconds, "s");
    };

    report.metric("runtime.evaluate_candidate.calls", eval_calls, "count");
    report.metric("runtime.evaluate_candidate.s", eval_s, "s");
    report.metric("runtime.evaluate_candidate.p50_ms",
                  1e3 * percentile(eval_samples, 0.50), "ms");
    report.metric("runtime.evaluate_candidate.p95_ms",
                  1e3 * percentile(eval_samples, 0.95), "ms");
    stage_metrics("core.superoffload.evaluate_candidate", true);
    stage_metrics("runtime.baselines.evaluate_candidate", true);
    stage_metrics("runtime.enumerate_candidates", true);
    ratioMetric(report, "runtime.screen_only_ratio",
                layers.screen_only_cells, layers.cells, "count");
    stage_metrics("runtime.select_best", true);
    stage_metrics("runtime.result_json", false);
    report.metric("runtime.result_json.bytes", layers.result_json_bytes,
                  "B");
    ratioMetric(report, "runtime.winner_ratio", layers.cells,
                layers.candidates, "count");
    report.metric("runtime.result.rendered_bytes_per_candidate",
                  ratio(layers.rendered_bytes, layers.candidates), "B");
    report.metric("sim.observe.s_per_candidate",
                  ratio(layers.observe_extra_s, layers.candidates), "s");
    stage_metrics("sim.observe.capture_off", false);
    stage_metrics("report.render_html", false);
    report.metric("report.render_html.bytes", layers.html_bytes, "B");
    stage_metrics("bench.write_artifacts", false);
    report.metric("bench.write_artifacts.bytes", layers.artifact_bytes,
                  "B");
    report.metric("runtime.sweep.cache_hits", layers.cache_hits, "count");
    report.metric("runtime.sweep.cache_misses", layers.cache_misses,
                  "count");
    ratioMetric(report, "runtime.sweep.cache_hit_ratio", layers.cache_hits,
                layers.cache_hits + layers.cache_misses, "count");
    ratioMetric(report, "runtime.sweep.worker_busy_frac",
                eval_calls > 0 ? eval_s : 0.0,
                eval_calls > 0 ? static_cast<double>(layers.workers) *
                                     layers.untraced_wall
                               : 0.0,
                "s");

    const Ledger::Stage &grace = ledger.stage("optim.adam_grace");
    const Ledger::Stage &fused = ledger.stage("optim.adam_fused");
    const double grace_rate = ratio(layers.adam_elems, grace.seconds) / 1e9;
    const double fused_rate =
        ratio(layers.adam_fused_elems, fused.seconds) / 1e9;
    stage_metrics("optim.adam_grace", true);
    report.metric("optim.adam_grace.s_per_step",
                  ratio(grace.seconds, static_cast<double>(grace.calls)),
                  "s");
    // 28 B per element: read param, m, v, grad; write param, m, v.
    report.metric("optim.adam_grace.gbytes_per_s", 28.0 * grace_rate,
                  "GB/s");
    stage_metrics("optim.adam_fused", false);
    report.metric("optim.adam_fused.gelems_per_s", fused_rate, "Gelem/s");
    ratioMetric(report, "optim.grace_over_fused", grace_rate, fused_rate,
                "Gelem/s");

    stage_metrics("bench.memo_lookup", false);
    stage_metrics("bench.build_setup", false);
    stage_metrics("bench.check", false);
    report.metric("trace.ops", static_cast<double>(layers.ops), "count");
    report.metric("trace.traced_wall_s", layers.traced_wall, "s");
    report.metric("trace.untraced_wall_s", layers.untraced_wall, "s");
    report.metric("trace.overhead_s",
                  layers.traced_wall - layers.untraced_wall, "s");
    report.metric("trace.loop_overhead_s", loop_overhead, "s");
    ratioMetric(report, "trace.self_time_share", ledger.total(),
                layers.traced_wall, "s");
}

} // namespace perfbench
