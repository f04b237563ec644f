/**
 * @file
 * Repository benchmark program. One process runs one workload:
 *
 *   so_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *                [--work-dir <dir>] [--expected-dir <dir>]
 *                [--record-digests]
 *
 * With --trace 0 it measures the end-to-end metrics untraced; with
 * --trace 1 it makes the traced run that times each library call from
 * outside and reports the per-layer metrics. The last line of standard
 * output is one JSON object: {correct, attempted, failed, metrics}.
 * perfbench/NOTES.md describes the workloads and metrics.
 */
#include <cmath>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>

#include "common.h"

namespace {

using namespace perfbench;

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload") {
            opt.workload = value();
            have_workload = true;
        } else if (arg == "--seed") {
            opt.seed = std::stoull(value());
        } else if (arg == "--seconds") {
            opt.seconds = std::stod(value());
            if (!(opt.seconds > 0.0) || opt.seconds > 600.0)
                throw std::invalid_argument("--seconds must be in (0, 600]");
        } else if (arg == "--trace") {
            const std::string t = value();
            if (t != "0" && t != "1")
                throw std::invalid_argument("--trace must be 0 or 1");
            opt.trace = t == "1";
        } else if (arg == "--work-dir") {
            opt.work_dir = value();
        } else if (arg == "--expected-dir") {
            opt.expected_dir = value();
        } else if (arg == "--record-digests") {
            opt.record = true;
        } else {
            throw std::invalid_argument("unknown argument " + arg);
        }
    }
    if (!have_workload)
        throw std::invalid_argument("--workload is required");
    return opt;
}

void
print(const Options &opt, const Report &report)
{
    std::printf("workload %s  seed %llu  seconds %g  trace %d\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0);
    std::printf("input properties:\n");
    for (const auto &[name, value] : report.properties)
        std::printf("  %-34s %s\n", name.c_str(), value.c_str());
    for (const std::string &line : report.lines)
        std::printf("%s\n", line.c_str());
    std::printf("metrics:\n");
    for (const Report::Metric &m : report.metrics)
        std::printf("  %-44s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("operations: %lld attempted, %lld failed\n",
                static_cast<long long>(report.attempted),
                static_cast<long long>(report.failed));

    std::string json = "{\"correct\": ";
    json += report.failed == 0 && report.attempted > 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(report.attempted);
    json += ", \"failed\": " + std::to_string(report.failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const Report::Metric &m : report.metrics) {
        if (!std::isfinite(m.value))
            throw std::runtime_error("metric " + m.name + " is not finite");
        char num[40];
        std::snprintf(num, sizeof(num), "%.17g", m.value);
        json += first ? "" : ", ";
        json += "\"" + m.name + "\": {\"value\": " + num +
                ", \"unit\": \"" + m.unit + "\"}";
        first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Options opt = parseArgs(argc, argv);
        Report report;
        if (opt.workload == "sweep-grid")
            report = runSweepGrid(opt);
        else if (opt.workload == "plan-queries")
            report = runPlanQueries(opt);
        else if (opt.workload == "observe-grid")
            report = runObserveGrid(opt);
        else if (opt.workload == "adam-step")
            report = runAdamStep(opt);
        else
            throw std::invalid_argument("unknown workload " + opt.workload);
        print(opt, report);
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "so_perfbench: %s\n", e.what());
        return 2;
    }
}
