/**
 * @file
 * `superoffload_planner` — command-line front end to the engine: plan
 * a training job, optionally compare against every baseline, and dump
 * the simulated schedule as a chrome://tracing JSON.
 *
 * Usage:
 *   superoffload_planner [--model 13B] [--chips 1|4|8|16|2N]
 *                        [--batch 8] [--seq 1024]
 *                        [--binding colocated|remote]
 *                        [--placement auto|stationary|flow]
 *                        [--no-stv] [--no-sac] [--no-grace-adam]
 *                        [--no-repartition] [--compare]
 *                        [--explain [baseline]]
 *                        [--explain-html explain.html] [--list-models]
 *                        [--jobs N] [--json] [--trace t.json]
 *                        [--config job.conf]
 *
 * Flags and job-file keys are read by one so::ArgParser declaration. A
 * command line or job file it rejects, a --chips other than 1 or an
 * even count, an unknown --model preset or --explain baseline exits
 * so::kUsageError (64) naming the token; exit 1 is left for runs that
 * fail: an unreadable job file, a failed write or an infeasible plan.
 */
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/argparse.h"
#include "common/config_file.h"
#include "common/file.h"
#include "common/table.h"
#include "common/units.h"
#include "core/engine.h"
#include "core/report_json.h"
#include "hw/bandwidth.h"
#include "hw/topology.h"
#include "report/diff.h"
#include "report/html.h"
#include "runtime/registry.h"
#include "runtime/sweep.h"

namespace {

/** The baseline --explain diffs against when it names none. */
const std::string kExplainBaseline = "zero-offload";

using PowerField = std::optional<double> so::hw::PowerOverrides::*;

/** The config-only power keys (docs/ENERGY.md) and their fields. */
constexpr std::pair<const char *, PowerField> kPowerKeys[] = {
    {"gpu_busy_w", &so::hw::PowerOverrides::gpu_busy_w},
    {"gpu_idle_w", &so::hw::PowerOverrides::gpu_idle_w},
    {"cpu_busy_w", &so::hw::PowerOverrides::cpu_busy_w},
    {"cpu_idle_w", &so::hw::PowerOverrides::cpu_idle_w},
    {"link_busy_w", &so::hw::PowerOverrides::link_busy_w},
    {"link_idle_w", &so::hw::PowerOverrides::link_idle_w},
    {"nic_busy_w", &so::hw::PowerOverrides::nic_busy_w},
    {"nic_idle_w", &so::hw::PowerOverrides::nic_idle_w},
    {"nvme_busy_w", &so::hw::PowerOverrides::nvme_busy_w},
    {"nvme_idle_w", &so::hw::PowerOverrides::nvme_idle_w},
    {"c2c_pj_per_byte", &so::hw::PowerOverrides::c2c_pj_per_byte},
    {"nvme_pj_per_byte", &so::hw::PowerOverrides::nvme_pj_per_byte},
    {"ddr_w_per_gib", &so::hw::PowerOverrides::ddr_w_per_gib},
};

/** Every flag and job-file key the planner reads. */
std::vector<so::Flag>
plannerFlags()
{
    using enum so::ArgKind;
    constexpr auto kBoth = so::ArgScope::Both;
    constexpr auto kConfig = so::ArgScope::Config;
    std::vector<so::Flag> flags = {
        {.name = "model", .scope = kBoth},
        {.name = "binding", .kind = Word, .words = {"colocated", "remote"},
         .scope = kBoth},
        {.name = "placement", .kind = Word,
         .words = {"auto", "stationary", "flow"}, .scope = kBoth},
        {.name = "jobs", .kind = Count0},
        {.name = "explain", .bare = kExplainBaseline},
        {.name = "explain-html", .bare = "explain.html"},
        {.name = "trace", .bare = "superoffload_trace.json"},
        {.name = "config"}};
    for (const char *name : {"chips", "batch", "seq"})
        flags.push_back(
            {.name = name, .kind = Count1, .max = UINT32_MAX, .scope = kBoth});
    for (const char *name :
         {"help", "list-models", "no-stv", "no-sac", "no-grace-adam",
          "no-repartition", "compare", "json"})
        flags.push_back({.name = name, .kind = Switch});
    for (const char *name : {"stv", "sac", "grace-adam", "repartition"})
        flags.push_back({.name = name, .kind = Switch, .scope = kConfig});
    // Hierarchy overrides (docs/HW.md) and the power keys.
    for (const char *name : {"nvme_gb", "nvme_bw_gbs", "nvme_latency_us"})
        flags.push_back({.name = name, .kind = Number, .scope = kConfig});
    for (const auto &[name, field] : kPowerKeys)
        flags.push_back({.name = name, .kind = Number, .scope = kConfig});
    return flags;
}

int
listModels()
{
    using namespace so;
    Table table("Appendix-A model presets");
    table.setHeader({"name", "layers", "hidden", "params"});
    for (const model::ModelConfig &cfg : model::modelPresets()) {
        table.addRow({cfg.name, std::to_string(cfg.layers),
                      std::to_string(cfg.hidden),
                      formatParams(cfg.params())});
    }
    table.print();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace so;
    ArgParser args(argc, argv, plannerFlags());
    if (!args.error().empty())
        usageError(args.error());

    if (args.has("help")) {
        std::printf(
            "superoffload_planner: plan SuperOffload training for a "
            "model on a GH200 cluster\n"
            "  --model <preset>      Appendix-A preset (default 13B); "
            "--list-models to enumerate\n"
            "  --chips <n>           total Superchips (default 1)\n"
            "  --batch <n>           global batch (default 8)\n"
            "  --seq <n>             sequence length (default 1024)\n"
            "  --binding <b>         colocated|remote NUMA binding\n"
            "  --placement <p>       auto|stationary|flow\n"
            "  --no-stv --no-sac --no-grace-adam --no-repartition\n"
            "  --compare             also evaluate every baseline\n"
            "  --explain [base]      diff SuperOffload's schedule "
            "against a baseline's\n"
            "                        (default zero-offload; implies "
            "--compare)\n"
            "  --explain-html <file> additionally render the diff plus "
            "both schedules'\n"
            "                        Gantts as a self-contained HTML "
            "explorer page\n"
            "  --jobs <n>            worker threads for --compare "
            "(0 = all cores)\n"
            "  --json                emit the plan as JSON\n"
            "  --trace <file>        dump the simulated schedule as "
            "chrome://tracing JSON\n"
            "  --config <file>       declarative job file (flags "
            "override)\n"
            "  config-only hierarchy keys (docs/HW.md): nvme_gb, "
            "nvme_bw_gbs,\n"
            "                        nvme_latency_us override the "
            "chips' NVMe tier\n"
            "  config-only power keys (docs/ENERGY.md): gpu_busy_w, "
            "gpu_idle_w,\n"
            "                        cpu_busy_w, cpu_idle_w, "
            "link_busy_w, link_idle_w,\n"
            "                        nic_busy_w, nic_idle_w, "
            "nvme_busy_w, nvme_idle_w,\n"
            "                        c2c_pj_per_byte, nvme_pj_per_byte, "
            "ddr_w_per_gib\n"
            "                        re-anchor the derived power "
            "model\n");
        return 0;
    }
    if (args.has("list-models"))
        return listModels();

    // Optional declarative job file; explicit flags override it.
    if (args.has("config")) {
        bool ok = false;
        const ConfigFile file = ConfigFile::load(args.get("config"), ok);
        if (!ok) {
            std::fprintf(stderr, "cannot read config file '%s'\n",
                         args.get("config").c_str());
            return 1;
        }
        if (!args.readConfig(file))
            usageError(args.error());
    }
    const auto chips = static_cast<std::uint32_t>(args.count("chips", 1));
    // hw::gh200ClusterOf arranges one Superchip or an even count.
    if (chips != 1 && chips % 2 != 0)
        usageError(args.source("chips") +
                   " must be 1 or an even number of Superchips (got '" +
                   std::to_string(chips) + "')");
    const std::string model_name = args.get("model", "13B");
    if (!model::hasModelPreset(model_name))
        usageError("unknown model preset '" + model_name +
                   "' (--list-models to enumerate)");
    // --explain diffs schedule profiles, so both the SuperOffload plan
    // and the baseline cells must capture them.
    const bool explain = args.has("explain") || args.has("explain-html");
    const std::string base = args.get("explain", kExplainBaseline);
    const std::vector<std::string> &names = runtime::baselineNames();
    const std::size_t base_index =
        std::find(names.begin(), names.end(), base) - names.begin();
    if (explain && base_index == names.size())
        usageError("--explain: unknown baseline '" + base + "'");

    runtime::TrainSetup setup;
    setup.cluster = hw::gh200ClusterOf(chips);
    setup.model = model::modelPreset(model_name);
    setup.global_batch = static_cast<std::uint32_t>(args.count("batch", 8));
    setup.seq = static_cast<std::uint32_t>(args.count("seq", 1024));
    // Hierarchy overrides (docs/HW.md): reshape the cold tier without
    // recompiling a preset. `nvme_gb 0` removes the NVMe tier; the
    // derived hw::MemoryHierarchy, fit checks, and sweep fingerprints
    // all follow automatically.
    if (args.has("nvme_gb")) {
        hw::SuperchipSpec &chip = setup.cluster.node.superchip;
        chip.nvme_bytes = args.number("nvme_gb", 0.0) * kGB;
        if (chip.nvme_bytes > 0.0) {
            const double bw =
                args.number("nvme_bw_gbs",
                            chip.nvme.curve().empty()
                                ? 6.0
                                : chip.nvme.curve().peak() / kGB) *
                kGB;
            const double lat =
                args.number("nvme_latency_us",
                            chip.nvme.latency() / kUs) *
                kUs;
            chip.nvme =
                hw::Link("NVMe", hw::BandwidthCurve::flat(bw), lat);
        }
    }
    // Power-model overrides (docs/ENERGY.md). Energy metering is always
    // on; these only re-anchor the derived watts / per-byte tolls.
    for (const auto &[key, field] : kPowerKeys)
        if (args.has(key))
            setup.power.*field = args.number(key, 0.0);
    if (args.get("binding", "colocated") == "remote")
        setup.binding = hw::NumaBinding::Remote;
    setup.capture_trace = args.has("trace");
    setup.capture_profile = explain;

    core::SuperOffloadOptions opts;
    opts.stv = !args.has("no-stv") && args.on("stv", true);
    opts.sac = !args.has("no-sac") && args.on("sac", true);
    opts.grace_adam =
        !args.has("no-grace-adam") && args.on("grace-adam", true);
    opts.repartition =
        !args.has("no-repartition") && args.on("repartition", true);
    const std::string placement = args.get("placement", "auto");
    if (placement == "stationary")
        opts.placement = core::WeightPlacement::Stationary;
    else if (placement == "flow")
        opts.placement = core::WeightPlacement::Flow;

    core::SuperOffloadEngine engine(opts);
    const core::PlanReport report = engine.plan(setup);
    if (args.has("trace") && report.feasible) {
        const std::string path = args.get("trace");
        if (!writeFile(path, {report.iteration.trace_json})) {
            std::fprintf(stderr, "cannot write trace to %s\n",
                         path.c_str());
            return 1;
        }
        std::fprintf(stderr,
                     "schedule trace written to %s "
                     "(open in chrome://tracing or Perfetto)\n",
                     path.c_str());
    }
    if (args.has("json")) {
        std::printf("%s\n", core::toJson(report, setup).c_str());
        return report.feasible ? 0 : 1;
    }
    std::printf("%s\n", report.summary(setup).c_str());

    if (args.has("compare") || explain) {
        runtime::SweepOptions sweep_opts;
        sweep_opts.jobs = args.count("jobs", 1);
        sweep_opts.name = "compare";
        runtime::SweepEngine sweep(sweep_opts);
        std::vector<runtime::SystemPtr> baselines;
        for (const std::string &name : runtime::baselineNames()) {
            baselines.push_back(runtime::makeBaseline(name));
            sweep.add(*baselines.back(), setup);
        }
        sweep.run();

        Table table("baseline comparison");
        table.setHeader({"system", "TFLOPS", "GPU util %", "status"});
        for (std::size_t i = 0; i < baselines.size(); ++i) {
            const auto &res = sweep.result(i);
            table.addRow(
                {baselines[i]->name(),
                 res.feasible ? Table::num(res.tflopsPerGpu(), 1) : "-",
                 res.feasible
                     ? Table::num(100.0 * res.gpu_utilization, 1)
                     : "-",
                 res.feasible ? "ok" : res.infeasible_reason});
        }
        if (report.feasible) {
            table.addRow(
                {"SuperOffload",
                 Table::num(report.iteration.tflopsPerGpu(), 1),
                 Table::num(100.0 * report.iteration.gpu_utilization, 1),
                 "ok"});
        }
        table.print();

        if (explain) {
            // Phase-level attribution of SuperOffload's gap over one
            // baseline (the paper's Fig. 4 / Fig. 10 argument).
            const auto &base_res = sweep.result(base_index);
            if (!base_res.feasible || !base_res.profile.valid) {
                std::printf("\n--explain: baseline %s is infeasible "
                            "here, nothing to diff\n",
                            base.c_str());
            } else if (!report.feasible ||
                       !report.iteration.profile.valid) {
                std::printf("\n--explain: SuperOffload plan is "
                            "infeasible here, nothing to diff\n");
            } else {
                const so::report::ProfileDiff diff =
                    so::report::diffProfiles(
                        so::report::viewFromIteration(
                            base_res,
                            baselines[base_index]->name()),
                        so::report::viewFromIteration(
                            report.iteration, "SuperOffload"));
                std::printf("\n%s",
                            so::report::diffToText(diff).c_str());
                if (args.has("explain-html")) {
                    const std::string html_path = args.get("explain-html");
                    so::report::HtmlReport page;
                    page.title =
                        "SuperOffload vs " + base + " · " + model_name;
                    page.schedules.push_back(base_res.bundle_json);
                    page.schedules.push_back(
                        report.iteration.bundle_json);
                    page.profiles.emplace_back(
                        base, base_res.profile_json);
                    page.profiles.emplace_back(
                        "SuperOffload", report.iteration.profile_json);
                    page.diff_json = so::report::diffToJson(diff);
                    if (!writeFile(html_path,
                                   {so::report::renderHtmlReport(page)})) {
                        std::fprintf(stderr,
                                     "cannot write %s\n",
                                     html_path.c_str());
                        return 1;
                    }
                    std::fprintf(stderr,
                                 "explorer page written to %s\n",
                                 html_path.c_str());
                }
            }
        }
    }
    return report.feasible ? 0 : 1;
}
