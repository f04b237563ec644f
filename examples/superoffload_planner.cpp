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
 * The bench Harness's argv rules hold: an unknown flag, a positional
 * argument, a value on a switch, or a --jobs that is not a whole number
 * >= 0 exits 1 with a message naming the token. So does a --chips,
 * --batch or --seq (flag or config key) that is not a whole number >= 1
 * fitting uint32_t, and a --chips other than 1 or an even count.
 */
#include <cstdint>
#include <cstdio>
#include <limits>
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

/** Flags that take a value (possibly empty: --explain, --trace). */
constexpr const char *kValued[] = {
    "model", "chips",   "batch", "seq",   "binding",      "placement",
    "jobs",  "explain", "trace", "config", "explain-html"};

/** Flags that take none. */
constexpr const char *kSwitches[] = {
    "help",          "list-models",    "no-stv",  "no-sac",
    "no-grace-adam", "no-repartition", "compare", "json"};

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
    const ArgParser args(argc, argv);
    const std::string misuse = args.misuse(kSwitches, kValued);
    if (!misuse.empty()) {
        std::fprintf(stderr, "%s\n", misuse.c_str());
        return 1;
    }
    std::size_t jobs = 1;
    if (args.has("jobs") && !parseWholeNumber(args.get("jobs"), jobs)) {
        std::fprintf(stderr,
                     "--jobs must be a whole number >= 0 (got '%s')\n",
                     args.get("jobs").c_str());
        return 1;
    }

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
    ConfigFile file;
    if (args.has("config")) {
        bool ok = false;
        file = ConfigFile::load(args.get("config"), ok);
        if (!ok) {
            std::fprintf(stderr, "cannot read config file '%s'\n",
                         args.get("config").c_str());
            return 1;
        }
        for (const std::string &line : file.malformedLines())
            std::fprintf(stderr, "config: ignoring line '%s'\n",
                         line.c_str());
    }
    auto str_opt = [&](const std::string &key,
                       const std::string &fallback) {
        return args.has(key) ? args.get(key)
                             : file.get(key, fallback);
    };
    // --chips, --batch and --seq (or the same config keys) are counts:
    // a whole number >= 1 that fits uint32_t. Anything else exits 1
    // naming the flag and the token, instead of planning other counts.
    auto source = [&](const std::string &key) {
        return (args.has(key) ? "--" : "config key ") + key;
    };
    auto count_opt = [&](const std::string &key, std::uint32_t &out) {
        if (!args.has(key) && !file.has(key))
            return true; // Keep the default.
        const std::string text = str_opt(key, "");
        std::size_t value = 0;
        if (!parseWholeNumber(text, value) || value < 1 ||
            value > std::numeric_limits<std::uint32_t>::max()) {
            std::fprintf(stderr,
                         "%s must be a whole number >= 1 (got '%s')\n",
                         source(key).c_str(), text.c_str());
            return false;
        }
        out = static_cast<std::uint32_t>(value);
        return true;
    };
    std::uint32_t chips = 1;
    std::uint32_t batch = 8;
    std::uint32_t seq = 1024;
    if (!count_opt("chips", chips) || !count_opt("batch", batch) ||
        !count_opt("seq", seq))
        return 1;
    // hw::gh200ClusterOf arranges one Superchip or an even count.
    if (chips != 1 && chips % 2 != 0) {
        std::fprintf(stderr,
                     "%s must be 1 or an even number of Superchips "
                     "(got '%u')\n",
                     source("chips").c_str(), chips);
        return 1;
    }

    const std::string model_name = str_opt("model", "13B");
    if (!model::hasModelPreset(model_name)) {
        std::fprintf(stderr, "unknown model preset '%s' "
                             "(--list-models to enumerate)\n",
                     model_name.c_str());
        return 1;
    }

    runtime::TrainSetup setup;
    setup.cluster = hw::gh200ClusterOf(chips);
    setup.model = model::modelPreset(model_name);
    setup.global_batch = batch;
    setup.seq = seq;
    // Hierarchy overrides (docs/HW.md): reshape the cold tier without
    // recompiling a preset. `nvme_gb 0` removes the NVMe tier; the
    // derived hw::MemoryHierarchy, fit checks, and sweep fingerprints
    // all follow automatically.
    if (file.has("nvme_gb")) {
        hw::SuperchipSpec &chip = setup.cluster.node.superchip;
        chip.nvme_bytes = file.getDouble("nvme_gb", 0.0) * kGB;
        if (chip.nvme_bytes > 0.0) {
            const double bw =
                file.getDouble("nvme_bw_gbs",
                               chip.nvme.curve().empty()
                                   ? 6.0
                                   : chip.nvme.curve().peak() / kGB) *
                kGB;
            const double lat =
                file.getDouble("nvme_latency_us",
                               chip.nvme.latency() / kUs) *
                kUs;
            chip.nvme =
                hw::Link("NVMe", hw::BandwidthCurve::flat(bw), lat);
        }
    }
    // Power-model overrides (docs/ENERGY.md): config-only keys mapped
    // one-to-one onto hw::PowerOverrides. Energy metering is always on;
    // these only re-anchor the derived watts / per-byte tolls.
    {
        const std::pair<const char *, std::optional<double> *> keys[] = {
            {"gpu_busy_w", &setup.power.gpu_busy_w},
            {"gpu_idle_w", &setup.power.gpu_idle_w},
            {"cpu_busy_w", &setup.power.cpu_busy_w},
            {"cpu_idle_w", &setup.power.cpu_idle_w},
            {"link_busy_w", &setup.power.link_busy_w},
            {"link_idle_w", &setup.power.link_idle_w},
            {"nic_busy_w", &setup.power.nic_busy_w},
            {"nic_idle_w", &setup.power.nic_idle_w},
            {"nvme_busy_w", &setup.power.nvme_busy_w},
            {"nvme_idle_w", &setup.power.nvme_idle_w},
            {"c2c_pj_per_byte", &setup.power.c2c_pj_per_byte},
            {"nvme_pj_per_byte", &setup.power.nvme_pj_per_byte},
            {"ddr_w_per_gib", &setup.power.ddr_w_per_gib},
        };
        for (const auto &[key, field] : keys)
            if (file.has(key))
                *field = file.getDouble(key, 0.0);
    }
    if (str_opt("binding", "colocated") == "remote")
        setup.binding = hw::NumaBinding::Remote;
    setup.capture_trace = args.has("trace");
    // --explain diffs schedule profiles, so both the SuperOffload plan
    // and the baseline cells must capture them.
    const bool explain = args.has("explain") || args.has("explain-html");
    setup.capture_profile = explain;

    core::SuperOffloadOptions opts;
    opts.stv = !args.has("no-stv") && file.getBool("stv", true);
    opts.sac = !args.has("no-sac") && file.getBool("sac", true);
    opts.grace_adam =
        !args.has("no-grace-adam") && file.getBool("grace-adam", true);
    opts.repartition =
        !args.has("no-repartition") && file.getBool("repartition", true);
    const std::string placement = str_opt("placement", "auto");
    if (placement == "stationary")
        opts.placement = core::WeightPlacement::Stationary;
    else if (placement == "flow")
        opts.placement = core::WeightPlacement::Flow;

    core::SuperOffloadEngine engine(opts);
    const core::PlanReport report = engine.plan(setup);
    if (args.has("trace") && report.feasible) {
        const std::string path =
            args.get("trace", "superoffload_trace.json");
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
        sweep_opts.jobs = jobs;
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
            std::string base = args.get("explain");
            if (base.empty())
                base = "zero-offload";
            std::size_t base_index = baselines.size();
            for (std::size_t i = 0; i < baselines.size(); ++i)
                if (runtime::baselineNames()[i] == base)
                    base_index = i;
            if (base_index == baselines.size()) {
                std::fprintf(stderr,
                             "--explain: unknown baseline '%s'\n",
                             base.c_str());
                return 1;
            }
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
                    std::string html_path = args.get("explain-html");
                    if (html_path.empty())
                        html_path = "explain.html";
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
