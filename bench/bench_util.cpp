#include "bench_util.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "common/argparse.h"
#include "common/file.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/schema.h"
#include "common/trace.h"
#include "report/history.h"
#include "report/html.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#ifndef SO_GIT_SHA
#define SO_GIT_SHA "unknown"
#endif

namespace so::bench {

std::string
Harness::sanitizeId(const std::string &id)
{
    std::string out;
    out.reserve(id.size());
    for (char c : id) {
        if (std::isalnum(static_cast<unsigned char>(c)))
            out += static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
    }
    return out.empty() ? std::string("bench") : out;
}

Harness::Harness(int argc, const char *const *argv, std::string id,
                 const std::string &description,
                 const std::string &paper_expectation,
                 std::size_t default_jobs)
    : id_(std::move(id))
{
    // SO_TRACE / SO_HEARTBEAT work for every bench, not just the ones
    // passing --self-trace (docs/SELFTRACE.md).
    trace::initFromEnv();
    banner(id_, description, paper_expectation);

    for (int i = 0; i < argc; ++i)
        argv_.emplace_back(argv[i]);

    const ArgParser args(argc, argv);
    runtime::SweepOptions options;
    options.jobs = static_cast<std::size_t>(std::max(
        0LL,
        args.getInt("jobs", static_cast<long long>(default_jobs))));
    options.progress = args.has("progress");
    options.name = id_;
    engine_ = std::make_unique<runtime::SweepEngine>(options);

    if (args.has("json")) {
        json_path_ = args.get("json");
        if (json_path_.empty())
            json_path_ = "BENCH_" + sanitizeId(id_) + ".json";
    }
    if (args.has("trace-dir")) {
        trace_dir_ = args.get("trace-dir");
        if (trace_dir_.empty())
            trace_dir_ = "traces";
        // Fail fast, before hours of sweep work: an existing regular
        // file at the target path would otherwise only surface when
        // the first per-cell write fails with a confusing message.
        std::error_code ec;
        std::filesystem::create_directories(trace_dir_, ec);
        if (!std::filesystem::is_directory(trace_dir_)) {
            const std::string detail =
                ec ? " (" + ec.message() + ")" : std::string();
            SO_FATAL("--trace-dir ", trace_dir_,
                     " is not a directory", detail);
        }
    }
    if (args.has("html")) {
        html_dir_ = args.get("html");
        if (html_dir_.empty())
            html_dir_ = "html";
        std::error_code ec;
        std::filesystem::create_directories(html_dir_, ec);
        if (!std::filesystem::is_directory(html_dir_)) {
            const std::string detail =
                ec ? " (" + ec.message() + ")" : std::string();
            SO_FATAL("--html ", html_dir_, " is not a directory",
                     detail);
        }
    }
    if (args.has("baseline"))
        baseline_path_ = args.get("baseline");
    if (args.has("self-trace")) {
        selftrace_path_ = args.get("self-trace");
        if (selftrace_path_.empty())
            selftrace_path_ =
                "BENCH_" + sanitizeId(id_) + ".selftrace.json";
        trace::setEnabled(true);
    }
    if (args.has("tolerance") &&
        !report::parseTolerance(args.get("tolerance"), tolerance_))
        SO_FATAL("--tolerance ", args.get("tolerance"),
                 ": must be a finite number >= 0");
    // --trace-dir and --html imply profiling so the traces carry
    // critical-path flow arrows and each cell gets its profile and
    // inspection-bundle documents.
    profile_ = args.has("profile") || !trace_dir_.empty() ||
               !html_dir_.empty();
}

std::size_t
Harness::add(const runtime::TrainingSystem &system,
             runtime::TrainSetup setup, std::string tag)
{
    if (profile_)
        setup.capture_profile = true;
    if (!trace_dir_.empty())
        setup.capture_trace = true;
    return engine_->add(system, std::move(setup), std::move(tag));
}

Table &
Harness::table(std::string title)
{
    tables_.push_back(std::make_unique<Table>(std::move(title)));
    return *tables_.back();
}

void
Harness::writeTraceFiles() const
{
    if (trace_dir_.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(trace_dir_, ec);
    if (ec)
        SO_FATAL("cannot create trace directory ", trace_dir_, ": ",
                 ec.message());

    auto write_doc = [](const std::string &path, const std::string &doc) {
        if (!writeFile(path, {doc, "\n"}))
            SO_FATAL("cannot write ", path);
    };

    const std::string stem = sanitizeId(id_);
    std::size_t written = 0;
    const auto &cells = engine_->cells();
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (!cells[i].evaluated)
            continue;
        const runtime::IterationResult &res = cells[i].result;
        const std::string base =
            trace_dir_ + "/" + stem + "_cell" + std::to_string(i);
        if (!res.trace_json.empty()) {
            write_doc(base + ".trace.json", res.trace_json);
            ++written;
        }
        if (!res.profile_json.empty()) {
            write_doc(base + ".profile.json", res.profile_json);
            ++written;
        }
        if (!res.bundle_json.empty()) {
            write_doc(base + ".bundle.json", res.bundle_json);
            ++written;
        }
    }
    std::printf("wrote %zu trace/profile file(s) to %s\n", written,
                trace_dir_.c_str());
}

std::string
Harness::checkBaseline(const std::string &doc) const
{
    std::ifstream in(baseline_path_, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "baseline check: cannot read %s\n",
                     baseline_path_.c_str());
        return "";
    }
    std::ostringstream buf;
    buf << in.rdbuf();

    JsonValue baseline, fresh;
    std::string error;
    if (!JsonValue::parse(buf.str(), baseline, &error)) {
        std::fprintf(stderr, "baseline check: %s: %s\n",
                     baseline_path_.c_str(), error.c_str());
        return "";
    }
    if (!JsonValue::parse(doc, fresh, &error)) {
        std::fprintf(stderr, "baseline check: fresh record: %s\n",
                     error.c_str());
        return "";
    }
    report::CheckOptions options;
    options.tolerance = tolerance_;
    const report::CheckVerdict verdict =
        report::checkAgainstBaseline(baseline, fresh, options);
    std::printf("baseline %s: %s\n", baseline_path_.c_str(),
                verdict.summary().c_str());

    // Verdict file next to the record: BENCH_<id>.verdict.json.
    std::string verdict_path =
        json_path_.empty() ? "BENCH_" + sanitizeId(id_) + ".json"
                           : json_path_;
    const std::string suffix = ".json";
    if (verdict_path.size() >= suffix.size() &&
        verdict_path.compare(verdict_path.size() - suffix.size(),
                             suffix.size(), suffix) == 0)
        verdict_path.resize(verdict_path.size() - suffix.size());
    verdict_path += ".verdict.json";
    const std::string verdict_json = verdict.json();
    if (!writeFile(verdict_path, {verdict_json, "\n"}))
        SO_FATAL("cannot write ", verdict_path);
    std::printf("wrote %s\n", verdict_path.c_str());
    return verdict_json;
}

void
Harness::writeHtmlPages(const std::string &doc,
                        const std::string &verdict_json,
                        const std::string &self_profile_json) const
{
    auto write_page = [](const std::string &path,
                         const report::HtmlReport &page) {
        if (!writeFile(path, {report::renderHtmlReport(page)}))
            SO_FATAL("cannot write ", path);
    };

    const std::string stem = sanitizeId(id_);
    const auto &cells = engine_->cells();
    std::vector<std::pair<std::string, std::string>> cell_links;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (!cells[i].evaluated ||
            cells[i].result.bundle_json.empty())
            continue;
        const std::string name =
            stem + "_cell" + std::to_string(i) + ".html";
        report::HtmlReport page;
        page.title = id_ + " · cell " + std::to_string(i);
        page.schedules.push_back(cells[i].result.bundle_json);
        if (!cells[i].result.profile_json.empty())
            page.profiles.emplace_back(
                "cell " + std::to_string(i),
                cells[i].result.profile_json);
        page.links.emplace_back("index", "index.html");
        write_page(html_dir_ + "/" + name, page);
        cell_links.emplace_back("cell " + std::to_string(i), name);
    }

    report::HtmlReport index;
    index.title = id_;
    index.records.emplace_back(id_, doc);
    index.verdict_json = verdict_json;
    index.self_profile_json = self_profile_json;
    index.links = std::move(cell_links);
    write_page(html_dir_ + "/index.html", index);
    std::printf("wrote %zu explorer page(s) to %s\n",
                index.links.size() + 1, html_dir_.c_str());
}

int
Harness::finish()
{
    trace::Span finish_span(trace::Category::Bench, "finish");
    writeTraceFiles();

    // Host self-trace first, so the export reflects the sweep and the
    // per-cell serialization — not the report rendering below it. The
    // summary feeds the Explorer "Engine" tab.
    std::string self_profile_json;
    if (!selftrace_path_.empty()) {
        const trace::CollectedTrace collected = trace::collect();
        self_profile_json = trace::selfProfileJson(collected);
        if (!trace::writeExport(selftrace_path_))
            SO_FATAL("cannot write ", selftrace_path_);
        std::printf("wrote %s (%zu span(s), %llu dropped)\n",
                    selftrace_path_.c_str(), collected.spans.size(),
                    static_cast<unsigned long long>(collected.dropped));
    }

    if (json_path_.empty() && baseline_path_.empty() &&
        html_dir_.empty())
        return 0;
    JsonWriter json;
    json.beginObject();
    json.field("bench", id_);
    json.field("jobs", static_cast<std::uint64_t>(engine_->jobs()));
    json.field("cache_hits",
               static_cast<std::uint64_t>(engine_->cacheHits()));
    json.field("cache_misses",
               static_cast<std::uint64_t>(engine_->cacheMisses()));
    json.key("tables").beginArray();
    for (const auto &table : tables_)
        table->writeJson(json);
    json.endArray();
    json.key("cells");
    engine_->writeCells(json);
    // Provenance subtree. The regression guard skips everything under
    // `meta`: a record must not "regress" because it was produced on a
    // different host or commit.
    json.key("meta").beginObject();
    json.field("schema_version", kSchemaVersion);
    json.field("git_sha", SO_GIT_SHA);
    char hostname[256] = "unknown";
#if defined(__unix__) || defined(__APPLE__)
    if (gethostname(hostname, sizeof(hostname)) != 0)
        std::snprintf(hostname, sizeof(hostname), "unknown");
    hostname[sizeof(hostname) - 1] = '\0';
#endif
    json.field("hostname", hostname);
    json.key("argv").beginArray();
    for (const std::string &arg : argv_)
        json.value(arg);
    json.endArray();
    json.endObject();
    json.endObject();
    const std::string doc = json.str();

    if (!json_path_.empty()) {
        if (!writeFile(json_path_, {doc, "\n"}))
            SO_FATAL("cannot write ", json_path_);
        std::printf("wrote %s\n", json_path_.c_str());
    }
    std::string verdict_json;
    if (!baseline_path_.empty())
        verdict_json = checkBaseline(doc);
    if (!html_dir_.empty())
        writeHtmlPages(doc, verdict_json, self_profile_json);
    return 0;
}

} // namespace so::bench
