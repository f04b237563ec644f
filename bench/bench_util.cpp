#include "bench_util.h"

#include <cctype>
#include <filesystem>
#include <system_error>

#include "common/argparse.h"
#include "common/file.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/schema.h"
#include "common/trace.h"

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

    const std::string stem = "BENCH_" + sanitizeId(id_);
    const ArgParser args(argc, argv,
                         {{.name = "jobs", .kind = ArgKind::Count0},
                          {.name = "json", .bare = stem + ".json"},
                          {.name = "progress", .kind = ArgKind::Switch},
                          {.name = "profile", .kind = ArgKind::Switch},
                          {.name = "trace-dir", .bare = "traces"},
                          {.name = "self-trace",
                           .bare = stem + ".selftrace.json"}});
    if (!args.error().empty())
        usageError(args.error());
    banner(id_, description, paper_expectation);

    for (int i = 0; i < argc; ++i)
        argv_.emplace_back(argv[i]);

    runtime::SweepOptions options;
    options.jobs = args.count("jobs", default_jobs);
    options.progress = args.has("progress");
    options.name = id_;
    engine_ = std::make_unique<runtime::SweepEngine>(options);

    json_path_ = args.get("json");
    trace_dir_ = args.get("trace-dir");
    selftrace_path_ = args.get("self-trace");
    if (!trace_dir_.empty()) {
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
    if (!selftrace_path_.empty())
        trace::setEnabled(true);
    // --trace-dir implies profiling so the traces carry critical-path
    // flow arrows and each cell gets its profile and inspection-bundle
    // documents.
    profile_ = args.has("profile") || !trace_dir_.empty();
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

int
Harness::finish()
{
    trace::Span finish_span(trace::Category::Bench, "finish");
    writeTraceFiles();

    // Host self-trace before the record, so the export reflects the
    // sweep and the per-cell serialization.
    if (!selftrace_path_.empty()) {
        const trace::CollectedTrace collected = trace::collect();
        if (!trace::writeExport(selftrace_path_))
            SO_FATAL("cannot write ", selftrace_path_);
        std::printf("wrote %s (%zu span(s), %llu dropped)\n",
                    selftrace_path_.c_str(), collected.spans.size(),
                    static_cast<unsigned long long>(collected.dropped));
    }

    if (json_path_.empty())
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
    if (!writeFile(json_path_, {json.str(), "\n"}))
        SO_FATAL("cannot write ", json_path_);
    std::printf("wrote %s\n", json_path_.c_str());
    return 0;
}

} // namespace so::bench
