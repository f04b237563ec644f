#include "runtime/sweep.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>

#include "common/file.h"
#include "common/json.h"
#include "common/schema.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "hw/memory.h"
#include "runtime/result_json.h"

namespace so::runtime {

namespace {

// Fingerprint building blocks. Doubles are serialized as hexfloats so
// the key captures the exact bit pattern (two setups differing in the
// last ulp are different cells).

void
appendNum(std::string &out, double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%a;", v);
    out += buf;
}

void
appendNum(std::string &out, std::uint32_t v)
{
    out += std::to_string(v);
    out += ';';
}

void
appendStr(std::string &out, const std::string &s)
{
    out += s;
    out += ';';
}

void
appendLink(std::string &out, const hw::Link &link)
{
    appendStr(out, link.name());
    for (const auto &point : link.curve().points()) {
        appendNum(out, point.bytes);
        appendNum(out, point.bw);
    }
    out += '|';
    appendNum(out, link.latency());
}

void
appendHierarchy(std::string &out, const hw::NodeSpec &node)
{
    // The derived memory hierarchy is part of the cell identity: a
    // change to the tier/path model (new tiers, different channels,
    // usable fractions) must invalidate stored sweep results even when
    // the raw chip fields happen to agree.
    const hw::MemoryHierarchy hier =
        hw::memoryHierarchy(node, hw::NumaBinding::Colocated);
    for (const hw::MemoryTier &tier : hier.tiers()) {
        appendStr(out, tier.name);
        appendNum(out, static_cast<std::uint32_t>(tier.kind));
        appendNum(out, tier.capacity_bytes);
        appendNum(out, tier.bandwidth);
        appendNum(out, tier.latency);
        appendNum(out, tier.usable_fraction);
    }
    for (const hw::MemoryPath &path : hier.paths()) {
        appendStr(out, path.name);
        appendStr(out, path.channel);
        appendLink(out, path.link);
    }
}

void
appendCluster(std::string &out, const hw::ClusterSpec &cluster)
{
    const hw::NodeSpec &node = cluster.node;
    const hw::SuperchipSpec &chip = node.superchip;
    appendStr(out, chip.name);
    appendStr(out, chip.gpu.name);
    appendNum(out, chip.gpu.peak_flops);
    appendNum(out, chip.gpu.achievable_frac);
    appendNum(out, chip.gpu.attn_achievable_frac);
    appendNum(out, chip.gpu.mem_bytes);
    appendNum(out, chip.gpu.mem_bw);
    appendStr(out, chip.cpu.name);
    appendNum(out, chip.cpu.cores);
    appendNum(out, chip.cpu.peak_flops);
    appendNum(out, chip.cpu.mem_bytes);
    appendNum(out, chip.cpu.mem_bw);
    appendLink(out, chip.c2c);
    appendNum(out, chip.nvme_bytes);
    appendLink(out, chip.nvme);
    appendStr(out, node.name);
    appendNum(out, node.superchips_per_node);
    appendLink(out, node.intra_node);
    appendLink(out, node.inter_node);
    appendNum(out, cluster.node_count);
    appendHierarchy(out, node);
}

void
appendModel(std::string &out, const model::ModelConfig &model)
{
    appendStr(out, model.name);
    appendNum(out, model.layers);
    appendNum(out, model.hidden);
    appendNum(out, model.heads);
    appendNum(out, model.vocab);
}

} // namespace

SweepEngine::SweepEngine(SweepOptions options)
    : options_(std::move(options))
{
    jobs_ = options_.jobs != 0
                ? options_.jobs
                : std::max<std::size_t>(
                      1, std::thread::hardware_concurrency());
}

SweepEngine::~SweepEngine() = default;

ThreadPool &
SweepEngine::pool()
{
    if (!pool_)
        pool_ = std::make_unique<ThreadPool>(jobs_);
    return *pool_;
}

std::string
SweepEngine::fingerprint(const TrainingSystem &system,
                         const TrainSetup &setup)
{
    std::string key;
    key.reserve(512);
    // System identity: the engine requires systems to outlive it, so
    // name + object address distinguishes differently configured
    // instances of the same class (e.g. Megatron at fixed MP degrees).
    appendStr(key, system.name());
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%p;",
                  static_cast<const void *>(&system));
    key += buf;
    appendCluster(key, setup.cluster);
    appendModel(key, setup.model);
    appendNum(key, setup.global_batch);
    appendNum(key, setup.seq);
    appendNum(key, static_cast<std::uint32_t>(setup.binding));
    appendNum(key, static_cast<std::uint32_t>(setup.capture_trace));
    appendNum(key, static_cast<std::uint32_t>(setup.capture_profile));
    // Power overrides change the energy numbers cached inside the
    // result, so they are part of the cell's identity (a presence bit
    // per field keeps an explicit override distinct from the preset
    // value it happens to equal).
    const hw::PowerOverrides &pw = setup.power;
    const std::optional<double> *fields[] = {
        &pw.gpu_busy_w,  &pw.gpu_idle_w,      &pw.cpu_busy_w,
        &pw.cpu_idle_w,  &pw.link_busy_w,     &pw.link_idle_w,
        &pw.nic_busy_w,  &pw.nic_idle_w,      &pw.nvme_busy_w,
        &pw.nvme_idle_w, &pw.c2c_pj_per_byte, &pw.nvme_pj_per_byte,
        &pw.ddr_w_per_gib};
    for (const std::optional<double> *field : fields) {
        appendNum(key, static_cast<std::uint32_t>(field->has_value()));
        if (field->has_value())
            appendNum(key, field->value());
    }
    return key;
}

std::size_t
SweepEngine::add(const TrainingSystem &system, TrainSetup setup,
                 std::string tag)
{
    SweepCell cell;
    cell.system = &system;
    cell.setup = std::move(setup);
    cell.tag = std::move(tag);
    cells_.push_back(std::move(cell));
    return cells_.size() - 1;
}

void
SweepEngine::run()
{
    if (next_unrun_ == cells_.size())
        return;
    const auto wall_start = std::chrono::steady_clock::now();
    const std::size_t batch_hits_before = hits_;

    // One pending evaluation shared by every batch cell with the same
    // fingerprint. first_cell supplies the (system, setup) to evaluate.
    struct Pending
    {
        std::size_t first_cell = 0;
        std::string key;
        std::vector<SearchCandidate> cands;
        /** Guards lead: workers fold their results as they land. */
        std::mutex lock;
        CellLead lead;
        IterationResult best;
    };

    // A deque: entries hold a mutex, so they must never move.
    std::deque<Pending> pending;
    std::unordered_map<std::string, std::size_t> batch_index;
    // For each batch cell, the pending entry it maps to (or npos when
    // served from the cache).
    constexpr std::size_t kCached = static_cast<std::size_t>(-1);
    std::vector<std::size_t> cell_pending(cells_.size() - next_unrun_,
                                          kCached);

    for (std::size_t i = next_unrun_; i < cells_.size(); ++i) {
        SweepCell &cell = cells_[i];
        if (cell.evaluated)
            continue; // Cache hit from an earlier, aborted run().
        std::string key;
        {
            trace::Span span(trace::Category::Sweep, "fingerprint");
            key = fingerprint(*cell.system, cell.setup);
        }
        {
            trace::Span probe(trace::Category::Sweep, "cache-probe");
            const auto hit = cache_.find(key);
            probe.arg("hit", hit != cache_.end() ? 1.0 : 0.0);
            if (hit != cache_.end()) {
                cell.result = hit->second;
                cell.evaluated = true;
                cell.from_cache = true;
                ++hits_;
                continue;
            }
        }
        const auto [it, fresh] =
            batch_index.try_emplace(std::move(key), pending.size());
        if (fresh) {
            Pending &p = pending.emplace_back();
            p.first_cell = i;
            p.key = it->first;
        } else {
            ++hits_; // Duplicate within this batch: evaluated once.
        }
        cell_pending[i - next_unrun_] = it->second;
    }

    // Enumerate serially: the screen is cheap, and the enumeration index
    // is what makes the fold's winner independent of completion order.
    struct Unit
    {
        std::size_t pending;
        std::size_t cand;
    };
    std::vector<Unit> units;
    {
        trace::Span span(trace::Category::Sweep, "enumerate");
        for (std::size_t p = 0; p < pending.size(); ++p) {
            const SweepCell &cell = cells_[pending[p].first_cell];
            pending[p].cands =
                cell.system->enumerateCandidates(cell.setup);
            for (std::size_t c = 0; c < pending[p].cands.size(); ++c)
                units.push_back(Unit{p, c});
        }
        span.arg("units", static_cast<double>(units.size()));
    }

    if (options_.progress) {
        inform("sweep", options_.name.empty() ? "" : " ",
               options_.name, ": ", cells_.size() - next_unrun_,
               " cell(s) -> ", pending.size(), " to evaluate (",
               units.size(), " simulation(s)), jobs=", jobs_);
    }

    // Simulate, folding each result into its cell's lead as it lands
    // (under the cell's lock). The fold is a total order on
    // (score, enumeration index), so the winner does not depend on
    // thread scheduling, and a losing result is freed at once.
    trace::progressBegin(units.size(), hits_ - batch_hits_before);
    // Progress lines are throttled through one atomic deadline; any
    // worker past it prints (output order is cosmetic, results are not).
    std::atomic<std::int64_t> next_progress_ms{2000};
    auto simulate_unit = [&](const Unit &unit) {
        trace::Span span(trace::Category::Sweep, "evaluate");
        Pending &p = pending[unit.pending];
        const SweepCell &cell = cells_[p.first_cell];
        IterationResult res = cell.system->evaluateCandidate(
            cell.setup, p.cands[unit.cand]);
        span.end();
        {
            const std::lock_guard<std::mutex> lock(p.lock);
            p.lead.offer(unit.cand, std::move(res));
        }
        trace::progressTick();
        if (!options_.progress)
            return;
        const trace::ProgressSnapshot prog = trace::progressSnapshot();
        const auto elapsed_ms =
            static_cast<std::int64_t>(prog.elapsed_s * 1e3);
        std::int64_t deadline =
            next_progress_ms.load(std::memory_order_relaxed);
        if (elapsed_ms < deadline ||
            prog.done_units >= prog.total_units ||
            !next_progress_ms.compare_exchange_strong(
                deadline, elapsed_ms + 2000, std::memory_order_relaxed))
            return;
        // ETA from the completed-unit rate; omitted until estimable
        // (too few completions extrapolate garbage).
        char eta[48];
        if (prog.eta_s >= 0.0)
            std::snprintf(eta, sizeof(eta), ", eta %.1f s", prog.eta_s);
        else
            eta[0] = '\0';
        inform("sweep", options_.name.empty() ? "" : " ",
               options_.name, ": ", prog.done_units, "/",
               prog.total_units, " simulation(s) (",
               prog.cached_cells, " cached)", eta);
    };
    if (jobs_ <= 1 || units.size() <= 1) {
        for (const Unit &unit : units)
            simulate_unit(unit);
    } else {
        ThreadPool &workers = pool();
        for (const Unit &unit : units)
            workers.submit([&simulate_unit, unit] {
                simulate_unit(unit);
            });
        workers.wait(); // Rethrows the first worker exception.
    }
    trace::progressEnd();

    // Settle each cell: its lead, or the infeasible diagnosis.
    {
        trace::Span span(trace::Category::Sweep, "select");
        for (Pending &p : pending) {
            const SweepCell &cell = cells_[p.first_cell];
            p.best = cell.system->selectBest(cell.setup, std::move(p.lead));
            cache_.emplace(p.key, p.best);
            ++misses_;
        }
    }

    for (std::size_t i = next_unrun_; i < cells_.size(); ++i) {
        SweepCell &cell = cells_[i];
        if (cell.evaluated)
            continue;
        cell.result = pending[cell_pending[i - next_unrun_]].best;
        cell.evaluated = true;
    }
    next_unrun_ = cells_.size();

    if (options_.progress) {
        const auto elapsed =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - wall_start);
        // The hit-rate is this engine's lifetime; the rate is this
        // batch's simulations over its elapsed time.
        const std::size_t lookups = hits_ + misses_;
        char stats[96];
        std::snprintf(stats, sizeof(stats),
                      "hit-rate %.1f%%, %.1f sim/s",
                      lookups > 0 ? 100.0 * static_cast<double>(hits_) /
                                        static_cast<double>(lookups)
                                  : 0.0,
                      trace::progressSnapshot().rate_per_s);
        inform("sweep", options_.name.empty() ? "" : " ",
               options_.name, ": done in ", elapsed.count(), " ms (",
               hits_ - batch_hits_before, " cached; ", stats, ")");
    }
}

IterationResult
SweepEngine::evaluateCell(const TrainingSystem &system,
                          const TrainSetup &setup)
{
    const std::vector<SearchCandidate> cands =
        system.enumerateCandidates(setup);
    CellLead lead;
    std::mutex lead_lock;
    auto simulate_one = [&](std::size_t c) {
        IterationResult res = system.evaluateCandidate(setup, cands[c]);
        const std::lock_guard<std::mutex> lock(lead_lock);
        lead.offer(c, std::move(res));
    };
    if (jobs_ <= 1 || cands.size() <= 1) {
        for (std::size_t c = 0; c < cands.size(); ++c)
            simulate_one(c);
    } else {
        ThreadPool &workers = pool();
        for (std::size_t c = 0; c < cands.size(); ++c)
            workers.submit([&simulate_one, c] { simulate_one(c); });
        workers.wait();
    }
    return system.selectBest(setup, std::move(lead));
}

IterationResult
SweepEngine::evaluate(const TrainingSystem &system,
                      const TrainSetup &setup)
{
    std::string key = fingerprint(system, setup);
    const auto hit = cache_.find(key);
    if (hit != cache_.end()) {
        ++hits_;
        return hit->second;
    }
    IterationResult res = evaluateCell(system, setup);
    ++misses_;
    cache_.emplace(std::move(key), res);
    return res;
}

const IterationResult &
SweepEngine::result(std::size_t index) const
{
    SO_ASSERT(index < cells_.size(), "sweep cell ", index,
              " out of range");
    SO_ASSERT(cells_[index].evaluated, "sweep cell ", index,
              " has not been run yet");
    return cells_[index].result;
}

void
SweepEngine::writeCells(JsonWriter &json) const
{
    json.beginArray();
    for (const SweepCell &cell : cells_) {
        json.beginObject();
        if (!cell.tag.empty())
            json.field("tag", cell.tag);
        json.field("system", cell.system->name());
        json.key("setup").beginObject();
        json.field("model", cell.setup.model.name);
        json.field("layers", cell.setup.model.layers);
        json.field("hidden", cell.setup.model.hidden);
        json.field("params", cell.setup.model.params());
        json.field("superchips", cell.setup.cluster.totalSuperchips());
        json.field("global_batch", cell.setup.global_batch);
        json.field("seq", cell.setup.seq);
        json.field("binding",
                   cell.setup.binding == hw::NumaBinding::Colocated
                       ? "colocated"
                       : "remote");
        json.endObject();
        if (cell.evaluated) {
            json.field("from_cache", cell.from_cache);
            json.key("result");
            writeIterationJson(json, cell.result);
        }
        json.endObject();
    }
    json.endArray();
}

std::string
SweepEngine::json() const
{
    trace::Span span(trace::Category::Serialize, "sweep-json");
    JsonWriter json;
    json.beginObject();
    json.field("schema_version", kSchemaVersion);
    json.field("sweep", options_.name);
    json.field("jobs", static_cast<std::uint64_t>(jobs_));
    json.field("cache_hits", static_cast<std::uint64_t>(hits_));
    json.field("cache_misses", static_cast<std::uint64_t>(misses_));
    json.key("cells");
    writeCells(json);
    json.endObject();
    return json.str();
}

void
SweepEngine::writeJson(const std::string &path) const
{
    if (!writeFile(path, {json(), "\n"}))
        SO_FATAL("cannot write ", path);
}

} // namespace so::runtime
