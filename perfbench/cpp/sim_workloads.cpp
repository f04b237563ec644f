/**
 * @file
 * The three simulation workloads: sweep-grid (a §5 grid of every
 * system on a fresh SweepEngine per repetition), plan-queries (a
 * seeded stream of planner queries, each session on one long-lived
 * engine) and
 * observe-grid (a captured slice whose winners are written out as
 * artifacts and Explorer pages).
 *
 * The untraced passes call only the public SweepEngine API. The
 * traced passes and the correctness references evaluate the same cells
 * through the public stage functions of TrainingSystem
 * (enumerateCandidates, evaluateCandidate, selectBest), one cell at a
 * time; the traced passes run serially and time each call from
 * outside.
 */
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/superoffload.h"
#include "hw/presets.h"
#include "model/config.h"
#include "report/html.h"
#include "runtime/registry.h"
#include "runtime/result_json.h"
#include "runtime/sweep.h"

namespace perfbench {

namespace {

using so::runtime::IterationResult;
using so::runtime::SearchCandidate;
using so::runtime::TrainingSystem;
using so::runtime::TrainSetup;

/** Every registered baseline plus SuperOffload, in a fixed order. */
class Systems
{
  public:
    Systems()
    {
        for (const std::string &name : so::runtime::baselineNames()) {
            owned_.push_back(so::runtime::makeBaseline(name));
            all_.push_back(owned_.back().get());
        }
        all_.push_back(&superoffload_);
    }

    Systems(const Systems &) = delete;
    Systems &operator=(const Systems &) = delete;

    const std::vector<const TrainingSystem *> &all() const { return all_; }

    bool isSuperOffload(const TrainingSystem *system) const
    {
        return system == &superoffload_;
    }

  private:
    std::vector<so::runtime::SystemPtr> owned_;
    so::core::SuperOffloadSystem superoffload_;
    std::vector<const TrainingSystem *> all_;
};

/** One grid point or planner query, as plain data. */
struct CellSpec
{
    std::size_t system = 0;
    std::string preset;
    std::uint32_t chips = 1;
    std::uint32_t per_gpu_batch = 1;
    std::uint32_t seq = 1024;
    /** Seeded electrical model; changes energy outputs, not cost. */
    double gpu_busy_w = 700.0;
    double cpu_busy_w = 250.0;

    std::string key() const
    {
        return std::to_string(system) + "/" + preset + "/" +
               std::to_string(chips) + "/" +
               std::to_string(per_gpu_batch) + "/" + std::to_string(seq) +
               "/" + format("%a", gpu_busy_w) + "/" +
               format("%a", cpu_busy_w);
    }
};

TrainSetup
makeSetup(const CellSpec &spec, bool capture)
{
    TrainSetup setup;
    setup.cluster = so::hw::gh200ClusterOf(spec.chips);
    setup.model = so::model::modelPreset(spec.preset);
    setup.global_batch = spec.per_gpu_batch * spec.chips;
    setup.seq = spec.seq;
    setup.power.gpu_busy_w = spec.gpu_busy_w;
    setup.power.cpu_busy_w = spec.cpu_busy_w;
    setup.capture_trace = capture;
    setup.capture_profile = capture;
    return setup;
}

void
seedPower(so::Rng &rng, CellSpec &spec)
{
    spec.gpu_busy_w = rng.uniform(560.0, 840.0);
    spec.cpu_busy_w = rng.uniform(200.0, 300.0);
}

/**
 * Presets x chips x per-GPU batch x seq, each crossed with every
 * system, in the order the figure benches add cells (setup-major).
 * The seed draws each cell's electrical model, so every simulated
 * energy differs from seed to seed. The grid's shape and order are
 * fixed: cell costs span 1 ms to 250 ms, and a seeded shape or order
 * would move cells/s (through total work and pool tail imbalance) by
 * more than any bound a change is judged by.
 */
std::vector<CellSpec>
makeGrid(std::uint64_t seed, std::size_t systems,
         const std::vector<std::string> &presets,
         const std::vector<std::uint32_t> &chips,
         const std::vector<std::uint32_t> &batches,
         const std::vector<std::uint32_t> &seqs)
{
    so::Rng rng(seed);
    std::vector<CellSpec> cells;
    for (const std::string &p : presets)
        for (std::uint32_t c : chips)
            for (std::uint32_t b : batches)
                for (std::uint32_t q : seqs)
                    for (std::size_t s = 0; s < systems; ++s) {
                        CellSpec spec;
                        spec.system = s;
                        spec.preset = p;
                        spec.chips = c;
                        spec.per_gpu_batch = b;
                        spec.seq = q;
                        seedPower(rng, spec);
                        cells.push_back(spec);
                    }
    return cells;
}

/**
 * Serial, outside-in evaluation of one cell through the public stage
 * functions. Each call is one ledger stage; the SuperOffload and
 * baseline simulations are kept apart.
 */
IterationResult
evaluateStaged(const Systems &systems, const TrainingSystem &system,
               const TrainSetup &setup, Layers &layers,
               const TrainSetup *capture_off = nullptr)
{
    Ledger &ledger = layers.ledger;
    auto t0 = Clock::now();
    const std::vector<SearchCandidate> cands =
        system.enumerateCandidates(setup);
    ledger.add("runtime.enumerate_candidates", since(t0));

    const char *eval_stage = systems.isSuperOffload(&system)
                                 ? "core.superoffload.evaluate_candidate"
                                 : "runtime.baselines.evaluate_candidate";
    std::vector<IterationResult> results;
    results.reserve(cands.size());
    for (const SearchCandidate &cand : cands) {
        t0 = Clock::now();
        results.push_back(system.evaluateCandidate(setup, cand));
        const double on_s = since(t0);
        ledger.add(eval_stage, on_s, true);
        const IterationResult &r = results.back();
        layers.rendered_bytes += static_cast<double>(
            r.gantt.size() + r.trace_json.size() + r.profile_json.size() +
            r.bundle_json.size());
        if (capture_off) {
            t0 = Clock::now();
            const IterationResult off =
                system.evaluateCandidate(*capture_off, cand);
            const double off_s = since(t0);
            ledger.add("sim.observe.capture_off", off_s);
            layers.observe_extra_s += on_s - off_s;
        }
    }

    t0 = Clock::now();
    IterationResult best =
        system.selectBest(setup, cands, std::move(results));
    ledger.add("runtime.select_best", since(t0));

    layers.cells += 1.0;
    layers.candidates += static_cast<double>(cands.size());
    if (cands.empty())
        layers.screen_only_cells += 1.0;
    return best;
}

/** Compare @p got against @p want; returns the number of mismatches. */
std::int64_t
mismatches(const std::vector<std::uint64_t> &got,
           const std::vector<std::uint64_t> &want)
{
    std::int64_t bad = 0;
    for (std::size_t i = 0; i < got.size(); ++i)
        bad += i >= want.size() || got[i] != want[i];
    return bad;
}

/**
 * Check @p digests against the recorded default-seed digests (or
 * record them). Returns the number of cells that disagree; 0 when the
 * seed is not the default one.
 */
std::int64_t
checkRecorded(const Options &opt, const std::string &name,
              const std::vector<std::uint64_t> &digests,
              std::size_t limit, Report &report)
{
    if (opt.seed != kDefaultSeed || opt.expected_dir.empty()) {
        report.property("recorded digest check",
                        opt.expected_dir.empty()
                            ? "not run (no --expected-dir)"
                            : "not run (seed is not " +
                                  std::to_string(kDefaultSeed) + ")");
        return 0;
    }
    const std::string path = opt.expected_dir + "/" + name + ".digests";
    const std::size_t n = std::min(limit, digests.size());
    if (opt.record) {
        std::vector<std::string> hex;
        for (std::size_t i = 0; i < n; ++i)
            hex.push_back(hexDigest(digests[i]));
        writeDigests(path, hex);
        report.property("recorded digest check",
                        "recorded " + std::to_string(n) + " digests");
        return 0;
    }
    const std::vector<std::string> want = readDigests(path);
    if (want.empty())
        throw std::runtime_error("no recorded digests at " + path);
    std::int64_t bad = 0;
    const std::size_t compared = std::min(n, want.size());
    for (std::size_t i = 0; i < compared; ++i)
        bad += hexDigest(digests[i]) != want[i];
    report.property("recorded digest check",
                    std::to_string(compared - static_cast<std::size_t>(bad)) +
                        "/" + std::to_string(compared) + " cells agree");
    return bad;
}

// ---------------------------------------------------------------- grids

/** State of a grid workload: systems, cells and their setups. */
struct GridState
{
    Systems systems;
    std::vector<CellSpec> specs;
    std::vector<TrainSetup> setups;
};

/** Outcome of one untraced grid repetition. */
struct GridRep
{
    double wall = 0.0;
    std::size_t json_bytes = 0;
    std::vector<std::uint64_t> digests;
};

/**
 * One untraced repetition: a fresh engine runs every cell and every
 * result is serialized.
 */
GridRep
runGridRep(const GridState &grid, std::size_t jobs, Layers *layers)
{
    GridRep rep;
    const auto t0 = Clock::now();
    so::runtime::SweepOptions options;
    options.jobs = jobs;
    options.name = "sweep-grid";
    so::runtime::SweepEngine engine(options);
    for (std::size_t i = 0; i < grid.specs.size(); ++i)
        engine.add(*grid.systems.all()[grid.specs[i].system],
                   grid.setups[i]);
    engine.run();
    for (const so::runtime::SweepCell &cell : engine.cells())
        rep.json_bytes += so::runtime::toJson(cell.result).size();
    rep.wall = since(t0);

    for (const so::runtime::SweepCell &cell : engine.cells())
        rep.digests.push_back(resultDigest(cell.result));
    if (layers) {
        layers->cache_hits += static_cast<double>(engine.cacheHits());
        layers->cache_misses += static_cast<double>(engine.cacheMisses());
    }
    return rep;
}

/** Candidates and screen-only share of one repetition (untimed). */
void
reportGridShape(const GridState &grid, Report &report)
{
    std::size_t candidates = 0;
    std::size_t screen_only = 0;
    for (std::size_t i = 0; i < grid.specs.size(); ++i) {
        const std::size_t n = grid.systems.all()[grid.specs[i].system]
                                  ->enumerateCandidates(grid.setups[i])
                                  .size();
        candidates += n;
        screen_only += n == 0;
    }
    report.property("candidates per repetition",
                    static_cast<double>(candidates));
    report.property("screen-only share of cells",
                    static_cast<double>(screen_only) /
                        static_cast<double>(grid.specs.size()));
}

/** Serial staged pass over the grid; returns per-cell digests. */
std::vector<std::uint64_t>
runGridStaged(const GridState &grid, Layers &layers)
{
    std::vector<std::uint64_t> digests;
    digests.reserve(grid.specs.size());
    for (std::size_t i = 0; i < grid.specs.size(); ++i) {
        const IterationResult best = evaluateStaged(
            grid.systems, *grid.systems.all()[grid.specs[i].system],
            grid.setups[i], layers);
        const auto t0 = Clock::now();
        layers.result_json_bytes +=
            static_cast<double>(so::runtime::toJson(best).size());
        layers.ledger.add("runtime.result_json", since(t0));
        const auto t1 = Clock::now();
        digests.push_back(resultDigest(best));
        layers.ledger.add("bench.check", since(t1));
    }
    return digests;
}

std::unique_ptr<GridState>
setupSweepGrid(const Options &opt, std::size_t jobs)
{
    auto grid = std::make_unique<GridState>();
    grid->specs = makeGrid(opt.seed, grid->systems.all().size(),
                           {"2B", "8B", "20B"}, {1, 4, 16}, {8, 32},
                           {1024, 4096});
    for (const CellSpec &spec : grid->specs)
        grid->setups.push_back(makeSetup(spec, false));
    // Warm-up: one full repetition on a throw-away engine, so that
    // allocator growth and first-touch page faults precede timing.
    runGridRep(*grid, jobs, nullptr);
    return grid;
}

} // namespace

Report
runSweepGrid(const Options &opt)
{
    Report report;
    const std::size_t jobs = workerCount();

    std::vector<double> setup_times;
    std::unique_ptr<GridState> grid;
    for (int i = 0; i < (opt.trace ? 1 : kSetupRepeats); ++i) {
        const auto t0 = Clock::now();
        grid = setupSweepGrid(opt, jobs);
        setup_times.push_back(since(t0));
    }
    const std::size_t cells = grid->specs.size();
    report.property("cells per repetition", static_cast<double>(cells));
    report.property("systems", static_cast<double>(grid->systems.all().size()));
    report.property("grid", "presets {2B,8B,20B} x chips {1,4,16} x "
                            "per-GPU batch {8,32} x seq {1024,4096}");
    report.property("workers", static_cast<double>(jobs));

    Layers layers;
    layers.workers = jobs;
    // Untraced repetitions: for the whole run, or a quarter of it when
    // the traced pass follows.
    const double budget = opt.trace ? opt.seconds / 4.0 : opt.seconds;
    std::vector<GridRep> reps;
    std::vector<double> rep_peaks;
    double measured = 0.0;
    while (measured < budget || reps.empty()) {
        resetPeakRss();
        reps.push_back(runGridRep(*grid, jobs, &layers));
        rep_peaks.push_back(peakRssMiB());
        measured += reps.back().wall;
    }
    const double peak_rss = median(rep_peaks);
    report.property("repetitions", static_cast<double>(reps.size()));
    report.property("result JSON bytes per repetition",
                    static_cast<double>(reps[0].json_bytes));

    // Serial staged pass: the traced run when tracing, the correctness
    // reference otherwise.
    std::vector<std::uint64_t> reference;
    if (opt.trace) {
        layers.untraced_wall = measured;
        layers.ops = static_cast<std::int64_t>(cells * reps.size());
        const auto t0 = Clock::now();
        for (const GridRep &rep : reps) {
            reference = runGridStaged(*grid, layers);
            const auto t1 = Clock::now();
            report.failed += mismatches(rep.digests, reference);
            layers.ledger.add("bench.check", since(t1));
        }
        layers.traced_wall = since(t0);
    } else {
        Layers reference_layers;
        reference = runGridStaged(*grid, reference_layers);
        for (const GridRep &rep : reps)
            report.failed += mismatches(rep.digests, reference);
    }
    reportGridShape(*grid, report);
    report.property("memo cache", "fresh engine per repetition (no hits)");
    report.attempted = static_cast<std::int64_t>(cells * reps.size());
    report.failed += static_cast<std::int64_t>(reps.size()) *
                     checkRecorded(opt, "sweep-grid", reference, cells,
                                   report);

    if (opt.trace) {
        reportLayers(layers, report);
        return report;
    }
    std::vector<Window> units;
    for (const GridRep &rep : reps) {
        // Every cell of a repetition is delivered when its sweep ends.
        units.push_back(Window{std::vector<double>(cells, rep.wall),
                               rep.wall, static_cast<double>(cells)});
    }
    report.line("op = one grid cell, whose latency is its repetition's "
                "wall; a window is 4 repetitions");
    endToEnd(report, median(setup_times), groupWindows(units, 4), peak_rss);
    return report;
}

// -------------------------------------------------------- plan queries

namespace {

/**
 * Queries one planner session answers. Each session is one long-lived
 * engine; bounding it keeps the memo cache, and with it peak memory,
 * independent of how many queries a run gets through.
 */
constexpr std::size_t kSessionQueries = 2000;

/**
 * A seeded stream of planner queries. Every fourth query repeats a
 * uniformly chosen earlier query of its session, so the repeat share
 * is fixed at 25%; the other queries draw system, preset, chips,
 * per-GPU batch and sequence length independently.
 */
class QueryStream
{
  public:
    QueryStream(std::uint64_t seed, std::size_t systems)
        : rng_(seed), systems_(systems)
    {
    }

    const CellSpec &at(std::size_t i)
    {
        while (queries_.size() <= i)
            generate();
        return queries_[i];
    }

    bool isRepeat(std::size_t i) const { return i % 4 == 3; }

  private:
    void generate()
    {
        static const char *const kPresets[] = {
            "1B", "2B", "4B", "6B", "8B", "10B", "13B", "15B", "20B",
            "25B", "30B", "50B", "70B", "80B", "150B", "175B"};
        static const std::uint32_t kChips[] = {1, 4, 16};
        static const std::uint32_t kBatches[] = {1, 2, 4, 8, 16};
        static const std::uint32_t kSeqs[] = {512, 1024, 2048, 4096};
        const std::size_t i = queries_.size();
        if (isRepeat(i)) {
            const std::size_t session = i - i % kSessionQueries;
            queries_.push_back(queries_[session + rng_.below(i - session)]);
            return;
        }
        CellSpec spec;
        spec.system = rng_.below(systems_);
        spec.preset = kPresets[rng_.below(std::size(kPresets))];
        spec.chips = kChips[rng_.below(std::size(kChips))];
        spec.per_gpu_batch = kBatches[rng_.below(std::size(kBatches))];
        spec.seq = kSeqs[rng_.below(std::size(kSeqs))];
        seedPower(rng_, spec);
        queries_.push_back(spec);
    }

    so::Rng rng_;
    std::size_t systems_;
    std::vector<CellSpec> queries_;
};

/** Queries whose digests are recorded for the default seed. */
constexpr std::size_t kRecordedQueries = 2000;

so::runtime::SweepOptions
planOptions(std::size_t jobs)
{
    so::runtime::SweepOptions options;
    options.jobs = jobs;
    options.name = "plan-queries";
    return options;
}

struct PlanState
{
    Systems systems;
    std::unique_ptr<QueryStream> stream;
};

std::unique_ptr<PlanState>
setupPlanQueries(const Options &opt, std::size_t jobs)
{
    auto state = std::make_unique<PlanState>();
    state->stream =
        std::make_unique<QueryStream>(opt.seed, state->systems.all().size());
    // Warm-up on a throw-away engine, so the timed sessions start with
    // an empty memo cache. It is the same for every seed: the largest
    // query shape of every system, whose transient graphs set the
    // process's memory high-water mark (ulysses-zero3 at 70B on 16
    // chips alone adds ~16 MiB, and a seeded stream meets it only in
    // some runs), then a fixed stream of ordinary queries.
    so::runtime::SweepEngine warm(planOptions(jobs));
    const auto &systems = state->systems.all();
    for (std::size_t s = 0; s < systems.size(); ++s) {
        CellSpec spec;
        spec.system = s;
        spec.preset = "70B";
        spec.chips = 16;
        spec.per_gpu_batch = 16;
        spec.seq = 4096;
        warm.evaluate(*systems[s], makeSetup(spec, false));
    }
    QueryStream warm_stream(0x5eed, systems.size());
    for (std::size_t i = 0; i < 200; ++i) {
        const CellSpec &spec = warm_stream.at(i);
        warm.evaluate(*systems[spec.system], makeSetup(spec, false));
    }
    return state;
}

/**
 * Correctness reference of the first @p answered queries: the staged
 * evaluation of every distinct query of each session, one task per
 * query on the benchmark's own pool, so the check costs a fraction of
 * a serial replay. Returns the expected digest of every query and
 * counts cells, candidates and screen-only cells into @p layers.
 */
std::vector<std::uint64_t>
planReference(PlanState &state, std::size_t answered, std::size_t jobs,
              Layers &layers)
{
    // A repeat must be answered exactly like the first occurrence of
    // its query within the session.
    std::vector<CellSpec> specs;
    std::vector<std::size_t> first(answered);
    std::unordered_map<std::string, std::size_t> seen;
    for (std::size_t i = 0; i < answered; ++i) {
        if (i % kSessionQueries == 0)
            seen.clear();
        specs.push_back(state.stream->at(i));
        first[i] = seen.try_emplace(specs[i].key(), i).first->second;
    }
    std::vector<std::uint64_t> digest(answered);
    std::vector<std::size_t> candidates(answered);
    {
        so::ThreadPool pool(jobs);
        for (std::size_t i = 0; i < answered; ++i) {
            if (first[i] != i)
                continue;
            pool.submit([&, i] {
                Layers local;
                const IterationResult best = evaluateStaged(
                    state.systems, *state.systems.all()[specs[i].system],
                    makeSetup(specs[i], false), local);
                digest[i] = resultDigest(best);
                candidates[i] = static_cast<std::size_t>(local.candidates);
            });
        }
        pool.wait();
    }
    std::vector<std::uint64_t> expected;
    for (std::size_t i = 0; i < answered; ++i) {
        expected.push_back(digest[first[i]]);
        if (first[i] != i)
            continue;
        layers.cells += 1.0;
        layers.candidates += static_cast<double>(candidates[i]);
        layers.screen_only_cells += candidates[i] == 0 ? 1.0 : 0.0;
    }
    return expected;
}

} // namespace

Report
runPlanQueries(const Options &opt)
{
    Report report;
    const std::size_t jobs = workerCount();

    std::vector<double> setup_times;
    std::unique_ptr<PlanState> state;
    for (int i = 0; i < (opt.trace ? 1 : kSetupRepeats); ++i) {
        const auto t0 = Clock::now();
        state = setupPlanQueries(opt, jobs);
        setup_times.push_back(since(t0));
    }
    const auto &systems = state->systems.all();

    // Closed loop: one caller, the next query only after the answer.
    // Each session of kSessionQueries queries is one long-lived engine.
    Layers layers;
    layers.workers = jobs;
    const double budget = opt.trace ? opt.seconds / 2.0 : opt.seconds;
    std::vector<double> latencies;
    std::vector<std::uint64_t> digests;
    std::vector<double> session_peaks;
    std::unique_ptr<so::runtime::SweepEngine> engine;
    auto end_session = [&] {
        layers.cache_hits += static_cast<double>(engine->cacheHits());
        layers.cache_misses += static_cast<double>(engine->cacheMisses());
        engine.reset();
        session_peaks.push_back(peakRssMiB());
    };
    double measured = 0.0;
    for (std::size_t i = 0; measured < budget; ++i) {
        if (i % kSessionQueries == 0) {
            if (engine)
                end_session();
            resetPeakRss();
            engine = std::make_unique<so::runtime::SweepEngine>(
                planOptions(jobs));
        }
        const CellSpec &spec = state->stream->at(i);
        const TrainSetup setup = makeSetup(spec, false);
        const auto t0 = Clock::now();
        const IterationResult result =
            engine->evaluate(*systems[spec.system], setup);
        const double lat = since(t0);
        latencies.push_back(lat);
        measured += lat;
        digests.push_back(resultDigest(result));
    }
    end_session();
    const double peak_rss = median(session_peaks);
    const std::size_t answered = latencies.size();

    std::size_t repeats = 0;
    for (std::size_t i = 0; i < answered; ++i)
        repeats += state->stream->isRepeat(i);
    std::vector<std::uint64_t> reference;
    if (opt.trace) {
        // Serial staged replay of the same queries, with a memo per
        // session so repeats are answered the way the engine answers
        // them.
        std::unordered_map<std::string, std::uint64_t> memo;
        const auto t_staged = Clock::now();
        for (std::size_t i = 0; i < answered; ++i) {
            if (i % kSessionQueries == 0)
                memo.clear();
            auto t0 = Clock::now();
            const CellSpec &spec = state->stream->at(i);
            const std::string key = spec.key();
            const TrainSetup setup = makeSetup(spec, false);
            layers.ledger.add("bench.build_setup", since(t0));
            t0 = Clock::now();
            auto hit = memo.find(key);
            layers.ledger.add("bench.memo_lookup", since(t0));
            if (hit == memo.end()) {
                const IterationResult best = evaluateStaged(
                    state->systems, *systems[spec.system], setup, layers);
                t0 = Clock::now();
                hit = memo.emplace(key, resultDigest(best)).first;
                layers.ledger.add("bench.check", since(t0));
            }
            t0 = Clock::now();
            reference.push_back(hit->second);
            layers.ledger.add("bench.check", since(t0));
        }
        layers.traced_wall = since(t_staged);
        layers.untraced_wall = measured;
        layers.ops = static_cast<std::int64_t>(answered);
    } else {
        reference = planReference(*state, answered, jobs, layers);
    }
    for (std::size_t i = 0; i < answered; ++i)
        report.failed += digests[i] != reference[i];
    const auto distinct = static_cast<std::size_t>(layers.cells);

    report.attempted = static_cast<std::int64_t>(answered);
    report.property("queries answered", static_cast<double>(answered));
    report.property("queries per session",
                    static_cast<double>(kSessionQueries));
    report.property("distinct queries (per session)",
                    static_cast<double>(distinct));
    report.property("repeat share",
                    static_cast<double>(repeats) / static_cast<double>(answered));
    report.property("cache hit share",
                    layers.cache_hits / static_cast<double>(answered));
    report.property("screen-only share of distinct queries",
                    layers.screen_only_cells / layers.cells);
    report.property("candidates per distinct query",
                    layers.candidates / layers.cells);
    report.property("workers", static_cast<double>(jobs));
    report.failed += checkRecorded(opt, "plan-queries", reference,
                                   kRecordedQueries, report);

    if (opt.trace) {
        reportLayers(layers, report);
        return report;
    }
    std::vector<Window> sessions;
    for (std::size_t s = 0; s < answered; s += kSessionQueries) {
        Window w;
        w.latencies.assign(latencies.begin() + s,
                           latencies.begin() +
                               std::min(s + kSessionQueries, answered));
        for (double lat : w.latencies)
            w.wall += lat;
        w.ops = static_cast<double>(w.latencies.size());
        sessions.push_back(std::move(w));
    }
    report.line("op = one planner query (SweepEngine::evaluate on the "
                "session's long-lived engine); a window is one session");
    endToEnd(report, median(setup_times), groupWindows(sessions, 1),
             peak_rss);
    return report;
}

// ------------------------------------------------------- observe grid

namespace {

/** Sizes and timings of one cell's written artifacts. */
struct ArtifactStats
{
    std::size_t bytes = 0;
    std::size_t html_bytes = 0;
    std::size_t result_json_bytes = 0;
};

void
writeFile(const std::string &path, const std::string &doc)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << doc << '\n';
    if (!out)
        throw std::runtime_error("cannot write " + path);
}

/**
 * Every artifact of one evaluated cell, the path `Harness --trace-dir
 * --html` takes: trace, profile, bundle and result JSON, plus an
 * Explorer page. This is the single call site of the artifact API.
 * With a ledger, the result serialization and the page rendering are
 * recorded as their own stages and the rest as bench.write_artifacts.
 */
ArtifactStats
writeArtifacts(const IterationResult &result, const std::string &base,
               const std::string &title, Ledger *ledger)
{
    const auto t_all = Clock::now();
    ArtifactStats stats;
    double inner_s = 0.0;
    if (!result.trace_json.empty())
        writeFile(base + ".trace.json", result.trace_json);
    if (!result.profile_json.empty())
        writeFile(base + ".profile.json", result.profile_json);
    if (!result.bundle_json.empty())
        writeFile(base + ".bundle.json", result.bundle_json);
    stats.bytes += result.trace_json.size() + result.profile_json.size() +
                   result.bundle_json.size();

    auto t0 = Clock::now();
    const std::string json = so::runtime::toJson(result);
    const double json_s = since(t0);
    inner_s += json_s;
    writeFile(base + ".result.json", json);
    stats.result_json_bytes = json.size();
    stats.bytes += json.size();

    if (!result.bundle_json.empty()) {
        so::report::HtmlReport page;
        page.title = title;
        page.schedules.push_back(result.bundle_json);
        if (!result.profile_json.empty())
            page.profiles.emplace_back(title, result.profile_json);
        t0 = Clock::now();
        const std::string html = so::report::renderHtmlReport(page);
        const double render_s = since(t0);
        inner_s += render_s;
        writeFile(base + ".html", html);
        stats.html_bytes = html.size();
        stats.bytes += html.size();
        if (ledger)
            ledger->add("report.render_html", render_s);
    }
    if (ledger) {
        ledger->add("runtime.result_json", json_s);
        ledger->add("bench.write_artifacts", since(t_all) - inner_s);
    }
    return stats;
}

/**
 * Every artifact parses with so::JsonValue::parse, and the profile's
 * critical length equals the makespan. Returns true when all hold.
 */
bool
checkArtifacts(const IterationResult &result, const ArtifactStats &stats)
{
    so::JsonValue doc;
    for (const std::string *text :
         {&result.trace_json, &result.profile_json, &result.bundle_json}) {
        if (!text->empty() && !so::JsonValue::parse(*text, doc))
            return false;
    }
    if (!so::JsonValue::parse(so::runtime::toJson(result), doc))
        return false;
    if (!result.feasible)
        return true;
    if (result.profile_json.empty() || result.bundle_json.empty() ||
        stats.html_bytes == 0 ||
        !so::JsonValue::parse(result.profile_json, doc))
        return false;
    const so::JsonValue *makespan = doc.find("makespan_s");
    const so::JsonValue *critical = doc.find("critical_path");
    const so::JsonValue *length =
        critical && critical->isObject() ? critical->find("length_s")
                                         : nullptr;
    if (!makespan || !length || !makespan->isNumber() ||
        !length->isNumber())
        return false;
    const double m = makespan->number();
    return m > 0.0 && std::abs(length->number() - m) <= 1e-9 * m;
}

struct ObserveState
{
    GridState grid;
    std::vector<TrainSetup> off_setups;
    std::string dir;
};

/** Result of one untraced observe repetition. */
struct ObserveRep
{
    double wall = 0.0;
    std::vector<double> latencies;
    std::vector<std::uint64_t> digests;
    /** Artifact bytes per cell. */
    std::vector<std::size_t> bytes;
    /** Cells whose artifacts failed checkArtifacts (checked reps only). */
    std::int64_t bad_artifacts = 0;
};

std::string
cellBase(const ObserveState &state, std::size_t i)
{
    return state.dir + "/cell" + std::to_string(i);
}

/**
 * One untraced repetition: a fresh engine runs the captured slice and
 * every cell's artifacts are written. With @p check, every artifact is
 * also parsed and checked (untimed).
 */
ObserveRep
runObserveRep(const ObserveState &state, std::size_t jobs, Layers *layers,
              bool check)
{
    ObserveRep rep;
    const auto t0 = Clock::now();
    so::runtime::SweepOptions options;
    options.jobs = jobs;
    options.name = "observe-grid";
    so::runtime::SweepEngine engine(options);
    const GridState &grid = state.grid;
    for (std::size_t i = 0; i < grid.specs.size(); ++i)
        engine.add(*grid.systems.all()[grid.specs[i].system],
                   grid.setups[i]);
    engine.run();
    std::vector<ArtifactStats> stats;
    for (std::size_t i = 0; i < engine.cells().size(); ++i) {
        stats.push_back(writeArtifacts(engine.cells()[i].result,
                                       cellBase(state, i),
                                       "cell " + std::to_string(i),
                                       nullptr));
        rep.latencies.push_back(since(t0));
    }
    rep.wall = since(t0);
    for (std::size_t i = 0; i < engine.cells().size(); ++i) {
        const IterationResult &result = engine.cells()[i].result;
        rep.digests.push_back(resultDigest(result));
        rep.bytes.push_back(stats[i].bytes);
        if (check)
            rep.bad_artifacts += !checkArtifacts(result, stats[i]);
    }
    if (layers) {
        layers->cache_hits += static_cast<double>(engine.cacheHits());
        layers->cache_misses += static_cast<double>(engine.cacheMisses());
    }
    return rep;
}

std::unique_ptr<ObserveState>
setupObserveGrid(const Options &opt, std::size_t jobs)
{
    auto state = std::make_unique<ObserveState>();
    GridState &grid = state->grid;
    grid.specs = makeGrid(opt.seed, grid.systems.all().size(), {"1B"},
                          {1, 4}, {8}, {1024});
    for (const CellSpec &spec : grid.specs) {
        grid.setups.push_back(makeSetup(spec, true));
        state->off_setups.push_back(makeSetup(spec, false));
    }
    state->dir = opt.work_dir + "/observe-grid";
    std::filesystem::create_directories(state->dir);
    // Warm-up: one captured repetition with its artifacts.
    runObserveRep(*state, jobs, nullptr, false);
    return state;
}

} // namespace

Report
runObserveGrid(const Options &opt)
{
    Report report;
    const std::size_t jobs = workerCount();

    std::vector<double> setup_times;
    std::unique_ptr<ObserveState> state;
    for (int i = 0; i < (opt.trace ? 1 : kSetupRepeats); ++i) {
        const auto t0 = Clock::now();
        state = setupObserveGrid(opt, jobs);
        setup_times.push_back(since(t0));
    }
    const GridState &grid = state->grid;
    const std::size_t cells = grid.specs.size();

    Layers layers;
    layers.workers = jobs;
    const double budget = opt.trace ? opt.seconds / 4.0 : opt.seconds;
    std::vector<ObserveRep> reps;
    std::vector<double> rep_peaks;
    double measured = 0.0;
    while (measured < budget || reps.empty()) {
        // The first repetition's artifacts are parsed and checked; later
        // repetitions must reproduce its digests and artifact sizes.
        resetPeakRss();
        reps.push_back(runObserveRep(*state, jobs, &layers, reps.empty()));
        rep_peaks.push_back(peakRssMiB());
        measured += reps.back().wall;
    }
    const double peak_rss = median(rep_peaks);
    report.failed += reps[0].bad_artifacts;
    std::size_t artifact_bytes = 0;
    for (std::size_t bytes : reps[0].bytes)
        artifact_bytes += bytes;
    for (std::size_t r = 1; r < reps.size(); ++r)
        for (std::size_t i = 0; i < cells; ++i)
            report.failed += reps[r].digests[i] != reps[0].digests[i] ||
                             reps[r].bytes[i] != reps[0].bytes[i];
    report.attempted = static_cast<std::int64_t>(cells * reps.size());

    report.property("cells per repetition", static_cast<double>(cells));
    report.property("grid", "15 systems x preset 1B x chips {1,4} x "
                            "per-GPU batch 8 x seq 1024, capture on");
    report.property("repetitions", static_cast<double>(reps.size()));
    report.property("artifact bytes per repetition",
                    static_cast<double>(artifact_bytes));
    report.property("workers", static_cast<double>(jobs));
    reportGridShape(grid, report);

    if (opt.trace) {
        layers.untraced_wall = measured;
        layers.ops = static_cast<std::int64_t>(cells * reps.size());
        const auto t0 = Clock::now();
        for (std::size_t r = 0; r < reps.size(); ++r) {
            for (std::size_t i = 0; i < cells; ++i) {
                const IterationResult best = evaluateStaged(
                    grid.systems, *grid.systems.all()[grid.specs[i].system],
                    grid.setups[i], layers, &state->off_setups[i]);
                const ArtifactStats stats =
                    writeArtifacts(best, cellBase(*state, i),
                                   "cell " + std::to_string(i),
                                   &layers.ledger);
                layers.result_json_bytes +=
                    static_cast<double>(stats.result_json_bytes);
                layers.html_bytes += static_cast<double>(stats.html_bytes);
                layers.artifact_bytes += static_cast<double>(
                    stats.bytes - stats.html_bytes -
                    stats.result_json_bytes);
                const auto t1 = Clock::now();
                report.failed += resultDigest(best) != reps[r].digests[i];
                layers.ledger.add("bench.check", since(t1));
            }
        }
        layers.traced_wall = since(t0);
        report.property("rendered bytes per candidate",
                        layers.rendered_bytes / layers.candidates);
        reportLayers(layers, report);
    } else {
        std::vector<Window> units;
        for (const ObserveRep &rep : reps)
            units.push_back(Window{rep.latencies, rep.wall,
                                   static_cast<double>(cells)});
        report.line("op = one captured cell with its artifacts written; a "
                    "cell's latency runs from its repetition's start to "
                    "its last artifact; a window is 8 repetitions");
        endToEnd(report, median(setup_times), groupWindows(units, 8),
                 peak_rss);
    }
    std::filesystem::remove_all(state->dir);
    return report;
}

} // namespace perfbench
