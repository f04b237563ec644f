#include "runtime/system.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/units.h"

namespace so::runtime {

std::uint32_t
TrainSetup::perGpuBatch() const
{
    const std::uint32_t gpus = cluster.totalSuperchips();
    SO_ASSERT(gpus >= 1, "cluster has no superchips");
    return std::max<std::uint32_t>(1, global_batch / gpus);
}

void
IterationResult::setExtra(const std::string &key, double value)
{
    for (auto &kv : extras) {
        if (kv.first == key) {
            kv.second = value;
            return;
        }
    }
    extras.emplace_back(key, value);
}

double
IterationResult::extra(const std::string &key, double fallback) const
{
    for (const auto &kv : extras)
        if (kv.first == key)
            return kv.second;
    return fallback;
}

double
IterationResult::tflopsPerGpu() const
{
    if (!feasible || iter_time <= 0.0)
        return 0.0;
    return flops.modelFlops() / iter_time / kTFLOPS;
}

double
IterationResult::mfuAgainst(double peak_flops) const
{
    if (!feasible || iter_time <= 0.0)
        return 0.0;
    SO_ASSERT(peak_flops > 0.0, "peak flops must be positive");
    return flops.modelFlops() / (iter_time * peak_flops);
}

void
CellLead::offer(std::size_t index, IterationResult res)
{
    const double score = res.tflopsPerGpu();
    SO_ASSERT(!std::isnan(score), "candidate ", index,
              " scored NaN TFLOPS");
    if (held_ && !(score > score_ || (score == score_ && index < index_)))
        return; // The loser is freed here.
    held_ = true;
    index_ = index;
    score_ = score;
    lead_ = std::move(res);
}

IterationResult
CellLead::take()
{
    SO_ASSERT(held_, "no result was offered");
    held_ = false;
    return std::move(lead_);
}

double
TrainingSystem::cpuCapacity(const TrainSetup &setup)
{
    return setup.cluster.node.superchip.cpu.mem_bytes *
           model::kCpuUsableFraction;
}

double
TrainingSystem::gpuCapacity(const TrainSetup &setup)
{
    return setup.cluster.node.superchip.gpu.mem_bytes;
}

double
TrainingSystem::activationBytes(const TrainSetup &setup,
                                const SearchCandidate &cand,
                                std::uint32_t sequence_parallel)
{
    model::ActivationOptions opts;
    opts.checkpointing = cand.checkpointing;
    opts.sequence_parallel = sequence_parallel;
    return model::activationBytes(setup.model, cand.micro_batch, setup.seq,
                                  opts);
}

std::vector<std::uint32_t>
TrainingSystem::searchVariants(const TrainSetup &) const
{
    return {0};
}

std::uint32_t
TrainingSystem::fallbackVariant(const TrainSetup &setup) const
{
    return searchVariants(setup).front();
}

std::uint32_t
TrainingSystem::perRankBatch(const TrainSetup &setup) const
{
    return setup.perGpuBatch();
}

hw::MemoryHierarchy
TrainingSystem::hierarchy(const TrainSetup &setup) const
{
    return hw::memoryHierarchy(setup.cluster.node, setup.binding,
                               hierarchyOptions());
}

double
TrainingSystem::tierBytes(const TrainSetup &setup,
                          const SearchCandidate &cand,
                          const hw::MemoryTier &tier) const
{
    switch (tier.kind) {
      case hw::TierKind::Device: return gpuBytes(setup, cand);
      case hw::TierKind::Host:   return cpuBytes(setup, cand);
      case hw::TierKind::Cold:   return nvmeBytes(setup, cand);
    }
    SO_PANIC("unknown tier kind");
}

std::vector<TierUsage>
TrainingSystem::tierDemands(const TrainSetup &setup,
                            const SearchCandidate &cand) const
{
    std::vector<TierUsage> out;
    const hw::MemoryHierarchy hier = hierarchy(setup);
    bool has_cold = false;
    for (const hw::MemoryTier &tier : hier.tiers()) {
        TierUsage usage;
        usage.tier = tier.name;
        usage.description = tier.description;
        usage.kind = tier.kind;
        usage.bytes = tierBytes(setup, cand, tier);
        usage.capacity = tier.usableBytes();
        has_cold = has_cold || tier.kind == hw::TierKind::Cold;
        out.push_back(std::move(usage));
    }
    if (!has_cold) {
        // A system demanding NVMe bytes on a chip without the tier must
        // still be diagnosable: report the demand against zero capacity.
        const double need = nvmeBytes(setup, cand);
        if (need > 0.0) {
            TierUsage usage;
            usage.tier = std::string(hw::kTierNvme);
            usage.description = "NVMe";
            usage.kind = hw::TierKind::Cold;
            usage.bytes = need;
            usage.capacity = 0.0;
            out.push_back(std::move(usage));
        }
    }
    return out;
}

void
TrainingSystem::fillMemory(IterationResult &res, const TrainSetup &setup,
                           const SearchCandidate &cand) const
{
    res.memory.tiers = tierDemands(setup, cand);
    // Mirror the canonical tiers into the legacy scalar fields.
    for (const TierUsage &usage : res.memory.tiers) {
        if (usage.tier == hw::kTierHbm) {
            res.memory.gpu_bytes = usage.bytes;
            res.memory.gpu_capacity = usage.capacity;
        } else if (usage.tier == hw::kTierDdr) {
            res.memory.cpu_bytes = usage.bytes;
            res.memory.cpu_capacity = usage.capacity;
        } else if (usage.tier == hw::kTierNvme) {
            res.memory.nvme_bytes = usage.bytes;
            res.memory.nvme_capacity = usage.capacity;
        }
    }
}

bool
TrainingSystem::screenVariant(const TrainSetup &setup,
                              std::uint32_t variant,
                              std::vector<SearchCandidate> &out) const
{
    SearchCandidate probe;
    probe.variant = variant;

    // Non-device tiers do not depend on the micro-batch: screen them
    // once, coldest first so the binding constraint is reported first.
    const std::vector<TierUsage> demands = tierDemands(setup, probe);
    for (auto it = demands.rbegin(); it != demands.rend(); ++it)
        if (it->kind != hw::TierKind::Device && !it->fits())
            return false;

    const double gpu_cap = gpuCapacity(setup);
    const std::uint32_t per_rank = perRankBatch(setup);

    // Largest micro-batch that fits for a given checkpointing choice;
    // 0 when even micro-batch 1 does not fit. Only divisors of per_rank
    // keep accumulation integral; they are tried largest first: per_rank
    // / d for d up to the square root, then those d from the root down.
    auto largest_micro = [&](bool ckpt) -> std::uint32_t {
        SearchCandidate c = probe;
        c.checkpointing = ckpt;
        auto fits = [&](std::uint32_t micro) {
            c.micro_batch = micro;
            return gpuBytes(setup, c) <= gpu_cap;
        };
        std::uint32_t root = 0;
        for (std::uint64_t d = 1; d * d <= per_rank; ++d) {
            root = static_cast<std::uint32_t>(d);
            if (per_rank % root == 0 && fits(per_rank / root))
                return per_rank / root;
        }
        for (std::uint32_t d = root; d >= 1; --d)
            if (per_rank % d == 0 && d != per_rank / d && fits(d))
                return d;
        return 0;
    };

    const std::uint32_t micro_plain = largest_micro(false);
    const std::uint32_t micro_ckpt =
        allowCheckpointing() ? largest_micro(true) : 0;
    if (micro_plain == 0 && micro_ckpt == 0)
        return false;

    auto push = [&](std::uint32_t micro, bool ckpt) {
        SearchCandidate c;
        c.micro_batch = micro;
        c.accum_steps = per_rank / micro;
        c.checkpointing = ckpt;
        c.variant = variant;
        out.push_back(c);
    };
    if (micro_plain != 0)
        push(micro_plain, false);
    // Checkpointing is only interesting when it unlocks a larger
    // micro-batch than plain execution allows.
    if (micro_ckpt > micro_plain)
        push(micro_ckpt, true);
    return true;
}

void
TrainingSystem::expandCandidate(const TrainSetup &,
                                const SearchCandidate &cand,
                                std::vector<SearchCandidate> &out) const
{
    out.push_back(cand);
}

std::vector<SearchCandidate>
TrainingSystem::enumerateCandidates(const TrainSetup &setup) const
{
    std::vector<SearchCandidate> screened;
    for (std::uint32_t variant : searchVariants(setup))
        screenVariant(setup, variant, screened);
    if (screened.empty()) {
        // Give the fallback variant (Pipeline's layer-bounded stage
        // count, for example) a chance to rescue the search; when it
        // was already screened above this finds nothing new.
        screenVariant(setup, fallbackVariant(setup), screened);
    }
    std::vector<SearchCandidate> cands;
    cands.reserve(screened.size());
    for (const SearchCandidate &cand : screened)
        expandCandidate(setup, cand, cands);
    return cands;
}

IterationResult
TrainingSystem::infeasibleResult(const TrainSetup &setup,
                                 std::uint32_t variant) const
{
    SearchCandidate probe;
    probe.variant = variant;
    probe.checkpointing = true;

    IterationResult res;

    // Non-device tiers, coldest first: the binding constraint names the
    // overflowing tier uniformly as "<tier>: needs X, capacity Y".
    const std::vector<TierUsage> demands = tierDemands(setup, probe);
    for (auto it = demands.rbegin(); it != demands.rend(); ++it) {
        if (it->kind == hw::TierKind::Device || it->fits())
            continue;
        fillMemory(res, setup, probe);
        res.infeasible_reason = it->description + ": needs " +
                                formatBytes(it->bytes) + ", capacity " +
                                formatBytes(it->capacity);
        return res;
    }

    // Otherwise the device tier is the binding constraint even at
    // micro-batch 1 (with checkpointing when the system supports it).
    probe.checkpointing = allowCheckpointing();
    fillMemory(res, setup, probe);
    std::string device_desc = "GPU memory";
    double device_cap = gpuCapacity(setup);
    for (const TierUsage &usage : res.memory.tiers) {
        if (usage.kind == hw::TierKind::Device) {
            device_desc = usage.description;
            device_cap = usage.capacity;
            break;
        }
    }
    res.infeasible_reason =
        device_desc + ": needs " + formatBytes(res.memory.gpu_bytes) +
        " at micro-batch 1" +
        (allowCheckpointing() ? " with checkpointing" : "") +
        ", capacity " + formatBytes(device_cap);
    return res;
}

IterationResult
TrainingSystem::evaluateCandidate(const TrainSetup &setup,
                                  const SearchCandidate &cand) const
{
    IterationResult res = simulate(setup, cand);
    res.feasible = true;
    res.micro_batch = cand.micro_batch;
    res.accum_steps = cand.accum_steps;
    res.activation_checkpointing = cand.checkpointing;
    fillMemory(res, setup, cand);
    return res;
}

IterationResult
TrainingSystem::selectBest(const TrainSetup &setup,
                           const std::vector<SearchCandidate> &cands,
                           std::vector<IterationResult> results) const
{
    SO_ASSERT(cands.size() == results.size(),
              "selectBest: ", cands.size(), " candidates but ",
              results.size(), " results");
    CellLead lead;
    for (std::size_t i = 0; i < results.size(); ++i)
        lead.offer(i, std::move(results[i]));
    return selectBest(setup, std::move(lead));
}

IterationResult
TrainingSystem::selectBest(const TrainSetup &setup, CellLead lead) const
{
    if (lead.empty())
        return infeasibleResult(setup, fallbackVariant(setup));
    return lead.take();
}

IterationResult
TrainingSystem::run(const TrainSetup &setup) const
{
    const std::vector<SearchCandidate> cands = enumerateCandidates(setup);
    CellLead lead;
    for (std::size_t i = 0; i < cands.size(); ++i)
        lead.offer(i, evaluateCandidate(setup, cands[i]));
    return selectBest(setup, std::move(lead));
}

} // namespace so::runtime
