#include "sim/graph.h"

#include <algorithm>
#include <charconv>

namespace so::sim {

namespace {

/** FNV-1a over the stem bytes; cheap and stable across platforms. */
std::uint64_t
hashBytes(std::string_view text)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

} // namespace

ResourceId
TaskGraph::addResource(std::string name)
{
    resources_.push_back(Resource{std::move(name)});
    return static_cast<ResourceId>(resources_.size() - 1);
}

std::uint32_t
TaskGraph::internStem(std::string_view stem)
{
    // Fibonacci hashing of the address: the stems of one builder are
    // literals a few bytes apart, and this spreads such neighbours over
    // distinct slots.
    const auto address = reinterpret_cast<std::uintptr_t>(stem.data());
    StemSlot &slot = stem_cache_[(std::uint64_t{address} *
                                  0x9E3779B97F4A7C15ull) >>
                                 (64 - kStemCacheBits)];
    if (slot.address == address && address != 0 &&
        stemText(slot.id) == stem)
        return slot.id;

    const std::uint64_t hash = hashBytes(stem);
    const auto hit = stem_intern_.find(hash);
    std::uint32_t id;
    if (hit != stem_intern_.end() && stemText(hit->second) == stem) {
        id = hit->second;
    } else {
        // A new stem, or a hash collision between distinct stems: store
        // the bytes (the map keeps the first stem with this hash).
        SO_ASSERT(label_arena_.size() + stem.size() <=
                      std::numeric_limits<std::uint32_t>::max(),
                  "label arena overflow");
        id = static_cast<std::uint32_t>(stems_.size());
        stems_.push_back(
            LabelRef{static_cast<std::uint32_t>(label_arena_.size()),
                     static_cast<std::uint32_t>(stem.size())});
        label_arena_.append(stem);
        if (hit == stem_intern_.end())
            stem_intern_.emplace(hash, id);
    }
    slot = StemSlot{address, id};
    return id;
}

TaskId
TaskGraph::addTask(ResourceId resource, double duration, Label label,
                   DepView deps, std::int32_t priority)
{
    SO_ASSERT(resource < resources_.size(),
              "task references unknown resource ", resource);
    SO_ASSERT(duration >= 0.0, "negative task duration: ", duration);
    const auto id = static_cast<TaskId>(durations_.size());
    const std::int32_t lo =
        durations_.empty() ? priority : std::min(min_priority_, priority);
    const std::int32_t hi =
        durations_.empty() ? priority : std::max(max_priority_, priority);
    SO_ASSERT(std::int64_t{hi} - lo < kMaxPrioritySpan, "task ", id,
              " priority ", priority, " widens the graph's priorities to ",
              lo, "..", hi, ", beyond the limit of ", kMaxPrioritySpan);
    min_priority_ = lo;
    max_priority_ = hi;
    durations_.push_back(duration);
    task_resource_.push_back(resource);
    priorities_.push_back(priority);
    stem_ids_.push_back(internStem(label.stem));
    label_indices_.push_back(label.index);
    dependents_valid_ = false;
    for (TaskId dep : deps) {
        SO_ASSERT(dep < id,
                  "dependency must be an already-added task (got ", dep,
                  " for task ", id, ")");
        edges_.push_back(dep);
    }
    SO_ASSERT(edges_.size() <= std::numeric_limits<std::uint32_t>::max(),
              "edge pool overflow");
    dep_offsets_.push_back(static_cast<std::uint32_t>(edges_.size()));
    return id;
}

void
TaskGraph::finalizeDependents() const
{
    if (dependents_valid_)
        return;
    const std::size_t n = taskCount();
    dependent_offsets_.assign(n + 1, 0);
    for (TaskId id = 0; id < n; ++id)
        for (TaskId dep : deps(id))
            ++dependent_offsets_[dep + 1];
    for (std::size_t i = 1; i <= n; ++i)
        dependent_offsets_[i] += dependent_offsets_[i - 1];
    dependents_.resize(edges_.size());
    // Fill using offsets[dep] as the write cursor: each task id lands
    // in ascending order within its dependency's run. Afterwards
    // offsets[d] has advanced to the start of d+1, so one backward
    // shift restores the offset array.
    for (TaskId id = 0; id < n; ++id)
        for (TaskId dep : deps(id))
            dependents_[dependent_offsets_[dep]++] = id;
    for (std::size_t i = n; i > 0; --i)
        dependent_offsets_[i] = dependent_offsets_[i - 1];
    dependent_offsets_[0] = 0;
    dependents_valid_ = true;
}

void
TaskGraph::reserveTasks(std::size_t count)
{
    durations_.reserve(count);
    task_resource_.reserve(count);
    priorities_.reserve(count);
    stem_ids_.reserve(count);
    label_indices_.reserve(count);
    dep_offsets_.reserve(count + 1);
    dependent_offsets_.reserve(count + 1);
}

void
TaskGraph::reserveEdges(std::size_t count)
{
    edges_.reserve(count);
    dependents_.reserve(count);
}

const Resource &
TaskGraph::resource(ResourceId id) const
{
    SO_ASSERT(id < resources_.size(), "unknown resource ", id);
    return resources_[id];
}

std::string
TaskGraph::label(TaskId id) const
{
    std::string text(stem(id));
    if (const std::uint32_t index = label_indices_[id];
        index != Label::kNoIndex) {
        char digits[10];
        const auto [end, ec] =
            std::to_chars(digits, digits + sizeof digits, index);
        text.append(digits, end);
    }
    return text;
}

double
TaskGraph::totalWork(ResourceId resource) const
{
    double total = 0.0;
    for (TaskId id = 0; id < taskCount(); ++id) {
        if (task_resource_[id] == resource)
            total += durations_[id];
    }
    return total;
}

} // namespace so::sim
