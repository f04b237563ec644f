#include "sim/graph.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"

namespace so::sim {

namespace {

/** FNV-1a over the label bytes; cheap and stable across platforms. */
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

TaskGraph::LabelRef
TaskGraph::internLabel(std::string_view label)
{
    if (label.empty())
        return LabelRef{0, 0};
    const std::uint64_t hash = hashBytes(label);
    const auto hit = label_intern_.find(hash);
    if (hit != label_intern_.end()) {
        const LabelRef &ref = hit->second;
        if (ref.length == label.size() &&
            std::memcmp(label_arena_.data() + ref.offset, label.data(),
                        label.size()) == 0)
            return ref;
        // Hash collision between distinct labels: fall through and
        // store the new bytes (the table keeps the first entry).
    }
    SO_ASSERT(label_arena_.size() + label.size() <=
                  std::numeric_limits<std::uint32_t>::max(),
              "label arena overflow");
    const LabelRef ref{static_cast<std::uint32_t>(label_arena_.size()),
                       static_cast<std::uint32_t>(label.size())};
    label_arena_.append(label);
    if (hit == label_intern_.end())
        label_intern_.emplace(hash, ref);
    return ref;
}

TaskId
TaskGraph::addTask(ResourceId resource, double duration,
                   std::string_view label, DepView deps,
                   std::int32_t priority)
{
    SO_ASSERT(resource < resources_.size(),
              "task references unknown resource ", resource);
    SO_ASSERT(duration >= 0.0, "negative task duration: ", duration);
    const auto id = static_cast<TaskId>(durations_.size());
    for (TaskId dep : deps) {
        SO_ASSERT(dep < id,
                  "dependency must be an already-added task (got ", dep,
                  " for task ", id, ")");
    }
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
    labels_.push_back(internLabel(label));
    dependents_valid_ = false;
    DepRef ref;
    ref.begin = static_cast<std::uint32_t>(edges_.size());
    ref.count = static_cast<std::uint32_t>(deps.size());
    edges_.insert(edges_.end(), deps.begin(), deps.end());
    dep_refs_.push_back(ref);
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

std::span<const TaskId>
TaskGraph::dependents(TaskId id) const
{
    SO_ASSERT(id < taskCount(), "unknown task ", id);
    if (!dependents_valid_)
        finalizeDependents();
    return std::span<const TaskId>(
        dependents_.data() + dependent_offsets_[id],
        dependent_offsets_[id + 1] - dependent_offsets_[id]);
}

void
TaskGraph::reserveTasks(std::size_t count, std::size_t label_bytes)
{
    durations_.reserve(count);
    task_resource_.reserve(count);
    priorities_.reserve(count);
    labels_.reserve(count);
    dep_refs_.reserve(count);
    dependent_offsets_.reserve(count + 1);
    if (label_bytes > 0)
        label_arena_.reserve(label_bytes);
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

std::string_view
TaskGraph::label(TaskId id) const
{
    SO_ASSERT(id < taskCount(), "unknown task ", id);
    const LabelRef &ref = labels_[id];
    return std::string_view(label_arena_).substr(ref.offset, ref.length);
}

double
TaskGraph::duration(TaskId id) const
{
    SO_ASSERT(id < taskCount(), "unknown task ", id);
    return durations_[id];
}

ResourceId
TaskGraph::taskResource(TaskId id) const
{
    SO_ASSERT(id < taskCount(), "unknown task ", id);
    return task_resource_[id];
}

std::int32_t
TaskGraph::priority(TaskId id) const
{
    SO_ASSERT(id < taskCount(), "unknown task ", id);
    return priorities_[id];
}

std::span<const TaskId>
TaskGraph::deps(TaskId id) const
{
    SO_ASSERT(id < taskCount(), "unknown task ", id);
    const DepRef &ref = dep_refs_[id];
    return std::span<const TaskId>(edges_.data() + ref.begin, ref.count);
}

std::size_t
TaskGraph::depCount(TaskId id) const
{
    SO_ASSERT(id < taskCount(), "unknown task ", id);
    return dep_refs_[id].count;
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
