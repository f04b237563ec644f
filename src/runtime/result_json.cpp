#include "runtime/result_json.h"

#include "common/json.h"
#include "common/schema.h"
#include "common/trace.h"

namespace so::runtime {

void
writeIterationJson(JsonWriter &json, const IterationResult &result)
{
    trace::Span span(trace::Category::Serialize, "iteration-json");
    json.beginObject();
    json.field("schema_version", kSchemaVersion);
    json.field("feasible", result.feasible);
    if (!result.feasible) {
        json.field("infeasible_reason", result.infeasible_reason);
        json.endObject();
        return;
    }
    json.field("iter_time_s", result.iter_time);
    json.field("tflops_per_gpu", result.tflopsPerGpu());
    json.field("micro_batch", result.micro_batch);
    json.field("accum_steps", result.accum_steps);
    json.field("activation_checkpointing",
               result.activation_checkpointing);
    json.field("gpu_utilization", result.gpu_utilization);
    json.field("cpu_utilization", result.cpu_utilization);
    json.field("link_utilization", result.link_utilization);
    json.key("memory").beginObject();
    json.field("gpu_bytes", result.memory.gpu_bytes);
    json.field("gpu_capacity", result.memory.gpu_capacity);
    json.field("cpu_bytes", result.memory.cpu_bytes);
    json.field("cpu_capacity", result.memory.cpu_capacity);
    if (result.memory.nvme_bytes > 0.0) {
        json.field("nvme_bytes", result.memory.nvme_bytes);
        json.field("nvme_capacity", result.memory.nvme_capacity);
    }
    if (!result.memory.tiers.empty()) {
        json.key("tiers").beginArray();
        for (const TierUsage &tier : result.memory.tiers) {
            json.beginObject();
            json.field("tier", tier.tier);
            json.field("description", tier.description);
            json.field("bytes", tier.bytes);
            json.field("capacity", tier.capacity);
            json.endObject();
        }
        json.endArray();
    }
    json.endObject();
    if (!result.tier_traffic.empty()) {
        json.key("tier_traffic").beginArray();
        for (const IterationResult::TierTraffic &traffic :
             result.tier_traffic) {
            json.beginObject();
            json.field("from", traffic.from);
            json.field("to", traffic.to);
            json.field("channel", traffic.channel);
            json.field("bytes", traffic.bytes);
            json.endObject();
        }
        json.endArray();
    }
    json.field("model_flops", result.flops.modelFlops());
    json.field("executed_flops", result.flops.executedFlops());
    if (result.profile.valid) {
        const ProfileSummary &p = result.profile;
        json.key("profile").beginObject();
        json.field("makespan_s", p.makespan);
        json.field("critical_length_s", p.critical_length);
        json.key("critical_phases").beginArray();
        for (const auto &[phase, seconds] : p.critical_phases) {
            json.beginObject();
            json.field("phase", phase);
            json.field("seconds", seconds);
            json.field("share", p.critical_length > 0.0
                                    ? seconds / p.critical_length
                                    : 0.0);
            json.endObject();
        }
        json.endArray();
        json.key("hot_tasks").beginArray();
        for (const std::string &label : p.hot_tasks)
            json.value(label);
        json.endArray();
        json.key("idle").beginArray();
        for (std::size_t r = 0; r < p.resources.size(); ++r) {
            const sim::ResourceProfile &rp = p.resources[r];
            json.beginObject();
            json.field("resource", p.resource_names[r]);
            json.field("busy_s", rp.busy);
            json.field("dependency_s", rp.idle_dependency);
            json.field("contention_s", rp.idle_contention);
            json.field("tail_s", rp.idle_tail);
            json.endObject();
        }
        json.endArray();
        json.endObject();
    }
    if (result.energy.valid) {
        // Joule accounting (docs/ENERGY.md). Key suffixes matter to the
        // bench guard: *_j gates lower-is-better, *_w stays exempt.
        const EnergySummary &e = result.energy;
        json.key("energy").beginObject();
        json.field("total_j", e.total_j);
        json.field("active_j", e.active_j);
        json.field("idle_j", e.idle_j);
        json.field("background_j", e.background_j);
        json.field("avg_w", e.avg_w);
        json.field("iter_j", e.iter_j);
        json.field("token_j", e.token_j);
        if (!e.phases.empty()) {
            json.key("phases").beginArray();
            for (const auto &[phase, joules] : e.phases) {
                json.beginObject();
                json.field("phase", phase);
                json.field("joules", joules);
                json.field("share",
                           e.active_j > 0.0 ? joules / e.active_j : 0.0);
                json.endObject();
            }
            json.endArray();
        }
        json.key("resources").beginArray();
        for (std::size_t r = 0; r < e.resources.size(); ++r) {
            const sim::ResourceEnergy &re = e.resources[r];
            json.beginObject();
            json.field("resource", e.resource_names[r]);
            json.field("busy_w", re.busy_w);
            json.field("idle_w", re.idle_w);
            json.field("busy_j", re.busy_j);
            json.field("transfer_j", re.transfer_j);
            json.field("idle_j", re.idle_j);
            // The idle-cause split comes from the profile; without one
            // it was never measured, and a 0 would claim it was.
            if (result.profile.valid) {
                json.field("idle_dependency_j", re.idle_dependency_j);
                json.field("idle_contention_j", re.idle_contention_j);
                json.field("idle_tail_j", re.idle_tail_j);
            }
            json.endObject();
        }
        json.endArray();
        if (!e.background.empty()) {
            json.key("background").beginArray();
            for (const auto &[name, joules] : e.background) {
                json.beginObject();
                json.field("name", name);
                json.field("joules", joules);
                json.endObject();
            }
            json.endArray();
        }
        json.endObject();
    }
    if (!result.extras.empty()) {
        json.key("extras").beginObject();
        for (const auto &[key, value] : result.extras)
            json.field(key, value);
        json.endObject();
    }
    if (!result.notes.empty())
        json.field("notes", result.notes);
    json.endObject();
}

std::string
toJson(const IterationResult &result)
{
    JsonWriter json;
    writeIterationJson(json, result);
    return json.str();
}

} // namespace so::runtime
