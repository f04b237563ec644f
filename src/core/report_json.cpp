#include "core/report_json.h"

#include "common/json.h"
#include "runtime/result_json.h"

namespace so::core {

std::string
toJson(const PlanReport &report, const runtime::TrainSetup &setup)
{
    JsonWriter json;
    json.beginObject();

    json.key("setup").beginObject();
    json.field("model", setup.model.name);
    json.field("layers", setup.model.layers);
    json.field("hidden", setup.model.hidden);
    json.field("params", setup.model.params());
    json.field("superchips", setup.cluster.totalSuperchips());
    json.field("global_batch", setup.global_batch);
    json.field("seq", setup.seq);
    json.field("binding", setup.binding == hw::NumaBinding::Colocated
                              ? "colocated"
                              : "remote");
    json.endObject();

    json.field("feasible", report.feasible);
    if (report.feasible) {
        json.key("plan").beginObject();
        json.field("placement", placementName(report.placement));
        json.field("bucket_count", report.buckets.count);
        json.field("bucket_bytes", report.buckets.bucket_bytes);
        json.field("retained_buckets", report.retained_buckets);
        json.field("cast_strategy",
                   castStrategyName(report.cast_strategy));
        json.field("optimizer",
                   report.adam_impl == hw::AdamImpl::GraceAdam
                       ? "GraceAdam"
                       : "CPU-Adam");
        json.endObject();
    } else {
        json.field("infeasible_reason", report.infeasible_reason);
    }

    json.key("iteration");
    runtime::writeIterationJson(json, report.iteration);

    json.endObject();
    return json.str();
}

} // namespace so::core
