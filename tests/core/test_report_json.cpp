#include "core/report_json.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "runtime/result_json.h"

namespace so::core {
namespace {

runtime::TrainSetup
setupFor(const char *model)
{
    runtime::TrainSetup setup;
    setup.cluster = hw::gh200Single();
    setup.model = model::modelPreset(model);
    setup.global_batch = 8;
    setup.seq = 1024;
    return setup;
}

TEST(ReportJson, FeasiblePlanContainsAllSections)
{
    SuperOffloadEngine engine;
    const runtime::TrainSetup setup = setupFor("5B");
    const PlanReport report = engine.plan(setup);
    ASSERT_TRUE(report.feasible);
    const std::string json = toJson(report, setup);
    for (const char *needle :
         {"\"setup\":", "\"model\":\"5B\"", "\"plan\":",
          "\"placement\":", "\"cast_strategy\":", "\"iteration\":",
          "\"tflops_per_gpu\":", "\"feasible\":true", "\"memory\":"}) {
        EXPECT_NE(json.find(needle), std::string::npos) << needle;
    }
    // Balanced braces (cheap well-formedness check).
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
}

TEST(ReportJson, InfeasiblePlanCarriesReason)
{
    SuperOffloadEngine engine;
    const runtime::TrainSetup setup = setupFor("50B");
    const PlanReport report = engine.plan(setup);
    ASSERT_FALSE(report.feasible);
    const std::string json = toJson(report, setup);
    EXPECT_NE(json.find("\"feasible\":false"), std::string::npos);
    EXPECT_NE(json.find("\"infeasible_reason\":"), std::string::npos);
    EXPECT_EQ(json.find("\"plan\":"), std::string::npos);
}

TEST(ReportJson, IterationResultStandalone)
{
    SuperOffloadSystem sys;
    const auto res = sys.run(setupFor("5B"));
    const std::string json = runtime::toJson(res);
    EXPECT_NE(json.find("\"iter_time_s\":"), std::string::npos);
    EXPECT_NE(json.find("\"gpu_utilization\":"), std::string::npos);
    // No NVMe section when the system does not use the tier.
    EXPECT_EQ(json.find("\"nvme_bytes\""), std::string::npos);
}

TEST(ReportJson, NotesSurviveSerialization)
{
    SuperOffloadSystem sys;
    const auto res = sys.run(setupFor("5B"));
    ASSERT_TRUE(res.feasible);
    const std::string json = runtime::toJson(res);
    EXPECT_NE(json.find("retained="), std::string::npos);
}

} // namespace
} // namespace so::core
