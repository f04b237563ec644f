/**
 * @file
 * JSON serialization of iteration results and plan reports, for
 * dashboards and downstream tooling (the `superoffload_planner --json`
 * output format).
 */
#ifndef SO_CORE_REPORT_JSON_H
#define SO_CORE_REPORT_JSON_H

#include <string>

#include "core/engine.h"
#include "runtime/system.h"

namespace so::core {

/** Serialize the full plan (decisions + iteration) for @p setup. */
std::string toJson(const PlanReport &report,
                   const runtime::TrainSetup &setup);

} // namespace so::core

#endif // SO_CORE_REPORT_JSON_H
