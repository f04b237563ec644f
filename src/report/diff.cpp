#include "report/diff.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <map>
#include <system_error>

#include "common/json.h"

namespace so::report {

namespace {

/** Numeric member @p key of @p obj, or @p fallback when absent. */
double
numberOr(const JsonValue &obj, const std::string &key, double fallback)
{
    const JsonValue *v = obj.find(key);
    return v && v->isNumber() ? v->number() : fallback;
}

/** String member @p key of @p obj, or @p fallback when absent. */
std::string
textOr(const JsonValue &obj, const std::string &key,
       const std::string &fallback)
{
    const JsonValue *v = obj.find(key);
    return v && v->isString() ? v->text() : fallback;
}

/** Read array member @p key of @p obj, [{phase, <value_key>}], into
 *  @p out; an absent or wrong-typed member reads as empty. */
void
readPhases(const JsonValue &obj, const std::string &key,
           const std::string &value_key, std::vector<PhaseSlice> &out)
{
    const JsonValue *arr = obj.find(key);
    if (!arr || !arr->isArray())
        return;
    for (const JsonValue &item : arr->items())
        if (item.isObject())
            out.push_back(PhaseSlice{textOr(item, "phase", ""),
                                     numberOr(item, value_key, 0.0)});
}

/**
 * Read array member @p key of @p obj as per-resource busy and
 * idle-cause seconds into @p out. The idle-cause keys carry
 * @p cause_prefix: "idle_" in profile documents, none in results.
 */
void
readResources(const JsonValue &obj, const std::string &key,
              const std::string &cause_prefix,
              std::vector<ResourceSlice> &out)
{
    const JsonValue *arr = obj.find(key);
    if (!arr || !arr->isArray())
        return;
    for (const JsonValue &item : arr->items()) {
        if (!item.isObject())
            continue;
        ResourceSlice slice;
        slice.resource = textOr(item, "resource", "");
        slice.busy = numberOr(item, "busy_s", 0.0);
        slice.dependency = numberOr(item, cause_prefix + "dependency_s", 0.0);
        slice.contention = numberOr(item, cause_prefix + "contention_s", 0.0);
        slice.tail = numberOr(item, cause_prefix + "tail_s", 0.0);
        out.push_back(std::move(slice));
    }
}

/**
 * Read an "energy" subtree (profile or result document shape, see
 * docs/ENERGY.md) into the view's joule fields.
 */
void
readEnergy(const JsonValue &doc, ProfileView &out)
{
    const JsonValue *energy = doc.find("energy");
    if (!energy || !energy->isObject())
        return;
    out.has_energy = true;
    out.energy_j = numberOr(*energy, "total_j", 0.0);
    readPhases(*energy, "phases", "joules", out.energy_phases);
}

/**
 * View of a result document (runtime::toJson shape). Older records
 * lack the profile's own makespan_s; the critical-path length equals
 * it by the profiler invariant, so it is the fallback.
 */
bool
viewFromResultDoc(const JsonValue &doc, ProfileView &out,
                  std::string *error)
{
    const JsonValue *feasible = doc.find("feasible");
    if (feasible && feasible->isBool() && !feasible->boolean()) {
        if (error)
            *error = "result is infeasible (" +
                     textOr(doc, "infeasible_reason", "unknown") +
                     "): no schedule to profile";
        return false;
    }
    const JsonValue *profile = doc.find("profile");
    if (!profile || !profile->isObject()) {
        if (error)
            *error = "result has no profile section (rerun with "
                     "--profile / capture_profile)";
        return false;
    }
    out.makespan = numberOr(*profile, "makespan_s",
                            numberOr(*profile, "critical_length_s", 0.0));
    readPhases(*profile, "critical_phases", "seconds", out.phases);
    readResources(*profile, "idle", "", out.resources);
    readEnergy(doc, out);
    return true;
}

/** View of a standalone profile document (sim::profileToJson shape). */
bool
viewFromProfileDoc(const JsonValue &doc, ProfileView &out,
                   std::string *error)
{
    const JsonValue &cp = doc.at("critical_path");
    if (!cp.isObject()) {
        if (error)
            *error = "profile document's critical_path is not an object";
        return false;
    }
    out.makespan = numberOr(doc, "makespan_s", 0.0);
    readPhases(cp, "phases", "seconds", out.phases);
    readResources(doc, "resources", "idle_", out.resources);
    readEnergy(doc, out);
    return true;
}

/**
 * Select one cell of a sweep/bench record by @p selector: a decimal
 * index, a system name, or a tag (first match wins).
 */
const JsonValue *
selectCell(const JsonValue &cells, const std::string &selector,
           std::string *label, std::string *error)
{
    const std::vector<JsonValue> &items = cells.items();
    if (selector.empty()) {
        if (error)
            *error = "record has " + std::to_string(items.size()) +
                     " cells: select one with --cell INDEX|SYSTEM|TAG";
        return nullptr;
    }
    const bool numeric =
        !selector.empty() &&
        std::all_of(selector.begin(), selector.end(), [](char c) {
            return std::isdigit(static_cast<unsigned char>(c));
        });
    if (numeric) {
        // An index too large for size_t is out of range like any other.
        std::size_t index = 0;
        const auto parsed = std::from_chars(
            selector.data(), selector.data() + selector.size(), index);
        if (parsed.ec != std::errc() || index >= items.size()) {
            if (error)
                *error = "cell index " + selector + " out of range (" +
                         std::to_string(items.size()) + " cells)";
            return nullptr;
        }
        const JsonValue &cell = items[index];
        if (!cell.isObject()) {
            if (error)
                *error = "cell " + selector + " is not an object";
            return nullptr;
        }
        *label = textOr(cell, "system", "cell " + selector);
        return &cell;
    }
    for (const JsonValue &cell : items) {
        if (!cell.isObject())
            continue;
        if (textOr(cell, "system", "") == selector ||
            textOr(cell, "tag", "") == selector) {
            *label = selector;
            return &cell;
        }
    }
    if (error)
        *error = "no cell with system or tag '" + selector + "'";
    return nullptr;
}

/**
 * Diff two phase lists over the union of their names (duplicate names
 * accumulate) into @p out, largest |delta| first; returns the sum of
 * the deltas.
 */
double
diffPhases(const std::vector<PhaseSlice> &before,
           const std::vector<PhaseSlice> &after,
           std::vector<PhaseDelta> &out)
{
    std::map<std::string, PhaseDelta> merged;
    auto entry = [&](const std::string &phase) -> PhaseDelta & {
        const auto [it, fresh] = merged.try_emplace(phase);
        if (fresh) {
            it->second.phase = phase;
            it->second.appeared = true;
            it->second.vanished = true;
        }
        return it->second;
    };
    for (const PhaseSlice &slice : before) {
        PhaseDelta &delta = entry(slice.phase);
        delta.before += slice.seconds;
        delta.appeared = false;
    }
    for (const PhaseSlice &slice : after) {
        PhaseDelta &delta = entry(slice.phase);
        delta.after += slice.seconds;
        delta.vanished = false;
    }
    double attributed = 0.0;
    for (auto &[phase, delta] : merged) {
        delta.delta = delta.after - delta.before;
        attributed += delta.delta;
        out.push_back(std::move(delta));
    }
    std::sort(out.begin(), out.end(),
              [](const PhaseDelta &a, const PhaseDelta &b) {
                  const double ma = std::abs(a.delta);
                  const double mb = std::abs(b.delta);
                  if (ma != mb)
                      return ma > mb;
                  return a.phase < b.phase;
              });
    return attributed;
}

std::string
formatSeconds(double s)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%+.6f", s);
    return buf;
}

} // namespace

ProfileView
viewFromProfile(const sim::ProfileTotals &profile, std::string label,
                const sim::EnergyTotals *energy)
{
    ProfileView view;
    view.label = std::move(label);
    view.makespan = profile.makespan;
    view.phases.reserve(profile.critical_phases.size());
    for (const auto &[phase, seconds] : profile.critical_phases)
        view.phases.push_back(PhaseSlice{phase, seconds});
    view.resources.reserve(profile.resources.size());
    for (std::size_t r = 0; r < profile.resources.size(); ++r) {
        const sim::ResourceProfile &rp = profile.resources[r];
        ResourceSlice slice;
        slice.resource = r < profile.resource_names.size()
                             ? profile.resource_names[r]
                             : "resource " + std::to_string(r);
        slice.busy = rp.busy;
        slice.dependency = rp.idle_dependency;
        slice.contention = rp.idle_contention;
        slice.tail = rp.idle_tail;
        view.resources.push_back(std::move(slice));
    }
    if (energy != nullptr && energy->valid) {
        view.has_energy = true;
        view.energy_j = energy->total_j;
        view.energy_phases.reserve(energy->phases.size());
        for (const auto &[phase, joules] : energy->phases)
            view.energy_phases.push_back(PhaseSlice{phase, joules});
    }
    return view;
}

ProfileView
viewFromIteration(const runtime::IterationResult &result,
                  std::string label)
{
    return viewFromProfile(result.profile, std::move(label),
                           &result.energy);
}

bool
viewFromJson(const JsonValue &doc, ProfileView &out, std::string *error,
             const std::string &cell)
{
    if (!doc.isObject()) {
        if (error)
            *error = "document is not a JSON object";
        return false;
    }
    // Standalone profile document (sim::profileToJson).
    if (doc.find("makespan_s") && doc.find("critical_path"))
        return viewFromProfileDoc(doc, out, error);
    // Planner report (core::toJson): the profile sits in `iteration`.
    if (const JsonValue *iteration = doc.find("iteration"))
        if (iteration->isObject())
            return viewFromResultDoc(*iteration, out, error);
    // Sweep / bench record: pick one cell, then read its result.
    if (const JsonValue *cells = doc.find("cells")) {
        if (cells->isArray()) {
            std::string label;
            const JsonValue *selected =
                selectCell(*cells, cell, &label, error);
            if (!selected)
                return false;
            const JsonValue *result = selected->find("result");
            if (!result || !result->isObject()) {
                if (error)
                    *error = "cell '" + cell + "' has no result";
                return false;
            }
            if (out.label.empty())
                out.label = label;
            return viewFromResultDoc(*result, out, error);
        }
    }
    // Bare result document (runtime::toJson).
    if (doc.find("feasible"))
        return viewFromResultDoc(doc, out, error);
    if (error)
        *error = "unrecognized document: expected a profile, result, "
                 "report, or sweep/bench record";
    return false;
}

ProfileDiff
diffProfiles(const ProfileView &before, const ProfileView &after)
{
    ProfileDiff diff;
    diff.before_label = before.label;
    diff.after_label = after.label;
    diff.makespan_before = before.makespan;
    diff.makespan_after = after.makespan;
    diff.makespan_delta = after.makespan - before.makespan;

    // Exact by construction: whatever the phase deltas miss of the
    // makespan delta lands here (≈0 for profiler-produced inputs,
    // where each side's phases sum to its makespan).
    diff.unattributed = diff.makespan_delta -
                        diffPhases(before.phases, after.phases, diff.phases);

    // Resource idle-cause deltas over the union of resource names,
    // before-side order first, then after-only resources.
    std::map<std::string, ResourceSlice> before_res, after_res;
    for (const ResourceSlice &slice : before.resources)
        before_res[slice.resource] = slice;
    for (const ResourceSlice &slice : after.resources)
        after_res[slice.resource] = slice;
    auto push_delta = [&](const std::string &name) {
        const ResourceSlice zero{name, 0.0, 0.0, 0.0, 0.0};
        const auto bit = before_res.find(name);
        const auto ait = after_res.find(name);
        const ResourceSlice &b =
            bit != before_res.end() ? bit->second : zero;
        const ResourceSlice &a =
            ait != after_res.end() ? ait->second : zero;
        ResourceDelta delta;
        delta.resource = name;
        delta.busy = a.busy - b.busy;
        delta.dependency = a.dependency - b.dependency;
        delta.contention = a.contention - b.contention;
        delta.tail = a.tail - b.tail;
        diff.resources.push_back(std::move(delta));
    };
    for (const ResourceSlice &slice : before.resources)
        push_delta(slice.resource);
    for (const ResourceSlice &slice : after.resources)
        if (!before_res.count(slice.resource))
            push_delta(slice.resource);

    // Energy attribution mirrors the makespan attribution: phase deltas
    // over the union of names, residual exact by construction. Energy
    // phases hold the *active* joules, so the residual is exactly the
    // idle + background joule change.
    if (before.has_energy && after.has_energy) {
        diff.has_energy = true;
        diff.energy_before_j = before.energy_j;
        diff.energy_after_j = after.energy_j;
        diff.energy_delta_j = after.energy_j - before.energy_j;
        diff.energy_unattributed_j =
            diff.energy_delta_j - diffPhases(before.energy_phases,
                                             after.energy_phases,
                                             diff.energy_phases);
    }
    return diff;
}

std::string
diffToText(const ProfileDiff &diff)
{
    std::string out;
    char line[256];
    std::snprintf(line, sizeof(line), "schedule diff: %s -> %s\n",
                  diff.before_label.c_str(), diff.after_label.c_str());
    out += line;
    const double pct =
        diff.makespan_before > 0.0
            ? 100.0 * diff.makespan_delta / diff.makespan_before
            : 0.0;
    std::snprintf(line, sizeof(line),
                  "  makespan %.6f s -> %.6f s  (delta %s s, %+.2f%%)\n",
                  diff.makespan_before, diff.makespan_after,
                  formatSeconds(diff.makespan_delta).c_str(), pct);
    out += line;
    out += "  phase contributions to the delta (signed; contributions "
           "+ residual = delta):\n";
    std::snprintf(line, sizeof(line), "    %-20s %12s %12s %12s  %s\n",
                  "phase", "before_s", "after_s", "delta_s", "note");
    out += line;
    for (const PhaseDelta &phase : diff.phases) {
        const char *note = phase.appeared   ? "appeared"
                           : phase.vanished ? "vanished"
                                            : "";
        std::snprintf(line, sizeof(line),
                      "    %-20s %12.6f %12.6f %12s  %s\n",
                      phase.phase.c_str(), phase.before, phase.after,
                      formatSeconds(phase.delta).c_str(), note);
        out += line;
    }
    std::snprintf(line, sizeof(line),
                  "    %-20s %12s %12s %12s\n", "(unattributed)", "",
                  "", formatSeconds(diff.unattributed).c_str());
    out += line;
    if (!diff.resources.empty()) {
        out += "  idle-cause deltas per resource (after - before, "
               "seconds):\n";
        std::snprintf(line, sizeof(line),
                      "    %-12s %12s %12s %12s %12s\n", "resource",
                      "busy", "dependency", "contention", "tail");
        out += line;
        for (const ResourceDelta &res : diff.resources) {
            std::snprintf(line, sizeof(line),
                          "    %-12s %12s %12s %12s %12s\n",
                          res.resource.c_str(),
                          formatSeconds(res.busy).c_str(),
                          formatSeconds(res.dependency).c_str(),
                          formatSeconds(res.contention).c_str(),
                          formatSeconds(res.tail).c_str());
            out += line;
        }
    }
    if (diff.has_energy) {
        const double epct =
            diff.energy_before_j > 0.0
                ? 100.0 * diff.energy_delta_j / diff.energy_before_j
                : 0.0;
        std::snprintf(line, sizeof(line),
                      "  energy %.3f J -> %.3f J  (delta %+.3f J, "
                      "%+.2f%%)\n",
                      diff.energy_before_j, diff.energy_after_j,
                      diff.energy_delta_j, epct);
        out += line;
        out += "  phase contributions to the energy delta (active "
               "joules; residual = idle + background change):\n";
        std::snprintf(line, sizeof(line),
                      "    %-20s %12s %12s %12s  %s\n", "phase",
                      "before_j", "after_j", "delta_j", "note");
        out += line;
        for (const PhaseDelta &phase : diff.energy_phases) {
            const char *note = phase.appeared   ? "appeared"
                               : phase.vanished ? "vanished"
                                                : "";
            std::snprintf(line, sizeof(line),
                          "    %-20s %12.3f %12.3f %+12.3f  %s\n",
                          phase.phase.c_str(), phase.before,
                          phase.after, phase.delta, note);
            out += line;
        }
        std::snprintf(line, sizeof(line),
                      "    %-20s %12s %12s %+12.3f  %s\n",
                      "(idle+background)", "", "",
                      diff.energy_unattributed_j, "");
        out += line;
    }
    return out;
}

std::string
diffToJson(const ProfileDiff &diff)
{
    JsonWriter json;
    json.beginObject();
    json.key("before").beginObject();
    json.field("label", diff.before_label);
    json.field("makespan_s", diff.makespan_before);
    json.endObject();
    json.key("after").beginObject();
    json.field("label", diff.after_label);
    json.field("makespan_s", diff.makespan_after);
    json.endObject();
    json.field("makespan_delta_s", diff.makespan_delta);
    json.key("phases").beginArray();
    for (const PhaseDelta &phase : diff.phases) {
        json.beginObject();
        json.field("phase", phase.phase);
        json.field("before_s", phase.before);
        json.field("after_s", phase.after);
        json.field("delta_s", phase.delta);
        json.field("share",
                   diff.makespan_delta != 0.0
                       ? phase.delta / diff.makespan_delta
                       : 0.0);
        if (phase.appeared)
            json.field("appeared", true);
        if (phase.vanished)
            json.field("vanished", true);
        json.endObject();
    }
    json.endArray();
    json.field("unattributed_s", diff.unattributed);
    json.key("resources").beginArray();
    for (const ResourceDelta &res : diff.resources) {
        json.beginObject();
        json.field("resource", res.resource);
        json.field("busy_delta_s", res.busy);
        json.field("dependency_delta_s", res.dependency);
        json.field("contention_delta_s", res.contention);
        json.field("tail_delta_s", res.tail);
        json.endObject();
    }
    json.endArray();
    if (diff.has_energy) {
        json.key("energy").beginObject();
        json.field("before_j", diff.energy_before_j);
        json.field("after_j", diff.energy_after_j);
        json.field("delta_j", diff.energy_delta_j);
        json.key("phases").beginArray();
        for (const PhaseDelta &phase : diff.energy_phases) {
            json.beginObject();
            json.field("phase", phase.phase);
            json.field("before_j", phase.before);
            json.field("after_j", phase.after);
            json.field("delta_j", phase.delta);
            json.field("share",
                       diff.energy_delta_j != 0.0
                           ? phase.delta / diff.energy_delta_j
                           : 0.0);
            if (phase.appeared)
                json.field("appeared", true);
            if (phase.vanished)
                json.field("vanished", true);
            json.endObject();
        }
        json.endArray();
        json.field("unattributed_j", diff.energy_unattributed_j);
        json.endObject();
    }
    json.endObject();
    return json.str();
}

} // namespace so::report
